"""Levenshtein alignment and WER/CER scoring.

Alignment is a bit-parallel Levenshtein DP (Myers 1999, in Hyyrö's 2004
global form, with a backtrace): each hypothesis token updates a whole
column of the cost table in a few integer operations, whatever the
reference length.  Every step keeps its ints non-negative (XOR with the
row mask stands in for bitwise NOT), which CPython handles faster.  It
uses unit costs with a fixed backtrace preference (hit > substitute >
delete > insert) so that error decompositions and confusion counts are
identical across runs and platforms.  A pair of equal tokens always
leaves the cost unchanged on the diagonal, so the backtrace takes it as a
hit without reading the bit columns; only the other moves read them.

Alignment and scoring are pure Python and never load numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "HIT",
    "SUBSTITUTE",
    "DELETE",
    "INSERT",
    "Alignment",
    "ScoreReport",
    "align",
    "score",
    "normalize_arabic",
]

HIT = "hit"
SUBSTITUTE = "substitute"
DELETE = "delete"
INSERT = "insert"


@dataclass
class Alignment:
    """An edit script between a reference and a hypothesis.

    ops is a list of (kind, ref_token, hyp_token); hits and substitutions
    carry both tokens, deletions only the reference token, insertions only
    the hypothesis token.
    """

    ops: list[tuple[str, object, object]]
    distance: int

    def counts(self) -> tuple[int, int, int, int]:
        """(hits, substitutions, deletions, insertions)."""
        hits = subs = dels = inss = 0
        for kind, _, _ in self.ops:
            if kind is HIT:
                hits += 1
            elif kind is SUBSTITUTE:
                subs += 1
            elif kind is DELETE:
                dels += 1
            else:
                inss += 1
        return hits, subs, dels, inss


def align(ref, hyp) -> Alignment:
    """Minimum-edit alignment of two token sequences under unit costs.

    Tokens must be hashable: two tokens match when they are equal as dict
    keys, that is the same object or equal under == (so a NaN matches only
    itself, and 1 matches 1.0).  Ties during backtrace prefer hit, then
    substitute, then delete, then insert.
    """
    # peq[t] has bit i-1 set where ref[i-1] matches t
    peq: dict = {}
    bit = 1
    for tok in ref:
        peq[tok] = peq.get(tok, 0) | bit
        bit <<= 1
    mask = bit - 1
    # Column j of the cost table d, one bit per row (Myers 1999, in Hyyrö's
    # 2004 global form): bit i-1 of vp/vn is set where d[i][j] - d[i-1][j]
    # is +1/-1, bit i of hp/hn where d[i][j] - d[i][j-1] is; the top row's
    # +1 is shifted into bit 0 of hp.  mask ^ y equals ~y on the bits below
    # mask, the only ones read, and stays a non-negative int, whose bitwise
    # ops are cheaper; no step carries bits above mask down into them.
    vp, vn = mask, 0
    cols = [None]
    for tok in hyp:
        eq = peq.get(tok, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = (vn | mask ^ (xh | vp)) << 1 | 1
        hn = (vp & xh) << 1
        vp = (hn | mask ^ (xv | hp)) & mask
        vn = hp & xv
        cols.append((vp, vn, hp, hn))

    i, j = len(ref), len(hyp)
    cur = distance = j + vp.bit_count() - vn.bit_count()  # d[m][n]
    ops: list[tuple[str, object, object]] = []
    while i and j:
        r = ref[i - 1]
        h = hyp[j - 1]
        if r is h or r == h:
            # tokens equal as dict keys force d[i][j] == d[i-1][j-1], so a
            # hit is taken without reading the columns
            ops.append((HIT, r, h))
            i -= 1
            j -= 1
            continue
        vp, vn, hp, hn = cols[j]
        b = 1 << (i - 1)
        up = cur - 1 if vp & b else cur + 1 if vn & b else cur  # d[i-1][j]
        diag = up - 1 if hp & b else up + 1 if hn & b else up  # d[i-1][j-1]
        if diag + 1 == cur:
            ops.append((SUBSTITUTE, r, h))
            i -= 1
            j -= 1
        elif up + 1 == cur:
            ops.append((DELETE, r, None))
            i -= 1
        else:  # the only move left, so d[i][j-1] == cur - 1
            ops.append((INSERT, None, h))
            j -= 1
        cur -= 1
    while i:
        i -= 1
        ops.append((DELETE, ref[i], None))
    while j:
        j -= 1
        ops.append((INSERT, None, hyp[j]))
    ops.reverse()
    return Alignment(ops=ops, distance=distance)


@dataclass
class ScoreReport:
    """Corpus-level error counts; error_rate may exceed 1 when insertions
    outnumber reference tokens."""

    substitutions: int
    insertions: int
    deletions: int
    hits: int
    ref_length: int

    @property
    def error_rate(self) -> float:
        return (self.substitutions + self.insertions + self.deletions) / self.ref_length

    def __add__(self, other: "ScoreReport") -> "ScoreReport":
        return ScoreReport(
            substitutions=self.substitutions + other.substitutions,
            insertions=self.insertions + other.insertions,
            deletions=self.deletions + other.deletions,
            hits=self.hits + other.hits,
            ref_length=self.ref_length + other.ref_length,
        )


# str.translate deletes Arabic tatweel and the combining harakat/tanwin range
_ARABIC_STRIP = dict.fromkeys([0x0640, *range(0x064B, 0x0653)])


def normalize_arabic(text: str) -> str:
    """Strip tatweel and short-vowel diacritics; other characters pass through."""
    return text.translate(_ARABIC_STRIP)


def _tokens(text: str, unit: str):
    if unit == "word":
        return text.split()
    # collapse whitespace runs so formatting noise never counts as errors
    return " ".join(text.split())


def _alignments(pairs, unit: str, arabic_normalization: bool):
    """Yield (ref tokens, alignment) per (ref, hyp) pair; a bad unit raises first."""
    if unit not in ("word", "char"):
        raise ValueError(f"unit must be 'word' or 'char', got {unit!r}")
    for ref_text, hyp_text in pairs:
        if arabic_normalization:
            ref_text = normalize_arabic(ref_text)
            hyp_text = normalize_arabic(hyp_text)
        ref = _tokens(ref_text, unit)
        yield ref, align(ref, _tokens(hyp_text, unit))


def score(pairs, unit: str = "word", arabic_normalization: bool = False) -> ScoreReport:
    """Aggregate WER (unit='word') or CER (unit='char') over (ref, hyp) pairs."""
    total = ScoreReport(0, 0, 0, 0, 0)
    for ref, alignment in _alignments(pairs, unit, arabic_normalization):
        hits, subs, dels, inss = alignment.counts()
        total = total + ScoreReport(subs, inss, dels, hits, len(ref))
    if total.ref_length == 0:
        raise ValueError("cannot score: every reference is empty")
    return total
