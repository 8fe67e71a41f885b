"""Levenshtein alignment and WER/CER scoring.

Alignment is a bit-parallel Levenshtein DP (Myers 1999, in Hyyrö's 2004
global form, with a backtrace).  One column step, `_columns`, serves every
alignment: each hypothesis token updates a whole column of the cost table
in a few operations on non-negative ints, whatever the reference length.
Costs are unit, and one fixed rule breaks backtrace ties, hit >
substitute > delete > insert, so error decompositions and confusion
counts are identical across runs and platforms.  A pair of equal tokens
always leaves the cost unchanged on the diagonal, so the backtrace takes
it as a hit without reading the bit columns; only the other moves read
them.

`align` and word pairs run the step on one table, its rows from bit 0.
Character pairs (`score` with unit='char', and `build_confusion`) run it on
many tables at once, after Hyyrö, Fredriksson & Navarro (ACM JEA 2005):
consecutive pairs share one step, each in its own byte-aligned lane of
bits at its own offset, with at least one guard bit above its rows, so no
carry or shift crosses from one lane into the next.  The step's `lows`
holds the first row bit of every lane (1 for a single table), and the
backtrace reads a pair's rows, and so its distance, from its lane's
offset.  `_passes` alone plans the passes, once, as the pairs stream in:
a pass holds at most _LANE_BITS = 4096 bits of lanes, and its column step
costs at most twice what its pairs cost alone, so one long hypothesis does
not drag short pairs through its columns.  Input is read at most one pass
ahead, so memory does not grow with the corpus.  Word pairs are aligned
one at a time: a pass of 5-20-word pairs measured about 0.9x the speed of
`align` per pair, as a word pair has too few columns to repay its lane.

`score` and `build_confusion` never build an `Alignment` and never call
`align`.  Their backtrace takes the same moves but records only the
substitutions, deletions and insertions; hits, most of the moves, are
walked over.  Every reference token is a hit, a substitution or a
deletion, so `score` takes hits = len(ref) - S - D, and `build_confusion`
takes a character's hits as its count in the references less its
substitutions and deletions.

Alignment and scoring are pure Python and never load numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

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

# the most lane bits one pass of _align_lanes holds
_LANE_BITS = 4096


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
            if kind == HIT:
                hits += 1
            elif kind == SUBSTITUTE:
                subs += 1
            elif kind == DELETE:
                dels += 1
            else:
                inss += 1
        return hits, subs, dels, inss


def _match_bits(ref) -> dict:
    """peq[t] has bit i-1 set where ref[i-1] matches t."""
    peq: dict = {}
    bit = 1
    for tok in ref:
        peq[tok] = peq.get(tok, 0) | bit
        bit <<= 1
    return peq


def align(ref, hyp) -> Alignment:
    """Minimum-edit alignment of two token sequences under unit costs.

    Tokens must be hashable: two tokens match when they are equal as dict
    keys, that is the same object or equal under == (so a NaN matches only
    itself, and 1 matches 1.0).  Ties during backtrace prefer hit, then
    substitute, then delete, then insert.
    """
    return Alignment(*_align(ref, hyp, True))


def _align(ref, hyp, hits: bool):
    """(ops, distance) of `align(ref, hyp)`, with its hit ops only if `hits`."""
    cols = _columns(_match_bits(ref), hyp, (1 << len(ref)) - 1, 1)
    return _backtrace(ref, hyp, cols, 0, hits)


def _columns(peq, hyp, mask: int, lows: int) -> list:
    """Columns 0..len(hyp) of the cost table d, as (vp, vn, hp, hn); cols[0]
    is the top row's column (mask, 0, 0, 0).

    One bit per row: bit i-1 of vp/vn is set where d[i][j] - d[i-1][j] is
    +1/-1, bit i of hp/hn where d[i][j] - d[i][j-1] is.  peq[tok] has the
    bit of every row whose reference token is tok set, and `mask` every
    row's bit.  The top row's +1 is shifted into hp at `lows`, the bit of
    row 1 in each table.  mask ^ y equals ~y on the bits below mask, the only ones read,
    and stays a non-negative int, whose bitwise ops are cheaper; no step
    carries bits above mask down into them.
    """
    vp, vn = mask, 0
    cols = [(vp, vn, 0, 0)]
    for tok in hyp:
        eq = peq.get(tok, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = (vn | mask ^ (xh | vp)) << 1 | lows
        hn = (vp & xh) << 1
        vp = (hn | mask ^ (xv | hp)) & mask
        vn = hp & xv
        cols.append((vp, vn, hp, hn))
    return cols


def _backtrace(ref, hyp, cols, shift: int, hits: bool):
    """(ops, distance): the ops from d[len(ref)][len(hyp)] back to d[0][0],
    in order; hit ops are walked over but recorded only if `hits`.

    cols are `_columns`' output, with row i of the pair's table at bit
    shift + i - 1 (its lane's offset; 0 in `_align`).
    """
    i, j = len(ref), len(hyp)
    vp, vn, _, _ = cols[j]
    rows = ((1 << i) - 1) << shift
    # d[i][j] is d[0][j] == j plus the vertical steps down column j
    distance = cur = j + (vp & rows).bit_count() - (vn & rows).bit_count()
    ops: list[tuple[str, object, object]] = []
    while i and j:
        r = ref[i - 1]
        h = hyp[j - 1]
        if r is h or r == h:
            # tokens equal as dict keys force d[i][j] == d[i-1][j-1], so a
            # hit is taken without reading the columns
            if hits:
                ops.append((HIT, r, h))
            i -= 1
            j -= 1
            continue
        vp, vn, hp, hn = cols[j]
        b = 1 << (shift + i - 1)
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
    return ops, distance


def _lane_bytes(ref) -> int:
    # one bit per reference token and at least one guard bit, in whole bytes
    return len(ref) // 8 + 1


def _passes(pairs):
    """Consecutive (ref, hyp) pairs, grouped into the passes _align_lanes runs.

    A pass closes before a pair that takes its lanes past _LANE_BITS bits, or
    its column step (lane bits times longest hypothesis) past twice the sum
    of each lane's bits times its own hypothesis length.  A pair wider than
    _LANE_BITS is a pass of its own."""
    batch: list = []
    bits = longest = alone = 0
    for pair in pairs:
        width, columns = 8 * _lane_bytes(pair[0]), len(pair[1])
        bits += width
        longest = max(longest, columns)
        alone += width * columns
        if batch and (bits > _LANE_BITS or bits * longest > 2 * alone):
            yield batch
            batch, bits, longest, alone = [], width, columns, width * columns
        batch.append(pair)
    if batch:
        yield batch


def _align_lanes(pairs, hits: bool) -> list:
    """[_align(ref, hyp, hits) for ref, hyp in pairs], in one column step per
    hypothesis position; a single pair goes to `_align`.

    Pair k owns lane k: _lane_bytes(ref) bytes from bit offset shift_k,
    its rows at the bottom and its guard bits above them.  Column j's eq
    joins every lane's match bytes for its hypothesis token j (zero bytes
    once that hypothesis has ended) into one int, which `_columns` reads
    as token j of range(columns); `lows` is bit 0 of every non-empty lane.
    A carry out of a lane's top row stops in its guard bit, which vp and vn
    never hold (the final & mask clears it).  A guard bit shifted up lands
    in padding, or on bit 0 of the next lane's hp, which | lows sets anyway
    (an empty lane has no row to read it).  So each lane runs its own DP.
    A lane's columns past its hypothesis are never read.
    """
    if len(pairs) == 1:
        return [_align(*pairs[0], hits)]
    columns = max((len(hyp) for _, hyp in pairs), default=0)
    lanes = []
    shifts = []
    shift = mask = lows = 0
    for ref, hyp in pairs:
        size = _lane_bytes(ref)
        zero = bytes(size)
        peq = {tok: v.to_bytes(size, "little") for tok, v in _match_bits(ref).items()}
        lanes.append(chain(map(peq.get, hyp, repeat(zero)), repeat(zero, columns - len(hyp))))
        shifts.append(shift)
        mask |= ((1 << len(ref)) - 1) << shift
        if ref:
            lows |= 1 << shift
        shift += 8 * size

    # lane k of the joined little-endian bytes is bits shift_k and up
    eqs = dict(enumerate(map(int.from_bytes, map(b"".join, zip(*lanes)), repeat("little"))))
    cols = _columns(eqs, range(columns), mask, lows)
    return [_backtrace(ref, hyp, cols, shift, hits) for (ref, hyp), shift in zip(pairs, shifts)]


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


def _tokens(text: str, unit: str, arabic_normalization: bool):
    if arabic_normalization:
        text = normalize_arabic(text)
    if unit == "word":
        return text.split()
    # collapse whitespace runs so formatting noise never counts as errors
    return " ".join(text.split())


def _edits(pairs, unit: str, arabic_normalization: bool):
    """Yield (ref tokens, edit ops) of each (ref, hyp) pair, in order: the
    ops of its `align` without the hits.  A bad unit raises first.
    Characters are aligned a planned pass at a time, so no more than one
    pass of pairs is read ahead; words one pair at a time."""
    if unit not in ("word", "char"):
        raise ValueError(f"unit must be 'word' or 'char', got {unit!r}")
    tokens = ((_tokens(ref, unit, arabic_normalization), _tokens(hyp, unit, arabic_normalization))
              for ref, hyp in pairs)
    if unit == "word":
        for ref, hyp in tokens:
            yield ref, _align(ref, hyp, False)[0]
        return
    for batch in _passes(tokens):
        for (ref, _), (ops, _) in zip(batch, _align_lanes(batch, False)):
            yield ref, ops


def score(pairs, unit: str = "word", arabic_normalization: bool = False) -> ScoreReport:
    """Aggregate WER (unit='word') or CER (unit='char') over (ref, hyp) pairs."""
    ref_length = subs = dels = inss = 0
    for ref, ops in _edits(pairs, unit, arabic_normalization):
        ref_length += len(ref)
        for kind, _, _ in ops:
            if kind == SUBSTITUTE:
                subs += 1
            elif kind == DELETE:
                dels += 1
            else:
                inss += 1
    if ref_length == 0:
        raise ValueError("cannot score: every reference is empty")
    # every reference token is a hit, a substitution or a deletion
    return ScoreReport(subs, inss, dels, ref_length - subs - dels, ref_length)
