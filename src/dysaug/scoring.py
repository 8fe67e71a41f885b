"""Levenshtein alignment, WER/CER scoring, and confusion estimation.

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

Alignment and scoring are pure Python; numpy is imported only by
`ConfusionMatrix` and `build_confusion`, so `score` never loads it.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "HIT",
    "SUBSTITUTE",
    "DELETE",
    "INSERT",
    "Alignment",
    "ScoreReport",
    "ConfusionMatrix",
    "align",
    "score",
    "build_confusion",
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
    if unit == "char":
        # collapse whitespace runs so formatting noise never counts as errors
        return " ".join(text.split())
    raise ValueError(f"unit must be 'word' or 'char', got {unit!r}")


def _alignments(pairs, unit: str, arabic_normalization: bool):
    """Yield (ref tokens, alignment) for each (ref, hyp) text pair."""
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


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Row-stochastic character confusion estimate.

    symbols[0] is the distinguished null symbol "" — its row carries
    insertion probabilities and its column deletion probabilities.
    probabilities[i, j] estimates P(symbol i is realized as symbol j).
    Symbols must be distinct, entries finite and non-negative, and each row
    must sum to 1 within 1e-9; the constructor (and so `load`) raises
    ValueError otherwise.

    The fields cannot be reassigned and `probabilities` is a read-only
    float64 copy of the array given, so a matrix keeps its checks, and
    caches keyed on its identity stay valid.
    """

    symbols: tuple[str, ...]
    probabilities: np.ndarray
    _index: dict = field(init=False, repr=False)

    def __post_init__(self):
        import numpy as np

        p = np.array(self.probabilities, dtype=np.float64)
        p.flags.writeable = False
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "symbols", tuple(self.symbols))
        k = len(self.symbols)
        if p.shape != (k, k):
            raise ValueError(f"probability matrix shape {p.shape} does not match {k} symbols")
        if self.symbols[0] != "":
            raise ValueError('symbols[0] must be the null symbol ""')
        if not (np.isfinite(p).all() and (p >= 0).all()):
            raise ValueError("probabilities must be finite and non-negative")
        bad = np.flatnonzero(np.abs(p.sum(axis=1) - 1.0) > 1e-9)
        if bad.size:
            raise ValueError(
                f"row {self.symbols[bad[0]]!r} sums to {p[bad[0]].sum()}, not 1"
            )
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})
        if len(self._index) != k:
            dup = next(s for s, n in Counter(self.symbols).items() if n > 1)
            raise ValueError(f"symbol {dup!r} appears more than once")

    def __reduce__(self):
        # rebuild through the constructor, so a copy is checked and read-only too
        return (ConfusionMatrix, (self.symbols, self.probabilities))

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def prob(self, truth: str, realized: str) -> float:
        return float(self.probabilities[self._index[truth], self._index[realized]])

    def row(self, truth: str):
        """Nonzero (symbol, probability) entries of one row."""
        import numpy as np

        values = self.probabilities[self._index[truth]]
        return tuple((self.symbols[j], float(values[j])) for j in np.nonzero(values)[0])

    @classmethod
    def identity(cls, alphabet) -> "ConfusionMatrix":
        """No-confusion matrix over the given characters."""
        import numpy as np

        symbols = ("",) + tuple(sorted(set(alphabet) - {""}))
        return cls(symbols=symbols, probabilities=np.eye(len(symbols)))

    def to_dict(self) -> dict:
        return {"alphabet": list(self.symbols), "probabilities": self.probabilities.tolist()}

    @classmethod
    def from_dict(cls, obj: dict) -> "ConfusionMatrix":
        """Inverse of `to_dict`; ValueError if `obj` does not have its shape."""
        import numpy as np

        if not isinstance(obj, dict):
            raise ValueError(f"confusion matrix must be a JSON object, got {type(obj).__name__}")
        alphabet = obj.get("alphabet")
        if not isinstance(alphabet, list) or not all(isinstance(s, str) for s in alphabet):
            raise ValueError("confusion matrix 'alphabet' must be a list of strings")
        rows = obj.get("probabilities")
        if not isinstance(rows, list):
            raise ValueError("confusion matrix 'probabilities' must be a list of rows")
        try:
            probabilities = np.array(rows, dtype=np.float64)
        except (TypeError, ValueError):
            raise ValueError("confusion matrix 'probabilities' must be rows of numbers") from None
        return cls(symbols=tuple(alphabet), probabilities=probabilities)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fout:
            json.dump(self.to_dict(), fout, ensure_ascii=False)

    @classmethod
    def load(cls, path) -> "ConfusionMatrix":
        """Read a `save`d matrix; a malformed file raises ValueError naming `path`."""
        with open(path, encoding="utf-8-sig") as fin:
            try:
                return cls.from_dict(json.load(fin))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None


def build_confusion(pairs, smoothing: float = 0.5,
                    arabic_normalization: bool = False) -> ConfusionMatrix:
    """Estimate a character confusion matrix from (ref, hyp) pairs.

    Character-level alignments are accumulated into counts: hits and
    substitutions go to count[ref_char][hyp_char], deletions to the null
    column, insertions to the null row.  Rows are normalized with additive
    smoothing over the observed alphabet, so every row is a distribution
    even for characters never seen as reference.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("cannot build a confusion matrix from no pairs")
    if smoothing <= 0:
        raise ValueError(f"smoothing must be positive to keep rows stochastic, got {smoothing}")

    import numpy as np

    # whole (kind, ref char, hyp char) ops are counted in C, then folded into
    # (ref char, hyp char) counts; "" stands for the missing side of an indel
    ops: Counter[tuple[str, object, object]] = Counter()
    for _, alignment in _alignments(pairs, "char", arabic_normalization):
        ops.update(alignment.ops)
    counts: Counter[tuple[str, str]] = Counter()
    for (_, ref_char, hyp_char), c in ops.items():
        counts[ref_char or "", hyp_char or ""] += c

    symbols = ("",) + tuple(sorted({c for pair in counts for c in pair} - {""}))
    index = {s: i for i, s in enumerate(symbols)}
    matrix = np.zeros((len(symbols), len(symbols)))
    for (a, b), c in counts.items():
        matrix[index[a], index[b]] = c
    matrix += smoothing
    matrix /= matrix.sum(axis=1, keepdims=True)
    return ConfusionMatrix(symbols=symbols, probabilities=matrix)
