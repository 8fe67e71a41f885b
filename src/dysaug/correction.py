"""Confusion estimation and dictionary-based text correction.

`build_confusion` turns character alignments of (ref, hyp) pairs into a
row-stochastic `ConfusionMatrix`.  Each hypothesized word is replaced by
the dictionary word at minimal distance
1 - sum(min(c_p, c_g)) / sum(max(c_p, c_g)) over per-character counts.
Without a confusion matrix the counts are plain character multiplicities;
with one, every character spreads its count across the characters it is
confusable with, so likely mix-ups shrink the distance.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import repeat
from types import MappingProxyType

import numpy as np

from . import scoring
from .manifest import _lone_surrogate, _parse_json, _read_text

__all__ = [
    "ConfusionMatrix",
    "build_confusion",
    "Dictionary",
    "load_dictionary",
    "profile",
    "weighted_jaccard",
    "correct_word",
    "correct_sentence",
]

# distances this close to the minimum are ties, settled by the frequency,
# length and lexicographic order rather than by float rounding
_TIE_TOLERANCE = 1e-12


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
        p = np.array(self.probabilities, dtype=np.float64)
        p.flags.writeable = False
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "symbols", tuple(self.symbols))
        k = len(self.symbols)
        if not k:
            raise ValueError('symbols must hold at least the null symbol ""')
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
        values = self.probabilities[self._index[truth]]
        nonzero = np.flatnonzero(values).tolist()
        return tuple(zip([self.symbols[j] for j in nonzero], values[nonzero].tolist()))

    @classmethod
    def identity(cls, alphabet) -> "ConfusionMatrix":
        """No-confusion matrix over the given characters."""
        symbols = ("",) + tuple(sorted(set(alphabet) - {""}))
        return cls(symbols=symbols, probabilities=np.eye(len(symbols)))

    def to_dict(self) -> dict:
        return {"alphabet": list(self.symbols), "probabilities": self.probabilities.tolist()}

    @classmethod
    def from_dict(cls, obj: dict) -> "ConfusionMatrix":
        """Inverse of `to_dict`; ValueError if `obj` does not have its shape."""
        if not isinstance(obj, dict):
            raise ValueError(f"confusion matrix must be a JSON object, got {type(obj).__name__}")
        alphabet = obj.get("alphabet")
        if not isinstance(alphabet, list) or not all(isinstance(s, str) for s in alphabet):
            raise ValueError("confusion matrix 'alphabet' must be a list of strings")
        if any(map(_lone_surrogate, alphabet)):
            raise ValueError("confusion matrix 'alphabet' holds a lone surrogate")
        rows = obj.get("probabilities")
        if not isinstance(rows, list):
            raise ValueError("confusion matrix 'probabilities' must be a list of rows")
        # numpy would read "1" and true as 1.0, so each entry must be a JSON number
        if not all(isinstance(row, list) and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in row)
                for row in rows):
            raise ValueError("confusion matrix 'probabilities' must be rows of numbers")
        try:
            probabilities = np.array(rows, dtype=np.float64)
        except (OverflowError, ValueError):  # ragged rows, or an int beyond float64
            raise ValueError(
                "confusion matrix 'probabilities' rows must be of equal length, "
                "with every entry within float64 range"
            ) from None
        return cls(symbols=tuple(alphabet), probabilities=probabilities)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fout:
            json.dump(self.to_dict(), fout, ensure_ascii=False)

    @classmethod
    def load(cls, path) -> "ConfusionMatrix":
        """Read a `save`d matrix; a malformed file raises ValueError naming `path`."""
        text = "\n".join(_read_text(path))
        try:
            return cls.from_dict(_parse_json(text))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def build_confusion(pairs, smoothing: float = 0.5,
                    arabic_normalization: bool = False) -> ConfusionMatrix:
    """Estimate a character confusion matrix from (ref, hyp) pairs.

    Character-level alignments are accumulated into counts: hits and
    substitutions go to count[ref_char][hyp_char], deletions to the null
    column, insertions to the null row.  Rows are normalized with additive
    smoothing over the observed alphabet, so every row is a distribution
    even for characters never seen as reference.  `pairs` may be any
    iterable; it is read once, at most one pass of alignment ahead, so
    memory does not grow with the corpus.
    """
    if not 0 < smoothing < math.inf:
        raise ValueError(
            f"smoothing must be positive and finite to keep rows stochastic, got {smoothing}")

    # reference characters and whole (kind, ref char, hyp char) edits are
    # counted in C as the pairs stream in, then the edits folded into
    # (ref char, hyp char) counts; "" stands for the missing side of an indel
    refs: Counter[str] = Counter()
    edits: Counter[tuple[str, object, object]] = Counter()
    n_pairs = 0
    for ref, ops in scoring._edits(pairs, "char", arabic_normalization):
        refs.update(ref)
        edits.update(ops)
        n_pairs += 1
    if not n_pairs:
        raise ValueError("cannot build a confusion matrix from no pairs")
    counts: Counter[tuple[str, str]] = Counter()
    for (_, ref_char, hyp_char), c in edits.items():
        counts[ref_char or "", hyp_char or ""] += c
        if ref_char:
            refs[ref_char] -= c
    # a reference character that was neither substituted nor deleted was a hit
    for char, c in refs.items():
        if c:
            counts[char, char] = c

    symbols = ("",) + tuple(sorted({c for pair in counts for c in pair} - {""}))
    index = {s: i for i, s in enumerate(symbols)}
    matrix = np.zeros((len(symbols), len(symbols)))
    for (a, b), c in counts.items():
        matrix[index[a], index[b]] = c
    matrix += smoothing
    matrix /= matrix.sum(axis=1, keepdims=True)
    return ConfusionMatrix(symbols=symbols, probabilities=matrix)


@dataclass(frozen=True, eq=False)
class Dictionary:
    """A correction vocabulary with optional word frequencies.

    Words must be non-empty and hold no whitespace, as `correct_sentence`
    splits its text at whitespace; the constructor raises ValueError
    otherwise.

    The fields cannot be reassigned and `freq` is a read-only copy of the
    mapping given, so caches keyed on a dictionary's identity stay valid.
    """

    words: frozenset
    freq: Mapping[str, int]

    def __post_init__(self):
        object.__setattr__(self, "words", frozenset(self.words))
        if not self.words:
            raise ValueError("dictionary must contain at least one word")
        if "" in self.words:
            raise ValueError("dictionary words must not be empty")
        # correct_sentence splits text at whitespace, so a word holding some
        # would turn one token into two; one join and one scan check them all
        joined = "".join(self.words)
        if joined.split() != [joined]:
            spaced = min(word for word in self.words if word.split() != [word])
            raise ValueError(f"dictionary word {spaced!r} holds whitespace")
        object.__setattr__(self, "freq", MappingProxyType(dict(self.freq)))
        # the tie-break ranks by frequency: a NaN, a float or a string would
        # order words by accident or fail only at the first correction
        for word, count in self.freq.items():
            if isinstance(count, bool) or not isinstance(count, int) or count < 0:
                raise ValueError(f"frequency of {word!r} must be a non-negative int, got {count!r}")

    def __reduce__(self):
        # a mapping proxy cannot be pickled: rebuild through the constructor
        return (Dictionary, (self.words, dict(self.freq)))

    @classmethod
    def from_words(cls, words, freq=None) -> "Dictionary":
        return cls(words=frozenset(words), freq=freq or {})

    def frequency(self, word: str) -> int:
        return self.freq.get(word, 0)

    def __contains__(self, word: str) -> bool:
        return word in self.words

    def __len__(self) -> int:
        return len(self.words)


def load_dictionary(path) -> Dictionary:
    """Load a word list: one word per line, optional tab-separated count.

    Whitespace around either field is ignored, blank lines are skipped, and
    duplicate lines are merged by summing their counts.  A count without a
    word before its tab, or a word holding whitespace (as a count after a
    space would make it), raises ValueError naming the line.
    """
    freq: dict[str, int] = {}
    for lineno, line in enumerate(_read_text(path), 1):
        word, _, count = line.partition("\t")
        word, count = word.strip(), count.strip()
        if not word:
            if count:
                raise ValueError(f"{path}:{lineno}: frequency without a word")
            continue
        if len(word.split()) > 1:
            raise ValueError(f"{path}:{lineno}: word {word!r} holds whitespace; "
                             "fields are tab-separated")
        try:
            n = int(count) if count else 0
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad frequency {count!r}") from None
        if n < 0:
            raise ValueError(f"{path}:{lineno}: negative frequency {n}")
        freq[word] = freq.get(word, 0) + n
    if not freq:
        raise ValueError(f"{path}: no words found")
    return Dictionary(words=frozenset(freq), freq=freq)


def profile(word: str, matrix: ConfusionMatrix | None = None) -> dict[str, float]:
    """Per-character counts of a word, optionally confusion-softened.

    Without a matrix, counts are the integer character multiplicities.
    With one, each occurrence of character c contributes matrix.prob(c, c')
    to the count of every c', so confusable characters share mass.
    Characters outside the matrix alphabet keep their hard count.
    """
    return dict(_cached_profile(word, matrix))


@functools.lru_cache(maxsize=8192)
def _cached_profile(word: str, matrix: ConfusionMatrix | None) -> dict[str, float]:
    # keyed by the word and the matrix's identity (a ConfusionMatrix cannot
    # change after construction); callers must not mutate the shared dict
    if not word:
        raise ValueError("cannot profile an empty word")
    counts: dict[str, float] = {}
    if matrix is None:
        for c in word:
            counts[c] = counts.get(c, 0) + 1
        return counts
    for c in word:
        if c in matrix:
            for sym, p in matrix.row(c):
                counts[sym] = counts.get(sym, 0.0) + p
        else:
            counts[c] = counts.get(c, 0.0) + 1.0
    return counts


def _profile_distance(pa: dict, pb: dict) -> float:
    # pa's keys in insertion order, then pb's own: profiles are built in
    # word and matrix-row order, so the float sums never depend on the
    # string hash seed
    minsum = 0.0
    maxsum = 0.0
    for c, a in pa.items():
        b = pb.get(c, 0.0)
        if a < b:
            minsum += a
            maxsum += b
        else:
            minsum += b
            maxsum += a
    for c, b in pb.items():
        if c not in pa:
            maxsum += b
    return 1.0 - minsum / maxsum


def weighted_jaccard(word_a: str, word_b: str, matrix: ConfusionMatrix | None = None) -> float:
    """Jaccard distance between the character profiles of two words, in [0, 1].

    With no matrix (or an identity matrix) this is the plain multiset
    Jaccard distance.  Each word's profile is built once per matrix and
    kept in a bounded cache.
    """
    return _profile_distance(_cached_profile(word_a, matrix), _cached_profile(word_b, matrix))


class _ProfileIndex:
    """Profiles of every dictionary word, for one (dictionary, matrix).

    Symbols are the matrix symbols in matrix order (the null column
    included), then one hard-count symbol per dictionary character outside
    the matrix alphabet, in sorted order.  Words are sorted by (length,
    word), so each word length is one contiguous bucket.

    A query filters in float32 and refines in float64 (Faloutsos et al.,
    SIGMOD 1994).  `columns` holds the profiles in float32, column-major
    (one contiguous row of |V| values per symbol); `counts` each word's
    per-character counts, in the smallest unsigned dtype that holds them;
    `mass` each word's float64 profile sum; `rank` its place in the
    (-frequency, length, word) order.  At 20k words and 28 symbols that is
    about 3.0 MB (2.24 MB of columns, 0.52 MB of uint8 counts), where a
    float64 |V| x K copy alone takes 4.5 MB.

    The filter sums min(p, q) over the query's heavy symbols in float32
    and keeps a word only if that bound U, plus the query's light mass,
    reaches (1 - c)(lo + |q|) / (2 - c) less a margin (see __init__), where
    c is the best distance so far plus the tie tolerance and lo the
    smallest mass of the word's length.  The few words kept, about 5 of
    the ~6,500 visited on the benchmark's dictionary, get their exact
    distance: the float64 distance of the float64 profile, computed from
    their counts (see `_distances`).
    """

    def __init__(self, dictionary: Dictionary, matrix: ConfusionMatrix | None):
        words = sorted(sorted(dictionary.words), key=len)  # stable: (length, word)
        lengths = np.fromiter(map(len, words), dtype=np.intp, count=len(words))
        codes = np.frombuffer("".join(words).encode("utf-32-le", "surrogatepass"), dtype="<u4")
        char_codes, char_column = np.unique(codes, return_inverse=True)
        chars = [chr(c) for c in char_codes.tolist()]
        counts = np.bincount(
            np.repeat(np.arange(len(words)), lengths) * len(chars) + char_column.ravel(),
            minlength=len(words) * len(chars),
        ).reshape(len(words), len(chars))
        self.counts = counts.astype(np.min_scalar_type(counts.max()))
        del counts

        symbols = matrix.symbols if matrix is not None else ()
        extra = [c for c in chars if matrix is None or c not in matrix]
        width = len(symbols) + len(extra)
        # one dense row per character that can occur in a query and in some
        # profile: the dictionary's characters in `counts` column order,
        # then the matrix symbols that no dictionary word uses
        self._char_index = {c: i for i, c in enumerate(chars)}
        for c in symbols[1:]:
            self._char_index.setdefault(c, len(self._char_index))
        self._char_rows = np.zeros((len(self._char_index), width))
        for j, c in enumerate(extra):
            self._char_rows[self._char_index[c], len(symbols) + j] = 1.0
        for i, c in enumerate(symbols[1:], 1):
            self._char_rows[self._char_index[c], : len(symbols)] = matrix.probabilities[i]
        self._profile_rows = self._char_rows[: len(chars)]

        # Every float64 product of counts and profile rows is done a block
        # of words at a time, of at most 2^18 multiply-adds, which OpenBLAS
        # runs on one thread.  A threaded product over the whole dictionary
        # leaves the other threads' buffers resident (about 4 MB of RSS at
        # 20k words), and on a loaded machine it can wait milliseconds for
        # its threads.  At build time the blocks give `mass` and the float32
        # columns, so no float64 |V| x K array is ever held.
        self._block = max(1, 2**18 // (len(chars) * width))
        self.mass = np.empty(len(words))
        self.columns = np.empty((width, len(words)), dtype=np.float32)
        for lo in range(0, len(words), self._block):
            profiles = self.counts[lo : lo + self._block] @ self._profile_rows
            self.mass[lo : lo + self._block] = profiles.sum(axis=1)
            self.columns[:, lo : lo + self._block] = profiles.T
        self.words = words
        # stable sort of the (length, word) order (reverse keeps it stable):
        # ranks by (-freq, length, word)
        freqs = list(map(dictionary.freq.get, words, repeat(0)))
        by_key = sorted(range(len(words)), key=freqs.__getitem__, reverse=True)
        self.rank = np.empty(len(words), dtype=np.min_scalar_type(len(words) - 1))
        self.rank[by_key] = np.arange(len(words))
        # the pick for a query with no character in any profile: its min-sum
        # with every word is 0, so every word is at distance exactly 1
        self._lowest_rank = words[by_key[0]]
        # one (start, end, lowest mass, highest mass) per word length
        starts = np.flatnonzero(np.diff(lengths, prepend=-1))
        ends = np.append(starts[1:], len(words))
        mass_lo = np.minimum.reduceat(self.mass, starts)
        mass_hi = np.maximum.reduceat(self.mass, starts)
        self._buckets = list(zip(starts.tolist(), ends.tolist(),
                                 mass_lo.tolist(), mass_hi.tolist()))
        # The filter's float32 min-sum u over the h < K heavy symbols is
        # within h * 2^-24 * |q| of the float64 one: each term min(p, q) is
        # rounded once (rounding is monotone, so the min of the rounded
        # values is the rounded min; below float32's normal range the error
        # is at most 2^-149 instead), and summing h terms rounds h - 1 more
        # times.  Comparing u with a threshold rounded to float32 adds one
        # rounding of a value below |p| + |q|.  A margin of 4 * K * 2^-24
        # (about 7e-6 at K = 28) times |p| + |q| is twice all of that, and
        # far above the float64 rounding of the refine and of q_light
        # (about 1e-14), so the filter never drops a word whose refined
        # distance is within the tie tolerance of the best.
        self._margin = 4 * width * 2.0**-24

    def nearest(self, word: str) -> str:
        """The word at minimal distance, ties within _TIE_TOLERANCE going
        to the lowest (-frequency, length, word)."""
        # characters in no profile add to the max-sum only
        rows = [self._char_index[c] for c in word if c in self._char_index]
        if not rows:
            return self._lowest_rank
        outside = len(word) - len(rows)
        # summed from zero in word order, as a loop of q += row would
        q = np.add.reduce(self._char_rows.take(rows, axis=0), axis=0, initial=0.0)
        q_sum = float(q.sum())
        q_mass = q_sum + outside
        # sum(min(p, q)) <= sum over q's heavy symbols (those above its mean)
        # of min(p, q), plus q's mass on the other symbols: a cheap upper
        # bound on a word's min-sum
        heavy = (q > q_sum / len(q)).nonzero()[0]
        q_heavy = q[heavy]
        q_light = q_sum - float(q_heavy.sum())
        q_heavy = q_heavy[:, None].astype(np.float32)
        # sum(max(p, q)) >= max(|p|, |q|) and sum(min(p, q)) <= min(|p|, |q|),
        # so a bucket whose masses lie in [lo, hi] is at distance at least:
        bounds = [max(1.0 - hi / q_mass, 1.0 - q_mass / lo) for _, _, lo, hi in self._buckets]
        best = np.inf
        seen = []
        for b in sorted(range(len(bounds)), key=bounds.__getitem__):
            # a word's refined min-sum can exceed its rounded mass by a few
            # ulps, so a bucket's bound may sit above its words' distances by
            # about K * 2^-52, far inside a second tolerance
            if bounds[b] > best + 2 * _TIE_TOLERANCE:
                break
            start, end, lo, _ = self._buckets[b]
            u = self.columns[heavy, start:end]
            np.minimum(u, q_heavy, out=u)
            u = u.sum(axis=0)
            if best == np.inf:
                # the word with the largest min-sum bound sets the first best
                best = self._distances(start + u.argmax(keepdims=True), q, q_mass)[0]
            # a word's distance 1 - U / (|p| + |q| - U) falls as its min-sum
            # U = u + q_light grows, and is at most c once
            # U >= (1 - c)(|p| + |q|) / (2 - c); |p| >= lo, so words below
            # the bucket's threshold are farther than c, with the margin
            # (see __init__) standing in for float32 rounding
            c = best + _TIE_TOLERANCE
            scale = lo + q_mass
            threshold = (1.0 - c) * scale / (2.0 - c) - q_light - self._margin * scale
            rows = start + (u >= threshold).nonzero()[0]
            if rows.size:
                d = self._distances(rows, q, q_mass)
                best = d.min(initial=best)
                seen.append((rows, d))
        tied = np.concatenate([rows[d <= best + _TIE_TOLERANCE] for rows, d in seen])
        return self.words[tied[np.argmin(self.rank[tied])]]

    def _distances(self, rows: np.ndarray, q: np.ndarray, q_mass: float) -> np.ndarray:
        """Distances from the query profile q to the given words, from
        their float64 profiles.

        The profiles come from BLAS products, whose float64 bits can differ
        by an ulp between a one-row product and a many-row one.  The 1e-12
        tie rule absorbs that: distances an ulp apart are ties, settled by
        frequency, length and word.
        """
        counts = self.counts.take(rows, axis=0)
        if len(rows) <= self._block:
            profiles = counts @ self._profile_rows
        else:  # one product per block, each on one BLAS thread (see __init__)
            profiles = np.concatenate([counts[lo : lo + self._block] @ self._profile_rows
                                       for lo in range(0, len(rows), self._block)])
        minsum = np.minimum(profiles, q, out=profiles).sum(axis=1)
        # sum(max(p, q)) = |p| + |q| - sum(min(p, q))
        return 1.0 - minsum / (self.mass.take(rows) + q_mass - minsum)


@functools.lru_cache(maxsize=8)
def _profile_index(dictionary: Dictionary, matrix: ConfusionMatrix | None) -> _ProfileIndex:
    # keyed by object identity; neither can change after construction
    return _ProfileIndex(dictionary, matrix)


def correct_word(word: str, dictionary: Dictionary,
                 matrix: ConfusionMatrix | None = None) -> str:
    """Replace an out-of-vocabulary word by its nearest dictionary word.

    In-vocabulary words are returned unchanged.  Distances within 1e-12 of
    the minimum count as ties, broken by higher frequency, then shorter
    length, then lexicographic order.
    """
    if word in dictionary:
        return word
    if not word:
        raise ValueError("cannot profile an empty word")
    return _profile_index(dictionary, matrix).nearest(word)


def correct_sentence(text: str, dictionary: Dictionary,
                     matrix: ConfusionMatrix | None = None) -> str:
    """Correct each purely-alphabetic token of a sentence.

    Tokens containing digits or punctuation pass through untouched;
    whitespace is normalized to single spaces.
    """
    out = []
    for token in text.split():
        if token.isalpha():
            out.append(correct_word(token, dictionary, matrix))
        else:
            out.append(token)
    return " ".join(out)
