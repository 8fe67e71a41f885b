"""Dictionary-based text correction with a confusion-weighted Jaccard distance.

Each hypothesized word is replaced by the dictionary word at minimal
distance 1 - sum(min(c_p, c_g)) / sum(max(c_p, c_g)) over per-character
counts.  Without a confusion matrix the counts are plain character
multiplicities; with one, every character spreads its count across the
characters it is confusable with, so likely mix-ups shrink the distance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .scoring import ConfusionMatrix

__all__ = [
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


@dataclass(eq=False)
class Dictionary:
    """A correction vocabulary with optional word frequencies."""

    words: frozenset
    freq: dict

    def __post_init__(self):
        if not self.words:
            raise ValueError("dictionary must contain at least one word")

    @classmethod
    def from_words(cls, words, freq=None) -> "Dictionary":
        return cls(words=frozenset(words), freq=dict(freq or {}))

    def frequency(self, word: str) -> int:
        return self.freq.get(word, 0)

    def __contains__(self, word: str) -> bool:
        return word in self.words

    def __len__(self) -> int:
        return len(self.words)


def load_dictionary(path) -> Dictionary:
    """Load a word list: one word per line, optional tab-separated count.

    Duplicate lines are merged by summing their counts.
    """
    freq: dict[str, int] = {}
    with open(path, encoding="utf-8") as fin:
        for lineno, line in enumerate(fin, 1):
            line = line.strip()
            if not line:
                continue
            word, _, count = line.partition("\t")
            word = word.strip()
            if not word:
                continue
            if count:
                try:
                    n = int(count)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad frequency {count!r}") from None
                if n < 0:
                    raise ValueError(f"{path}:{lineno}: negative frequency {n}")
            else:
                n = 0
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
    # keyed by the word and the matrix's identity, which is immutable after
    # load; callers must not mutate the shared dict
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
    """Dense profiles of every dictionary word, for one (dictionary, matrix).

    Columns are the matrix symbols in matrix order (the null column
    included), then one hard-count column per dictionary character
    outside the matrix alphabet, in sorted order.  Rows hold the words
    sorted by (length, word), so each word length is one contiguous
    bucket of rows.
    """

    def __init__(self, dictionary: Dictionary, matrix: ConfusionMatrix | None):
        words = sorted(dictionary.words, key=lambda w: (len(w), w))
        lengths = np.fromiter(map(len, words), dtype=np.intp, count=len(words))
        codes = np.frombuffer("".join(words).encode("utf-32-le", "surrogatepass"), dtype="<u4")
        char_codes, char_column = np.unique(codes, return_inverse=True)
        chars = [chr(c) for c in char_codes.tolist()]
        counts = np.bincount(
            np.repeat(np.arange(len(words)), lengths) * len(chars) + char_column.ravel(),
            minlength=len(words) * len(chars),
        ).reshape(len(words), len(chars))

        symbols = matrix.symbols if matrix is not None else ()
        extra = [c for c in chars if matrix is None or c not in matrix]
        width = len(symbols) + len(extra)
        # one dense row per character that can occur in a query and in
        # some profile: every matrix symbol, every dictionary character
        self._char_rows = {}
        for j, c in enumerate(extra):
            self._char_rows[c] = np.zeros(width)
            self._char_rows[c][len(symbols) + j] = 1.0
        for i, c in enumerate(symbols):
            if c:
                self._char_rows[c] = np.zeros(width)
                self._char_rows[c][: len(symbols)] = matrix.probabilities[i]
        rows = np.stack([self._char_rows[c] for c in chars])

        self.words = words
        self.profiles = counts.astype(np.float64) @ rows
        self.mass = self.profiles.sum(axis=1)
        # stable sort of the (length, word) order: ranks by (-freq, length, word)
        by_key = sorted(range(len(words)), key=lambda i: -dictionary.frequency(words[i]))
        self.rank = np.empty(len(words), dtype=np.intp)
        self.rank[by_key] = np.arange(len(words))
        self.starts = np.flatnonzero(np.diff(lengths, prepend=-1))
        self.ends = np.append(self.starts[1:], len(words))
        self.mass_lo = np.minimum.reduceat(self.mass, self.starts)
        self.mass_hi = np.maximum.reduceat(self.mass, self.starts)

    def nearest(self, word: str) -> str:
        """The word at minimal distance, ties within _TIE_TOLERANCE going
        to the lowest (-frequency, length, word)."""
        q = np.zeros(self.profiles.shape[1])
        # characters in no profile add to the max-sum only
        outside = 0.0
        for c in word:
            row = self._char_rows.get(c)
            if row is None:
                outside += 1.0
            else:
                q += row
        q_mass = q.sum() + outside
        # sum(max(p, q)) >= max(|p|, |q|) and sum(min(p, q)) <= min(|p|, |q|),
        # so a bucket whose masses lie in [lo, hi] is at distance at least:
        bound = np.maximum(1.0 - self.mass_hi / q_mass, 1.0 - q_mass / self.mass_lo)
        best = np.inf
        seen = []
        for b in np.argsort(bound, kind="stable"):
            if bound[b] > best + _TIE_TOLERANCE:
                break
            lo, hi = self.starts[b], self.ends[b]
            minsum = np.minimum(self.profiles[lo:hi], q).sum(axis=1)
            # sum(max(p, q)) = |p| + |q| - sum(min(p, q))
            d = 1.0 - minsum / (self.mass[lo:hi] + q_mass - minsum)
            best = min(best, d.min())
            seen.append((lo, d))
        tied = np.concatenate([lo + np.flatnonzero(d <= best + _TIE_TOLERANCE) for lo, d in seen])
        return self.words[tied[np.argmin(self.rank[tied])]]


@functools.lru_cache(maxsize=8)
def _profile_index(dictionary: Dictionary, matrix: ConfusionMatrix | None) -> _ProfileIndex:
    # keyed by object identity; both are immutable after load
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
