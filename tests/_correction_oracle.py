"""Reference dictionary search for the property tests: the full scan that
`dysaug.correction._ProfileIndex` ran before bound-then-refine pruning,
kept verbatim apart from its name.  It computes the exact distance of
every word in each visited length bucket."""

import numpy as np

from dysaug.correction import Dictionary
from dysaug.correction import ConfusionMatrix

_TIE_TOLERANCE = 1e-12


class OracleProfileIndex:
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
