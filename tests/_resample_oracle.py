"""Reference resampling kernel for the byte-identity tests: `resample_sequence`
as it was while it copied the input to float64 and zero-padded the whole
clip, kept verbatim apart from its name."""

from math import gcd

import numpy as np

from dysaug.audio_io import TAPS_PER_PHASE, TILE_ROWS, _tiles


def oracle_resample_sequence(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """Polyphase resampling of a 1-D signal by the rational factor up/down.

    Output length is ceil(len(x) * up / down); the result is aligned so that
    output sample j sits at input time j * down / up (no group delay).
    The zero-padded input is read as overlapping rows (see `_tiles`), and
    each tile of outputs is the product of a band of those rows with a tile.
    """
    if up <= 0 or down <= 0:
        raise ValueError(f"resampling factors must be positive, got {up}/{down}")
    g = gcd(up, down)
    up //= g
    down //= g
    x = np.asarray(x, dtype=np.float64)
    if up == down or len(x) == 0:
        return x.copy()

    stride, row, tiles = _tiles(up, down)
    n_out = -(-len(x) * up // down)
    n_rows = -(-n_out // row)
    lead = TAPS_PER_PHASE // 2
    xpad = np.zeros(n_rows * stride + TAPS_PER_PHASE)
    xpad[lead : lead + len(x)] = x
    rows = np.lib.stride_tricks.sliding_window_view(xpad, stride + TAPS_PER_PHASE)[::stride]
    y = np.empty((n_rows, row))
    for h0 in range(0, n_rows, TILE_ROWS):
        for q0, q1, b0, b1, h in tiles:
            # a band is no wider than the row stride, so BLAS reads it in place
            np.matmul(rows[h0 : h0 + TILE_ROWS, b0:b1], h, out=y[h0 : h0 + TILE_ROWS, q0:q1])
    return y.ravel()[:n_out]
