"""Mono waveform I/O and band-limited resampling.

Everything downstream works on float amplitudes in [-1, 1] at a declared
sample rate, so this module is the only place that knows about RIFF/WAVE
containers and PCM scaling: `read_wav` parses their headers and `write_wav`
packs its own.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

__all__ = [
    "Waveform",
    "WavFormatError",
    "UnsupportedCodecError",
    "read_wav",
    "write_wav",
    "resample",
    "resample_sequence",
]

# PCM16 scaling: write rounds 32768*a and clamps to the symmetric range
# +-32767, read divides by 32768.  +1.0 never overflows, full scale maps to
# +-32767, and the write->read error stays within one quantization step.
PCM16_FULL_SCALE = 32768.0
PCM16_PEAK = 32767
PCM16_READ_SCALE = 1.0 / 32768.0

# Windowed-sinc prototype: 64 taps per polyphase branch under a Kaiser
# window with beta 8.6 (> 80 dB stop-band rejection).
TAPS_PER_PHASE = 64
KAISER_BETA = 8.6

# `resample` refuses rates outside RATE_RANGE and rounds the rate ratio to at
# most MAX_PHASES output phases, as `perturb_speed` rounds its factor: every
# standard rate stays exact, and the filter tiles stay small (see `_tiles`)
RATE_RANGE = (1000, 768000)
MAX_PHASES = 2000
# the highest rate whose byte rate (2 bytes a sample, one channel) fits the
# 32-bit field of a RIFF fmt chunk
MAX_WAV_RATE = (2**32 - 1) // 2
# `read_wav` decodes this many bytes of the data chunk at a time (at least
# one frame), so its memory beside the mix does not grow with the file
READ_BLOCK_BYTES = 1 << 18


class WavFormatError(ValueError):
    """The file is not a well-formed RIFF/WAVE container."""


class UnsupportedCodecError(WavFormatError):
    """The container is valid but the codec is not PCM16 or float32."""


_FORMAT_TAG_NAMES = {
    0x0001: "PCM",
    0x0003: "IEEE float",
    0x0006: "A-law",
    0x0007: "mu-law",
    0x0055: "MPEG Layer III",
}


@dataclass(frozen=True, eq=False)
class Waveform:
    """Mono audio: float32 amplitudes in [-1, 1] plus a sample rate in Hz.

    The rate is a positive integer (a Python int or a numpy integer, stored
    as an int).  Waveforms compare and hash by identity, as their samples
    are an array.

    Building one copies the samples into a new float32 array, never a view of
    the caller's, and clips them there; only `read_wav`, which holds the
    sole reference to the array it decoded, skips the copy.
    The fields cannot be reassigned and the samples are read-only, so they
    keep the constructor's checks.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self._seal(np.array(self.samples, dtype=np.float32))  # always a fresh copy

    @classmethod
    def _adopt(cls, samples: np.ndarray, sample_rate: int) -> Waveform:
        """A waveform on `samples` itself, without the constructor's copy.

        `samples` must be a float32 array that owns its memory and that no
        other code holds: the checks and the clip run on it in place, and
        it becomes read-only.
        """
        if samples.dtype != np.float32 or samples.base is not None or not samples.flags.writeable:
            raise TypeError("_adopt takes a writable float32 array that owns its memory")
        wave = object.__new__(cls)
        object.__setattr__(wave, "sample_rate", sample_rate)
        wave._seal(samples)
        return wave

    def _seal(self, samples: np.ndarray) -> None:
        """Check and clip a fresh float32 array, freeze it and store it."""
        if samples.ndim != 1:
            raise ValueError(f"waveform samples must be 1-D, got shape {samples.shape}")
        # NaN/Inf would reach write_wav's int16 cast, whose result is platform-defined;
        # min and max carry a NaN through and show an infinity
        lo, hi = (float(samples.min()), float(samples.max())) if samples.size else (0.0, 0.0)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("non-finite samples (NaN or Inf)")
        rate = self.sample_rate
        if isinstance(rate, bool) or not isinstance(rate, (int, np.integer)):
            raise ValueError(f"sample_rate must be an integer, got {rate!r}")
        if rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {rate}")
        object.__setattr__(self, "sample_rate", int(rate))
        if lo < -1.0 or hi > 1.0:
            np.clip(samples, -1.0, 1.0, out=samples)
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def __reduce__(self):
        # rebuild through the constructor, so a copy is checked and read-only too
        return (Waveform, (self.samples, self.sample_rate))

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return len(self.samples) / self.sample_rate


def _data_layout(fin, path) -> tuple[np.dtype, int, int, int, int]:
    """(sample dtype, channels, rate, offset, length) of the data chunk of
    the RIFF/WAVE file open as `fin`.

    The chunk table is scanned from the file itself: a repeated chunk id
    keeps its last body, a body that runs past the end of the file is cut
    there, and an odd-sized body is followed by a pad byte.
    """
    head = fin.read(12)
    if len(head) < 12 or head[:4] != b"RIFF":
        raise WavFormatError(f"{path}: not a RIFF file (leading bytes {head[:4]!r})")
    if head[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: RIFF form type is {head[8:12]!r}, expected b'WAVE'")

    end = os.fstat(fin.fileno()).st_size
    chunks = {}  # id -> (offset, length) of its body
    pos = 12
    while pos + 8 <= end:
        fin.seek(pos)
        chunk_id, size = struct.unpack("<4sI", fin.read(8))
        chunks[chunk_id] = (pos + 8, min(size, end - pos - 8))
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if b"fmt " not in chunks:
        raise WavFormatError(f"{path}: missing fmt chunk")
    if b"data" not in chunks:
        raise WavFormatError(f"{path}: missing data chunk")

    offset, length = chunks[b"fmt "]
    if length < 16:
        raise WavFormatError(f"{path}: fmt chunk too short: {length} bytes")
    fin.seek(offset)
    fmt = fin.read(min(length, 26))
    format_tag, channels, rate, _byte_rate, _block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if format_tag == 0xFFFE:  # WAVE_FORMAT_EXTENSIBLE: real tag sits in the sub-format GUID
        if length < 26:
            raise WavFormatError(f"{path}: extensible fmt chunk missing sub-format")
        (format_tag,) = struct.unpack_from("<H", fmt, 24)
    if channels < 1:
        raise WavFormatError(f"{path}: channel count is {channels}")

    if format_tag == 0x0001 and bits == 16:
        dtype = np.dtype("<i2")
    elif format_tag == 0x0003 and bits == 32:
        dtype = np.dtype("<f4")
    else:
        name = _FORMAT_TAG_NAMES.get(format_tag, "unknown")
        raise UnsupportedCodecError(
            f"{path}: unsupported codec: format tag {format_tag} ({name}), "
            f"{bits}-bit; only 16-bit PCM and 32-bit float are readable"
        )
    return dtype, channels, rate, *chunks[b"data"]


def read_wav(path) -> Waveform:
    """Read a RIFF/WAVE file as a mono waveform.

    Accepts 16-bit PCM and 32-bit IEEE float, any channel count.  Every
    layout is decoded by one loop over the channels: they are added in
    order (in float64 for a PCM16 mix, in float32 otherwise), the sum is
    divided by the channel count when there is more than one, and PCM16 is
    then scaled by 1/32768, which is exact in either dtype.  A mono file is
    the same loop with no additions.

    The file is never held whole: its chunk table is scanned with seeks,
    and the data chunk is decoded READ_BLOCK_BYTES at a time, in whole
    frames, into the float32 mix that the waveform adopts.  Each step is
    per frame, so the blocks change no bit.  The path must name a seekable
    file.

    Raises FileNotFoundError for a missing file, WavFormatError for a
    malformed container, a non-positive declared sample rate or non-finite
    samples (in the float data or its mix), and UnsupportedCodecError for
    any other codec.
    """
    with open(path, "rb") as fin:
        dtype, channels, rate, offset, length = _data_layout(fin, path)
        frame_bytes = channels * dtype.itemsize
        n = length // frame_bytes
        step = max(1, READ_BLOCK_BYTES // frame_bytes)  # frames per block
        raw = bytearray(min(step, n) * frame_bytes)
        pcm = dtype.kind == "i"
        # a PCM16 mix of several channels is summed in float64, then cast
        wide = np.empty(min(step, n)) if pcm and channels > 1 else None
        mixed = np.empty(n, dtype=np.float32)
        fin.seek(offset)
        for i in range(0, n, step):
            k = min(step, n - i)
            view = memoryview(raw)[: k * frame_bytes]
            if fin.readinto(view) != len(view):
                raise WavFormatError(f"{path}: data chunk ended while it was read")
            columns = np.frombuffer(view, dtype=dtype).reshape(k, channels)
            # column by column, as np.mean's reduction does up to 7 channels,
            # but without its strided per-frame loop; float32 sums may overflow
            acc = mixed[i : i + k] if wide is None else wide[:k]
            acc[:] = columns[:, 0]
            with np.errstate(over="ignore", invalid="ignore"):
                for c in range(1, channels):
                    acc += columns[:, c]
            if channels > 1:
                acc /= channels
            if pcm:
                acc *= np.float32(PCM16_READ_SCALE)
            if wide is not None:
                mixed[i : i + k] = acc
    try:
        return Waveform._adopt(mixed, rate)
    except ValueError as exc:
        raise WavFormatError(f"{path}: {exc}") from None


def write_wav(waveform: Waveform, path) -> None:
    """Write a waveform as mono 16-bit PCM RIFF/WAVE.

    The file is the canonical 44-byte PCM header, packed here, followed by
    the little-endian samples.  Each sample a becomes rint(32768 * a)
    clamped to +-32767.  The product is formed in float32, where it is
    exact for |a| <= 1, so the integers are those of the float64 formula;
    the int16 array goes to the file as it is, without a bytes copy.

    A rate above MAX_WAV_RATE raises ValueError before the file is opened:
    the header holds the byte rate, 2 * rate, in 32 bits.
    """
    if waveform.sample_rate > MAX_WAV_RATE:
        raise ValueError(f"sample rate {waveform.sample_rate} Hz does not fit a WAV header "
                         f"(at most {MAX_WAV_RATE} Hz)")
    pcm = waveform.samples * np.float32(PCM16_FULL_SCALE)
    np.rint(pcm, out=pcm)
    np.clip(pcm, -PCM16_PEAK, PCM16_PEAK, out=pcm)
    pcm = pcm.astype("<i2")
    rate, size = waveform.sample_rate, pcm.nbytes
    # RIFF size, then a 16-byte fmt chunk: PCM, 1 channel, rate, byte rate,
    # block align and bits per sample, then the data chunk's size
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + size, b"WAVE", b"fmt ", 16,
                         1, 1, rate, 2 * rate, 2, 16, b"data", size)
    with open(path, "wb") as out:
        out.write(header)
        out.write(pcm)


@lru_cache(maxsize=64)
def _up_down(num, den, max_up: int) -> tuple[int, int]:
    """(up, down) with down / up the nearest fraction to num / den whose
    denominator is at most max_up.

    Resampling by up/down maps num / den input samples to one output; the
    same few ratios recur on every clip, so they are reduced once.
    """
    ratio = (Fraction(num) / Fraction(den)).limit_denominator(max_up)
    return ratio.denominator, ratio.numerator


# BLAS calls take at most TILE_ROWS rows and TILE_VALUES filter values, so
# m*n*k stays under OpenBLAS's 2**18 threshold for using threads: the bytes do
# not depend on the BLAS thread count, and batch workers start no threads
# (256-row calls did, oversubscribing two cores and halving --jobs 2).
TILE_ROWS = 64
TILE_VALUES = 4000


@lru_cache(maxsize=8)
def _tiles(up: int, down: int) -> tuple:
    """Tile matrices of the windowed-sinc lowpass for one reduced (up, down).

    Returns (stride, row, tiles): row i of the padded input starts at sample
    i * stride and yields `row` outputs, and tile (q0, q1, b0, b1, h) makes
    outputs q0 .. q1 - 1 of a row from its samples b0 .. b1 - 1.  Tiles of
    the same phases share one matrix, as calls share them through the cache,
    so the matrices are read-only.
    """
    span = TAPS_PER_PHASE + 1
    m = np.arange(-(TAPS_PER_PHASE // 2) * up, (TAPS_PER_PHASE // 2) * up + 1)
    # pass band ends at the tighter of the two Nyquist limits, expressed
    # in cycles per sample of the intermediate (x up) rate
    cutoff = 0.5 / max(up, down)
    taps = up * 2.0 * cutoff * np.sinc(2.0 * cutoff * m) * np.kaiser(len(m), KAISER_BETA)
    # branch r, taps[r::up] reversed, dotted with `span` inputs gives phase r
    branches = np.pad(taps, (0, up - 1)).reshape(span, up).T[:, ::-1]
    # rows of at least two windows leave room for bands of several outputs
    stride = -(-2 * span // down) * down
    row = stride // down * up
    # output q of a row sits at q*down = k*up + r on the (x up) grid and reads
    # samples k .. k + span - 1, so n adjacent outputs read at most width[n-1],
    # which a tile keeps within the row stride and 7 spans (455 rows)
    n = np.arange(1, TILE_VALUES // span + 1)
    width = (n - 1) * down // up + 1 + span
    cols = n[(width <= min(stride, 7 * span)) & (width * n <= TILE_VALUES)].max()
    # output q + up has the phase of output q and reads `down` samples later,
    # so tiles narrower than `up` outputs are built for the first `up` outputs
    # and repeated across the row: they hold at most up * 7 * span values;
    # wider ones are at most ceil(2 * span / down) tiles of TILE_VALUES each
    period = up if cols < up else row
    k, r = np.divmod(np.arange(period) * down, up)
    tiles = []
    for q0 in range(0, period, cols):
        q = np.arange(q0, min(q0 + cols, period))
        h = np.zeros((k[q[-1]] + span - k[q0], len(q)))
        h[k[q] - k[q0] + np.arange(span)[:, None], q - q0] = branches[r[q]].T
        h.flags.writeable = False
        tiles.append((q0, q[-1] + 1, k[q0], k[q[-1]] + span, h))
    return stride, row, tuple((q0 + j * up, q1 + j * up, b0 + j * down, b1 + j * down, h)
                              for j in range(row // period) for q0, q1, b0, b1, h in tiles)


def resample_sequence(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """Polyphase resampling of a 1-D signal by the rational factor up/down.

    After reduction by their gcd, up may be at most MAX_PHASES and down / up
    at most 768, the widest ratio of two rates in RATE_RANGE; any other pair,
    or an x that is not 1-D, raises ValueError before anything is allocated.
    Output length is ceil(len(x) * up / down); the result is aligned so that
    output sample j sits at input time j * down / up (no group delay), and
    it is a new float64 array.
    """
    return _resampled(x, up, down, np.float64)


def _resampled(x: np.ndarray, up: int, down: int, dtype) -> np.ndarray:
    """`resample_sequence` as a new array of `dtype`, the one resampling kernel.

    The zero-padded input is read as overlapping rows (see `_tiles`), and
    each tile of outputs is the product of a band of those rows with a tile.
    Neither the padded input nor the float64 output is built whole: one
    buffer holds the input rows of a block of TILE_ROWS rows, cast to
    float64 as they are copied in, another that block's float64 outputs,
    which are then cast into the result.  So besides the result a call
    allocates only those two buffers, and a float32 result is the float64
    one rounded.
    """
    if up <= 0 or down <= 0:
        raise ValueError(f"resampling factors must be positive, got {up}/{down}")
    g = gcd(up, down)
    up //= g
    down //= g
    # the tiles grow with up and the input block with down; no pair that
    # `resample` or `perturb_speed` builds is outside these bounds
    lo, hi = RATE_RANGE
    if up > MAX_PHASES or down > up * (hi // lo):
        raise ValueError(
            f"resampling factors {up}/{down} exceed the bound of {MAX_PHASES} "
            f"output phases and a down/up ratio of {hi // lo}"
        )
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError(f"resampled samples must be 1-D, got shape {x.shape}")
    if up == down or len(x) == 0:
        return x.astype(dtype)

    stride, row, tiles = _tiles(up, down)
    n_out = -(-len(x) * up // down)
    n_rows = -(-n_out // row)
    lead = TAPS_PER_PHASE // 2
    block = np.empty(min(TILE_ROWS, n_rows) * stride + TAPS_PER_PHASE)
    rows = np.lib.stride_tricks.sliding_window_view(block, stride + TAPS_PER_PHASE)[::stride]
    y = np.empty((min(TILE_ROWS, n_rows), row))
    out = np.empty(n_out, dtype=dtype)
    for h0 in range(0, n_rows, TILE_ROWS):
        # block[i] is sample h0 * stride + i of the padded input, i.e. x[start + i];
        # only the first block has a head pad, and only the last ones a tail
        start = h0 * stride - lead
        head = max(0, -start)
        tail = min(len(block), len(x) - start)
        block[:head] = 0.0
        block[head:tail] = x[start + head : start + tail]
        block[tail:] = 0.0
        n = min(TILE_ROWS, n_rows - h0)
        for q0, q1, b0, b1, h in tiles:
            # a band is no wider than the row stride, so BLAS reads it in place
            np.matmul(rows[:n, b0:b1], h, out=y[:n, q0:q1])
        done = y[:n].ravel()[: n_out - h0 * row]
        out[h0 * row : h0 * row + len(done)] = done
    return out


def resample(waveform: Waveform, target_rate: int) -> Waveform:
    """Resample to target_rate with anti-aliasing at the tighter Nyquist.

    Both rates must lie in RATE_RANGE.  The ratio is the nearest fraction
    with at most MAX_PHASES output phases: exact for every ratio that has
    them (all standard rates), otherwise off by at most 251 ppm for a 16 kHz
    target and under 500 ppm for any target.
    A waveform already at target_rate is returned as is (waveforms are immutable).
    """
    lo, hi = RATE_RANGE
    for name, rate in (("target_rate", target_rate), ("sample rate", waveform.sample_rate)):
        if not lo <= rate <= hi:
            raise ValueError(f"{name} {rate} Hz outside [{lo}, {hi}] Hz")
    if target_rate == waveform.sample_rate:
        return waveform
    up, down = _up_down(waveform.sample_rate, target_rate, MAX_PHASES)
    return Waveform._adopt(_resampled(waveform.samples, up, down, np.float32), target_rate)
