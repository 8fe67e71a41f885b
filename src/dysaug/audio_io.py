"""Mono waveform I/O and band-limited resampling.

Everything downstream works on float amplitudes in [-1, 1] at a declared
sample rate, so this module is the only place that knows about RIFF/WAVE
containers and PCM scaling.
"""

from __future__ import annotations

import struct
import wave
from dataclasses import dataclass
from math import gcd
from pathlib import Path

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


@dataclass(frozen=True)
class Waveform:
    """Mono audio: float32 amplitudes in [-1, 1] plus a sample rate in Hz.

    Building one clips the samples into a new array, never a view of the caller's.
    The fields cannot be reassigned and the samples are read-only, so they
    keep the constructor's checks.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float32)
        if samples.ndim != 1:
            raise ValueError(f"waveform samples must be 1-D, got shape {samples.shape}")
        # NaN/Inf would reach write_wav's int16 cast, whose result is platform-defined
        if not np.isfinite(samples).all():
            raise ValueError("waveform has non-finite samples (NaN or Inf)")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        clipped = np.clip(samples, -1.0, 1.0)
        clipped.flags.writeable = False
        object.__setattr__(self, "samples", clipped)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return len(self.samples) / self.sample_rate


def _parse_fmt_chunk(body: bytes) -> tuple[int, int, int, int]:
    if len(body) < 16:
        raise WavFormatError(f"fmt chunk too short: {len(body)} bytes")
    format_tag, channels, rate, _byte_rate, _block_align, bits = struct.unpack("<HHIIHH", body[:16])
    if format_tag == 0xFFFE:  # WAVE_FORMAT_EXTENSIBLE: real tag sits in the sub-format GUID
        if len(body) < 26:
            raise WavFormatError("extensible fmt chunk missing sub-format")
        format_tag = struct.unpack("<H", body[24:26])[0]
    return format_tag, channels, rate, bits


def read_wav(path) -> Waveform:
    """Read a RIFF/WAVE file as a mono waveform.

    Accepts 16-bit PCM and 32-bit IEEE float, any channel count.
    Multi-channel audio is downmixed to the per-frame mean: channels are
    added in order (in float32 for float data, float64 for PCM16), then
    divided by their count.

    Raises FileNotFoundError for a missing file, WavFormatError for a
    malformed container or non-finite float samples, and
    UnsupportedCodecError for any other codec.
    """
    raw = Path(path).read_bytes()
    view = memoryview(raw)  # chunk bodies are sliced without copying
    if len(raw) < 12 or raw[:4] != b"RIFF":
        raise WavFormatError(f"{path}: not a RIFF file (leading bytes {raw[:4]!r})")
    if raw[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: RIFF form type is {raw[8:12]!r}, expected b'WAVE'")

    fmt_body = None
    data_body = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (size,) = struct.unpack("<I", raw[pos + 4 : pos + 8])
        body = view[pos + 8 : pos + 8 + size]
        if chunk_id == b"fmt ":
            fmt_body = body
        elif chunk_id == b"data":
            data_body = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt_body is None:
        raise WavFormatError(f"{path}: missing fmt chunk")
    if data_body is None:
        raise WavFormatError(f"{path}: missing data chunk")

    format_tag, channels, rate, bits = _parse_fmt_chunk(fmt_body)
    if channels < 1:
        raise WavFormatError(f"{path}: channel count is {channels}")
    if rate <= 0:
        raise WavFormatError(f"{path}: declared sample rate is {rate}")

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

    frame_bytes = channels * dtype.itemsize
    usable = len(data_body) - len(data_body) % frame_bytes
    frames = np.frombuffer(data_body[:usable], dtype=dtype)
    if dtype.kind == "f" and not np.isfinite(frames).all():
        raise WavFormatError(f"{path}: non-finite samples (NaN or Inf) in float data")
    if channels > 1:
        # column by column, as np.mean's reduction does up to 7 channels,
        # but without its strided per-frame loop
        columns = frames.reshape(-1, channels)
        mixed = columns[:, 0].astype(np.float64 if dtype.kind == "i" else np.float32)
        for c in range(1, channels):
            mixed += columns[:, c]
        mixed /= channels
        frames = mixed
    if dtype.kind == "i":
        frames = frames * PCM16_READ_SCALE
    return Waveform(frames, rate)


def write_wav(waveform: Waveform, path) -> None:
    """Write a waveform as mono 16-bit PCM RIFF/WAVE."""
    pcm = np.rint(waveform.samples.astype(np.float64) * PCM16_FULL_SCALE)
    np.clip(pcm, -PCM16_PEAK, PCM16_PEAK, out=pcm)
    pcm = pcm.astype("<i2")
    with wave.open(str(path), "wb") as out:
        out.setnchannels(1)
        out.setsampwidth(2)
        out.setframerate(waveform.sample_rate)
        out.writeframes(pcm.tobytes())


_branch_cache: dict[tuple[int, int], np.ndarray] = {}


def _branches(up: int, down: int) -> np.ndarray:
    """Polyphase branch filters of the windowed-sinc lowpass for one (up, down).

    Row r holds taps[r::up] reversed and front-padded to TAPS_PER_PHASE + 1,
    so a window of the input dotted with row r yields an output at phase r.
    """
    key = (up, down)
    got = _branch_cache.get(key)
    if got is None:
        half = (TAPS_PER_PHASE // 2) * up
        n_taps = 2 * half + 1
        m = np.arange(n_taps) - half
        # pass band ends at the tighter of the two Nyquist limits, expressed
        # in cycles per sample of the intermediate (x up) rate
        cutoff = 0.5 / max(up, down)
        taps = up * 2.0 * cutoff * np.sinc(2.0 * cutoff * m) * np.kaiser(n_taps, KAISER_BETA)
        got = np.pad(taps, (0, up - 1)).reshape(TAPS_PER_PHASE + 1, up).T[:, ::-1].copy()
        if len(_branch_cache) < 64:
            _branch_cache[key] = got
    return got


def resample_sequence(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """Polyphase resampling of a 1-D signal by the rational factor up/down.

    Output length is ceil(len(x) * up / down); the result is aligned so that
    output sample j sits at input time j * down / up (no group delay).
    """
    if up <= 0 or down <= 0:
        raise ValueError(f"resampling factors must be positive, got {up}/{down}")
    g = gcd(up, down)
    up //= g
    down //= g
    x = np.asarray(x, dtype=np.float64)
    if up == down:
        return x.copy()
    if len(x) == 0:
        return x.copy()

    branches = _branches(up, down)
    n_out = -(-len(x) * up // down)
    # Output j sits at j*down = k*up + r on the (x up) grid: it is the input
    # window x[k-32 : k+33] dotted with branch r.  Outputs j0, j0+up, ...
    # share r and step k by `down`.  einsum, unlike matmul, keeps its fast
    # loop when windows overlap (down < 65), as they do for speed factors.
    lead = TAPS_PER_PHASE // 2
    last_k = (n_out - 1) * down // up
    xpad = np.pad(x, (lead, max(0, last_k + lead + 1 - len(x))))
    windows = np.lib.stride_tricks.sliding_window_view(xpad, TAPS_PER_PHASE + 1)
    y = np.empty(n_out)
    for j0 in range(min(up, n_out)):
        k0, r = divmod(j0 * down, up)
        phase = y[j0::up]
        np.einsum("ij,j->i", windows[k0::down][: len(phase)], branches[r], out=phase)
    return y


def resample(waveform: Waveform, target_rate: int) -> Waveform:
    """Resample to target_rate with anti-aliasing at the tighter Nyquist.

    A waveform already at target_rate comes back with the same samples.
    """
    if target_rate <= 0:
        raise ValueError(f"target_rate must be positive, got {target_rate}")
    if target_rate == waveform.sample_rate:
        return Waveform(waveform.samples, target_rate)
    y = resample_sequence(waveform.samples, target_rate, waveform.sample_rate)
    return Waveform(y, target_rate)
