"""Tempo perturbation via waveform-similarity overlap-add (WSOLA).

Changes duration by a factor while leaving pitch and spectral envelope
alone: output frames are laid down at a fixed synthesis hop, and each one
is copied from wherever, within a small tolerance around its nominal
analysis position, the input best continues the previously copied frame.
The energies of all candidate windows, and of the continuation target,
come from one prefix sum of the squared input per call (restarted every
frame length, so quiet passages after loud ones keep their precision), so
each frame's seek is one cross-correlation, a slice of that table and an
in-place normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import Waveform
from .speed import perturb_speed

__all__ = ["TEMPO_FACTOR_RANGE", "WsolaConfig", "perturb_tempo", "pertubate_signal"]

TEMPO_FACTOR_RANGE = (0.25, 4.0)


@dataclass(frozen=True)
class WsolaConfig:
    """WSOLA frame geometry.  Defaults are tuned for 16 kHz speech:
    32 ms frames, 50% overlap, 10 ms alignment tolerance."""

    frame_length: int = 512
    synthesis_hop: int = 256
    tolerance: int = 160

    def __post_init__(self):
        if self.frame_length <= 0 or self.frame_length % 2:
            raise ValueError(f"frame_length must be a positive even number, got {self.frame_length}")
        if not 0 < self.synthesis_hop <= self.frame_length:
            raise ValueError(
                f"synthesis_hop must be in (0, frame_length], got {self.synthesis_hop}"
            )
        if self.tolerance < 0:
            raise ValueError(f"tolerance must be non-negative, got {self.tolerance}")


def _check_factor(factor: float) -> None:
    lo, hi = TEMPO_FACTOR_RANGE
    if not lo <= factor <= hi:
        raise ValueError(f"tempo factor {factor} outside [{lo}, {hi}]")


def _hann(n: int) -> np.ndarray:
    # periodic form: sums to a constant at 50% overlap
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def perturb_tempo(waveform: Waveform, factor: float, config: WsolaConfig | None = None) -> Waveform:
    """Stretch or compress duration by `factor` with pitch preserved.

    Output length is exactly round(factor * len).  factor < 1 shortens
    (faster speech), factor > 1 lengthens (slower speech).

    Per output frame m at synthesis position m * hop, the nominal analysis
    position is m * hop / factor; the copied segment is the one within
    +-tolerance of that position whose normalized cross-correlation with
    the natural continuation of the previous copy is maximal.  Frames are
    windowed, overlap-added, and renormalized by the accumulated window
    envelope, which keeps amplitudes bounded.
    """
    cfg = config if config is not None else WsolaConfig()
    _check_factor(factor)
    n = len(waveform)
    if n < cfg.frame_length:
        raise ValueError(
            f"input of {n} samples is shorter than one analysis frame ({cfg.frame_length})"
        )

    frame = cfg.frame_length
    hop = cfg.synthesis_hop
    tol = cfg.tolerance
    win = _hann(frame)

    n_out = int(round(factor * n))
    n_frames = max(1, -(-n_out // hop))

    # zero-pad so late frames and the continuation target stay in bounds
    x = np.concatenate([waveform.samples.astype(np.float64), np.zeros(frame + tol + hop)])
    max_start = len(x) - frame

    # norms[k] = ||x[k : k + frame]|| for every start k, from one prefix sum
    # of x*x that restarts every `frame` samples.  Each energy is then
    # rounded relative to the two blocks it spans, as a per-window sum is,
    # not relative to a running total over the clip, whose rounding step
    # would exceed the energy of a quiet passage after seconds of loud input.
    # Window k = b*frame + r + 1 is block b after r plus block b+1 up to r:
    # total[b] + (prefix[b+1, r] - prefix[b, r]), clamped at 0 against rounding.
    n_blocks = len(x) // frame + 1
    prefix = np.zeros(n_blocks * frame)
    np.square(x, out=prefix[: len(x)])
    blocks = prefix.reshape(n_blocks, frame)
    np.cumsum(blocks, axis=1, out=blocks)
    norms = np.empty(len(prefix) - frame + 1)
    norms[0] = blocks[0, -1]
    np.subtract(prefix[frame:], prefix[:-frame], out=norms[1:])
    spans = norms[1:].reshape(n_blocks - 1, frame)
    spans += blocks[:-1, -1:]
    np.maximum(norms, 0.0, out=norms)
    np.sqrt(norms, out=norms)
    del prefix, blocks

    acc = np.zeros(n_out + frame + hop)
    envelope = np.zeros_like(acc)

    prev_start = 0
    for m in range(n_frames):
        synth_pos = m * hop
        nominal = int(round(synth_pos / factor))
        if m == 0:
            start = min(nominal, max_start)
        else:
            target = x[prev_start + hop : prev_start + hop + frame]
            lo_pos = max(0, nominal - tol)
            hi_pos = min(nominal + tol, max_start)
            ncc = np.correlate(x[lo_pos : hi_pos + frame], target, mode="valid")
            denom = norms[lo_pos : hi_pos + 1] * norms[prev_start + hop]
            live = denom > 1e-12
            np.divide(ncc, denom, out=ncc, where=live)
            ncc[~live] = 0.0
            start = lo_pos + int(np.argmax(ncc))
        acc[synth_pos : synth_pos + frame] += win * x[start : start + frame]
        envelope[synth_pos : synth_pos + frame] += win
        prev_start = start

    y = acc[:n_out] / np.maximum(envelope[:n_out], 1e-8)
    return Waveform(y, waveform.sample_rate)


def pertubate_signal(waveform: Waveform, params) -> Waveform:
    """Full two-stage dysarthric perturbation: speed first, then tempo.

    `params` is a PerturbationParams (or anything with .speed and .tempo).
    Output length is round(len * tempo / speed) within one frame.
    """
    sped = perturb_speed(waveform, params.speed)
    return perturb_tempo(sped, params.tempo)
