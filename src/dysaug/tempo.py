"""Tempo perturbation via waveform-similarity overlap-add (WSOLA).

Changes duration by a factor while leaving pitch and spectral envelope
alone: output frames are laid down at a fixed synthesis hop, and each one
is copied from wherever, within a small tolerance around its nominal
analysis position, the input best continues the previously copied frame.
Only the seek and the overlap-add run per frame; everything else is done
once per call or once per geometry:

- The energies of all candidate windows, and of the continuation target,
  come from one prefix sum of the squared input per call (restarted every
  frame length, so quiet passages after loud ones keep their precision).
- The candidate range of every frame is computed before the loop, so a
  seek is one cross-correlation, one product of norms, one in-place
  division and an argmax.
- A candidate whose normalizing product is at most 1e-12 scores 0: its
  product is set to infinity before the division.
- The window envelope depends only on the geometry for every returned
  sample: a head, then one hop-long period that repeats.  Both are built
  once per geometry and cached, and the output is divided by them in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio_io import Waveform
from .speed import _check_factor, perturb_speed

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


def _hann(n: int) -> np.ndarray:
    # periodic form: sums to a constant at 50% overlap
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


@lru_cache(maxsize=16)
def _geometry(frame: int, hop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(window, envelope head, envelope period) of one frame geometry.

    Frames run up to ceil(n_out / hop) - 1, so every frame m with
    m * hop <= p < m * hop + frame exists for a returned sample p < n_out,
    and the overlap-added window envelope there depends on p alone: a head
    of (c - 1) * hop samples, c = ceil(frame / hop), then one hop-long
    period that repeats.  Both are summed in frame order, as a frame-by-frame
    accumulation would, and clamped at 1e-8.  The arrays are shared between
    calls, so they are read-only.
    """
    win = _hann(frame)
    c = -(-frame // hop)
    envelope = np.zeros(c * hop + frame)
    for m in range(c):
        envelope[m * hop : m * hop + frame] += win
    np.maximum(envelope, 1e-8, out=envelope)
    head = envelope[: (c - 1) * hop]
    period = envelope[(c - 1) * hop : c * hop]
    for a in (win, head, period):
        a.flags.writeable = False
    return win, head, period


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
    _check_factor(factor, "tempo", TEMPO_FACTOR_RANGE)
    n = len(waveform)
    if n < cfg.frame_length:
        raise ValueError(
            f"input of {n} samples is shorter than one analysis frame ({cfg.frame_length})"
        )

    frame = cfg.frame_length
    hop = cfg.synthesis_hop
    tol = cfg.tolerance
    win, head, period = _geometry(frame, hop)

    n_out = int(round(factor * n))
    n_frames = max(1, -(-n_out // hop))

    # zero-pad so late frames and the continuation target stay in bounds
    x = np.zeros(n + frame + tol + hop)
    x[:n] = waveform.samples
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

    # Candidate starts of frame m are lo[m]..hi[m] around the nominal
    # m * hop / factor, rounded half to even as round() does.
    nominal = np.rint(np.arange(n_frames) * hop / factor)
    lo = np.maximum(nominal - tol, 0).astype(np.intp)
    hi = np.minimum(nominal + tol, max_start).astype(np.intp)

    acc = np.zeros(n_out + frame + hop)
    acc[:frame] += win * x[:frame]  # frame 0 starts at 0
    windowed = np.empty(frame)
    prev_start = 0
    positions = range(hop, n_frames * hop, hop)
    for pos, lo_pos, hi_pos in zip(positions, lo[1:].tolist(), hi[1:].tolist()):
        target_pos = prev_start + hop
        target_norm = norms.item(target_pos)
        ncc = np.correlate(x[lo_pos : hi_pos + frame], x[target_pos : target_pos + frame], mode="valid")
        denom = norms[lo_pos : hi_pos + 1] * target_norm
        # a candidate whose normalizing product is at most 1e-12 scores 0:
        # ncc / inf is +-0, which argmax ranks as that 0
        denom[denom <= 1e-12] = np.inf
        ncc /= denom
        start = lo_pos + int(ncc.argmax())
        np.multiply(win, x[start : start + frame], out=windowed)
        acc[pos : pos + frame] += windowed
        prev_start = start

    # renormalize by the envelope: the head, then whole periods (samples
    # past n_out are divided too, but never returned)
    split = min(len(head), n_out)
    acc[:split] /= head[:split]
    n_periods = max(0, -(-(n_out - split) // hop))
    periods = acc[split : split + n_periods * hop].reshape(n_periods, hop)
    periods /= period
    return Waveform(acc[:n_out], waveform.sample_rate)


def pertubate_signal(waveform: Waveform, params) -> Waveform:
    """Full two-stage dysarthric perturbation: speed first, then tempo.

    `params` is a PerturbationParams (or anything with .speed and .tempo).
    Output length is round(len * tempo / speed) within one frame.
    """
    sped = perturb_speed(waveform, params.speed)
    return perturb_tempo(sped, params.tempo)
