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
- The candidate range of every frame, and the smallest candidate norm in
  it, are computed before the loop.
- A seek scores every candidate with a float32 cross-correlation of the
  same float32 samples, divided by the float64 product of norms.  Where
  the best of these scores beats every other by more than twice a derived
  rounding margin (see `perturb_tempo`'s body), it is the float64 seek's
  pick.  Otherwise only the span of candidates within twice the margin of
  the best is scored again in float64 and its argmax taken, first on ties.
  So the float32 filter changes no pick: it only saves the float64
  correlation where the best is clear, about 99% of frames on speech-like
  input.
- A candidate whose normalizing product is at most 1e-12 scores 0: its
  product is set to infinity before the division.  A frame with such a
  candidate, found from the smallest candidate norm, skips the filter, and
  the same float64 seek scores its whole span.
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


def _gamma(n: int, w: float) -> float:
    """Higham's gamma_n = n w / (1 - n w) for unit roundoff w, infinite
    once n w reaches 1/2."""
    return n * w / (1 - n * w) if n * w < 0.5 else np.inf


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

    # zero-pad so late frames and the continuation target stay in bounds;
    # x32 holds the same values, as the samples are float32
    x = np.zeros(n + frame + tol + hop)
    x[:n] = waveform.samples
    x32 = x.astype(np.float32)
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
    loudest = float(blocks[:, -1].max())
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
    # least[m] = the smallest candidate norm of frame m (hi + 1 < len(norms))
    bounds = np.empty(2 * n_frames, dtype=np.intp)
    bounds[0::2] = lo
    bounds[1::2] = hi + 1
    least = np.minimum.reduceat(norms, bounds)[0::2]

    # The seek scores candidate j by f_j = fl(d_j / q_j): d_j is the float64
    # dot of its window with the target window t, q_j = fl(norms[j] * T^),
    # T^ = norms[target].  The filter scores s_j = fl(c_j / q_j) from the
    # float32 dot c_j of the same float32 samples.  It runs only on frames
    # whose q_j all exceed 1e-12 (q_j >= fl(least * T^), as rounding is
    # monotone); with D_j the exact dot, A_j = sum_i |x_i t_i|, u = 2^-53,
    # F = frame and g = _gamma:
    # - |c_j - D_j| <= g(F, 2^-24) A_j + F 2^-125 and |d_j - D_j| <= g(F, u) A_j,
    #   whatever the summation order, blocking or fused multiply-adds
    #   (Higham 2002, section 3.1).  The float64 products of float32 samples
    #   are exact; a float32 product that underflows is off by less than
    #   2^-126 even where subnormals are flushed to zero, at most doubled by
    #   the later roundings while F 2^-24 < 1/2.
    # - The two divisions round by u each, so
    #   |s_j - f_j| <= (g(F, 2^-24) + g(F, u) + 3u) A_j / q_j + F 2^-124 / 1e-12.
    # - A_j <= ||x_j|| ||t|| (Cauchy-Schwarz), and the computed norms can
    #   fall short of these.  Each prefix entry is off by at most g(F, u)
    #   times its block's energy, so a window energy, from three entries and
    #   two roundings, is off by at most 4 g(F + 2, u) E, E the loudest
    #   block's energy, which is at most 5/4 of its computed `loudest`.  A
    #   quiet window beside a loud block can cancel to near 0, so with
    #   rho = sqrt(5 g(F + 2, u) loudest), ||x_j|| <= norms[j] + rho and
    #   ||x_j|| ||t|| / q_j <= (1 + rho / least) (1 + rho / T^) up to a few
    #   roundings of u.
    # So |s_j - f_j| <= margin = unit (1 + rho / least) (1 + rho / T^) + floor,
    # where unit's factor 1 + 2^-20 covers those roundings and the ones made
    # computing the margin and the threshold.  The first float64 argmax k*
    # has s_k* >= f_k* - margin >= f_j - margin >= s_j - 2 margin for every
    # j, so k* lies in the span of candidates within 2 margin of the best
    # filter score.  Where the best is alone there, it is k*; otherwise the
    # span is scored in float64, first index on ties (np.correlate takes
    # each candidate's dot on its own, so the span's scores are bit for bit
    # those of the whole range).  A frame with a product at most 1e-12
    # skips the filter, so the same float64 seek scores its whole span, as
    # it does every frame's if F 2^-24 >= 1/2, where the margin is infinite.
    unit = (_gamma(frame, 2.0**-24) + _gamma(frame, 2.0**-53) + 3 * 2.0**-53) * (1 + 2.0**-20)
    rho = (5 * _gamma(frame + 2, 2.0**-53) * loudest) ** 0.5
    floor = frame * 2.0**-124 / 1e-12

    acc = np.zeros(n_out + frame + hop)
    acc[:frame] += win * x[:frame]  # frame 0 starts at 0
    windowed = np.empty(frame)
    prev_start = 0
    positions = range(hop, n_frames * hop, hop)
    for pos, lo_pos, hi_pos, least_norm in zip(positions, lo[1:].tolist(), hi[1:].tolist(),
                                               least[1:].tolist()):
        target_pos = prev_start + hop
        target_norm = norms.item(target_pos)
        denom = norms[lo_pos : hi_pos + 1] * target_norm
        first, last = 0, hi_pos - lo_pos
        if least_norm * target_norm > 1e-12:
            scores = np.correlate(x32[lo_pos : hi_pos + frame], x32[target_pos : target_pos + frame],
                                  mode="valid")
            scores = scores / denom
            best = int(scores.argmax())
            margin = unit * (1 + rho / least_norm) * (1 + rho / target_norm) + floor
            near = scores >= scores.item(best) - 2 * margin
            if np.count_nonzero(near) > 1:
                span = near.nonzero()[0]
                first, last = int(span[0]), int(span[-1])
            else:
                first = last = best
        if first < last:
            # the float64 seek: a product at most 1e-12 becomes infinity, and
            # ncc / inf is +-0, which argmax ranks as that 0
            ncc = np.correlate(x[lo_pos + first : lo_pos + last + frame],
                               x[target_pos : target_pos + frame], mode="valid")
            denom = denom[first : last + 1]
            denom[denom <= 1e-12] = np.inf
            ncc /= denom
            first += int(ncc.argmax())
        start = lo_pos + first
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
