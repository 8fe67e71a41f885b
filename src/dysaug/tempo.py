"""Tempo perturbation via waveform-similarity overlap-add (WSOLA).

Changes duration by a factor while leaving pitch and spectral envelope
alone: output frames are laid down at a fixed synthesis hop, and each one
is copied from wherever, within a small tolerance around its nominal
analysis position, the input best continues the previously copied frame.
Only the seek and the overlap-add run per frame; everything else is done
once per chunk of frames or once per geometry.  A chunk's frames read
about TEMPO_CHUNK samples of input, so the work arrays have a fixed size
whatever the clip's length, and a clip shorter than that is one chunk:

- The energies of the chunk's candidate windows, and of its continuation
  targets, come from one prefix sum of the squared input span it reads
  (restarted every frame length from sample 0, so quiet passages after
  loud ones keep their precision, and a window's energy is the same bits
  in whichever chunk reads it).
- The candidate range of every frame in the chunk, and the smallest
  candidate norm in it, are computed before the chunk's loop.
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
  once per geometry and cached.  Once a chunk's frames are added, its
  output is final: it is divided by them in place and cast to float32.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio_io import Waveform
from .speed import _check_factor, perturb_speed

__all__ = ["TEMPO_FACTOR_RANGE", "WsolaConfig", "perturb_tempo", "pertubate_signal"]

TEMPO_FACTOR_RANGE = (0.25, 4.0)

# `perturb_tempo` runs its frames in chunks of about this many input samples
# (2 s at 16 kHz), so its float64 work arrays do not grow with the clip
TEMPO_CHUNK = 1 << 15


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


def _window_norms(x: np.ndarray, frame: int) -> tuple[np.ndarray, float]:
    """(norms, loudest) of a span x of whole `frame`-length blocks.

    norms[k] = ||x[k : k + frame]|| for every start k, from one prefix sum of
    x*x that restarts every `frame` samples.  Each energy is then rounded
    relative to the two blocks it spans, as a per-window sum is, not
    relative to a running total over the span, whose rounding step would
    exceed the energy of a quiet passage after seconds of loud input.
    Window k = b*frame + r + 1 is block b after r plus block b+1 up to r:
    total[b] + (prefix[b+1, r] - prefix[b, r]), clamped at 0 against
    rounding; norms[0] is block 0's total.  So a window's norm depends only
    on the two blocks it spans, and spans that start on the same block grid
    give it bit for bit.  `loudest` is the largest block total.
    """
    blocks = np.square(x).reshape(-1, frame)
    np.cumsum(blocks, axis=1, out=blocks)
    prefix = blocks.ravel()
    norms = np.empty(len(prefix) - frame + 1)
    norms[0] = blocks[0, -1]
    np.subtract(prefix[frame:], prefix[:-frame], out=norms[1:])
    spans = norms[1:].reshape(-1, frame)
    spans += blocks[:-1, -1:]
    np.maximum(norms, 0.0, out=norms)
    np.sqrt(norms, out=norms)
    return norms, float(blocks[:, -1].max())


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
    samples = waveform.samples

    n_out = int(round(factor * n))
    n_frames = max(1, -(-n_out // hop))
    # as if the input were zero-padded by frame + tol + hop samples, so late
    # frames and the continuation target stay in bounds
    max_start = n + tol + hop

    # The frames run in chunks of about TEMPO_CHUNK input samples each (a
    # shorter clip is one chunk).  A chunk reads the span of input its seeks
    # reach, from a frame-length block boundary, and overlap-adds into `acc`,
    # whose sample 0 is output sample m0 * hop.  Once its frames are added,
    # the chunk's hop-long periods of output are final: they are divided by
    # the window envelope and cast into `out`, and the tail that later frames
    # still add to moves to the front of `acc`.
    n_chunks = -(-n // TEMPO_CHUNK)
    per = -(-n_frames // n_chunks)
    out = np.empty(n_out, dtype=np.float32)
    acc = np.zeros(per * hop + frame)
    windowed = np.empty(frame)

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
    #   two roundings, is off by at most 4 g(F + 2, u) E, E the energy of
    #   the loudest block it spans.  Every window a chunk scores, candidate
    #   or target, lies in the chunk's span, so E is at most 5/4 of
    #   `loudest`, the largest computed block energy of that span.  A quiet
    #   window beside a loud block can cancel to near 0, so with
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
    # The margin decides only where the float64 seek runs, never what it
    # picks, so a chunk's own `loudest`, a tighter bound than the clip's,
    # changes no pick.
    unit = (_gamma(frame, 2.0**-24) + _gamma(frame, 2.0**-53) + 3 * 2.0**-53) * (1 + 2.0**-20)
    floor = frame * 2.0**-124 / 1e-12
    prev_start = 0  # where the previous frame was copied from
    for m0 in range(0, n_frames, per):
        m1 = min(m0 + per, n_frames)
        # Candidate starts of frame m are lo[m]..hi[m] around the nominal
        # m * hop / factor, rounded half to even as round() does.
        nominal = np.rint(np.arange(m0, m1) * hop / factor)
        lo = np.maximum(nominal - tol, 0).astype(np.intp)
        hi = np.minimum(nominal + tol, max_start).astype(np.intp)
        # The span the chunk reads holds every candidate window and every
        # target (a pick plus hop, so at most hi + hop).  It starts on the
        # block boundary before the lowest of them: a span's norms[0] is its
        # first block's total, which only a span from sample 0 may use.
        low = 0 if m0 == 0 else min(lo[0], prev_start + hop)
        s0 = max(0, (low - 1) // frame) * frame
        s1 = -(-(hi[-1] + hop + frame) // frame) * frame
        x32 = np.zeros(s1 - s0, dtype=np.float32)
        piece = samples[s0:s1]
        x32[: len(piece)] = piece
        x = x32.astype(np.float64)  # the same values, as the samples are float32
        norms, loudest = _window_norms(x, frame)
        lo -= s0
        hi -= s0
        # least[m] = the smallest candidate norm of frame m (hi + 1 < len(norms))
        bounds = np.empty(2 * len(lo), dtype=np.intp)
        bounds[0::2] = lo
        bounds[1::2] = hi + 1
        least = np.minimum.reduceat(norms, bounds)[0::2]
        rho = (5 * _gamma(frame + 2, 2.0**-53) * loudest) ** 0.5  # the margin's, above

        skip = int(m0 == 0)
        if skip:
            acc[:frame] += win * x[:frame]  # frame 0 starts at 0
        prev = prev_start - s0
        positions = range(skip * hop, (m1 - m0) * hop, hop)
        for pos, lo_pos, hi_pos, least_norm in zip(positions, lo[skip:].tolist(),
                                                   hi[skip:].tolist(), least[skip:].tolist()):
            target_pos = prev + hop
            target_norm = norms.item(target_pos)
            denom = norms[lo_pos : hi_pos + 1] * target_norm
            first, last = 0, hi_pos - lo_pos
            if least_norm * target_norm > 1e-12:
                scores = np.correlate(x32[lo_pos : hi_pos + frame],
                                      x32[target_pos : target_pos + frame], mode="valid")
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
            prev = lo_pos + first
            np.multiply(win, x[prev : prev + frame], out=windowed)
            acc[pos : pos + frame] += windowed
        prev_start = prev + s0

        # Renormalize the finished periods by the envelope: output sample p
        # is divided by head[p] below len(head), a whole number of hops, and
        # by period[p % hop] from there (samples past n_out are divided too,
        # but never returned).
        done = (m1 - m0) * hop
        p0 = m0 * hop
        split = min(max(len(head) - p0, 0), done)
        acc[:split] /= head[p0 : p0 + split]
        periods = acc[split:done].reshape(-1, hop)
        periods /= period
        kept = min(done, n_out - p0)
        out[p0 : p0 + kept] = acc[:kept]
        acc[:frame] = acc[done : done + frame]
        acc[frame:] = 0.0
    return Waveform._adopt(out, waveform.sample_rate)


def pertubate_signal(waveform: Waveform, params) -> Waveform:
    """Full two-stage dysarthric perturbation: speed first, then tempo.

    `params` is a PerturbationParams (or anything with .speed and .tempo).
    Output length is round(len * tempo / speed) within one frame.
    """
    sped = perturb_speed(waveform, params.speed)
    return perturb_tempo(sped, params.tempo)
