"""Reference WSOLA kernels for the byte-identity tests, each a former
`perturb_tempo` kept verbatim apart from its name.

- `oracle_perturb_tempo` is the per-frame kernel from before window
  energies came from one prefix sum per call.
- `prefix_sum_perturb_tempo` is the kernel from before the seek filtered its
  candidates in float32: per-call prefix-sum norms, an exhaustive float64
  seek and the cached window envelope.

The second is the reference for near-tie inputs, whose candidates score
equal or within rounding of each other.  The first cannot serve there: the
two kernels round window norms differently, and that alone tips exact ties
between candidates, so at factor 1.3 they already differ on a tiled period
of 64 samples and on a 1e-9 tail after loud noise.
"""

import numpy as np

from dysaug.audio_io import Waveform
from dysaug.speed import _check_factor
from dysaug.tempo import TEMPO_FACTOR_RANGE, WsolaConfig, _geometry, _hann


def oracle_perturb_tempo(waveform: Waveform, factor: float, config: WsolaConfig | None = None) -> Waveform:
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
    lo, hi = TEMPO_FACTOR_RANGE
    if not lo <= factor <= hi:
        raise ValueError(f"tempo factor {factor} outside [{lo}, {hi}]")
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

    acc = np.zeros(n_out + frame + hop)
    envelope = np.zeros_like(acc)

    prev_start = 0
    for m in range(n_frames):
        synth_pos = m * hop
        nominal = int(round(synth_pos / factor))
        if m == 0 or tol == 0:
            start = min(nominal, max_start)
        else:
            target = x[prev_start + hop : prev_start + hop + frame]
            lo_pos = max(0, nominal - tol)
            hi_pos = min(nominal + tol, max_start)
            region = x[lo_pos : hi_pos + frame]
            dots = np.correlate(region, target, mode="valid")
            sq = np.concatenate([[0.0], np.cumsum(region * region)])
            norms = np.sqrt(sq[frame:] - sq[:-frame])
            denom = norms * np.sqrt(target @ target)
            ncc = np.where(denom > 1e-12, dots / np.maximum(denom, 1e-12), 0.0)
            start = lo_pos + int(np.argmax(ncc))
        acc[synth_pos : synth_pos + frame] += win * x[start : start + frame]
        envelope[synth_pos : synth_pos + frame] += win
        prev_start = start

    y = acc[:n_out] / np.maximum(envelope[:n_out], 1e-8)
    return Waveform(y, waveform.sample_rate)


def prefix_sum_perturb_tempo(waveform: Waveform, factor: float, config: WsolaConfig | None = None) -> Waveform:
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
