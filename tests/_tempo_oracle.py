"""Reference WSOLA kernel for the byte-identity tests: `perturb_tempo` as it
was before window energies came from one prefix sum per call, kept
verbatim apart from its name."""

import numpy as np

from dysaug.audio_io import Waveform
from dysaug.tempo import TEMPO_FACTOR_RANGE, WsolaConfig, _hann


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
