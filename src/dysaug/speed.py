"""Speed perturbation: uniform time-axis rescaling.

Playing x(t) back as x(factor * t) shortens the signal by the factor and
scales its whole spectrum by the same amount, which is how slow, slurred
speech is sped back up (or healthy speech degraded).  Realized as
band-limited resampling of the sample sequence while keeping the declared
rate fixed, i.e. the classic sox "speed" effect.
"""

from __future__ import annotations

import numpy as np

from .audio_io import Waveform, _resampled, _up_down

__all__ = ["SPEED_FACTOR_RANGE", "MIN_OUTPUT_SAMPLES", "perturb_speed"]

SPEED_FACTOR_RANGE = (0.25, 4.0)

# an output shorter than one filter branch (64 taps) is useless as speech,
# so it is rejected rather than produced
MIN_OUTPUT_SAMPLES = 64


def _check_factor(factor: float, kind: str = "speed", bounds=SPEED_FACTOR_RANGE) -> None:
    lo, hi = bounds
    if not lo <= factor <= hi:
        raise ValueError(f"{kind} factor {factor} outside [{lo}, {hi}]")


def perturb_speed(waveform: Waveform, factor: float) -> Waveform:
    """Rescale the time axis by `factor` at a fixed declared sample rate.

    The output has round(len / factor) samples (within one), and a pure tone
    at frequency f moves to factor * f.  factor > 1 gives faster, higher
    speech; factor < 1 slower, lower speech.
    """
    _check_factor(factor)
    if len(waveform) == 0:
        raise ValueError("cannot speed-perturb an empty waveform")

    up, down = _up_down(factor, 1, 1000)
    n_out = -(-len(waveform) * up // down)
    if n_out < MIN_OUTPUT_SAMPLES:
        raise ValueError(
            f"speed factor {factor} on {len(waveform)} samples leaves "
            f"{n_out} samples, below the minimum of {MIN_OUTPUT_SAMPLES}"
        )
    return Waveform._adopt(_resampled(waveform.samples, up, down, np.float32),
                           waveform.sample_rate)
