"""`perturb_tempo` must give exactly the samples of the frozen per-frame
kernel in `_tempo_oracle`: the per-call window energies may only change
how the seek is computed, never which frame it picks."""

import numpy as np
import pytest

from dysaug import (
    SEVERITIES,
    Waveform,
    WsolaConfig,
    params_for,
    perturb_speed,
    perturb_tempo,
    pertubate_signal,
)

from ._tempo_oracle import oracle_perturb_tempo

RATE = 16000


def _signals():
    rng = np.random.default_rng(2024)
    t = np.arange(RATE) / RATE
    chirp = 0.7 * np.sin(2 * np.pi * (150.0 * t + 875.0 * t**2)) * (0.6 + 0.4 * np.sin(6 * np.pi * t))
    gaps = 0.3 * rng.standard_normal(RATE)
    gaps[(t % 0.25) < 0.1] = 0.0
    # amplitude rises from 3e-11 to 0.3, so the products of window norms
    # that normalize the early seeks span the 1e-12 below which a candidate
    # scores 0
    faint_onset = 0.3 * rng.standard_normal(RATE) * np.logspace(-10, 0, RATE)
    return {
        "chirp": chirp,
        "tone_noise": 0.5 * np.sin(2 * np.pi * 220.0 * t) + 0.05 * rng.standard_normal(RATE),
        "white_noise": 0.3 * rng.standard_normal(RATE),
        "noise_with_gaps": gaps,
        "zeros": np.zeros(RATE),
        "faint_onset": faint_onset,
    }


SIGNALS = _signals()
GEOMETRIES = [(512, 256, 160), (256, 64, 80), (400, 100, 0), (512, 512, 100)]


@pytest.mark.parametrize("name", sorted(SIGNALS))
@pytest.mark.parametrize("geometry", GEOMETRIES, ids=lambda g: "-".join(map(str, g)))
@pytest.mark.parametrize("factor", [0.5, 0.8, 1.0, 1.7])
def test_matches_oracle(name, geometry, factor):
    w = Waveform(SIGNALS[name], RATE)
    cfg = WsolaConfig(*geometry)
    got = perturb_tempo(w, factor, cfg)
    want = oracle_perturb_tempo(w, factor, cfg)
    assert np.array_equal(got.samples, want.samples)


@pytest.mark.parametrize("name", sorted(SIGNALS))
@pytest.mark.parametrize("severity", SEVERITIES)
def test_pertubate_signal_matches_oracle(name, severity):
    w = Waveform(SIGNALS[name], RATE)
    params = params_for(severity)
    want = oracle_perturb_tempo(perturb_speed(w, params.speed), params.tempo)
    assert np.array_equal(pertubate_signal(w, params).samples, want.samples)


@pytest.mark.parametrize("factor", [0.5, 0.8, 1.25])
def test_quiet_passage_after_loud_input_matches_oracle(factor):
    # a running energy total over the loud second would be ~4000, whose
    # rounding step (~1e-12) exceeds the quiet windows' whole energy
    rng = np.random.default_rng(77)
    x = np.concatenate([0.5 * rng.standard_normal(RATE), 1e-7 * rng.standard_normal(RATE // 2)])
    w = Waveform(x, RATE)
    assert np.array_equal(perturb_tempo(w, factor).samples, oracle_perturb_tempo(w, factor).samples)
