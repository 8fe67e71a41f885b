import numpy as np
import pytest

from dysaug import Waveform, perturb_speed

from .conftest import fft_peak_hz, make_tone


def test_identity_factor(tone_16k):
    out = perturb_speed(tone_16k, 1.0)
    assert len(out) == len(tone_16k)
    np.testing.assert_allclose(out.samples, tone_16k.samples, atol=1e-6)


def test_halving_duration(tone_16k):
    out = perturb_speed(tone_16k, 2.0)
    assert abs(len(out) - 8000) <= 1
    assert out.sample_rate == 16000


@pytest.mark.parametrize("factor", [1.2, 1.4, 1.8, 2.0])
def test_duration_contract(tone_16k, factor):
    out = perturb_speed(tone_16k, factor)
    assert abs(len(out) - 16000 / factor) <= 1


def test_tone_shifts_to_scaled_frequency(tone_16k):
    out = perturb_speed(tone_16k, 2.0)
    assert abs(fft_peak_hz(out) - 880.0) <= 16000 / 16384


@pytest.mark.parametrize("factor", [0.5, 0.8, 1.25])
def test_spectral_contract_other_factors(factor):
    w = make_tone(500.0, 1.0)
    out = perturb_speed(w, factor)
    assert abs(fft_peak_hz(out) - 500.0 * factor) <= 16000 / 16384


def test_composition_lengths(tone_16k):
    two_step = perturb_speed(perturb_speed(tone_16k, 1.25), 1.6)
    one_step = perturb_speed(tone_16k, 2.0)
    assert abs(len(two_step) - len(one_step)) <= 2


def test_power_within_one_db(tone_16k):
    out = perturb_speed(tone_16k, 1.8)
    p_in = np.mean(tone_16k.samples.astype(np.float64) ** 2)
    p_out = np.mean(out.samples.astype(np.float64) ** 2)
    assert abs(10 * np.log10(p_out / p_in)) < 1.0


def test_output_bounded():
    rng = np.random.default_rng(11)
    w = Waveform(np.clip(rng.normal(0, 0.7, 8000), -1, 1), 16000)
    out = perturb_speed(w, 0.5)
    assert np.max(np.abs(out.samples)) <= 1.0


def test_out_of_range_input_is_clipped_before_filtering():
    rng = np.random.default_rng(12)
    loud = rng.normal(0, 1.5, 8000).astype(np.float32)
    out = perturb_speed(Waveform(loud, 16000), 1.4)
    expected = perturb_speed(Waveform(np.clip(loud, -1, 1), 16000), 1.4)
    np.testing.assert_array_equal(out.samples, expected.samples)


def test_aliasing_is_filtered_not_an_error():
    # 5 kHz at factor 2.0 would land at 10 kHz, past Nyquist; the anti-alias
    # filter removes it instead of folding it back
    w = make_tone(5000.0, 1.0)
    out = perturb_speed(w, 2.0)
    rms_in = np.sqrt(np.mean(w.samples.astype(np.float64) ** 2))
    rms_out = np.sqrt(np.mean(out.samples.astype(np.float64) ** 2))
    assert rms_out < 0.05 * rms_in


@pytest.mark.parametrize("factor", [0.1, 4.5, -1.0])
def test_factor_out_of_range(tone_16k, factor):
    with pytest.raises(ValueError, match="speed factor"):
        perturb_speed(tone_16k, factor)


def test_empty_waveform_rejected():
    with pytest.raises(ValueError, match="empty"):
        perturb_speed(Waveform(np.zeros(0), 16000), 1.2)


def test_degenerate_output_rejected():
    w = Waveform(np.zeros(100), 16000)
    with pytest.raises(ValueError, match="below the minimum"):
        perturb_speed(w, 4.0)
