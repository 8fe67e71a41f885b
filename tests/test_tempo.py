import numpy as np
import pytest

from dysaug import (
    PerturbationParams,
    Waveform,
    WsolaConfig,
    params_for,
    perturb_tempo,
    pertubate_signal,
)

from .conftest import fft_peak_hz, make_chirp, make_tone, snr_db


def _edge_excluded_snr(original, stretched, frame=512):
    ref = original.samples[frame:-frame]
    out = stretched.samples[frame : len(original) - frame]
    return snr_db(ref, out)


def test_unit_factor_reconstructs(tone_16k):
    out = perturb_tempo(tone_16k, 1.0)
    assert len(out) == len(tone_16k)
    assert _edge_excluded_snr(tone_16k, out) >= 40.0


def test_unit_factor_on_chirp():
    chirp = make_chirp(2.0)
    out = perturb_tempo(chirp, 1.0)
    assert _edge_excluded_snr(chirp, out) >= 40.0


@pytest.mark.parametrize("factor,expected", [(0.8, 12800), (0.4, 6400)])
def test_duration_contract(tone_16k, factor, expected):
    out = perturb_tempo(tone_16k, factor)
    assert abs(len(out) - expected) <= 512


@pytest.mark.parametrize("factor", [0.4, 0.8, 1.25, 2.5])
@pytest.mark.parametrize("freq", [100.0, 440.0, 2000.0])
def test_pitch_preserved(factor, freq):
    w = make_tone(freq, 1.0)
    out = perturb_tempo(w, factor)
    assert abs(fft_peak_hz(out) - freq) <= 16000 / 16384


def test_amplitude_bounded():
    w = make_tone(300.0, 1.0, amplitude=1.0)
    out = perturb_tempo(w, 0.5)
    assert np.max(np.abs(out.samples)) <= 1.0


def test_deterministic():
    chirp = make_chirp(1.0)
    a = perturb_tempo(chirp, 0.7)
    b = perturb_tempo(chirp, 0.7)
    assert np.array_equal(a.samples, b.samples)


def test_short_input_rejected():
    with pytest.raises(ValueError, match="shorter than one analysis frame"):
        perturb_tempo(Waveform(np.zeros(100), 16000), 0.8)


@pytest.mark.parametrize("factor", [0.2, 5.0])
def test_factor_out_of_range(tone_16k, factor):
    with pytest.raises(ValueError, match="tempo factor"):
        perturb_tempo(tone_16k, factor)


def test_custom_config_duration(tone_16k):
    cfg = WsolaConfig(frame_length=256, synthesis_hop=128, tolerance=64)
    out = perturb_tempo(tone_16k, 0.5, cfg)
    assert abs(len(out) - 8000) <= 256


class TestWsolaConfig:
    def test_odd_frame_rejected(self):
        with pytest.raises(ValueError, match="even"):
            WsolaConfig(frame_length=511)

    def test_hop_exceeding_frame_rejected(self):
        with pytest.raises(ValueError, match="synthesis_hop"):
            WsolaConfig(synthesis_hop=1024)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            WsolaConfig(tolerance=-1)


class TestPertubateSignal:
    def test_double_identity(self):
        chirp = make_chirp(1.0)
        out = pertubate_signal(chirp, PerturbationParams(speed=1.0, tempo=1.0))
        assert _edge_excluded_snr(chirp, out) >= 40.0

    @pytest.mark.parametrize("severity,expected", [("S1", 21333), ("S4", 6400)])
    def test_composed_duration(self, severity, expected):
        w = make_tone(440.0, 2.0)
        out = pertubate_signal(w, params_for(severity))
        assert abs(len(out) - expected) <= 512

    def test_pitch_scaled_by_speed_only(self):
        w = make_tone(440.0, 2.0)
        out = pertubate_signal(w, params_for("S4"))
        # speed doubles the pitch; WSOLA must not move it again
        assert abs(fft_peak_hz(out) - 880.0) <= 16000 / 16384

    def test_errors_propagate(self):
        w = Waveform(np.zeros(700), 16000)
        # speed 2.0 leaves 350 samples, below one WSOLA frame
        with pytest.raises(ValueError, match="shorter than one analysis frame"):
            pertubate_signal(w, PerturbationParams(speed=2.0, tempo=0.4))
