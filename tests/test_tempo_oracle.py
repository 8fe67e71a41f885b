"""`perturb_tempo` must give exactly the samples of the frozen per-frame
kernel in `_tempo_oracle` at the speech-length geometries in GEOMETRIES and
the default one: there, the per-call window energies and the cached window
envelope change only how the output is computed, not which frame a seek
picks or the value of any sample.  (With frames of a few samples, the two
kernels' norms can differ in the last bit and tip an argmax between
candidates that are exact multiples of the target; such frames are too
short for speech and are not covered here.)"""

import json
from pathlib import Path

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
    read_manifest,
    read_wav,
    resample,
    run_batch,
    write_wav,
)

from ._tempo_oracle import oracle_perturb_tempo
from .conftest import write_float32_file, write_pcm16_file

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
# (510, 200, 40): the hop does not divide the frame, so the envelope's head
# spans two hops before it repeats; (256, 96, 300): the tolerance exceeds the
# frame, so each seek's candidates span more than two frames
GEOMETRIES = [(512, 256, 160), (256, 64, 80), (400, 100, 0), (512, 512, 100), (510, 200, 40),
              (256, 96, 300)]


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


@pytest.mark.parametrize("factor", [0.5, 0.9, 1.3])
def test_digital_silence_mid_clip_matches_oracle(factor):
    # every seek whose target or candidates fall in the silent half second
    # has dead candidates, which must score 0 in mid-clip frames too
    rng = np.random.default_rng(31)
    x = 0.5 * rng.standard_normal(6 * RATE)
    x[5 * RATE // 2 : 3 * RATE] = 0.0
    w = Waveform(x, RATE)
    assert np.array_equal(perturb_tempo(w, factor).samples, oracle_perturb_tempo(w, factor).samples)


def test_batch_wavs_equal_oracle_chain(tmp_path):
    # every file run_batch writes, at each input format and rate it reads,
    # has the bytes of the oracle kernel's output
    rng = np.random.default_rng(5)

    def voice(rate, seconds, channels=1):
        t = np.arange(int(seconds * rate)) / rate
        x = 0.6 * np.sin(2 * np.pi * (140.0 * t + 300.0 * t**2)) * (0.6 + 0.4 * np.sin(5 * np.pi * t))
        x = x[:, None] + 0.02 * rng.standard_normal((len(t), channels))
        x[(t > 0.4) & (t < 0.55)] = 0.0
        return x

    clips = tmp_path / "clips"
    clips.mkdir()
    write_float32_file(clips / "f44.wav", voice(44100, 1.5, 2).ravel(), rate=44100, channels=2)
    write_pcm16_file(clips / "p22.wav", np.rint(voice(22050, 1.2) * 32767).ravel(), rate=22050)
    write_pcm16_file(clips / "p16.wav", np.rint(voice(16000, 2.0) * 32767).ravel(), rate=16000)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(
        json.dumps({"id": name, "audio": str(clips / f"{name}.wav")}) + "\n"
        for name in ("f44", "p22", "p16")
    ), encoding="utf-8")

    result = run_batch(read_manifest(manifest), SEVERITIES, 4, 3, tmp_path / "out")
    assert not result.failures
    assert len(result.records) == 12
    for record in result.records:
        params = params_for(record.severity)
        source = resample(read_wav(clips / f"{record.source_id}.wav"), 16000)
        want = tmp_path / "want.wav"
        write_wav(oracle_perturb_tempo(perturb_speed(source, params.speed), params.tempo), want)
        assert Path(record.audio).read_bytes() == want.read_bytes(), record.id
