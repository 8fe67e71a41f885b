import dataclasses
import struct
import wave

import numpy as np
import pytest

from dysaug import (
    UnsupportedCodecError,
    Waveform,
    WavFormatError,
    read_wav,
    resample,
    resample_sequence,
    write_wav,
)

from .conftest import (
    build_wav_bytes,
    fft_peak_hz,
    make_tone,
    write_float32_file,
    write_pcm16_file,
)


class TestReadWav:
    def test_pcm16_scaling(self, tmp_path):
        path = tmp_path / "a.wav"
        write_pcm16_file(path, [0, 16384, -32768], rate=16000)
        w = read_wav(path)
        assert w.sample_rate == 16000
        np.testing.assert_allclose(w.samples, [0.0, 0.5, -1.0], atol=0)

    def test_stereo_mean_downmix(self, tmp_path):
        path = tmp_path / "st.wav"
        write_float32_file(path, [1.0, 0.0], rate=8000, channels=2)
        w = read_wav(path)
        np.testing.assert_allclose(w.samples, [0.5])

    def test_downmix_is_linear(self, tmp_path):
        rng = np.random.default_rng(7)
        frames = rng.uniform(-0.5, 0.5, size=8)  # 4 stereo frames
        alpha = 0.4
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        write_float32_file(a, frames, channels=2)
        write_float32_file(b, alpha * frames, channels=2)
        np.testing.assert_allclose(read_wav(b).samples, alpha * read_wav(a).samples,
                                   atol=1e-7)

    def test_float32_is_clipped(self, tmp_path):
        path = tmp_path / "hot.wav"
        write_float32_file(path, [1.5, -2.0, 0.25])
        w = read_wav(path)
        np.testing.assert_allclose(w.samples, [1.0, -1.0, 0.25])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "nope.wav")

    def test_not_riff(self, tmp_path):
        path = tmp_path / "x.mp3"
        path.write_bytes(b"ID3\x03" + b"\x00" * 64)
        with pytest.raises(WavFormatError, match="not a RIFF"):
            read_wav(path)

    def test_wrong_form_type(self, tmp_path):
        path = tmp_path / "x.avi"
        path.write_bytes(build_wav_bytes(1, 1, 16000, 16, b"\x00\x00", form=b"AVI "))
        with pytest.raises(WavFormatError, match="WAVE"):
            read_wav(path)

    def test_mp3_codec_in_wav_names_tag(self, tmp_path):
        path = tmp_path / "mp3.wav"
        path.write_bytes(build_wav_bytes(0x55, 1, 16000, 16, b"\x00" * 8))
        with pytest.raises(UnsupportedCodecError, match=r"format tag 85 \(MPEG Layer III\)"):
            read_wav(path)

    def test_pcm8_rejected(self, tmp_path):
        path = tmp_path / "p8.wav"
        path.write_bytes(build_wav_bytes(1, 1, 16000, 8, b"\x80\x80"))
        with pytest.raises(UnsupportedCodecError, match="8-bit"):
            read_wav(path)

    def test_missing_data_chunk(self, tmp_path):
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
        path = tmp_path / "nodata.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
        with pytest.raises(WavFormatError, match="data chunk"):
            read_wav(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float32_rejected(self, tmp_path, bad):
        samples = np.array([0.1, bad, -0.2], dtype="<f4")
        path = tmp_path / "bad.wav"
        path.write_bytes(build_wav_bytes(3, 1, 16000, 32, samples.tobytes()))
        with pytest.raises(WavFormatError, match="non-finite samples"):
            read_wav(path)

    def test_extensible_pcm16(self, tmp_path):
        sub = struct.pack("<H", 1) + b"\x00\x00" + bytes(range(14))
        fmt = struct.pack("<HHIIHHH", 0xFFFE, 1, 16000, 32000, 2, 16, 22) + b"\x10\x00" + b"\x00\x00\x00\x00" + sub[:16]
        payload = np.array([16384], dtype="<i2").tobytes()
        body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"data" + struct.pack("<I", len(payload)) + payload
        path = tmp_path / "ext.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
        w = read_wav(path)
        np.testing.assert_allclose(w.samples, [0.5])


class TestWriteWav:
    def test_zero_sample(self, tmp_path):
        path = tmp_path / "z.wav"
        write_wav(Waveform(np.array([0.0]), 16000), path)
        with wave.open(str(path)) as fin:
            assert fin.getnchannels() == 1
            assert fin.getsampwidth() == 2
            assert fin.getframerate() == 16000
            assert np.frombuffer(fin.readframes(1), dtype="<i2")[0] == 0

    def test_full_scale_symmetry(self, tmp_path):
        path = tmp_path / "fs.wav"
        write_wav(Waveform(np.array([1.0, -1.0]), 16000), path)
        with wave.open(str(path)) as fin:
            pcm = np.frombuffer(fin.readframes(2), dtype="<i2")
        assert pcm.tolist() == [32767, -32767]

    def test_round_trip_tone(self, tmp_path):
        w = make_tone(440.0, 1.0)
        path = tmp_path / "t.wav"
        write_wav(w, path)
        back = read_wav(path)
        assert back.sample_rate == w.sample_rate
        assert np.max(np.abs(back.samples.astype(np.float64)
                             - w.samples.astype(np.float64))) <= 1 / 32768


class TestResample:
    def test_identity_rate(self, tone_16k):
        out = resample(tone_16k, 16000)
        assert len(out) == len(tone_16k)
        np.testing.assert_allclose(out.samples, tone_16k.samples, atol=1e-6)

    def test_duration_preserved(self):
        w = make_tone(440.0, 1.0, rate=44100)
        out = resample(w, 16000)
        assert abs(len(out) - 16000) <= 1
        assert out.sample_rate == 16000

    def test_tone_peak_preserved(self):
        # FFT-peak oracle: the dominant bin must stay at 440 Hz
        w = make_tone(440.0, 1.0, rate=44100)
        out = resample(w, 16000)
        assert abs(fft_peak_hz(out) - 440.0) <= 16000 / 16384

    def test_upsample_peak_preserved(self):
        w = make_tone(440.0, 1.0, rate=8000)
        out = resample(w, 16000)
        assert abs(len(out) - 16000) <= 1
        assert abs(fft_peak_hz(out) - 440.0) <= 16000 / 16384

    def test_bad_rate(self, tone_16k):
        with pytest.raises(ValueError, match="target_rate"):
            resample(tone_16k, 0)

    def test_output_bounded(self):
        rng = np.random.default_rng(3)
        w = Waveform(np.clip(rng.normal(0, 0.6, 9000), -1, 1), 22050)
        out = resample(w, 16000)
        assert np.max(np.abs(out.samples)) <= 1.0


def _dense_resample(x, up, down):
    """Direct sum y[j] = sum_i x[i] h[j*down - i*up + 32*up] over the prototype."""
    half = 32 * up
    m = np.arange(2 * half + 1) - half
    cutoff = 0.5 / max(up, down)
    h = up * 2.0 * cutoff * np.sinc(2.0 * cutoff * m) * np.kaiser(2 * half + 1, 8.6)
    i = np.arange(len(x))
    y = np.zeros(-(-len(x) * up // down))
    for j in range(len(y)):
        idx = j * down - i * up + half
        inside = (idx >= 0) & (idx <= 2 * half)
        y[j] = np.dot(x[inside], h[idx[inside]])
    return y


class TestResampleSequence:
    @pytest.mark.parametrize("up, down", [(160, 441), (441, 160), (320, 441),
                                          (5, 6), (5, 9), (1, 2), (2, 1)])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 200, 4000])
    def test_matches_dense_oracle(self, up, down, n):
        x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        y = resample_sequence(x, up, down)
        expected = _dense_resample(x, up, down)
        assert y.shape == expected.shape
        np.testing.assert_allclose(y, expected, rtol=0, atol=1e-12)


class TestWaveform:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Waveform(np.zeros(4), 0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            Waveform(np.zeros((2, 2)), 16000)

    def test_duration(self):
        assert Waveform(np.zeros(8000), 16000).duration == pytest.approx(0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite samples"):
            Waveform(np.array([0.5, bad, -0.5] * 100), 16000)

    def test_write_wav_of_nan_samples_fails_before_writing(self, tmp_path):
        path = tmp_path / "nan.wav"
        with pytest.raises(ValueError, match="non-finite samples"):
            write_wav(Waveform([0.5, np.nan, -0.5] * 100, 16000), path)
        assert not path.exists()

    def test_clips_to_unit_range(self):
        w = Waveform([1.5, -2.0, 0.5], 16000)
        np.testing.assert_array_equal(w.samples, [1.0, -1.0, 0.5])

    def test_does_not_share_the_callers_array(self):
        samples = np.array([0.25, -0.5, 0.75], dtype=np.float32)
        w = Waveform(samples, 16000)
        samples[:] = 0.0
        np.testing.assert_array_equal(w.samples, [0.25, -0.5, 0.75])


def test_same_rate_resample_passes_samples_through():
    rng = np.random.default_rng(16)
    w = Waveform(rng.uniform(-1.0, 1.0, 16000).astype(np.float32), 16000)
    out = resample(w, 16000)
    assert out.sample_rate == 16000
    assert out.samples.dtype == np.float32
    assert np.array_equal(out.samples, w.samples)


def test_waveform_fields_cannot_be_reassigned(tmp_path):
    w = Waveform(np.zeros(300), 16000)
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.samples = np.array([0.5, np.nan, 3.0], dtype=np.float32)
    with pytest.raises(dataclasses.FrozenInstanceError):
        w.sample_rate = 0
    write_wav(w, tmp_path / "w.wav")
    assert read_wav(tmp_path / "w.wav").samples.tolist() == [0.0] * 300


def test_waveform_samples_are_read_only():
    w = Waveform(np.zeros(300), 16000)
    with pytest.raises(ValueError, match="read-only"):
        w.samples[1] = np.nan
    assert np.isfinite(w.samples).all()


@pytest.mark.parametrize("channels", range(1, 11))
def test_pcm16_downmix_equals_mean(tmp_path, channels):
    # sums of int16 are exact in float64, so the order of addition cannot show
    rng = np.random.default_rng(channels)
    ints = rng.integers(-32768, 32768, size=(997, channels)).astype("<i2")
    path = tmp_path / "pcm.wav"
    write_pcm16_file(path, ints.ravel(), channels=channels)
    want = ints.mean(axis=1) * (1.0 / 32768.0)
    assert np.array_equal(read_wav(path).samples, want.astype(np.float32))


@pytest.mark.parametrize("channels", range(1, 11))
def test_float32_downmix_equals_mean(tmp_path, channels):
    rng = np.random.default_rng(100 + channels)
    frames = rng.uniform(-1.0, 1.0, size=(997, channels)).astype(np.float32)
    path = tmp_path / "float.wav"
    write_float32_file(path, frames.ravel(), channels=channels)
    got = read_wav(path).samples
    want = frames.mean(axis=1)
    if channels < 8:
        assert np.array_equal(got, want)
    else:
        # np.mean switches to pairwise summation from 8 channels on; the
        # two float32 sums differ by rounding of partial sums of magnitude
        # <= channels, which an absolute bound covers where signs cancel
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)
