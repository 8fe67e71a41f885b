import dataclasses
import gc
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dysaug
from dysaug import audio_io
from dysaug import (
    UnsupportedCodecError,
    Waveform,
    WavFormatError,
    read_wav,
    resample,
    resample_sequence,
    write_wav,
)

from ._resample_oracle import oracle_resample_sequence
from .conftest import (
    build_wav_bytes,
    fft_peak_hz,
    make_tone,
    write_float32_file,
    write_pcm16_file,
)


class TestReadWav:
    def test_every_pcm16_code_reads_as_the_float64_formula(self, tmp_path):
        codes = np.arange(-32768, 32768)
        path = tmp_path / "codes.wav"
        write_pcm16_file(path, codes)
        want = (codes.astype(np.float64) * (1.0 / 32768.0)).astype(np.float32)
        assert read_wav(path).samples.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("frame", [(3e38, 3e38), (np.inf, -np.inf), (np.nan, 0.0)])
    def test_non_finite_float32_stereo_mix_rejected(self, tmp_path, frame):
        # finite channels whose float32 sum overflows count as non-finite too
        path = tmp_path / "loud.wav"
        write_float32_file(path, [0.1, 0.2, *frame, -0.2, 0.1], channels=2)
        with pytest.raises(WavFormatError, match=re.escape(f"{path}: non-finite samples")):
            read_wav(path)

    def test_zero_rate_rejected(self, tmp_path):
        path = tmp_path / "rate0.wav"
        write_pcm16_file(path, [0, 100, -100], rate=0)
        with pytest.raises(WavFormatError, match=re.escape(f"{path}: ") + r".*rate.*\b0\b"):
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


_FORMAT_TAGS = (0x0001, 0x0003, 0x0006, 0x0055, 0xFFFE)


def _rarely(draw) -> bool:
    return draw(st.sampled_from([False] * 7 + [True]))


@st.composite
def _riff_files(draw):
    """RIFF files around one fmt and one data chunk, each field valid or
    hostile: chunk ids, declared sizes, codec fields and total length."""
    extra = st.sampled_from([b"fmt ", b"data", b"LIST"]) | st.binary(min_size=4, max_size=4)
    ids = draw(st.permutations([b"fmt ", b"data"] + draw(st.lists(extra, max_size=2))))
    chunks = b""
    for chunk_id in ids:
        if _rarely(draw):
            chunk_id = draw(st.binary(min_size=4, max_size=4))
        if chunk_id == b"fmt ":
            tag = draw(st.sampled_from(_FORMAT_TAGS))
            channels = draw(st.integers(0, 7))
            rate = draw(st.sampled_from([0, 1, 16000, 44100]))
            bits = 32 if tag == 0x0003 else 16
            if _rarely(draw):
                bits = draw(st.sampled_from([8, 16, 24, 32]))
            block = channels * bits // 8
            body = struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, bits)
            if tag == 0xFFFE:  # cbSize, valid bits, channel mask, sub-format GUID
                sub_tag = draw(st.sampled_from(_FORMAT_TAGS[:-1]))
                body += struct.pack("<HHIH", 22, bits, 0, sub_tag) + bytes(14)
            if _rarely(draw):
                body = body[: draw(st.integers(0, len(body)))]
        else:
            body = draw(st.binary(max_size=64))
        size = len(body)
        if _rarely(draw):
            size = draw(st.sampled_from([size | 1, size // 2, 0, 0xFFFFFFFF]))
        chunks += chunk_id + struct.pack("<I", size) + body
        if len(body) % 2 and not _rarely(draw):
            chunks += b"\x00"
    riff, form = b"RIFF", b"WAVE"
    if _rarely(draw):
        riff, form = draw(st.sampled_from([(b"RIFF", b"AVI "), (b"RIFX", b"WAVE")]))
    data = riff + struct.pack("<I", 4 + len(chunks)) + form + chunks
    return data[: draw(st.integers(0, len(data)))] if _rarely(draw) else data


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_riff_files())
def test_read_wav_fuzz_gives_waveform_or_format_error(tmp_path, data):
    path = tmp_path / "fuzz.wav"
    path.write_bytes(data)
    try:
        result = read_wav(path)
    except WavFormatError as exc:
        assert str(exc).startswith(f"{path}: ")
    else:
        assert isinstance(result, Waveform)


class TestWriteWav:
    def test_zero_sample(self, tmp_path):
        path = tmp_path / "z.wav"
        write_wav(Waveform(np.array([0.0]), 16000), path)
        with wave.open(str(path)) as fin:
            assert fin.getnchannels() == 1
            assert fin.getsampwidth() == 2
            assert fin.getframerate() == 16000
            assert np.frombuffer(fin.readframes(1), dtype="<i2")[0] == 0

    def test_unopenable_path_raises_without_an_unraisable_error(self, tmp_path, monkeypatch):
        # wave.open(path) once left a half-built writer whose __del__ failed
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        try:
            write_wav(Waveform(np.zeros(8), 16000), tmp_path / "nodir" / "x.wav")
        except FileNotFoundError:
            pass
        else:
            pytest.fail("write_wav wrote into a missing directory")
        gc.collect()
        assert [str(u.exc_value) for u in unraisable] == []
        assert not (tmp_path / "nodir").exists()

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

    def test_quantization_equals_float64_formula(self, tmp_path):
        # k, k +- 0.5 and k +- 0.25 steps, their float32 neighbours, signed
        # zeros, the smallest subnormals and random bit patterns up to 1.0
        k = np.arange(-32768, 32769, dtype=np.float64)
        steps = np.concatenate([k + d for d in (0.0, 0.5, -0.5, 0.25, -0.25)]) / 32768
        v = steps[np.abs(steps) <= 1].astype(np.float32)
        tiny = np.array([0.0, -0.0, 1e-45, -1e-45, 3e-45, -3e-45], dtype=np.float32)
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 0x3F800001, 1 << 20, dtype=np.uint32)
        bits |= rng.integers(0, 2, 1 << 20, dtype=np.uint32) << 31
        v = np.concatenate([v, np.nextafter(v, np.float32(2)), np.nextafter(v, np.float32(-2)),
                            tiny, bits.view(np.float32)])
        w = Waveform(v, 16000)
        path = tmp_path / "q.wav"
        write_wav(w, path)
        want = np.clip(np.rint(w.samples.astype(np.float64) * 32768.0), -32767, 32767)
        with wave.open(str(path)) as fin:
            assert fin.readframes(len(w) + 1) == want.astype("<i2").tobytes()


def _resample_pair(monkeypatch, rate, target=16000):
    """The (up, down) that resample hands resample_sequence for rate -> target."""
    pairs = []
    real = audio_io.resample_sequence

    def spy(x, up, down):
        pairs.append((up, down))
        return real(x, up, down)

    monkeypatch.setattr(audio_io, "resample_sequence", spy)
    resample(Waveform(np.zeros(3), rate), target)
    return pairs[-1]


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

    @pytest.mark.parametrize("source, target, message", [
        (13, 16000, "sample rate 13 Hz"), (999, 16000, "sample rate 999 Hz"),
        (768001, 16000, "sample rate 768001 Hz"), (16000, 999, "target_rate 999 Hz"),
        (16000, 768001, "target_rate 768001 Hz"),
    ])
    def test_rates_outside_the_range_are_refused(self, source, target, message):
        with pytest.raises(ValueError, match=rf"^{message} outside \[1000, 768000\] Hz$"):
            resample(Waveform(np.zeros(3), source), target)

    @pytest.mark.parametrize("rate", [8000, 11025, 22050, 44056, 44100, 47952, 48000,
                                      88200, 96000, 192000, 384000, 768000])
    def test_standard_rates_keep_their_exact_ratio(self, monkeypatch, rate):
        g = math.gcd(rate, 16000)
        assert _resample_pair(monkeypatch, rate) == (16000 // g, rate // g)

    def test_every_rate_to_16k_has_small_tiles(self, monkeypatch):
        rng = np.random.default_rng(15)
        rates = [1000, 1001, 44099, 757992] + [int(r) for r in rng.integers(1000, 768001, 24)]
        for rate in rates:
            up, down = _resample_pair(monkeypatch, rate)
            assert up <= audio_io.MAX_PHASES
            assert abs(16000 * down / (rate * up) - 1) <= 251e-6
            _, _, tiles = audio_io._tiles(up, down)
            assert sum(h.nbytes for *_, h in tiles) <= 7 * MB, rate

    def test_output_bounded(self):
        rng = np.random.default_rng(3)
        w = Waveform(np.clip(rng.normal(0, 0.6, 9000), -1, 1), 22050)
        out = resample(w, 16000)
        assert np.max(np.abs(out.samples)) <= 1.0


def _dense_resample(x, up, down):
    """Direct sum y[j] = sum_i x[i] h[j*down - i*up + 32*up] over the prototype.

    Only the 65 inputs from ceil((j*down - 32*up) / up) on can fall inside
    the prototype, so each output sums over those, in blocks of outputs.
    """
    half = 32 * up
    m = np.arange(2 * half + 1) - half
    cutoff = 0.5 / max(up, down)
    h = up * 2.0 * cutoff * np.sinc(2.0 * cutoff * m) * np.kaiser(2 * half + 1, 8.6)
    y = np.zeros(-(-len(x) * up // down))
    for j0 in range(0, len(y), 4096):
        j = np.arange(j0, min(j0 + 4096, len(y)))[:, None]
        i = -((half - j * down) // up) + np.arange(65)
        idx = j * down - i * up + half
        inside = (idx >= 0) & (idx <= 2 * half) & (i >= 0) & (i < len(x))
        terms = x[np.clip(i, 0, len(x) - 1)] * h[np.clip(idx, 0, 2 * half)]
        y[j[:, 0]] = np.where(inside, terms, 0.0).sum(axis=1)
    return y


class TestResampleSequence:
    # the 60000-sample input gives every pair at least three blocks of 64 rows
    @pytest.mark.parametrize("up, down", [(160, 441), (441, 160), (320, 441),
                                          (5, 6), (5, 7), (5, 9), (1, 2), (2, 1)])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 200, 4000, 20011, 60000])
    def test_matches_dense_oracle(self, up, down, n):
        x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        y = resample_sequence(x, up, down)
        expected = _dense_resample(x, up, down)
        assert y.shape == expected.shape
        np.testing.assert_allclose(y, expected, rtol=0, atol=1e-12)

    # lengths that give 1, 63, 64, 65, 128 and 129 rows: one block of TILE_ROWS
    # rows, just under and over it, and a second block just full or just begun
    @pytest.mark.parametrize("up, down", [(160, 441), (441, 160), (5, 6), (5, 7),
                                          (5, 9), (1, 2), (2, 1), (147, 160)])
    @pytest.mark.parametrize("n_rows", [1, 63, 64, 65, 128, 129])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_resample_oracle_bytes(self, up, down, n_rows, dtype):
        _, row, _ = audio_io._tiles(up, down)
        n = n_rows * row * down // up
        n_out = -(-n * up // down)
        assert -(-n_out // row) == n_rows
        x = np.random.default_rng(n_rows).uniform(-1.0, 1.0, n).astype(dtype)
        y = resample_sequence(x, up, down)
        expected = oracle_resample_sequence(x, up, down)
        assert y.dtype == expected.dtype and y.shape == expected.shape
        assert y.tobytes() == expected.tobytes()

    def test_same_rate_returns_a_float64_copy(self):
        x = np.random.default_rng(1).uniform(-1.0, 1.0, 500).astype(np.float32)
        for y in (resample_sequence(x, 3, 3), resample_sequence(x.astype(np.float64), 3, 3)):
            assert y.dtype == np.float64 and np.array_equal(y, x)
            assert not np.shares_memory(y, x)

    @pytest.mark.parametrize("up, down", [(16000, 44099), (1, 2**32 + 1), (2001, 2002),
                                          (1, 769), (32000, 88198)])
    def test_pairs_beyond_the_bound_are_refused(self, up, down):
        x = np.zeros(1000)
        g = math.gcd(up, down)

        def call():
            with pytest.raises(ValueError, match=rf"^resampling factors {up // g}/{down // g} "
                                                 r"exceed the bound of 2000 output phases "
                                                 r"and a down/up ratio of 768$"):
                resample_sequence(x, up, down)

        _, peak = _traced_peak(call)
        assert peak <= MB

    @pytest.mark.parametrize("up, down", [(1, 768), (2000, 2001)])
    def test_pairs_on_the_bound_are_resampled(self, up, down):
        y = resample_sequence(np.ones(4000), up, down)
        assert len(y) == -(-4000 * up // down)

    def test_tile_cache_keeps_eight_pairs(self):
        # no pair that resample to 16 kHz builds exceeds 7 MiB, so eight
        # pairs stay inside the 64 MiB the byte-counting cache allowed
        assert audio_io._tiles.cache_info().maxsize * 7 * MB <= 64 * MB
        audio_io._tiles.cache_clear()
        x = np.random.default_rng(0).uniform(-1.0, 1.0, 50)
        first = resample_sequence(x, 160, 441)
        for down in range(3, 21, 2):  # nine more pairs push (160, 441) out
            resample_sequence(x, 2, down)
        assert audio_io._tiles.cache_info().currsize == 8
        misses = audio_io._tiles.cache_info().misses
        assert np.array_equal(resample_sequence(x, 160, 441), first)
        assert audio_io._tiles.cache_info().misses == misses + 1

    def test_cached_tiles_are_read_only(self):
        _, _, tiles = audio_io._tiles(160, 441)
        assert not any(h.flags.writeable for *_, h in tiles)


def _traced_peak(call):
    """(result, peak bytes traced while `call` ran); numpy buffers count."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


MB = 1 << 20


class TestSignalPathMemory:
    # the signal path allocates whole-clip buffers only for what it returns
    # (or, for read_wav, the file it read); 1 MB covers blocks and objects

    def test_resample_allocates_only_its_output(self):
        x = np.random.default_rng(2).uniform(-1.0, 1.0, 12 * 44100).astype(np.float32)
        resample_sequence(x, 160, 441)  # tiles cached, numpy warmed up
        y, peak = _traced_peak(lambda: resample_sequence(x, 160, 441))
        assert peak <= y.nbytes + MB

    def test_read_wav_allocates_file_and_four_bytes_a_sample(self, tmp_path):
        # the decoded float32 array becomes the waveform's samples uncopied
        n = 12 * 44100
        path = tmp_path / "mono.wav"
        write_pcm16_file(path, np.random.default_rng(3).integers(-32768, 32768, n), rate=44100)
        read_wav(path)
        w, peak = _traced_peak(lambda: read_wav(path))
        assert len(w) == n
        assert peak <= path.stat().st_size + 4 * n + MB

    def test_write_wav_allocates_six_bytes_a_sample(self, tmp_path):
        n = 12 * 16000
        w = Waveform(np.random.default_rng(4).uniform(-1.0, 1.0, n), 16000)
        write_wav(w, tmp_path / "warm.wav")
        _, peak = _traced_peak(lambda: write_wav(w, tmp_path / "out.wav"))
        assert peak <= 6 * n + MB


BLAS_THREADS_SCRIPT = """
import hashlib
import numpy as np
from dysaug import resample_sequence

x = np.random.default_rng(5).uniform(-1.0, 1.0, 352800)
digest = hashlib.sha256()
for up, down in [(5, 6), (5, 7), (5, 9), (1, 2), (160, 441)]:
    digest.update(resample_sequence(x, up, down).tobytes())
print(digest.hexdigest())
"""


def test_resample_does_not_depend_on_blas_threads():
    # the S1-S4 speed factors and 44.1 -> 16 kHz on 8 s of noise; a BLAS call
    # split across threads may sum in another order
    src = Path(dysaug.__file__).resolve().parent.parent
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", BLAS_THREADS_SCRIPT], env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


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

    def test_rate_whose_byte_rate_overflows_the_header_fails_before_writing(self, tmp_path):
        # the header holds the byte rate, 2 * rate, in 32 bits
        path = tmp_path / "fast.wav"
        with pytest.raises(ValueError, match=rf"sample rate {2**31} Hz .*at most {2**31 - 1} Hz"):
            write_wav(Waveform(np.zeros(2), 2**31), path)
        assert not path.exists()
        write_wav(Waveform(np.zeros(2), 2**31 - 1), path)
        with wave.open(str(path)) as fin:
            assert fin.getframerate() == 2**31 - 1

    def test_clips_to_unit_range(self):
        w = Waveform([1.5, -2.0, 0.5], 16000)
        np.testing.assert_array_equal(w.samples, [1.0, -1.0, 0.5])

    def test_does_not_share_the_callers_array(self):
        samples = np.array([0.25, -0.5, 0.75], dtype=np.float32)
        w = Waveform(samples, 16000)
        samples[:] = 0.0
        np.testing.assert_array_equal(w.samples, [0.25, -0.5, 0.75])


_F32_MAX = float(np.finfo(np.float32).max)


@st.composite
def _sample_arrays(draw):
    """1-D float64, float32 or int16 arrays, empty ones included.  Floats
    mix NaN, +-inf, -0.0 and values past +-1 with ordinary amplitudes, and
    stay inside float32 range so the cast itself never overflows."""
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int16]))
    if dtype is np.int16:
        elements = st.integers(-32768, 32767)
    else:
        width = 32 if dtype is np.float32 else 64
        elements = (st.floats(-2.0, 2.0, width=width)
                    | st.floats(-_F32_MAX, _F32_MAX, width=width)
                    | st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0]))
    return draw(hnp.arrays(dtype, st.integers(0, 40), elements=elements))


@settings(max_examples=400, deadline=None)
@given(x=_sample_arrays())
def test_waveform_is_a_clipped_float32_copy(x):
    as_f32 = np.asarray(x, np.float32)
    if not np.isfinite(as_f32).all():
        with pytest.raises(ValueError, match="non-finite samples"):
            Waveform(x, 16000)
        return
    w = Waveform(x, 16000)
    want = np.clip(as_f32, -1.0, 1.0)
    assert w.samples.dtype == np.float32
    assert w.samples.tobytes() == want.tobytes()  # the sign of a zero included
    assert not w.samples.flags.writeable
    assert not np.shares_memory(w.samples, x)


def test_same_rate_resample_passes_samples_through():
    rng = np.random.default_rng(16)
    w = Waveform(rng.uniform(-1.0, 1.0, 16000).astype(np.float32), 16000)
    out = resample(w, 16000)
    assert out.sample_rate == 16000
    assert out.samples.dtype == np.float32
    assert np.array_equal(out.samples, w.samples)


@pytest.mark.parametrize("rate", [16000, 44100])
def test_same_rate_resample_returns_the_waveform_itself(rate):
    w = Waveform(np.zeros(rate // 10), rate)
    assert resample(w, w.sample_rate) is w


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


@pytest.mark.parametrize("writer, samples", [(write_pcm16_file, [0, 1, 2, -3]),
                                             (write_float32_file, [0.5, 1.5, -2.0, 0.25])])
@pytest.mark.parametrize("channels", [1, 2])
def test_read_wav_samples_are_read_only(tmp_path, writer, samples, channels):
    # read_wav hands its decoded array to the waveform without the copy
    path = tmp_path / "r.wav"
    writer(path, samples * channels, channels=channels)
    w = read_wav(path)
    assert w.samples.dtype == np.float32
    assert w.samples.max() <= 1.0 and w.samples.min() >= -1.0
    with pytest.raises(ValueError, match="read-only"):
        w.samples[0] = np.nan


def test_adopt_refuses_an_array_it_cannot_own():
    with pytest.raises(TypeError):
        Waveform._adopt(np.zeros(4), 16000)  # float64
    with pytest.raises(TypeError):
        Waveform._adopt(np.zeros(8, dtype=np.float32)[::2], 16000)  # a view


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


@pytest.mark.parametrize("rate, valid", [
    (16000, True), (np.int64(16000), True), (np.uint16(16000), True),
    (16000.5, False), (16000.0, False), (np.float32(16000), False), (True, False), ("16000", False),
])
def test_waveform_takes_an_integer_rate_and_compares_by_identity(rate, valid):
    z = np.zeros(1600)
    if not valid:
        with pytest.raises(ValueError, match=r"sample_rate must be an integer, got "):
            Waveform(z, rate)
        return
    w, other = Waveform(z, rate), Waveform(z, rate)
    assert type(w.sample_rate) is int and w.sample_rate == 16000
    assert w.duration == 0.1
    assert w == w and w != other
    assert w in [w] and other not in [w]
    assert len({w, other, w}) == 2


@pytest.mark.parametrize("samples, rate, header_and_data", [
    ([0.0, 0.5, -1.0], 16000,
     "524946462a00000057415645666d74201000000001000100803e0000007d0000020010006461746106000000"
     "000000400180"),
    (np.zeros(0), 8000,
     "524946462400000057415645666d74201000000001000100401f0000803e0000020010006461746100000000"),
])
def test_write_wav_bytes_are_the_canonical_pcm_header_and_samples(tmp_path, samples, rate,
                                                                   header_and_data):
    # byte rate and block align included, which wave's reader never checks
    path = tmp_path / "pinned.wav"
    write_wav(Waveform(samples, rate), path)
    assert path.read_bytes().hex() == header_and_data
