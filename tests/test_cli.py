import json
import random
import subprocess
import sys
import tracemalloc
import wave

import numpy as np
import pytest

from dysaug import ManifestEntry, cli, write_wav

from .conftest import make_tone, write_float32_file, write_pcm16_file


def run_cli(*args, input=None):
    # `input` is written to stdin; a surrogate escape in it, such as "\udcff",
    # writes its raw byte, as a pipe from another program may carry one
    return subprocess.run(
        [sys.executable, "-m", "dysaug", *args],
        input=input,
        capture_output=True,
        text=True,
        errors="surrogateescape",
    )


def _tone_file(tmp_path, name="in.wav", seconds=1.0):
    path = tmp_path / name
    write_wav(make_tone(440.0, seconds), path)
    return path


class TestPerturb:
    def test_severity_preset(self, tmp_path):
        src = _tone_file(tmp_path)
        dst = tmp_path / "out.wav"
        proc = run_cli("perturb", "--in", str(src), "--out", str(dst), "--severity", "S4")
        assert proc.returncode == 0, proc.stderr
        with wave.open(str(dst)) as fin:
            # S4 = (2.0, 0.4): length contracts to 0.2 of the input
            assert abs(fin.getnframes() - 3200) <= 512

    def test_explicit_factors(self, tmp_path):
        src = _tone_file(tmp_path)
        dst = tmp_path / "out.wav"
        proc = run_cli("perturb", "--in", str(src), "--out", str(dst),
                       "--r1", "1.0", "--r2", "0.5")
        assert proc.returncode == 0, proc.stderr
        with wave.open(str(dst)) as fin:
            assert abs(fin.getnframes() - 8000) <= 512

    def test_invalid_severity_exits_2(self, tmp_path):
        proc = run_cli("perturb", "--in", "a.wav", "--out", "b.wav", "--severity", "S9")
        assert proc.returncode == 2
        assert "S1" in proc.stderr and "S4" in proc.stderr

    def test_severity_and_factors_conflict(self, tmp_path):
        src = _tone_file(tmp_path)
        proc = run_cli("perturb", "--in", str(src), "--out", "b.wav",
                       "--severity", "S1", "--r1", "1.5")
        assert proc.returncode == 2
        assert "mutually exclusive" in proc.stderr

    def test_missing_factor(self, tmp_path):
        proc = run_cli("perturb", "--in", "a.wav", "--out", "b.wav", "--r1", "1.5")
        assert proc.returncode == 2

    def test_factor_out_of_range(self, tmp_path):
        proc = run_cli("perturb", "--in", "a.wav", "--out", "b.wav",
                       "--r1", "9.0", "--r2", "0.5")
        assert proc.returncode == 2
        proc = run_cli("perturb", "--in", str(tmp_path / "none.wav"),
                       "--out", str(tmp_path / "b.wav"), "--r1", "1.5", "--r2", "9.0")
        assert proc.returncode == 2
        assert "tempo factor 9.0" in proc.stderr

    def test_missing_input_exits_1(self, tmp_path):
        proc = run_cli("perturb", "--in", str(tmp_path / "none.wav"),
                       "--out", str(tmp_path / "b.wav"), "--severity", "S1")
        assert proc.returncode == 1
        assert "none.wav" in proc.stderr

    def test_byte_reproducible(self, tmp_path):
        src = _tone_file(tmp_path)
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        assert run_cli("perturb", "--in", str(src), "--out", str(a), "--severity", "S2").returncode == 0
        assert run_cli("perturb", "--in", str(src), "--out", str(b), "--severity", "S2").returncode == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("rate, codec, channels",
                             [(16000, "pcm16", 1), (22050, "pcm16", 1), (44100, "float32", 2)])
    def test_writes_the_bytes_batch_writes(self, tmp_path, rate, codec, channels):
        # perturb once ran WSOLA at the file's own rate and wrote 22.05 or 44.1 kHz
        n = int(1.5 * rate)
        t = np.arange(n) / rate
        noise = np.random.default_rng(rate).uniform(-0.05, 0.05, (n, channels))
        frames = (0.5 * np.sin(2 * np.pi * 220 * t)[:, None] + noise).ravel()
        src = tmp_path / "clip.wav"
        if codec == "pcm16":
            write_pcm16_file(src, np.rint(frames * 32767), rate, channels)
        else:
            write_float32_file(src, frames, rate, channels)
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps({"id": "clip", "audio": str(src)}) + "\n")
        proc = run_cli("batch", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out"),
                       "--severities", "S2", "--replication", "1", "--jobs", "1")
        assert proc.returncode == 0, proc.stderr
        dst = tmp_path / "perturbed.wav"
        proc = run_cli("perturb", "--in", str(src), "--out", str(dst), "--severity", "S2")
        assert proc.returncode == 0, proc.stderr
        assert dst.read_bytes() == (tmp_path / "out" / "clip_S2.wav").read_bytes()
        with wave.open(str(dst)) as fin:
            assert fin.getframerate() == 16000

    def test_empty_clip_exits_1(self, tmp_path):
        src = tmp_path / "empty.wav"
        write_pcm16_file(src, [])
        dst = tmp_path / "b.wav"
        proc = run_cli("perturb", "--in", str(src), "--out", str(dst), "--severity", "S1")
        assert proc.returncode == 1
        assert "no audio frames" in proc.stderr
        assert not dst.exists()


class TestBatch:
    def _manifest(self, tmp_path, count=3):
        lines = []
        for i in range(count):
            wav = tmp_path / f"u{i}.wav"
            write_wav(make_tone(250.0 + 30 * i, 0.4), wav)
            lines.append(json.dumps({
                "id": f"u{i}", "audio": str(wav), "text": f"t{i}",
                "speaker": "s", "gender": "female",
            }))
        path = tmp_path / "manifest.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_batch_generates_records(self, tmp_path):
        manifest = self._manifest(tmp_path)
        out_dir = tmp_path / "out"
        proc = run_cli("batch", "--manifest", str(manifest), "--out-dir", str(out_dir),
                       "--severities", "S1,S2,S3,S4", "--replication", "2",
                       "--seed", "9", "--jobs", "1", "--quiet")
        assert proc.returncode == 0, proc.stderr
        records = [json.loads(line) for line in
                   (out_dir / "manifest.jsonl").read_text(encoding="utf-8").splitlines()]
        assert len(records) == 6
        for record in records:
            assert (out_dir / f"{record['source_id']}_{record['severity']}.wav").exists()

    def test_batch_deterministic(self, tmp_path):
        manifest = self._manifest(tmp_path, count=2)
        d1, d2 = tmp_path / "o1", tmp_path / "o2"
        for d in (d1, d2):
            proc = run_cli("batch", "--manifest", str(manifest), "--out-dir", str(d),
                           "--seed", "4", "--quiet")
            assert proc.returncode == 0, proc.stderr
        names = sorted(p.name for p in d1.glob("*.wav"))
        assert names == sorted(p.name for p in d2.glob("*.wav"))
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_batch_bad_severity_exits_2(self, tmp_path):
        proc = run_cli("batch", "--manifest", "m.jsonl", "--out-dir", "o",
                       "--severities", "S1,S7")
        assert proc.returncode == 2
        assert "S7" in proc.stderr

    def test_batch_replication_too_large_exits_2(self, tmp_path):
        proc = run_cli("batch", "--manifest", "m.jsonl", "--out-dir", "o",
                       "--severities", "S1,S2", "--replication", "3")
        assert proc.returncode == 2

    @pytest.mark.parametrize("flags", [("--severities", " , "), ("--jobs", "0"),
                                       ("--replication", "0")])
    def test_batch_bad_plan_exits_2_before_reading(self, tmp_path, flags):
        proc = run_cli("batch", "--manifest", str(tmp_path / "none.jsonl"),
                       "--out-dir", str(tmp_path / "o"), *flags)
        assert proc.returncode == 2
        assert "none.jsonl" not in proc.stderr
        assert not (tmp_path / "o").exists()

    def test_batch_rejects_escaping_id(self, tmp_path):
        work = tmp_path / "work"
        work.mkdir()
        manifest = self._manifest(tmp_path, count=1)
        with open(manifest, "a", encoding="utf-8") as fout:
            fout.write(json.dumps({"id": "../escaped", "audio": str(tmp_path / "u0.wav")}) + "\n")
        proc = run_cli("batch", "--manifest", str(manifest),
                       "--out-dir", str(work / "out"), "--quiet")
        assert proc.returncode != 0
        assert f"{manifest}:2:" in proc.stderr
        assert "../escaped" in proc.stderr
        assert [p.name for p in work.iterdir() if p.name != "out"] == []

    def test_batch_missing_audio_exits_1(self, tmp_path):
        manifest = self._manifest(tmp_path, count=2)
        with open(manifest, "a", encoding="utf-8") as fout:
            fout.write(json.dumps({"id": "bad", "audio": str(tmp_path / "gone.wav")}) + "\n")
        proc = run_cli("batch", "--manifest", str(manifest),
                       "--out-dir", str(tmp_path / "out"), "--quiet")
        assert proc.returncode == 1
        assert "bad" in proc.stderr
        # good entries were still produced
        records = (tmp_path / "out" / "manifest.jsonl").read_text().splitlines()
        assert len(records) == 4

    def test_batch_clip_failing_some_severities_exits_1(self, tmp_path):
        wav = tmp_path / "u.wav"
        write_wav(make_tone(300.0, 700 / 16000), wav)  # too short for S2-S4
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps({"id": "u", "audio": str(wav)}) + "\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        proc = run_cli("batch", "--manifest", str(manifest), "--out-dir", str(out_dir),
                       "--severities", "S1,S2,S3,S4", "--replication", "4", "--quiet")
        assert proc.returncode == 1
        for severity in ("S2", "S3", "S4"):
            assert f"u_{severity}.wav: input of" in proc.stderr
        records = (out_dir / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["id"] for line in records] == ["u_S1"]

    def test_batch_failure_reported_once(self, tmp_path):
        manifest = self._manifest(tmp_path, count=1)
        with open(manifest, "a", encoding="utf-8") as fout:
            fout.write(json.dumps({"id": "lost", "audio": str(tmp_path / "gone.wav")}) + "\n")
        proc = run_cli("batch", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out"),
                       "--replication", "1", "--jobs", "1", "--quiet")
        assert proc.returncode == 1
        assert proc.stderr.count("lost") == 1, proc.stderr
        assert "gone.wav" in proc.stderr


class TestScoreCommand:
    def test_identical_files(self, tmp_path):
        refs = tmp_path / "r.txt"
        hyps = tmp_path / "h.txt"
        refs.write_text("hello world\nsecond line\n", encoding="utf-8")
        hyps.write_text("hello world\nsecond line\n", encoding="utf-8")
        proc = run_cli("score", "--refs", str(refs), "--hyps", str(hyps), "--unit", "char")
        assert proc.returncode == 0, proc.stderr
        assert "0.000" in proc.stdout
        assert "Sub." in proc.stdout and "Ins." in proc.stdout and "Del." in proc.stdout

    def test_word_errors_reported(self, tmp_path):
        refs = tmp_path / "r.txt"
        hyps = tmp_path / "h.txt"
        refs.write_text("a b c\n", encoding="utf-8")
        hyps.write_text("a x c\n", encoding="utf-8")
        proc = run_cli("score", "--refs", str(refs), "--hyps", str(hyps), "--unit", "word")
        assert proc.returncode == 0
        values = proc.stdout.splitlines()[-1].split("\t")
        assert values[0] == "1"  # one substitution
        assert values[-1] == "0.333"

    @pytest.mark.parametrize("unit, last_line", [
        pytest.param("word", "1\t0\t0\t0.167", id="word"),
        pytest.param("char", "1\t0\t2\t0.143", id="char"),
    ])
    def test_errors_on_two_lines(self, tmp_path, unit, last_line):
        # both lines' characters are aligned in one packed pass of lanes
        refs = tmp_path / "r.txt"
        hyps = tmp_path / "h.txt"
        refs.write_text("the cat sat\non the mat\n", encoding="utf-8")
        hyps.write_text("the cat sat\non a mat\n", encoding="utf-8")
        proc = run_cli("score", "--refs", str(refs), "--hyps", str(hyps), "--unit", unit)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == last_line

    def test_utf8_bom_is_not_part_of_the_first_token(self, tmp_path):
        refs = tmp_path / "r.txt"
        hyps = tmp_path / "h.txt"
        refs.write_text("the cat sat on mat\n", encoding="utf-8-sig")
        hyps.write_text("the cat sat on mat\n", encoding="utf-8")
        proc = run_cli("score", "--refs", str(refs), "--hyps", str(hyps))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0\t0\t0\t0.000"

    def test_misaligned_files_exit_1(self, tmp_path):
        refs = tmp_path / "r.txt"
        hyps = tmp_path / "h.txt"
        refs.write_text("a\nb\n", encoding="utf-8")
        hyps.write_text("a\n", encoding="utf-8")
        proc = run_cli("score", "--refs", str(refs), "--hyps", str(hyps))
        assert proc.returncode == 1
        assert "line-aligned" in proc.stderr
        assert f"{refs} has 2 lines, {hyps} has 1" in proc.stderr, proc.stderr

    @pytest.mark.parametrize("ref_lines, hyp_lines", [(1, 3), (0, 2)])
    def test_misaligned_counts_the_longer_file_to_its_end(self, tmp_path, ref_lines, hyp_lines):
        refs = tmp_path / "r.txt"
        hyps = tmp_path / "h.txt"
        refs.write_text("a\n" * ref_lines, encoding="utf-8")
        hyps.write_text("a\n" * hyp_lines, encoding="utf-8")
        proc = run_cli("confusion", "--refs", str(refs), "--hyps", str(hyps),
                       "--out", str(tmp_path / "m.json"))
        assert proc.returncode == 1
        assert proc.stderr == (f"dysaug: refs and hyps are not line-aligned: {refs} has "
                               f"{ref_lines} lines, {hyps} has {hyp_lines}\n")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("args", [
        pytest.param(["score"], id="score-word"),
        pytest.param(["score", "--unit", "char"], id="score-char"),
        pytest.param(["confusion"], id="confusion"),
    ])
    def test_memory_does_not_grow_with_the_corpus(self, tmp_path, capsys, args):
        # the pairs stream from the two files, so ten times the lines must
        # not hold ten times the memory; load what the commands import first
        import numpy  # noqa: F401
        import dysaug.correction  # noqa: F401

        refs = tmp_path / "r.txt"
        hyps = tmp_path / "h.txt"
        if args[0] == "confusion":
            args = [*args, "--out", str(tmp_path / "m.json")]

        def peak(n):
            rng = random.Random(5)
            with open(refs, "w") as fr, open(hyps, "w") as fh:
                for _ in range(n):
                    words = ["".join(rng.choices("abcdefghij", k=4)) for _ in range(4)]
                    fr.write(" ".join(words) + "\n")
                    words[rng.randrange(4)] = "xyz"
                    fh.write(" ".join(words) + "\n")
            tracemalloc.start()
            try:
                assert cli.main([*args, "--refs", str(refs), "--hyps", str(hyps)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the peaks are tens of KiB, and a few tens of KiB move with what
        # earlier tests left behind; holding the lines would add megabytes
        assert peak(20_000) <= 1.25 * peak(2_000) + 2**16

    def test_bad_unit_exits_2(self):
        proc = run_cli("score", "--refs", "r", "--hyps", "h", "--unit", "syllable")
        assert proc.returncode == 2


class TestConfusionAndCorrect:
    def test_confusion_then_correct(self, tmp_path):
        refs = tmp_path / "r.txt"
        hyps = tmp_path / "h.txt"
        # c is systematically heard as x
        refs.write_text("cat cab\ncan\n", encoding="utf-8")
        hyps.write_text("xat xab\nxan\n", encoding="utf-8")
        matrix_path = tmp_path / "m.json"
        proc = run_cli("confusion", "--refs", str(refs), "--hyps", str(hyps),
                       "--out", str(matrix_path))
        assert proc.returncode == 0, proc.stderr
        obj = json.loads(matrix_path.read_text(encoding="utf-8"))
        assert obj["alphabet"][0] == ""
        assert len(obj["probabilities"]) == len(obj["alphabet"])

        dict_path = tmp_path / "dict.txt"
        dict_path.write_text("cat\ncab\ncan\nman\n", encoding="utf-8")
        hyp_in = tmp_path / "in.txt"
        hyp_in.write_text("xat\n", encoding="utf-8")
        out_path = tmp_path / "out.txt"
        proc = run_cli("correct", "--dict", str(dict_path), "--confusion", str(matrix_path),
                       "--in", str(hyp_in), "--out", str(out_path))
        assert proc.returncode == 0, proc.stderr
        assert out_path.read_text(encoding="utf-8") == "cat\n"

    def test_correct_without_confusion(self, tmp_path):
        dict_path = tmp_path / "dict.txt"
        dict_path.write_text("hello\nworld\n", encoding="utf-8")
        hyp_in = tmp_path / "in.txt"
        hyp_in.write_text("helo world\n", encoding="utf-8")
        out_path = tmp_path / "out.txt"
        proc = run_cli("correct", "--dict", str(dict_path),
                       "--in", str(hyp_in), "--out", str(out_path))
        assert proc.returncode == 0, proc.stderr
        assert out_path.read_text(encoding="utf-8") == "hello world\n"

    def test_missing_dictionary_exits_1(self, tmp_path):
        proc = run_cli("correct", "--dict", str(tmp_path / "none.txt"),
                       "--in", "x", "--out", "y")
        assert proc.returncode == 1

    def test_malformed_confusion_is_one_error_line(self, tmp_path):
        dict_path = tmp_path / "dict.txt"
        dict_path.write_text("cat\n", encoding="utf-8")
        matrix_path = tmp_path / "m.json"
        matrix_path.write_text('{"alphabet": ["", "a"]}', encoding="utf-8")
        hyp_in = tmp_path / "in.txt"
        hyp_in.write_text("cat\n", encoding="utf-8")
        proc = run_cli("correct", "--dict", str(dict_path), "--confusion", str(matrix_path),
                       "--in", str(hyp_in), "--out", str(tmp_path / "out.txt"))
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("dysaug: "), proc.stderr


class TestUsage:
    def test_no_subcommand_exits_2(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_help_exits_0(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        for name in ("perturb", "batch", "confusion", "correct", "score"):
            assert name in proc.stdout

    def test_cli_import_loads_no_scipy(self):
        code = ("import sys, dysaug.cli; "
                "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_loads_no_process_pool(self):
        # only `batch --jobs N` with N > 1 needs the pool
        code = ("import sys, dysaug.cli; print([m for m in sys.modules "
                "if m in ('concurrent.futures.process', 'multiprocessing')])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_text_paths_load_no_numpy(self, tmp_path):
        # scoring and manifest are pure Python, so the package, severity
        # draws and the score command must not pay for numpy's import
        refs = tmp_path / "r.txt"
        refs.write_text("a b c\nd e\n", encoding="utf-8")
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"id": "u1", "audio": "a.wav"}\n', encoding="utf-8")
        code = (
            "import sys, dysaug, dysaug.cli, dysaug.scoring, dysaug.manifest\n"
            "dysaug.score([('a b c', 'a x c')])\n"
            "dysaug.align('abc', 'axc')\n"
            f"dysaug.read_manifest({str(manifest)!r})\n"
            "dysaug.assign_severities('u1', ['S1', 'S2'], 1, 0)\n"
            f"assert dysaug.cli.main(['score', '--refs', {str(refs)!r}, '--hyps', {str(refs)!r}]) == 0\n"
            "print([m for m in sys.modules if m == 'numpy' or m.startswith('numpy.')])\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_global_seed_before_subcommand(self, tmp_path):
        manifest = TestBatch()._manifest(tmp_path, count=1)
        proc = run_cli("--seed", "3", "--quiet", "batch", "--manifest", str(manifest),
                       "--out-dir", str(tmp_path / "o"), "--replication", "1")
        assert proc.returncode == 0, proc.stderr


def test_entry_ids_round_trip(tmp_path):
    # ManifestEntry written by hand parses back identically through the CLI path
    entry = ManifestEntry(id="x", audio="a.wav", text="t", speaker="s", gender="male")
    assert json.loads(entry.to_json())["gender"] == "male"


@pytest.mark.parametrize("content", ['{"alphabet": ["", "a"], "probabilities": [[1',
                                     '{"alphabet": ["", "a"], "probabilities": [[1, 0], [0, 2]]}'])
def test_malformed_confusion_error_names_the_file(tmp_path, content):
    dict_path = tmp_path / "dict.txt"
    dict_path.write_text("cat\n", encoding="utf-8")
    matrix_path = tmp_path / "bad.json"
    matrix_path.write_text(content, encoding="utf-8")
    hyp_in = tmp_path / "in.txt"
    hyp_in.write_text("cat\n", encoding="utf-8")
    proc = run_cli("correct", "--dict", str(dict_path), "--confusion", str(matrix_path),
                   "--in", str(hyp_in), "--out", str(tmp_path / "out.txt"))
    assert proc.returncode == 1
    assert "bad.json" in proc.stderr, proc.stderr
