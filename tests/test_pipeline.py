import dataclasses
import json
import struct
import time
import wave
from pathlib import Path

import numpy as np
import pytest

from dysaug import (
    AugmentRecord,
    ManifestEntry,
    PerturbationParams,
    SEVERITIES,
    assign_severities,
    params_for,
    read_manifest,
    read_wav,
    run_batch,
    split_by_gender,
    write_records,
    write_wav,
)

from .conftest import build_wav_bytes, make_tone


SEVERITY_TABLE = {
    "S1": (1.2, 0.8),
    "S2": (1.4, 0.8),
    "S3": (1.8, 0.4),
    "S4": (2.0, 0.4),
}


class TestParamsFor:
    @pytest.mark.parametrize("label,expected", sorted(SEVERITY_TABLE.items()))
    def test_presets(self, label, expected):
        params = params_for(label)
        assert (params.speed, params.tempo) == expected
        assert params.severity == label

    def test_total_on_exactly_four_labels(self):
        assert SEVERITIES == ("S1", "S2", "S3", "S4")

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="S9"):
            params_for("S9")


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"id": "u1", "audio": "a.wav", "text": "hi", "speaker": "sp", "gender": "female"}\n'
            '{"id": "u2", "audio": "b.wav"}\n',
            encoding="utf-8",
        )
        entries = read_manifest(path)
        assert [e.id for e in entries] == ["u1", "u2"]
        assert entries[0].gender == "female"
        assert entries[1].gender == "unknown"
        assert entries[1].text == ""

    def test_utf8_bom_is_skipped(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "u1", "audio": "a.wav"}\n{"id": "u2", "audio": "b.wav"}\n',
                        encoding="utf-8-sig")
        assert [e.id for e in read_manifest(path)] == ["u1", "u2"]

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "u1", "audio": "a.wav"}\n{"id": "u1", "audio": "b.wav"}\n')
        with pytest.raises(ValueError, match="duplicate"):
            read_manifest(path)

    def test_missing_audio(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "u1"}\n')
        with pytest.raises(ValueError, match="audio"):
            read_manifest(path)

    def test_bad_gender(self):
        with pytest.raises(ValueError, match="gender"):
            ManifestEntry(id="u", audio="a.wav", gender="other")

    @pytest.mark.parametrize("bad_id", ["../escaped", "a/b", "a\\b", "nul\0", ".", ".."])
    def test_id_must_be_one_path_component(self, bad_id):
        with pytest.raises(ValueError, match="entry id"):
            ManifestEntry(id=bad_id, audio="a.wav")

    def test_entry_is_frozen(self):
        # validation runs once, in __post_init__, so fields must not change after
        entry = ManifestEntry(id="u", audio="a.wav")
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.id = "../x"
        assert entry.id == "u"

    def test_entry_error_names_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "u1", "audio": "a.wav"}\n\n{"id": "../up", "audio": "b.wav"}\n')
        with pytest.raises(ValueError, match=r"m\.jsonl:3: entry id '\.\./up'"):
            read_manifest(path)

    @pytest.mark.parametrize("field", ["id", "audio", "text", "speaker", "gender"])
    @pytest.mark.parametrize("value, kind", [(None, "null"), (7, "number"), (["z"], "array")])
    def test_present_field_must_be_a_string(self, tmp_path, field, value, kind):
        # str() once turned these into the id, path or transcript "None", "7", "['z']"
        entry = {"id": "u2", "audio": "b.wav", "text": "t", "speaker": "s", "gender": "male"}
        entry[field] = value
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "u1", "audio": "a.wav"}\n' + json.dumps(entry) + "\n")
        with pytest.raises(ValueError, match=rf"m\.jsonl:2: field '{field}' must be a string, "
                                             rf"got {kind}$"):
            read_manifest(path)

    @pytest.mark.parametrize("line", ["[1, 2]", '"u1"', "3"])
    def test_line_must_be_an_object(self, tmp_path, line):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "u1", "audio": "a.wav"}\n' + line + "\n")
        with pytest.raises(ValueError, match=r"m\.jsonl:2: expected a JSON object"):
            read_manifest(path)


class TestSplitByGender:
    def test_partition(self):
        entries = [
            ManifestEntry(id="a", audio="x", gender="female"),
            ManifestEntry(id="b", audio="x", gender="male"),
            ManifestEntry(id="c", audio="x", gender="female"),
        ]
        female, male, rest = split_by_gender(entries)
        assert [e.id for e in female] == ["a", "c"]
        assert [e.id for e in male] == ["b"]
        assert rest == []

    def test_all_unknown(self):
        entries = [ManifestEntry(id=str(i), audio="x") for i in range(3)]
        female, male, rest = split_by_gender(entries)
        assert female == [] and male == []
        assert len(rest) == 3

    def test_even_split(self):
        entries = [
            ManifestEntry(id=str(i), audio="x", gender="female" if i % 2 else "male")
            for i in range(8)
        ]
        female, male, _ = split_by_gender(entries)
        assert len(female) == 4 and len(male) == 4


class TestAssignSeverities:
    def test_deterministic(self):
        a = assign_severities("utt-1", SEVERITIES, 2, seed=42)
        b = assign_severities("utt-1", SEVERITIES, 2, seed=42)
        assert a == b

    def test_depends_on_seed(self):
        draws = {tuple(assign_severities("utt-1", SEVERITIES, 2, seed=s)) for s in range(20)}
        assert len(draws) > 1

    def test_depends_on_id_not_position(self):
        assert assign_severities("utt-1", SEVERITIES, 2, 0) != assign_severities(
            "utt-2", SEVERITIES, 2, 0
        ) or assign_severities("utt-1", SEVERITIES, 2, 1) != assign_severities(
            "utt-2", SEVERITIES, 2, 1
        )

    def test_without_replacement(self):
        for i in range(50):
            draw = assign_severities(f"u{i}", SEVERITIES, 4, seed=0)
            assert sorted(draw) == sorted(SEVERITIES)

    def test_replication_too_large(self):
        with pytest.raises(ValueError, match="replication"):
            assign_severities("u", ("S1", "S2"), 3, 0)

    @pytest.mark.parametrize("replication", [0, -1])
    def test_replication_below_one(self, replication):
        with pytest.raises(ValueError, match="replication"):
            assign_severities("u", SEVERITIES, replication, 0)

    def test_duplicate_labels_count_once(self):
        with pytest.raises(ValueError, match="replication"):
            assign_severities("u", ["S1", "S1"], 2, 0)

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="S7"):
            assign_severities("u", ["S1", "S7"], 1, 0)


def _write_manifest(tmp_path, count=3, seconds=0.4):
    audio_dir = tmp_path / "audio"
    audio_dir.mkdir()
    entries = []
    for i in range(count):
        wav_path = audio_dir / f"utt{i}.wav"
        write_wav(make_tone(200.0 + 40.0 * i, seconds), wav_path)
        entries.append(ManifestEntry(
            id=f"utt{i}", audio=str(wav_path), text=f"text {i}",
            speaker=f"spk{i % 2}", gender="female" if i % 2 else "male",
        ))
    return entries


class TestRunBatch:
    def test_produces_expected_records(self, tmp_path):
        entries = _write_manifest(tmp_path)
        out_dir = tmp_path / "out"
        result = run_batch(entries, SEVERITIES, 2, 7, out_dir)
        assert len(result.records) == 6
        assert result.failures == []
        for record in result.records:
            assert (record.r1, record.r2) == SEVERITY_TABLE[record.severity]
            assert record.id == f"{record.source_id}_{record.severity}"
            with wave.open(record.audio) as fin:
                assert fin.getnchannels() == 1
                assert fin.getframerate() == 16000
                assert fin.getsampwidth() == 2
                n = fin.getnframes()
            source = read_wav(dict((e.id, e.audio) for e in entries)[record.source_id])
            expected = round(len(source) * record.r2 / record.r1)
            assert abs(n - expected) <= 512

    def test_records_in_input_order(self, tmp_path):
        entries = _write_manifest(tmp_path)
        result = run_batch(entries, SEVERITIES, 2, 7, tmp_path / "out")
        assert [r.source_id for r in result.records] == [
            e.id for e in entries for _ in range(2)
        ]

    def test_deterministic_bytes(self, tmp_path):
        entries = _write_manifest(tmp_path, count=2)
        r1 = run_batch(entries, SEVERITIES, 2, 5, tmp_path / "o1")
        r2 = run_batch(entries, SEVERITIES, 2, 5, tmp_path / "o2")
        assert [(a.id, a.severity) for a in r1.records] == [
            (b.id, b.severity) for b in r2.records
        ]
        for a, b in zip(r1.records, r2.records):
            with open(a.audio, "rb") as fa, open(b.audio, "rb") as fb:
                assert fa.read() == fb.read()

    def test_skips_failures(self, tmp_path, caplog):
        entries = _write_manifest(tmp_path, count=2)
        entries.insert(1, ManifestEntry(id="broken", audio=str(tmp_path / "gone.wav")))
        result = run_batch(entries, ("S1",), 1, 0, tmp_path / "out")
        assert len(result.records) == 2
        assert len(result.failures) == 1
        assert result.failures[0][0] == "broken"

    def test_non_finite_audio_is_a_per_file_failure(self, tmp_path):
        entries = _write_manifest(tmp_path, count=2)
        bad = tmp_path / "nan.wav"
        samples = np.full(8000, np.nan, dtype="<f4")
        bad.write_bytes(build_wav_bytes(3, 1, 16000, 32, samples.tobytes()))
        entries.insert(1, ManifestEntry(id="nan", audio=str(bad)))
        result = run_batch(entries, ("S1",), 1, 0, tmp_path / "out")
        assert [r.source_id for r in result.records] == ["utt0", "utt1"]
        assert len(result.failures) == 1
        entry_id, reason = result.failures[0]
        assert entry_id == "nan" and "non-finite samples" in reason
        assert not (tmp_path / "out" / "nan_S1.wav").exists()

    def test_hostile_sample_rates_fail_per_file_and_fast(self, tmp_path):
        # a declared rate once set the resampler's cost: 13 Hz took 1 s and
        # 20 MHz 2.3 s for 3 frames, and 2**32 - 1 Hz asked for ~34 GB
        entries = _write_manifest(tmp_path, count=2, seconds=0.3)
        expected = []
        for rate in (13, 999, 768001, 20_000_003, 4_294_967_295):
            data = bytearray(build_wav_bytes(1, 1, 16000, 16, b"\x01\x00" * 3))
            data[24:28] = struct.pack("<I", rate)  # the fmt chunk's sample rate
            path = tmp_path / f"r{rate}.wav"
            path.write_bytes(data)
            entries.insert(1, ManifestEntry(id=f"r{rate}", audio=str(path)))
            reason = f"{path}: sample rate {rate} Hz outside [1000, 768000] Hz"
            expected.append((f"r{rate}", reason))
        t0 = time.perf_counter()
        result = run_batch(entries, ("S1",), 1, 0, tmp_path / "out")
        assert time.perf_counter() - t0 < 1.0
        assert [r.source_id for r in result.records] == ["utt0", "utt1"]
        assert sorted(result.failures) == sorted(expected)

    def test_empty_clip_is_one_failure(self, tmp_path):
        entries = _write_manifest(tmp_path, count=1)
        empty = tmp_path / "empty.wav"
        empty.write_bytes(build_wav_bytes(1, 1, 16000, 16, b""))
        entries.append(ManifestEntry(id="e", audio=str(empty)))
        result = run_batch(entries, SEVERITIES, 2, 0, tmp_path / "out")
        assert len(result.records) == 2
        assert result.failures == [("e", f"{empty}: no audio frames")]

    def test_parallel_matches_serial(self, tmp_path):
        entries = _write_manifest(tmp_path, count=4)
        serial = run_batch(entries, SEVERITIES, 2, 3, tmp_path / "s", jobs=1)
        parallel = run_batch(entries, SEVERITIES, 2, 3, tmp_path / "p", jobs=2)
        assert [(a.id, a.severity) for a in serial.records] == [
            (b.id, b.severity) for b in parallel.records
        ]
        for a, b in zip(serial.records, parallel.records):
            with open(a.audio, "rb") as fa, open(b.audio, "rb") as fb:
                assert fa.read() == fb.read()

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_parallel_over_many_chunks_matches_serial(self, tmp_path, jobs):
        # 11 entries make chunks of 2 at jobs=2 and of 1 at jobs=3
        entries = _write_manifest(tmp_path, count=10, seconds=0.3)
        entries.insert(5, ManifestEntry(id="gone", audio=str(tmp_path / "gone.wav")))
        serial = run_batch(entries, SEVERITIES, 2, 3, tmp_path / "s", jobs=1)
        parallel = run_batch(entries, SEVERITIES, 2, 3, tmp_path / "p", jobs=jobs)
        assert len(serial.records) == 20
        assert [(a.id, a.severity) for a in serial.records] == [
            (b.id, b.severity) for b in parallel.records
        ]
        assert [entry_id for entry_id, _ in parallel.failures] == ["gone"]
        assert parallel.failures == serial.failures
        for a, b in zip(serial.records, parallel.records):
            assert Path(a.audio).read_bytes() == Path(b.audio).read_bytes()

    @pytest.mark.parametrize("count, jobs, pool", [
        (1, 4, None),  # one chunk runs in this process
        (3, 8, (3, 1)),  # one worker per chunk, not one per job
        (11, 3, (3, 1)),
        (20, 2, (2, 3)),  # chunks of 3 (the last of 2), not of 8, 8 and 4
        (100, 2, (2, 13)),
    ])
    def test_pool_is_sized_from_the_manifest(self, tmp_path, monkeypatch, count, jobs, pool):
        import concurrent.futures

        made = []

        class InlinePool:
            """Records how run_batch sizes its pool and maps in this process."""

            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables, chunksize=1):
                made.append((self.max_workers, chunksize))
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        entries = [ManifestEntry(id=f"u{i}", audio=str(tmp_path / f"u{i}.wav"))
                   for i in range(count)]
        result = run_batch(entries, ("S1",), 1, 0, tmp_path / "out", jobs=jobs)
        assert made == ([] if pool is None else [pool])
        assert [entry_id for entry_id, _ in result.failures] == [e.id for e in entries]

    def test_single_draw(self, tmp_path):
        entries = _write_manifest(tmp_path, count=1)
        result = run_batch(entries, ("S1",), 1, 0, tmp_path / "out")
        assert len(result.records) == 1
        record = result.records[0]
        assert (record.severity, record.r1, record.r2) == ("S1", 1.2, 0.8)

    def test_empty_manifest(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            run_batch([], SEVERITIES, 2, 0, tmp_path / "out")

    def test_replication_exceeds_severities(self, tmp_path):
        entries = _write_manifest(tmp_path, count=1)
        with pytest.raises(ValueError, match="replication"):
            run_batch(entries, ("S1", "S2"), 3, 0, tmp_path / "out")

    def test_jobs_below_one(self, tmp_path):
        entries = _write_manifest(tmp_path, count=1)
        with pytest.raises(ValueError, match="jobs"):
            run_batch(entries, SEVERITIES, 2, 0, tmp_path / "out", jobs=0)
        assert not (tmp_path / "out").exists()

    def test_duplicate_ids_rejected_before_out_dir(self, tmp_path):
        entries = [ManifestEntry("x", str(tmp_path / "a.wav")),
                   ManifestEntry("x", str(tmp_path / "b.wav"))]
        with pytest.raises(ValueError, match="duplicate id 'x'"):
            run_batch(entries, SEVERITIES, 1, 0, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_no_severities(self, tmp_path):
        entries = _write_manifest(tmp_path, count=1)
        with pytest.raises(ValueError, match="at least one"):
            run_batch(entries, [], 1, 0, tmp_path / "out")

    def test_records_serialize(self, tmp_path):
        entries = _write_manifest(tmp_path, count=1)
        result = run_batch(entries, ("S3",), 1, 0, tmp_path / "out")
        out = tmp_path / "records.jsonl"
        write_records(result.records, out)
        import json

        obj = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
        assert obj["source_id"] == "utt0"
        assert obj["severity"] == "S3"
        assert obj["r1"] == 1.8
        assert obj["r2"] == 0.4


    def test_output_manifest_is_an_input_manifest(self, tmp_path):
        entries = _write_manifest(tmp_path, count=2)
        result = run_batch(entries, SEVERITIES, 2, 0, tmp_path / "out")
        out = tmp_path / "records.jsonl"
        write_records(result.records, out)
        fields = ("id", "audio", "text", "speaker", "gender")
        assert [tuple(getattr(e, f) for f in fields) for e in read_manifest(out)] == [
            tuple(getattr(r, f) for f in fields) for r in result.records
        ]


def test_perturbation_params_accepts_free_factors():
    p = PerturbationParams(speed=1.1, tempo=0.9)
    assert p.severity is None


@pytest.mark.parametrize("speed, tempo, message", [(9.0, 1.0, "speed factor 9.0"),
                                                   (1.0, 0.1, "tempo factor 0.1")])
def test_perturbation_params_rejects_factors_out_of_range(speed, tempo, message):
    with pytest.raises(ValueError, match=message):
        PerturbationParams(speed=speed, tempo=tempo)


_ENTRY_FIELDS = ("id", "audio", "text", "speaker", "gender")
_PROVENANCE = {"source_id": "u", "severity": "S1", "r1": 1.2, "r2": 0.8}


@pytest.mark.parametrize("cls, field", [(ManifestEntry, f) for f in _ENTRY_FIELDS]
                         + [(AugmentRecord, f) for f in _ENTRY_FIELDS + ("source_id", "severity")])
@pytest.mark.parametrize("value, kind", [(None, "null"), (5, "number"), (["z"], "array")])
def test_entry_built_in_code_checks_its_string_fields(cls, field, value, kind):
    # an entry built in code once wrote "text": null into an output manifest
    kwargs = {"id": "u_S1", "audio": "a.wav", **(_PROVENANCE if cls is AugmentRecord else {})}
    kwargs[field] = value
    with pytest.raises(ValueError, match=rf"^field '{field}' must be a string, got {kind}$"):
        cls(**kwargs)


def test_entry_names_a_non_json_value_by_its_python_type():
    kind = type(Path()).__name__
    with pytest.raises(ValueError, match=rf"^field 'audio' must be a string, got {kind}$"):
        ManifestEntry(id="u", audio=Path("a.wav"))


@pytest.mark.parametrize("severity, r1, r2", [("S1", 9.0, "x"), ("S9", None, 0.4)])
def test_record_factors_must_be_the_severity_preset(severity, r1, r2):
    with pytest.raises(ValueError, match=r"^record 'a_S1': \(r1, r2\) = .* is not the preset"):
        AugmentRecord(id="a_S1", audio="a.wav", source_id="a", severity=severity, r1=r1, r2=r2)


@pytest.mark.parametrize("kwargs, message", [({"audio": "a.wav"}, "id must be non-empty"),
                                             ({"id": "u"}, "audio path must be non-empty")])
def test_entry_missing_id_or_audio_is_a_value_error(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ManifestEntry(**kwargs)
