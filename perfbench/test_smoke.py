"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import gen
import run
from tracer import Tracer, self_times, tail_level

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert spec["paths"] == ["perfbench"]


def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_is_seeded(tmp_path):
    for workload in ("augment-short16k", "text-align"):
        gen.generate(workload, 7, tmp_path / "a" / workload)
        gen.generate(workload, 7, tmp_path / "b" / workload)
        gen.generate(workload, 8, tmp_path / "c" / workload)
        # manifests hold absolute paths, so compare everything but them
        a = {k: v for k, v in _tree_bytes(tmp_path / "a" / workload).items() if k.suffix != ".jsonl"}
        b = {k: v for k, v in _tree_bytes(tmp_path / "b" / workload).items() if k.suffix != ".jsonl"}
        c = {k: v for k, v in _tree_bytes(tmp_path / "c" / workload).items() if k.suffix != ".jsonl"}
        assert a == b
        assert a != c


def _levenshtein(a, b):
    d = [[i + j if i * j == 0 else 0 for j in range(len(b) + 1)] for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return d[-1][-1]


def test_edit_distance_oracle():
    rng = random.Random(0)
    for _ in range(300):
        a = "".join(rng.choice("abc") for _ in range(rng.randint(0, 12)))
        b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 12)))
        assert checks.edit_distance(a, b) == _levenshtein(a, b)


def test_self_time_and_tail_level():
    tracer = Tracer()
    with tracer.span("outer", request="r"):
        with tracer.span("inner") as counts:
            counts["cells"] = 4
    outer, inner = tracer.spans
    assert inner["request"] == "r" and inner["parent"] == outer["id"]
    own = self_times(tracer.spans)
    assert abs(own[0] - ((outer["end"] - outer["start"]) - (inner["end"] - inner["start"]))) < 1e-12
    assert tail_level(10) == 0.5
    assert tail_level(100) == 0.9
    assert tail_level(1000) == 0.99


def test_scaling_cancels_a_slowdown():
    nominal = [(100.0, 1.0, 1.0)] * 3
    halved = [(100.0, 2.0, 2.0)] * 3
    assert run.scaled_rate("r", "1/s", nominal) == 100.0
    assert abs(run.scaled_rate("r", "1/s", halved) - 100.0) < 1e-9


def test_refuses_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "text-align",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_short_run_prints_result_line():
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "text-align",
                          "--seed", "3", "--seconds", "1", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
