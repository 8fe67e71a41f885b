"""dysaug benchmark: seeded inputs, timed workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The inputs are generated from --seed
under .bench_work/ before anything is timed; dysaug is imported from
src/ (PYTHONPATH=src, as the tier-1 tests do) in fresh interpreters, and
its outputs are checked against oracles that do not use dysaug.  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; failed / attempted is the
failed fraction (unexpected errors plus check failures per operation).

Workloads (why each was chosen is in BENCHMARK.json):
  augment-long44k   60 chirp clips of 4-12 s at 44.1 kHz, half PCM16 mono,
                    half float32 stereo; S1-S4 with replication 2; shards
                    of 20 clips through run_batch at jobs=1 and jobs=2
  augment-short16k  400 clips of 0.3-1.2 s at 16 kHz PCM16 mono, 2% of
                    them unreadable (A-law, no data chunk); replication 4;
                    shards of 100 clips at jobs=1 and jobs=2
  text-align        score() WER over short utterances (5-20 words) and
                    CER over ~400-character utterances
  text-correct      build_confusion on held-out pairs, then
                    correct_sentence with the estimated matrix against a
                    20k-word Zipf dictionary

End-to-end metrics (--trace 0):
  rate1, rate2   the workload's two throughputs (work per wall second), each
                 the median over the run's turns (a run_batch call, or about
                 0.25 s of calls), scaled to the reference speed
                   augment-*     augment_rtf_jobs1, augment_rtf_jobs2: output
                                 audio seconds per wall second of run_batch
                                 + write_records at jobs=1 and jobs=2
                   text-align    wer_utts_per_s, cer_kchars_per_s
                   text-correct  confusion_pairs_per_s, correct_words_per_s
  peak_rss_mb    peak RSS of the measuring process plus, per pool worker,
                 the peak of the largest worker (shared pages count in each)
  setup_s        median over fresh interpreters of `import dysaug` plus the
                 workload's one-time loads (see probe.py), each scaled to the
                 reference speed

Scaled to the reference speed: the host's other tenants slow the machine
down by up to a half for seconds at a time, so each turn or probe is
bracketed by fixed reference blocks (reference.py) of the kind of work
it does, which read its slowdown; a rate is multiplied by it and a time
divided.  The unscaled figures and the slowdowns are printed beside
each metric.

Per-layer metrics (--trace 1) come from a fixed amount of work replayed
serially through the public functions with one span per call; the list
is PER_LAYER below.  busy_s is self time (span minus child spans);
p50_ms and tail_ms are per-call durations, tail_ms at the highest
quantile with at least ten calls beyond it (printed with each).  The
spans are kept under .bench_work/traces/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import gen
import reference
from tracer import quantile, tail_level

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_work"

WORKLOADS = ("augment-long44k", "augment-short16k", "text-align", "text-correct")
POOL_JOBS = 2
PROBES = 5  # fresh interpreters per set-up figure
PROBE_TIMEOUT_S = 60
MEASURE_GRACE_S = 100  # beyond --seconds: start-up, the first round of shards, traced work

# the names each workload's rate1 and rate2 stand for
RATE_NAMES = {
    "augment-long44k": ("augment_rtf_jobs1", "augment_rtf_jobs2", "s/s"),
    "augment-short16k": ("augment_rtf_jobs1", "augment_rtf_jobs2", "s/s"),
    "text-align": ("wer_utts_per_s", "cer_kchars_per_s", "1/s"),
    "text-correct": ("confusion_pairs_per_s", "correct_words_per_s", "1/s"),
}

END_TO_END = [
    ("rate1", "work/s"),
    ("rate2", "work/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

# spans timed per call: calls, busy_s (self time), p50_ms, tail_ms
TIMED_LAYERS = [
    "audio_io.read_wav", "audio_io.resample", "speed.perturb_speed", "tempo.perturb_tempo",
    "audio_io.write_wav", "scoring.align", "scoring.score_word", "scoring.score_char",
    "scoring.build_confusion", "correction.correct_word",
]
# work counts recorded on spans, summed per span name
COUNTED = [
    ("audio_io.read_wav", "bytes_in", "bytes"),
    ("audio_io.resample", "samples_in", "samples"),
    ("speed.perturb_speed", "samples_out", "samples"),
    ("tempo.perturb_tempo", "frames", "frames"),
    ("audio_io.write_wav", "bytes_out", "bytes"),
    ("scoring.align", "cells", "cells"),
]
PER_LAYER = (
    [("cli.import_s", "s", "lower"), ("cli.import_floor_s", "s", "lower")]
    + [(f"{layer}.{field}", unit, "lower") for layer in TIMED_LAYERS
       for field, unit in (("calls", "count"), ("busy_s", "s"), ("p50_ms", "ms"), ("tail_ms", "ms"))]
    + [(f"{layer}.{field}", unit, "lower") for layer, field, unit in COUNTED]
    + [
        ("pipeline.run_batch.busy_s", "s", "lower"),
        ("pipeline.parallel_eff", "frac", "higher"),
        ("pipeline.records", "count", "higher"),
        ("pipeline.rejected", "count", "lower"),
        ("pipeline.read_manifest.busy_s", "s", "lower"),
        ("pipeline.write_records.busy_s", "s", "lower"),
        ("correction.correct_word.first_call_s", "s", "lower"),
        ("correction.load_dictionary.busy_s", "s", "lower"),
        ("correction.restored_ratio", "frac", "higher"),
        ("correction.tiebreak_mismatch", "count", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_child(cmd: list[str], timeout: float) -> str:
    """Run a Python child in its own process group and return its stdout.
    On timeout the whole group, pool workers included, is killed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, *cmd], cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[0]} timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:2])} exited {proc.returncode}:\n{err[-4000:]}")
    return out


def probe(*args: str) -> float:
    out = run_child([str(HERE / "probe.py"), *args], PROBE_TIMEOUT_S)
    return json.loads(out.strip().splitlines()[-1])["seconds"]


def median_of_probes(name: str, *args: str) -> float:
    """Median over PROBES fresh interpreters of the probe's seconds, each
    divided by the slowdown that python reference blocks (reference.py)
    read around it.  Prints the samples both ways."""
    gauge = reference.Gauge("python")
    raw, scaled = [], []
    for _ in range(PROBES):
        raw.append(probe(*args))
        scaled.append(raw[-1] / gauge.slowdown())
    print(f"  {name} samples (s): scaled {', '.join(f'{s:.3f}' for s in scaled)}; "
          f"unscaled {', '.join(f'{s:.3f}' for s in raw)}")
    return statistics.median(scaled)


def timing_summary(values: list[float]) -> str:
    """Median and the highest quantile with at least ten samples beyond it."""
    ordered = sorted(values)
    q = tail_level(len(ordered))
    return (f"n={len(ordered)} p50={quantile(ordered, 0.5):.4g} "
            f"p{100 * q:.3g}={quantile(ordered, q):.4g}")


# ---------------------------------------------------------------- trace 0


def augment_metrics(spec: dict, measured: dict) -> tuple[dict, list[str], int]:
    problems, frames = checks.check_augment(spec, measured["outputs"])
    problems += [f"{measured['mismatches']} repeated shards gave different outputs"] * bool(
        measured["mismatches"])
    out_seconds = {
        shard: sum(frames.get(r["id"], 0) for r in outcome["records"]) / gen.TARGET_RATE
        for shard, outcome in measured["outputs"]["1"].items()
    }
    rates = {1: [], 2: []}
    for call in measured["calls"]:
        rates[call["jobs"]].append((out_seconds[str(call["shard"])], call["wall_s"],
                                    call["slowdown"]))
    scaled = {jobs: scaled_rate(f"augment_rtf_jobs{jobs}", "s/s per run_batch call", turns)
              for jobs, turns in rates.items()}
    shard = spec["shard"]
    attempted = len(measured["calls"]) * shard
    rss = measured["rss"]
    metrics = {
        "rate1": scaled[1],
        "rate2": scaled[2],
        "peak_rss_mb": (rss["self_kb"] + POOL_JOBS * rss["child_kb"]) / 1024.0,
    }
    return metrics, problems, attempted


def scaled_rate(name: str, unit: str, turns: list[tuple[float, float, float]]) -> float:
    """Median over turns of work / wall_s times the turn's slowdown
    (reference.py); turns are (work, wall_s, slowdown).  The unscaled
    rates and the slowdowns are printed beside it."""
    raw = [work / wall for work, wall, _ in turns]
    slowdown = [s for _, _, s in turns]
    scaled = [r * s for r, s in zip(raw, slowdown)]
    print(f"  {name} per turn ({unit}): scaled {timing_summary(scaled)}; "
          f"unscaled {timing_summary(raw)}; slowdown {timing_summary(slowdown)}")
    return statistics.median(scaled)


def phase_rate(name: str, unit: str, phase: dict) -> float:
    calls = phase["calls"]
    turns = []
    for turn in phase["turns"]:
        done = calls[turn["first"]:turn["end"]]
        turns.append((sum(c["work"] for c in done), sum(c["wall_s"] for c in done),
                      turn["slowdown"]))
    return scaled_rate(name, unit, turns)


def text_align_metrics(work: Path, measured: dict) -> tuple[dict, list[str], int]:
    corpus = checks.load_json(work / "corpus.json")
    problems = []
    for key, unit in (("wer", "word"), ("cer", "char")):
        phase = measured[key]
        problems += checks.check_reports(key, corpus[key], phase["outputs"], unit)
        problems += [f"{key}: repeated batches gave different reports"] * bool(phase["mismatches"])
    attempted = (len(measured["wer"]["calls"]) * gen.WER_BATCH
                 + len(measured["cer"]["calls"]) * gen.CER_BATCH)
    metrics = {
        "rate1": phase_rate("wer_utts_per_s", "utts/s", measured["wer"]),
        "rate2": phase_rate("cer_kchars_per_s", "kchars/s", measured["cer"]),
        "peak_rss_mb": measured["rss"]["self_kb"] / 1024.0,
    }
    return metrics, problems, attempted


def correction_checks(work: Path, corpus: dict, confusion_outputs: dict,
                      correct_outputs: dict) -> tuple[list[str], dict]:
    matrix = checks.load_json(work / "confusion.json")
    problems = checks.check_matrix("estimated matrix", matrix)
    for index, m in confusion_outputs.items():
        problems += checks.check_matrix(f"confusion batch {index}", m)
    queries = [w for s in corpus["correct"] for w in s["hyp"]]
    oracle = checks.CorrectionOracle(work / "dictionary.txt", matrix, queries)
    verdict = checks.check_corrections(corpus["correct"], correct_outputs, oracle)
    return problems + verdict["problems"], verdict


def text_correct_metrics(work: Path, measured: dict) -> tuple[dict, list[str], int]:
    corpus = checks.load_json(work / "corpus.json")
    problems, verdict = correction_checks(work, corpus, measured["confusion"]["outputs"],
                                          measured["correct"]["outputs"])
    for key in ("confusion", "correct"):
        problems += [f"{key}: repeated batches gave different outputs"] * bool(
            measured[key]["mismatches"])
    print(f"  corrections checked: {verdict['oov']} out-of-vocabulary words, "
          f"tie-break mismatches {verdict['tiebreak_mismatch']} (reported, not gated)")
    attempted = (len(measured["confusion"]["calls"]) * gen.CONFUSION_BATCH
                 + len(measured["correct"]["calls"]) * gen.CORRECT_WORDS)
    metrics = {
        "rate1": phase_rate("confusion_pairs_per_s", "pairs/s", measured["confusion"]),
        "rate2": phase_rate("correct_words_per_s", "words/s", measured["correct"]),
        "peak_rss_mb": measured["rss"]["self_kb"] / 1024.0,
    }
    return metrics, problems, attempted


def setup_probe_args(workload: str, work: Path) -> list[str]:
    args = ["setup", workload, str(work)]
    if workload == "text-correct":
        corpus = checks.load_json(work / "corpus.json")
        first = corpus["correct"][0]
        args.append(next(h for r, h in zip(first["ref"], first["hyp"]) if h != r))
    return args


# ---------------------------------------------------------------- trace 1


def layer_metrics(workload: str, work: Path, spec: dict, measured: dict) -> tuple[dict, list[str], int]:
    layers = measured["layers"]
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    for layer in TIMED_LAYERS:
        got = layers.get(layer)
        if got:
            metrics[f"{layer}.calls"] = got["calls"]
            metrics[f"{layer}.busy_s"] = got["self_s"]
            metrics[f"{layer}.p50_ms"] = got["p50_ms"]
            metrics[f"{layer}.tail_ms"] = got["tail_ms"]
            print(f"  {layer}: n={got['calls']} self={got['self_s']:.4g}s "
                  f"p50={got['p50_ms']:.4g}ms p{100 * got['tail_q']:.3g}={got['tail_ms']:.4g}ms")
    for layer, field, _ in COUNTED:
        metrics[f"{layer}.{field}"] = layers.get(layer, {}).get(field, 0)

    problems = []
    if workload.startswith("augment-"):
        problems, _ = checks.check_augment(spec, measured["outputs"])
        walls = measured["walls"]
        serial_s = statistics.mean(walls["1"])
        replay_s = measured["replay_s"]
        merged = checks.merge(measured["outputs"]["1"])
        metrics.update({
            "pipeline.run_batch.busy_s": serial_s,
            "pipeline.parallel_eff": replay_s / (POOL_JOBS * walls["2"][0]),
            "pipeline.records": len(merged["records"]),
            "pipeline.rejected": len(merged["failures"]),
            "pipeline.read_manifest.busy_s": layers["pipeline.read_manifest"]["self_s"],
            "pipeline.write_records.busy_s": layers["pipeline.write_records"]["self_s"],
            "trace.overhead_frac": (replay_s - serial_s) / serial_s,
        })
        attempted = 4 * len(spec["clips"])  # jobs=1 twice, jobs=2, replay
    else:
        corpus = checks.load_json(work / "corpus.json")
        outputs = measured["outputs"]
        metrics["trace.overhead_frac"] = (
            (measured["traced_s"] - measured["untraced_s"]) / measured["untraced_s"])
        if workload == "text-align":
            for key, unit in (("wer", "word"), ("cer", "char")):
                problems += checks.check_reports(key, corpus[key], outputs[key], unit)
            attempted = 2 * (len(outputs["wer"]) * gen.WER_BATCH
                             + len(outputs["cer"]) * gen.CER_BATCH)
        else:
            problems, verdict = correction_checks(work, corpus, outputs["confusion"],
                                                  outputs["correct"])
            metrics.update({
                "correction.correct_word.first_call_s":
                    layers["correction.first_call"]["self_s"],
                "correction.load_dictionary.busy_s":
                    layers["correction.load_dictionary"]["self_s"],
                "correction.restored_ratio": verdict["restored_ratio"],
                "correction.tiebreak_mismatch": verdict["tiebreak_mismatch"],
            })
            attempted = 2 * (len(outputs["confusion"]) * gen.CONFUSION_BATCH
                             + len(outputs["correct"]) * gen.CORRECT_WORDS)
    return metrics, problems, attempted


# ---------------------------------------------------------------- main


def run(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    t0 = perf_counter()
    spec = gen.generate(workload, seed, work)
    print(f"{workload} seed={seed} trace={int(trace)}: inputs generated in "
          f"{perf_counter() - t0:.2f} s")
    run_child([str(HERE / "measure.py"), workload, str(work), str(seconds), str(int(trace))],
              seconds + MEASURE_GRACE_S)
    measured = checks.load_json(work / "measure.json")

    if trace:
        metrics, problems, attempted = layer_metrics(workload, work, spec, measured)
        metrics["cli.import_s"] = median_of_probes("cli.import_s", "import")
        metrics["cli.import_floor_s"] = median_of_probes("cli.import_floor_s", "floor")
        traces = WORK_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        shutil.move(work / "spans.jsonl", traces / f"{workload}-seed{seed}.jsonl")
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        if workload.startswith("augment-"):
            metrics, problems, attempted = augment_metrics(spec, measured)
        elif workload == "text-align":
            metrics, problems, attempted = text_align_metrics(work, measured)
        else:
            metrics, problems, attempted = text_correct_metrics(work, measured)
        metrics["setup_s"] = median_of_probes("setup_s", *setup_probe_args(workload, work))
        units = dict(END_TO_END)
        first, second, unit = RATE_NAMES[workload]
        print(f"  rate1 = {first} ({unit}), rate2 = {second} ({unit})")

    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    failed = min(len(problems), attempted)
    print(f"  failed_frac = {failed}/{attempted}")
    for name in units:
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "dysaug" / "__init__.py").is_file():
        print(f"perfbench: no dysaug sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if any(math.isnan(m["value"]) for m in result["metrics"].values()):
        print("perfbench: a metric is not a number", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
