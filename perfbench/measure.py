"""Drive one workload through dysaug's public API in a fresh interpreter.

run.py starts this once per run, with PYTHONPATH=src as the tier-1 tests
import the package, after every input exists.  It writes
<work>/measure.json with raw wall times and the program's outputs; run.py
checks the outputs and turns the times into metrics, so no check here
depends on dysaug.

    python3 perfbench/measure.py WORKLOAD WORK_DIR SECONDS TRACE

With TRACE 0 each workload's user-visible path runs for SECONDS, one
timed call after another, and every call's wall time is kept, with the
slowdown that reference blocks (reference.py) read between turns.  With
TRACE 1 a fixed amount of work runs untraced, then as a serial replay
through the public functions with one span per call, then untraced
again.  The spans stay in memory and go to <work>/spans.jsonl at the end.
"""

from __future__ import annotations

import itertools
import json
import logging
import resource
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import dysaug
import dysaug.scoring

import reference
from gen import AUGMENT_SEED, TARGET_RATE
from tracer import Tracer, summarize

MIN_CALLS = 3  # timed calls per phase, however short the run
SLICE_S = 0.25  # length of one phase's turn when phases share a run

# fixed work of the traced run: batches (or sentences) taken from the corpus
TRACE_WER_BATCHES = 10
TRACE_CER_BATCHES = 8
TRACE_CORRECT_SENTENCES = 12


def peak_rss_kb() -> dict:
    """Peak resident set of this process and of its largest child (KiB)."""
    return {
        "self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "child_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }


def batch_outcome(result) -> dict:
    return {
        "records": [json.loads(r.to_json()) for r in result.records],
        "failures": [list(f) for f in result.failures],
    }


def report_dict(report) -> dict:
    return {"S": report.substitutions, "I": report.insertions, "D": report.deletions,
            "H": report.hits, "N": report.ref_length}


def timed_phases(phases: dict, seconds: float, gauge: reference.Gauge) -> dict:
    """Share `seconds` between phases in turns of about SLICE_S each, so
    that every phase is sampled across the whole run and a slow spell of
    the machine does not land on one phase alone.  Each turn keeps the
    slowdown the gauge reads right after it.

    `phases` maps a name to (fn, batches, work, keep): fn is called on
    each batch in turn, work(batch) is the work a call does, keep(result)
    the output kept for the checks.  Returns per phase the timed calls,
    the turns (a slice of the calls and their slowdown), the kept
    output of each batch index, and how often a repeated batch gave a
    different output."""
    state = {name: {"calls": [], "turns": [], "outputs": {}, "mismatches": 0}
             for name in phases}
    deadline = perf_counter() + seconds
    while True:
        for name, (fn, batches, work, keep) in phases.items():
            got = state[name]
            first = len(got["calls"])
            turn_end = perf_counter() + SLICE_S
            while True:
                index = len(got["calls"]) % len(batches)
                t0 = perf_counter()
                result = fn(batches[index])
                wall = perf_counter() - t0
                got["calls"].append({"batch": index, "wall_s": wall, "work": work(batches[index])})
                kept = keep(result)
                if index in got["outputs"] and got["outputs"][index] != kept:
                    got["mismatches"] += 1
                got["outputs"].setdefault(index, kept)
                if perf_counter() >= turn_end:
                    break
            got["turns"].append({"first": first, "end": len(got["calls"]),
                                 "slowdown": gauge.slowdown()})
        if perf_counter() >= deadline and all(len(g["calls"]) >= MIN_CALLS for g in state.values()):
            return state


def cer_chars(batch) -> float:
    """Reference characters of a batch in thousands, as score() counts them."""
    return sum(len(" ".join(ref.split())) for ref, _ in batch) / 1000.0


# ---------------------------------------------------------------- augment


def augment_timed(work: Path, spec: dict, seconds: float) -> dict:
    """Rounds over the shards, each shard through run_batch + write_records
    at jobs=1 then jobs=2, until `seconds` have passed and every shard has
    run once, so every clip is checked.  Each call keeps the slowdown the
    gauge reads right after it."""
    entries = dysaug.read_manifest(work / "manifest.jsonl")
    k = spec["shard"]
    shards = [entries[i : i + k] for i in range(0, len(entries), k)]
    calls = []
    outputs = {1: {}, 2: {}}
    mismatches = 0
    gauge = reference.Gauge("vector")
    deadline = perf_counter() + seconds
    for step in itertools.count():
        index, shard = step % len(shards), shards[step % len(shards)]
        if step >= len(shards) and perf_counter() >= deadline:
            break
        for jobs in (1, 2):
            out_dir = work / f"out{jobs}"
            t0 = perf_counter()
            result = dysaug.run_batch(shard, dysaug.SEVERITIES, spec["replication"],
                                      AUGMENT_SEED, out_dir, jobs=jobs)
            dysaug.write_records(result.records, out_dir / f"manifest-{index}.jsonl")
            calls.append({"jobs": jobs, "shard": index, "wall_s": perf_counter() - t0,
                          "slowdown": gauge.slowdown()})
            got = batch_outcome(result)
            if index in outputs[jobs] and outputs[jobs][index] != got:
                mismatches += 1
            outputs[jobs][index] = got
    return {"calls": calls, "outputs": outputs, "mismatches": mismatches}


def augment_traced(work: Path, spec: dict, tracer: Tracer) -> dict:
    """The whole manifest through run_batch untraced at jobs=1 and jobs=2,
    a serial traced replay of the same pipeline through the public
    functions (writing into replay/), then jobs=1 untraced again.  The
    two jobs=1 runs bracket the replay, so their mean is the untraced
    baseline at the same warmth."""
    manifest = work / "manifest.jsonl"
    replication = spec["replication"]
    walls = {"1": [], "2": []}
    outputs = {}
    entries = dysaug.read_manifest(manifest)

    def untraced(jobs):
        out_dir = work / f"out{jobs}"
        t0 = perf_counter()
        result = dysaug.run_batch(entries, dysaug.SEVERITIES, replication, AUGMENT_SEED,
                                  out_dir, jobs=jobs)
        dysaug.write_records(result.records, out_dir / "manifest-0.jsonl")
        walls[str(jobs)].append(perf_counter() - t0)
        outputs[str(jobs)] = {0: batch_outcome(result)}

    untraced(1)
    untraced(2)

    replay_dir = work / "replay"
    replay_dir.mkdir()
    hop = dysaug.WsolaConfig().synthesis_hop
    result = dysaug.BatchResult()
    t0 = perf_counter()
    with tracer.span("pipeline.read_manifest"):
        entries = dysaug.read_manifest(manifest)
    for entry in entries:
        with tracer.span("pipeline.entry", request=entry.id):
            try:
                with tracer.span("audio_io.read_wav", bytes_in=Path(entry.audio).stat().st_size):
                    wave = dysaug.read_wav(entry.audio)
                with tracer.span("audio_io.resample", samples_in=len(wave)):
                    wave = dysaug.resample(wave, TARGET_RATE)
            except dysaug.WavFormatError as exc:
                result.failures.append((entry.id, f"{entry.audio}: {exc}"))
                continue
            for severity in dysaug.assign_severities(entry.id, dysaug.SEVERITIES,
                                                     replication, AUGMENT_SEED):
                params = dysaug.params_for(severity)
                with tracer.span("speed.perturb_speed") as counts:
                    sped = dysaug.perturb_speed(wave, params.speed)
                counts["samples_out"] = len(sped)
                with tracer.span("tempo.perturb_tempo") as counts:
                    out = dysaug.perturb_tempo(sped, params.tempo)
                counts["frames"] = -(-len(out) // hop)
                path = replay_dir / f"{entry.id}_{severity}.wav"
                with tracer.span("audio_io.write_wav") as counts:
                    dysaug.write_wav(out, path)
                counts["bytes_out"] = path.stat().st_size
                result.records.append(dysaug.AugmentRecord(
                    id=f"{entry.id}_{severity}", audio=str(path), text=entry.text,
                    speaker=entry.speaker, gender=entry.gender, source_id=entry.id,
                    severity=severity, r1=params.speed, r2=params.tempo,
                ))
    with tracer.span("pipeline.write_records"):
        dysaug.write_records(result.records, replay_dir / "manifest-0.jsonl")
    replay_s = perf_counter() - t0
    outputs["replay"] = {0: batch_outcome(result)}
    untraced(1)
    return {"walls": walls, "replay_s": replay_s, "outputs": outputs}


# ---------------------------------------------------------------- text


def load_corpus(work: Path) -> dict:
    with open(work / "corpus.json", encoding="utf-8") as fin:
        return json.load(fin)


def as_pairs(batch):
    return [tuple(pair) for pair in batch]


def text_align_timed(work: Path, seconds: float) -> dict:
    corpus = load_corpus(work)
    return timed_phases({
        "wer": (lambda b: dysaug.score(b, unit="word"), [as_pairs(b) for b in corpus["wer"]],
                len, report_dict),
        "cer": (lambda b: dysaug.score(b, unit="char"), [as_pairs(b) for b in corpus["cer"]],
                cer_chars, report_dict),
    }, seconds, reference.Gauge("python"))


def estimated_matrix(work: Path, confusion_batches) -> "dysaug.ConfusionMatrix":
    """Estimate the matrix on every held-out pair, save it where the
    set-up probes load it, and load it back as the CLI's correct does."""
    pairs = [pair for batch in confusion_batches for pair in batch]
    dysaug.build_confusion(pairs).save(work / "confusion.json")
    return dysaug.ConfusionMatrix.load(work / "confusion.json")


def text_correct_timed(work: Path, seconds: float) -> dict:
    corpus = load_corpus(work)
    confusion = [as_pairs(b) for b in corpus["confusion"]]
    matrix = estimated_matrix(work, confusion)
    dictionary = dysaug.load_dictionary(work / "dictionary.txt")
    sentences = [" ".join(s["hyp"]) for s in corpus["correct"]]
    # the first call builds the dictionary profiles; set-up pays for that
    dysaug.correct_sentence(sentences[-1], dictionary, matrix)
    return timed_phases({
        "confusion": (dysaug.build_confusion, confusion, len, lambda m: m.to_dict()),
        "correct": (lambda s: dysaug.correct_sentence(s, dictionary, matrix), sentences,
                    lambda s: len(s.split()), str),
    }, seconds, reference.Gauge("python"))


def traced_align(tracer: Tracer, original):
    """Wrap scoring.align, which score() and build_confusion() look up at
    call time, in a span carrying its DP cell count."""

    def align(ref, hyp):
        with tracer.span("scoring.align", cells=len(ref) * len(hyp)):
            return original(ref, hyp)

    return align


def run_text_phases(phases, tracer: Tracer | None) -> tuple[float, dict]:
    """Run (span name, fn, batches, keep) phases, calling fn(batch, tracer);
    with a tracer, each batch and each align call gets a span."""
    outputs = {}
    original = dysaug.scoring.align
    t0 = perf_counter()
    try:
        if tracer:
            dysaug.scoring.align = traced_align(tracer, original)
        for name, fn, batches, keep in phases:
            got = outputs.setdefault(name, {})
            for index, batch in enumerate(batches):
                with span_or_not(tracer, name, request=f"{name}:{index}"):
                    got[index] = keep(fn(batch, tracer))
    finally:
        dysaug.scoring.align = original
    return perf_counter() - t0, outputs


def bracketed(phases, tracer: Tracer) -> tuple[float, float, dict]:
    """Untraced, traced, untraced again: the mean of the two untraced
    walls is the baseline at the same warmth as the traced pass."""
    before, _ = run_text_phases(phases, None)
    traced_s, outputs = run_text_phases(phases, tracer)
    after, _ = run_text_phases(phases, None)
    return (before + after) / 2, traced_s, outputs


def span_or_not(tracer: Tracer | None, name: str, **fields):
    return tracer.span(name, **fields) if tracer else nullcontext()


def text_align_traced(work: Path, tracer: Tracer) -> dict:
    corpus = load_corpus(work)
    phases = [
        ("scoring.score_word", lambda b, _: dysaug.score(b, unit="word"),
         [as_pairs(b) for b in corpus["wer"][:TRACE_WER_BATCHES]], report_dict),
        ("scoring.score_char", lambda b, _: dysaug.score(b, unit="char"),
         [as_pairs(b) for b in corpus["cer"][:TRACE_CER_BATCHES]], report_dict),
    ]
    untraced_s, traced_s, outputs = bracketed(phases, tracer)
    return {"untraced_s": untraced_s, "traced_s": traced_s,
            "outputs": {"wer": outputs["scoring.score_word"],
                        "cer": outputs["scoring.score_char"]}}


def text_correct_traced(work: Path, tracer: Tracer) -> dict:
    corpus = load_corpus(work)
    confusion = [as_pairs(b) for b in corpus["confusion"]]
    with tracer.span("correction.load_dictionary"):
        dictionary = dysaug.load_dictionary(work / "dictionary.txt")
    matrix = estimated_matrix(work, confusion)
    sentences = [s["hyp"] for s in corpus["correct"][:TRACE_CORRECT_SENTENCES]]
    first = next(w for w in sentences[0] if w not in dictionary)
    with tracer.span("correction.first_call"):
        dysaug.correct_word(first, dictionary, matrix)

    def correct_words(words, tracer):
        # correct_sentence, one span per correct_word call
        out = []
        for word in words:
            if word.isalpha():
                with span_or_not(tracer, "correction.correct_word"):
                    word = dysaug.correct_word(word, dictionary, matrix)
            out.append(word)
        return " ".join(out)

    phases = [
        ("scoring.build_confusion", lambda b, _: dysaug.build_confusion(b), confusion,
         lambda m: m.to_dict()),
        ("correction.sentence", correct_words, sentences, str),
    ]
    untraced_s, traced_s, outputs = bracketed(phases, tracer)
    return {"untraced_s": untraced_s, "traced_s": traced_s,
            "outputs": {"confusion": outputs["scoring.build_confusion"],
                        "correct": outputs["correction.sentence"]}}


# ---------------------------------------------------------------- main


def main(argv) -> int:
    workload, work, seconds, trace = argv
    work = Path(work)
    seconds = float(seconds)
    # per-file rejections are expected here; run.py checks each one
    logging.getLogger("dysaug").setLevel(logging.ERROR)
    with open(work / "spec.json", encoding="utf-8") as fin:
        spec = json.load(fin)

    tracer = Tracer() if trace == "1" else None
    if workload.startswith("augment-"):
        if tracer:
            out = augment_traced(work, spec, tracer)
        else:
            out = augment_timed(work, spec, seconds)
    elif workload == "text-align":
        out = text_align_traced(work, tracer) if tracer else text_align_timed(work, seconds)
    elif workload == "text-correct":
        out = text_correct_traced(work, tracer) if tracer else text_correct_timed(work, seconds)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    out["rss"] = peak_rss_kb()
    if tracer:
        out["layers"] = summarize(tracer.spans)
        tracer.dump(work / "spans.jsonl")
    with open(work / "measure.json", "w", encoding="utf-8") as fout:
        json.dump(out, fout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
