"""Output checks for the benchmark, with oracles independent of dysaug.

Nothing here imports dysaug.  WAV headers are parsed by hand, edit
distances come from a numpy row DP, and correction distances from dense
numpy profiles built straight from the saved confusion matrix JSON.
Every check returns a list of one-line problems; an empty list passes.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from gen import BAD_KINDS, TARGET_RATE

# the paper's severity presets (speed r1, tempo r2), restated here so the
# check does not read them from the program under test
SEVERITY_FACTORS = {"S1": (1.2, 0.8), "S2": (1.4, 0.8), "S3": (1.8, 0.4), "S4": (2.0, 0.4)}
DISTANCE_TOLERANCE = 1e-9
ROW_SUM_TOLERANCE = 1e-9


# ---------------------------------------------------------------- audio


def parse_wav(path) -> dict:
    """Format tag, channels, rate, bits and frame count of a RIFF/WAVE file."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path}: not RIFF/WAVE")
    pos = 12
    fmt = data = None
    while pos + 8 <= len(raw):
        chunk, size = raw[pos : pos + 4], struct.unpack("<I", raw[pos + 4 : pos + 8])[0]
        if chunk == b"fmt ":
            fmt = struct.unpack("<HHIIHH", raw[pos + 8 : pos + 24])
        elif chunk == b"data":
            data = size
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise ValueError(f"{path}: missing fmt or data chunk")
    tag, channels, rate, _, block_align, bits = fmt
    return {"tag": tag, "channels": channels, "rate": rate, "bits": bits,
            "frames": data // block_align}


def merge(outcomes: dict) -> dict:
    """Records and failures of every shard of one configuration."""
    merged = {"records": [], "failures": []}
    for outcome in outcomes.values():
        merged["records"].extend(outcome["records"])
        merged["failures"].extend(outcome["failures"])
    return merged


def check_rejections(label: str, clips: dict, failures: list) -> list[str]:
    """Exactly the injected files fail, each with its named reason."""
    problems = []
    rejected = set()
    for entry_id, reason in failures:
        kind = clips[entry_id]["bad"] if entry_id in clips else None
        if kind is None:
            problems.append(f"{label}: unexpected failure {entry_id}: {reason}")
        elif BAD_KINDS[kind] not in reason:
            problems.append(f"{label}: {entry_id} rejected without '{BAD_KINDS[kind]}': {reason}")
        rejected.add(entry_id)
    for entry_id, clip in clips.items():
        if clip["bad"] and entry_id not in rejected:
            problems.append(f"{label}: injected {clip['bad']} file {entry_id} was not rejected")
    return problems


def expected_frames(clip: dict, r1: float, r2: float) -> int:
    """round(len * r2 / r1), len being the clip's length at 16 kHz."""
    n16 = -(-clip["frames"] * TARGET_RATE // clip["rate"])
    return round(n16 * r2 / r1)


def check_records(label: str, clips: dict, replication: int, records: list) -> tuple[list, dict]:
    """Every good clip yields `replication` 16 kHz mono PCM16 outputs of the
    expected length.  Returns the problems and each output's frame count."""
    problems = []
    frames = {}
    by_source: dict[str, list] = {}
    for record in records:
        by_source.setdefault(record["source_id"], []).append(record)
    for entry_id, clip in clips.items():
        got = by_source.pop(entry_id, [])
        if clip["bad"]:
            if got:
                problems.append(f"{label}: injected file {entry_id} produced output")
            continue
        severities = [r["severity"] for r in got]
        if len(got) != replication or len(set(severities)) != replication:
            problems.append(f"{label}: {entry_id} has severities {severities}, "
                            f"expected {replication} distinct")
        for record in got:
            factors = SEVERITY_FACTORS.get(record["severity"])
            if factors != (record["r1"], record["r2"]):
                problems.append(f"{label}: {record['id']} has factors "
                                f"{record['r1']}, {record['r2']} for {record['severity']}")
                continue
            try:
                info = parse_wav(record["audio"])
            except (OSError, ValueError) as exc:
                problems.append(f"{label}: {record['id']}: {exc}")
                continue
            if (info["tag"], info["channels"], info["rate"], info["bits"]) != (1, 1, TARGET_RATE, 16):
                problems.append(f"{label}: {record['id']} is not 16 kHz mono PCM16: {info}")
            want = expected_frames(clip, *factors)
            if abs(info["frames"] - want) > 1:
                problems.append(f"{label}: {record['id']} has {info['frames']} frames, "
                                f"expected {want} within one")
            frames[record["id"]] = info["frames"]
    for source in by_source:
        problems.append(f"{label}: output for unknown clip {source}")
    return problems, frames


def check_same_outputs(label: str, base: dict, other: dict) -> list[str]:
    """Same records and failures as the jobs=1 run, byte-identical audio."""
    problems = []

    def strip(record):
        return {**record, "audio": Path(record["audio"]).name}

    if [strip(r) for r in base["records"]] != [strip(r) for r in other["records"]]:
        problems.append(f"{label}: records differ from jobs=1")
    if sorted(map(tuple, base["failures"])) != sorted(map(tuple, other["failures"])):
        problems.append(f"{label}: failures differ from jobs=1")
    others = {r["id"]: r["audio"] for r in other["records"]}
    for record in base["records"]:
        path = others.get(record["id"])
        if path is None or Path(path).read_bytes() != Path(record["audio"]).read_bytes():
            problems.append(f"{label}: {record['id']} audio differs from jobs=1")
    return problems


def check_augment(spec: dict, outputs: dict) -> tuple[list[str], dict]:
    """All augment checks.  `outputs` maps a configuration ("1", "2",
    "replay") to {shard: outcome}.  Returns the problems and each
    output's frame count."""
    clips = {c["id"]: c for c in spec["clips"]}
    merged = {(f"jobs={k}" if k.isdigit() else k): merge(shards) for k, shards in outputs.items()}
    problems = []
    for label, got in merged.items():
        problems += check_rejections(label, clips, got["failures"])
    base = merged["jobs=1"]
    more, frames = check_records("jobs=1", clips, spec["replication"], base["records"])
    problems += more
    for label, got in merged.items():
        if label != "jobs=1":
            problems += check_same_outputs(label, base, got)
    return problems, frames


# ---------------------------------------------------------------- text


def edit_distance(a, b) -> int:
    """Unit-cost Levenshtein distance, one numpy row at a time."""
    if not len(a) or not len(b):
        return max(len(a), len(b))
    codes: dict = {}
    x = [codes.setdefault(t, len(codes)) for t in a]
    y = np.array([codes.setdefault(t, len(codes)) for t in b])
    j = np.arange(len(y) + 1)
    row = j.copy()
    t = np.empty_like(row)
    for i, xi in enumerate(x, 1):
        t[0] = i
        np.minimum(row[:-1] + (y != xi), row[1:] + 1, out=t[1:])
        # insertion runs: row[j] = min over k <= j of t[k] + (j - k)
        row = np.minimum.accumulate(t - j) + j
    return int(row[-1])


def tokens(text: str, unit: str):
    return text.split() if unit == "word" else " ".join(text.split())


def check_reports(label: str, batches: list, outputs: dict, unit: str) -> list[str]:
    """Each kept score report's totals match the oracle's edit distances."""
    problems = []
    for index, report in outputs.items():
        pairs = batches[int(index)]
        n = sum(len(tokens(ref, unit)) for ref, _ in pairs)
        errors = sum(edit_distance(tokens(ref, unit), tokens(hyp, unit)) for ref, hyp in pairs)
        got = report["S"] + report["I"] + report["D"]
        if (got, report["N"], report["H"]) != (errors, n, n - report["S"] - report["D"]):
            problems.append(f"{label} batch {index}: report {report}, oracle {errors} errors "
                            f"over {n} tokens")
    return problems


def check_matrix(label: str, matrix: dict) -> list[str]:
    probs = np.asarray(matrix["probabilities"], dtype=np.float64)
    k = len(matrix["alphabet"])
    if matrix["alphabet"][0] != "" or probs.shape != (k, k):
        return [f"{label}: malformed matrix ({k} symbols, shape {probs.shape})"]
    worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    if worst > ROW_SUM_TOLERANCE or probs.min() < 0:
        return [f"{label}: rows not stochastic (worst row sum off by {worst:.3g})"]
    return []


class CorrectionOracle:
    """Confusion-weighted Jaccard distances to every dictionary word at once.

    A word's profile is the sum, over its characters, of the character's
    matrix row, or of a hard count of one in a column of its own for a
    character outside the matrix alphabet.
    """

    def __init__(self, dictionary_path, matrix: dict, queries):
        words, freq = [], []
        with open(dictionary_path, encoding="utf-8") as fin:
            for line in fin:
                word, _, count = line.rstrip("\n").partition("\t")
                words.append(word)
                freq.append(int(count or 0))
        self.words = words
        self.freq = dict(zip(words, freq))
        self.index = {w: i for i, w in enumerate(words)}
        alphabet = matrix["alphabet"]
        probs = np.asarray(matrix["probabilities"], dtype=np.float64)
        chars = sorted({c for w in [*words, *queries] for c in w})
        extra = [c for c in chars if c not in alphabet]
        self.char_rows = {}
        for c in chars:
            row = np.zeros(len(alphabet) + len(extra))
            if c in alphabet:
                row[: len(alphabet)] = probs[alphabet.index(c)]
            else:
                row[len(alphabet) + extra.index(c)] = 1.0
            self.char_rows[c] = row
        self.profiles = np.stack([self.profile(w) for w in words])

    def profile(self, word: str) -> np.ndarray:
        return np.sum([self.char_rows[c] for c in word], axis=0)

    def distances(self, word: str) -> np.ndarray:
        q = self.profile(word)
        return 1.0 - np.minimum(self.profiles, q).sum(axis=1) / np.maximum(self.profiles, q).sum(axis=1)

    def judge(self, word: str, chosen: str) -> tuple[str | None, bool]:
        """(problem or None, whether `chosen` breaks the tie-break order:
        frequency, then length, then lexicographic, among the words within
        the tolerance of the minimum distance)."""
        if chosen not in self.index:
            return f"{word!r} -> {chosen!r}, not a dictionary word", False
        d = self.distances(word)
        best = float(d.min())
        got = float(d[self.index[chosen]])
        if got > best + DISTANCE_TOLERANCE:
            return f"{word!r} -> {chosen!r} at distance {got:.12f}, minimum {best:.12f}", False
        tied = [self.words[i] for i in np.nonzero(d <= best + DISTANCE_TOLERANCE)[0]]
        pick = min(tied, key=lambda w: (-self.freq[w], len(w), w))
        return None, pick != chosen


def check_corrections(sentences: list, outputs: dict, oracle: CorrectionOracle) -> dict:
    """In-vocabulary words pass through; each out-of-vocabulary word becomes
    a dictionary word at minimal distance.  Also counts tie-break breaks
    and how many corrupted words came back as the reference word."""
    problems = []
    oov = restored = mismatched = 0
    for index, output in outputs.items():
        sentence = sentences[int(index)]
        got = output.split()
        if len(got) != len(sentence["hyp"]):
            problems.append(f"sentence {index}: {len(got)} words out, {len(sentence['hyp'])} in")
            continue
        for ref, hyp, out in zip(sentence["ref"], sentence["hyp"], got):
            if hyp in oracle.freq:
                if out != hyp:
                    problems.append(f"sentence {index}: in-vocabulary {hyp!r} became {out!r}")
                continue
            oov += 1
            restored += out == ref
            problem, mismatch = oracle.judge(hyp, out)
            mismatched += mismatch
            if problem:
                problems.append(f"sentence {index}: {problem}")
    return {"problems": problems, "oov": oov,
            "restored_ratio": restored / oov if oov else math.nan,
            "tiebreak_mismatch": mismatched}


def load_json(path):
    with open(path, encoding="utf-8") as fin:
        return json.load(fin)
