"""Batch generation of synthetic dysarthric utterances from a manifest.

Manifests are UTF-8 JSON Lines, one utterance per line.  Input entries
carry id/audio/text/speaker/gender; augmented records add the source id,
the severity label, and the (r1, r2) factors actually applied.

The signal kernels (and numpy) are imported where a clip or a factor pair
first needs them, so reading and writing manifests loads neither.
`_check_plan` builds every severity's PerturbationParams, so a batch has
loaded them before any pool worker forks.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass, field, fields
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .audio_io import Waveform

__all__ = [
    "SEVERITIES",
    "PerturbationParams",
    "params_for",
    "ManifestEntry",
    "AugmentRecord",
    "BatchResult",
    "read_manifest",
    "write_records",
    "assign_severities",
    "split_by_gender",
    "run_batch",
]

log = logging.getLogger(__name__)

TARGET_RATE = 16000

GENDERS = ("female", "male", "unknown")

# Severity presets: (speed factor r1, tempo factor r2), mildest to worst.
_SEVERITY_PARAMS = {
    "S1": (1.2, 0.8),
    "S2": (1.4, 0.8),
    "S3": (1.8, 0.4),
    "S4": (2.0, 0.4),
}

SEVERITIES = tuple(_SEVERITY_PARAMS)


@dataclass(frozen=True)
class PerturbationParams:
    """A (speed, tempo) factor pair in range, optionally tied to a severity label."""

    speed: float
    tempo: float
    severity: str | None = None

    def __post_init__(self):
        from .speed import _check_factor as _check_speed
        from .tempo import _check_factor as _check_tempo

        _check_speed(self.speed)
        _check_tempo(self.tempo)


# the params are frozen, so one per label is shared; the cache also keeps the
# per-call kernel imports of PerturbationParams off the per-clip path
@cache
def params_for(severity: str) -> PerturbationParams:
    """Look up the preset factors for a severity label S1..S4."""
    try:
        speed, tempo = _SEVERITY_PARAMS[severity]
    except KeyError:
        raise ValueError(f"unknown severity {severity!r}, expected one of {SEVERITIES}") from None
    return PerturbationParams(speed=speed, tempo=tempo, severity=severity)


def _json_type(value) -> str:
    """The JSON name of a value's type; the Python name for a non-JSON value."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, list):
        return "array"
    return "object" if isinstance(value, dict) else type(value).__name__


@dataclass(frozen=True)
class ManifestEntry:
    """One healthy utterance: id, audio path, transcript and speaker info."""

    id: str = ""
    audio: str = ""
    text: str = ""
    speaker: str = ""
    gender: str = "unknown"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "str" and not isinstance(value, str):
                raise ValueError(f"field {f.name!r} must be a string, got {_json_type(value)}")
        if not self.id:
            raise ValueError("manifest entry id must be non-empty")
        # the id names output files, so it must stay one path component
        if self.id in (".", "..") or any(c in self.id for c in "/\\\0"):
            raise ValueError(
                f"entry id {self.id!r} must be one path component: not '.' or '..', "
                "and no '/', '\\' or NUL"
            )
        if not self.audio:
            raise ValueError(f"entry {self.id!r}: audio path must be non-empty")
        if self.gender not in GENDERS:
            raise ValueError(f"entry {self.id!r}: gender {self.gender!r} not in {GENDERS}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), ensure_ascii=False)


@dataclass(frozen=True, kw_only=True)
class AugmentRecord(ManifestEntry):
    """One synthetic utterance: a manifest entry plus augmentation provenance.

    r1 is the speed factor and r2 the tempo factor that produced the audio;
    they must equal the preset for `severity`.
    """

    source_id: str
    severity: str
    r1: float
    r2: float

    def __post_init__(self):
        super().__post_init__()
        if (self.r1, self.r2) != _SEVERITY_PARAMS.get(self.severity):
            raise ValueError(
                f"record {self.id!r}: (r1, r2) = ({self.r1!r}, {self.r2!r}) is not the "
                f"preset of severity {self.severity!r}; presets are {_SEVERITY_PARAMS}"
            )


def read_manifest(path) -> list[ManifestEntry]:
    """Load a JSONL manifest, enforcing unique ids.

    A field that is present must be a JSON string; absent fields take
    their defaults.
    """
    entries = []
    seen = set()
    with open(path, encoding="utf-8-sig") as fin:
        for lineno, line in enumerate(fin, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("expected a JSON object")
                entry = ManifestEntry(**{f.name: obj[f.name] for f in fields(ManifestEntry)
                                         if f.name in obj})
                if entry.id in seen:
                    raise ValueError(f"duplicate id {entry.id!r}")
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            seen.add(entry.id)
            entries.append(entry)
    return entries


def write_records(records, path) -> None:
    """Write augment records as JSONL."""
    with open(path, "w", encoding="utf-8") as fout:
        for record in records:
            fout.write(record.to_json())
            fout.write("\n")


def split_by_gender(manifest) -> tuple[list, list, list]:
    """Partition entries into (female, male, unknown) groups."""
    female = [e for e in manifest if e.gender == "female"]
    male = [e for e in manifest if e.gender == "male"]
    unknown = [e for e in manifest if e.gender not in ("female", "male")]
    return female, male, unknown


def _check_plan(severities, replication: int, jobs: int = 1) -> list[str]:
    """Validate a batch plan; return its distinct severity labels, sorted."""
    labels = sorted(set(severities))
    if not labels:
        raise ValueError("severities must name at least one label")
    for label in labels:
        params_for(label)  # raises on an unknown label
    if not 0 < replication <= len(labels):
        raise ValueError(f"replication must be in [1, {len(labels)}], got {replication}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return labels


_MASK64 = (1 << 64) - 1


def _splitmix64(state: int):
    """Deterministic 64-bit stream; identical on every platform."""
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def assign_severities(entry_id: str, severities, replication: int, seed: int) -> list[str]:
    """Draw `replication` severity labels without replacement for one entry.

    The draw depends only on (seed, entry_id), so reordering a manifest
    never changes which severities an utterance receives.  Duplicate labels
    count once; an unknown label or a replication outside [1, number of
    distinct labels] raises ValueError.
    """
    pool = _check_plan(severities, replication)
    digest = hashlib.sha256(entry_id.encode("utf-8")).digest()
    state = (seed & _MASK64) ^ int.from_bytes(digest[:8], "little")
    stream = _splitmix64(state)
    for i in range(len(pool) - 1, 0, -1):  # Fisher-Yates
        j = next(stream) % (i + 1)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:replication]


@dataclass
class BatchResult:
    """Outcome of run_batch: records in input order plus recorded failures."""

    records: list[AugmentRecord] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)  # (entry id, reason)


def _load_clip(path) -> Waveform:
    from .audio_io import read_wav, resample

    wave = read_wav(path)
    # an empty clip fails every severity alike, so it is one failure
    if len(wave) == 0:
        raise ValueError("no audio frames")
    return resample(wave, TARGET_RATE)


def _write_perturbed(wave: Waveform, params: PerturbationParams, out_path: str) -> Waveform:
    from .audio_io import write_wav
    from .tempo import pertubate_signal

    out = pertubate_signal(wave, params)
    write_wav(out, out_path)
    return out


def _augment_entry(entry: ManifestEntry, severities: list[str],
                   out_dir: str) -> tuple[list[AugmentRecord], list[tuple[str, str]]]:
    records = []
    failures = []
    try:
        wave = _load_clip(entry.audio)
    except Exception as exc:
        return [], [(entry.id, f"{entry.audio}: {exc}")]
    for severity in severities:
        params = params_for(severity)
        out_path = str(Path(out_dir) / f"{entry.id}_{severity}.wav")
        try:
            _write_perturbed(wave, params, out_path)
        except Exception as exc:
            failures.append((entry.id, f"{out_path}: {exc}"))
            continue
        records.append(AugmentRecord(**{
            **vars(entry), "id": f"{entry.id}_{severity}", "audio": out_path,
            "source_id": entry.id, "severity": severity, "r1": params.speed, "r2": params.tempo,
        }))
    return records, failures


def run_batch(manifest, severities, replication: int, seed: int, out_dir,
              jobs: int = 1) -> BatchResult:
    """Generate `replication` perturbed 16 kHz WAVs per manifest entry.

    Severity levels are drawn without replacement per entry, deterministic
    in (seed, entry id).  Output audio lands in out_dir as
    <id>_<severity>.wav, so entry ids must be unique.  Unreadable or
    unprocessable clips are recorded in the result's failures and skipped;
    the batch never aborts on one file.

    With jobs > 1 the entries go to a process pool in chunks of
    ceil(n / (4 * jobs)), with one worker per chunk up to `jobs`; a
    manifest that makes one chunk runs in this process.  Records and
    failures come back in input order whatever `jobs` is.
    """
    manifest = list(manifest)
    if not manifest:
        raise ValueError("manifest is empty")
    seen = set()
    for entry in manifest:
        if entry.id in seen:
            raise ValueError(f"duplicate id {entry.id!r} in manifest")
        seen.add(entry.id)
    severities = _check_plan(severities, replication, jobs)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tasks = [
        (entry, assign_severities(entry.id, severities, replication, seed), str(out_dir))
        for entry in manifest
    ]
    result = BatchResult()
    workers = 1
    if jobs > 1:
        # about four chunks per worker, so the worker that draws the last
        # chunk finishes at most about a quarter of a share after the others
        # (Graham's list-scheduling bound); no more workers than chunks
        chunksize = -(-len(tasks) // (4 * jobs))
        workers = min(jobs, -(-len(tasks) // chunksize))
    if workers > 1:
        # imported here so that commands without a pool never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_augment_entry, *zip(*tasks), chunksize=chunksize))
    else:
        outcomes = [_augment_entry(*task) for task in tasks]
    for records, failures in outcomes:
        result.records.extend(records)
        for entry_id, reason in failures:
            log.warning("skipping %s: %s", entry_id, reason)
        result.failures.extend(failures)
    return result
