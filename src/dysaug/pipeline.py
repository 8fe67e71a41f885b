"""Batch generation of synthetic dysarthric utterances from a manifest.

Each clip is read, resampled to 16 kHz, perturbed at its drawn severities
and written as <id>_<severity>.wav.  The manifest side (entries, records,
severity draws and plan checks) lives in `manifest`, which loads no numpy;
this module imports the signal kernels itself, so a batch holds them
before any pool worker forks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

from .audio_io import Waveform, read_wav, resample, write_wav
from .manifest import AugmentRecord, ManifestEntry, _check_plan, _preset, assign_severities
from .speed import _check_factor
from .tempo import TEMPO_FACTOR_RANGE, pertubate_signal

__all__ = [
    "PerturbationParams",
    "params_for",
    "BatchResult",
    "run_batch",
]

log = logging.getLogger(__name__)

TARGET_RATE = 16000


@dataclass(frozen=True)
class PerturbationParams:
    """A (speed, tempo) factor pair in range, optionally tied to a severity label."""

    speed: float
    tempo: float
    severity: str | None = None

    def __post_init__(self):
        _check_factor(self.speed)
        _check_factor(self.tempo, "tempo", TEMPO_FACTOR_RANGE)


def params_for(severity: str) -> PerturbationParams:
    """Look up the preset factors for a severity label S1..S4."""
    speed, tempo = _preset(severity)
    return PerturbationParams(speed=speed, tempo=tempo, severity=severity)


@dataclass
class BatchResult:
    """Outcome of run_batch: records in input order plus recorded failures."""

    records: list[AugmentRecord] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)  # (entry id, reason)


def _load_clip(path) -> Waveform:
    wave = read_wav(path)
    # an empty clip fails every severity alike, so it is one failure
    if len(wave) == 0:
        raise ValueError("no audio frames")
    return resample(wave, TARGET_RATE)


def _write_perturbed(wave: Waveform, params: PerturbationParams, out_path: str) -> Waveform:
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
