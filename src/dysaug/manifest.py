"""Manifests, records and severity plans for batch generation.

Manifests are UTF-8 JSON Lines, one utterance per line.  Input entries
carry id/audio/text/speaker/gender; augmented records add the source id,
the severity label, and the (r1, r2) factors actually applied.

This module is pure Python: reading, writing and planning a batch never
load numpy or the signal kernels.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields

__all__ = [
    "SEVERITIES",
    "ManifestEntry",
    "AugmentRecord",
    "read_manifest",
    "write_records",
    "assign_severities",
    "split_by_gender",
]

GENDERS = ("female", "male", "unknown")

# Severity presets: (speed factor r1, tempo factor r2), mildest to worst.
_SEVERITY_PARAMS = {
    "S1": (1.2, 0.8),
    "S2": (1.4, 0.8),
    "S3": (1.8, 0.4),
    "S4": (2.0, 0.4),
}

SEVERITIES = tuple(_SEVERITY_PARAMS)

# JSON type names, first match wins (a bool is an int); others go by Python type
_JSON_TYPES = ((type(None), "null"), (bool, "boolean"), ((int, float), "number"),
               (list, "array"), (dict, "object"))


def _lone_surrogate(text: str) -> bool:
    """Whether `text` holds a lone surrogate, the one code point UTF-8 cannot
    encode; in a str every surrogate is lone, as an astral character is one."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _preset(severity: str) -> tuple[float, float]:
    """The (speed, tempo) preset of a severity label S1..S4."""
    try:
        return _SEVERITY_PARAMS[severity]
    except KeyError:
        raise ValueError(f"unknown severity {severity!r}, expected one of {SEVERITIES}") from None


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
                kind = next((n for t, n in _JSON_TYPES if isinstance(value, t)), type(value).__name__)
                raise ValueError(f"field {f.name!r} must be a string, got {kind}")
            if f.type == "str" and _lone_surrogate(value):
                raise ValueError(f"field {f.name!r} holds a lone surrogate")
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


def _read_text(path):
    r"""Yield the lines of a UTF-8 text file with an optional BOM, as text mode
    splits them (at "\n", "\r\n" and "\r" only), without their breaks.  One
    pass, so the file may be a pipe: a byte that is not UTF-8 decodes to a lone
    surrogate, which valid UTF-8 never yields, so it marks the first bad line."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fin:
        for lineno, line in enumerate(fin, 1):
            if not line.isascii() and _lone_surrogate(line):
                raise ValueError(f"{path}:{lineno}: not valid UTF-8")
            yield line.rstrip("\n")


def _parse_json(text: str):
    """json.loads, with a document nested too deep for it as a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("nested too deep") from None


def read_manifest(path) -> list[ManifestEntry]:
    """Load a JSONL manifest, enforcing unique ids.

    A field that is present must be a JSON string; absent fields take
    their defaults.
    """
    entries = []
    seen = set()
    for lineno, line in enumerate(_read_text(path), 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = _parse_json(line)
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
        _preset(label)  # raises on an unknown label
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
