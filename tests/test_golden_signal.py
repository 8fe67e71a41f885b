"""Every signal output, pinned by sha256 digests in tests/golden_signal.json.

The inputs are generated here from fixed seeds with the standard library's
`random` and `math`, so they do not depend on numpy: amplitude-modulated
chirps with a little noise, at 8, 16, 22.05 and 44.1 kHz, mono and stereo
(the channels differ, so the downmix counts), PCM16 and float32 (float
clips peak above 1, so the reader's clip counts).  One 16 kHz clip holds
an exactly silent span, whose WSOLA frames have candidates with no energy,
and `bad.wav` is a RIFF header with no fmt chunk.  The digests cover each
clip's `run_batch` WAVs at S1-S4 (replication 4, jobs=1), the bytes
`write_records` writes for them, the batch's failure reasons, and one
`_write_perturbed(_load_clip(...))` output, the `perturb` command's path.
The batch runs in a temporary working directory on relative paths, so no
digest holds a temporary path.

A change that moves any of these outputs fails here.  If the move is
intended, rewrite the file from the repository root with

    PYTHONPATH=src python tests/test_golden_signal.py

and name each changed digest and its cause in the change's notes.  The
file records the numpy version it was written under: resampling and the
WSOLA seek run on numpy, so a mismatch under another numpy version points
there first.
"""

import hashlib
import json
import math
import os
import random
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

from dysaug import SEVERITIES, ManifestEntry, params_for, run_batch, write_records
from dysaug.pipeline import _load_clip, _write_perturbed

GOLDEN = Path(__file__).with_name("golden_signal.json")

RATES = (8000, 16000, 22050, 44100)


def _wav_bytes(format_tag: int, rate: int, frames: list) -> bytes:
    """A RIFF/WAVE file of PCM16 (tag 1) or float32 (tag 3) `frames`, each a
    tuple of one value per channel."""
    channels = len(frames[0])
    code, width = ("h", 2) if format_tag == 1 else ("f", 4)
    payload = b"".join(struct.pack("<" + code * channels, *frame) for frame in frames)
    block = channels * width
    fmt = struct.pack("<HHIIHH", format_tag, channels, rate, rate * block, block, 8 * width)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(payload))
    return b"RIFF" + struct.pack("<I", 4 + len(chunks) + len(payload)) + b"WAVE" + chunks + payload


def _clip(seed: int, rate: int, channels: int, peak: float, silent=None) -> list:
    """0.2-0.5 s of an amplitude-modulated chirp plus noise, one tuple of
    floats a frame; `silent` is a (start, end) span in seconds set to 0."""
    rng = random.Random(seed)
    seconds = rng.uniform(0.2, 0.5)
    f0, f1 = rng.uniform(90, 300), rng.uniform(600, min(3500, 0.45 * rate))
    sweep = (f1 - f0) / (2 * seconds)
    lo, hi = (round(s * rate) for s in silent) if silent else (0, 0)
    frames = []
    for i in range(round(seconds * rate)):
        t = i / rate
        if lo <= i < hi:
            frames.append((0.0,) * channels)
            continue
        tone = math.sin(2 * math.pi * (f0 * t + sweep * t * t))
        env = 0.6 + 0.4 * math.sin(2 * math.pi * 3.0 * t)
        frames.append(tuple(peak * env * (tone if c == 0 else math.cos(2 * math.pi * f0 * t))
                            + rng.gauss(0.0, 0.01) for c in range(channels)))
    return frames


def _pcm16(frames: list) -> list:
    return [tuple(max(-32768, min(32767, round(32768 * v))) for v in frame) for frame in frames]


def _write_inputs() -> list:
    """Write the corpus into the working directory; return its entries."""
    entries = []
    seed = 3001
    for rate in RATES:
        for channels in (1, 2):
            for name, tag in (("pcm16", 1), ("float32", 3)):
                frames = _clip(seed, rate, channels, 1.05 if tag == 3 else 0.8)
                entries.append((f"r{rate}_{channels}ch_{name}", rate, tag, frames))
                seed += 1
    entries.append(("silent_span", 16000, 1, _clip(seed, 16000, 1, 0.8, silent=(0.05, 0.15))))
    out = []
    for k, (entry_id, rate, tag, frames) in enumerate(entries):
        if tag == 1:
            frames = _pcm16(frames)
        Path(f"{entry_id}.wav").write_bytes(_wav_bytes(tag, rate, frames))
        out.append(ManifestEntry(id=entry_id, audio=f"{entry_id}.wav", text=f"utterance {k}",
                                 speaker=f"spk{k % 3}", gender=("female", "male", "unknown")[k % 3]))
    Path("bad.wav").write_bytes(b"RIFF\x04\x00\x00\x00WAVE")
    # mid-manifest, so the clips after it show that the batch goes on
    out.insert(5, ManifestEntry(id="bad", audio="bad.wav", text="malformed"))
    return out


def _sha(obj) -> str:
    if not isinstance(obj, bytes):
        obj = json.dumps(obj, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(obj).hexdigest()


def digests() -> dict:
    """Name -> sha256 of every pinned output, recomputed from the seeds in
    a temporary working directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            entries = _write_inputs()
            result = run_batch(entries, SEVERITIES, 4, 29, "out", jobs=1)
            write_records(result.records, "manifest.jsonl")
            out = {}
            for entry in entries:
                wavs = [Path(r.audio).read_bytes() for r in result.records if r.source_id == entry.id]
                if wavs:
                    out[f"batch/{entry.id}"] = _sha(b"".join(wavs))
            out["batch/manifest.jsonl"] = _sha(Path("manifest.jsonl").read_bytes())
            out["batch/failures"] = _sha([list(failure) for failure in result.failures])
            _write_perturbed(_load_clip("r44100_2ch_float32.wav"), params_for("S3"), "perturbed.wav")
            out["perturb/r44100_2ch_float32/S3"] = _sha(Path("perturbed.wav").read_bytes())
        finally:
            os.chdir(cwd)
    return out


def test_signal_outputs_match_golden_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests()
    changed = sorted(k for k in golden["digests"].keys() | got.keys()
                     if golden["digests"].get(k) != got.get(k))
    assert not changed, (
        f"signal outputs changed: {changed} (file written under numpy {golden['numpy']}, "
        f"running numpy {np.__version__}); see this module's docstring to rewrite it"
    )


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({
        "rewrite": "PYTHONPATH=src python tests/test_golden_signal.py",
        "numpy": np.__version__,
        "digests": digests(),
    }, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
