"""Every text output, pinned by sha256 digests in tests/golden_text.json.

The inputs are generated here from fixed seeds with the standard library's
`random`: Latin (ref, hyp) pairs over a small alphabet, so that tied
backtrace moves are common, Arabic pairs with harakat and tatweel, and a
500-word dictionary whose counts repeat, so that correction ties are
settled by length and then by word.  The digests cover `score` at both
units with and without `arabic_normalization`, every `align` ops list and
distance, the bytes `ConfusionMatrix.save` writes for `build_confusion`,
and `correct_sentence` with and without that matrix.

A change that moves any of these outputs fails here.  If the move is
intended, rewrite the file from the repository root with

    PYTHONPATH=src python tests/test_golden_text.py

and name each changed digest and its cause in the change's notes.  The
file records the numpy version it was written under: scoring never loads
numpy, but the saved matrix holds numpy's float64 row sums and
correction ranks numpy-computed distances, so a mismatch under another
numpy version points there first.
"""

import dataclasses
import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

from dysaug import Dictionary, align, build_confusion, correct_sentence, score

GOLDEN = Path(__file__).with_name("golden_text.json")

LATIN = "abdeilmnorst"
ARABIC_LETTERS = "".join(chr(c) for c in [*range(0x0621, 0x063B), *range(0x0641, 0x064B)])
HARAKAT = "".join(chr(c) for c in range(0x064B, 0x0653))
TATWEEL = "ـ"


def _garble(rng, text, alphabet):
    """`text` after about one character edit in eight, with the odd run of
    extra whitespace that tokenizing collapses."""
    out = list(text)
    for _ in range(rng.randrange(len(text) // 8 + 2)):
        pos = rng.randrange(len(out) + 1)
        kind = rng.choice("sdi")
        if kind == "i" or pos == len(out):
            out.insert(pos, rng.choice(alphabet))
        elif kind == "s":
            out[pos] = rng.choice(alphabet)
        else:
            del out[pos]
    if rng.random() < 0.1:
        out.insert(rng.randrange(len(out) + 1), rng.choice(["  ", "\t", " \n "]))
    return "".join(out)


def _dictionary(rng):
    """500 distinct words of 1-8 letters, most sharing a handful of counts."""
    words = set()
    while len(words) < 500:
        words.add("".join(rng.choice(LATIN) for _ in range(rng.randint(1, 8))))
    words = sorted(words)
    counts = [rng.choice([0, 1, 1, 2, 2, 3, 5, 8, 40, 300]) for _ in words]
    return words, Dictionary.from_words(words, dict(zip(words, counts)))


def _latin_pairs(rng, words):
    pairs = []
    for _ in range(200):
        ref = " ".join(rng.choice(words) for _ in range(rng.randint(1, 9)))
        hyp = "" if rng.random() < 0.03 else _garble(rng, ref, LATIN + " ")
        pairs.append((ref, hyp))
    return pairs


def _arabic_word(rng):
    out = []
    for _ in range(rng.randint(2, 6)):
        out.append(rng.choice(ARABIC_LETTERS))
        if rng.random() < 0.4:
            out.append(rng.choice(HARAKAT))
        if rng.random() < 0.1:
            out.append(TATWEEL)
    return "".join(out)


def _arabic_pairs(rng):
    pairs = []
    for _ in range(50):
        ref = " ".join(_arabic_word(rng) for _ in range(rng.randint(1, 6)))
        hyp = _garble(rng, ref, ARABIC_LETTERS + HARAKAT + TATWEEL + " ")
        pairs.append((ref, hyp))
    return pairs


def _sentences(rng, latin_pairs):
    """The Latin hypotheses, with a token that has a digit or punctuation
    (which correction passes through) in every fifth one."""
    out = []
    for k, (_, hyp) in enumerate(latin_pairs):
        if k % 5 == 0:
            hyp += " " + rng.choice(["x2", "ok!", "b-d", "3"])
        out.append(hyp)
    return out


def _saved(matrix) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "matrix.json"
        matrix.save(path)
        return path.read_bytes()


def _sha(obj) -> str:
    if not isinstance(obj, bytes):
        obj = json.dumps(obj, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(obj).hexdigest()


def _report(pairs, unit, arabic_normalization):
    report = score(pairs, unit=unit, arabic_normalization=arabic_normalization)
    return [dataclasses.asdict(report), report.error_rate]


def digests() -> dict:
    """Name -> sha256 of every pinned output, recomputed from the seeds."""
    words, dictionary = _dictionary(random.Random(2801))
    corpora = {
        "latin": _latin_pairs(random.Random(2802), words),
        "arabic": _arabic_pairs(random.Random(2803)),
    }
    out = {}
    for name, pairs in corpora.items():
        for unit in ("word", "char"):
            for arabic_normalization in (False, True):
                # each pair alone (a char pair alone skips the lanes), then
                # the whole corpus (char pairs in passes of lanes)
                reports = [_report([pair], unit, arabic_normalization) for pair in pairs]
                reports.append(_report(pairs, unit, arabic_normalization))
                key = f"score/{name}/{unit}/{'normalized' if arabic_normalization else 'raw'}"
                out[key] = _sha(reports)
        for unit, split in (("word", str.split), ("char", list)):
            alignments = [align(split(ref), split(hyp)) for ref, hyp in pairs]
            out[f"align/{name}/{unit}"] = _sha([[a.ops, a.distance] for a in alignments])
    latin_matrix = build_confusion(corpora["latin"])
    out["confusion/latin"] = _sha(_saved(latin_matrix))
    for arabic_normalization in (False, True):
        matrix = build_confusion(corpora["arabic"], arabic_normalization=arabic_normalization)
        key = f"confusion/arabic/{'normalized' if arabic_normalization else 'raw'}"
        out[key] = _sha(_saved(matrix))
    sentences = _sentences(random.Random(2804), corpora["latin"])
    for name, matrix in (("plain", None), ("latin_matrix", latin_matrix)):
        out[f"correct_sentence/{name}"] = _sha(
            [correct_sentence(s, dictionary, matrix) for s in sentences])
    return out


def test_text_outputs_match_golden_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests()
    changed = sorted(k for k in golden["digests"].keys() | got.keys()
                     if golden["digests"].get(k) != got.get(k))
    assert not changed, (
        f"text outputs changed: {changed} (file written under numpy {golden['numpy']}, "
        f"running numpy {np.__version__}); see this module's docstring to rewrite it"
    )


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({
        "rewrite": "PYTHONPATH=src python tests/test_golden_text.py",
        "numpy": np.__version__,
        "digests": digests(),
    }, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
