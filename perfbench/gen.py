"""Seeded input generator for the dysaug benchmark.

Builds every input a workload needs before anything is timed: WAV clips
and their manifest for the augment workloads, and a Zipf vocabulary with
channel-corrupted text for the text workloads.  It uses only numpy and the
standard library, never dysaug, so the program under test receives
nothing but the files written here.

Sizes are stratified rather than drawn freely (clip durations are evenly
spaced quantiles, sentence lengths cycle through a fixed multiset, each
correction sentence has the same number of out-of-vocabulary words), so
the amount of work per run is nearly the same for every seed and the
seed changes only which inputs carry it.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

TARGET_RATE = 16000

# Augment workloads: clip count, duration range in seconds, input rate,
# replication, the number of injected unreadable files of each kind, and
# the clips per run_batch call (a shard), so that one run times several
# batches and reports their median.
AUGMENT = {
    "augment-long44k": dict(clips=60, seconds=(4.0, 12.0), rate=44100, replication=2,
                            bad=0, shard=20),
    "augment-short16k": dict(clips=400, seconds=(0.3, 1.2), rate=16000, replication=4,
                             bad=4, shard=100),
}

# run_batch's own seed, which with the clip ids picks each clip's
# severities.  It stays fixed so that every benchmark seed asks for the same
# severity mix, and with it the same amount of WSOLA work per shard.
AUGMENT_SEED = 0

# Injected unreadable files and the phrase dysaug's rejection must name.
BAD_KINDS = {
    "alaw": "unsupported codec",
    "nodata": "missing data chunk",
}

# Text corpus sizes, shared by text-align and text-correct
VOCAB_SIZE = 20000
ZIPF_EXPONENT = 1.07
CONFUSION_BATCH = 32  # held-out pairs (24-120 characters) per build_confusion call
CONFUSION_BATCHES = 8
WER_BATCH = 100  # short utterances per score(unit="word") call
WER_BATCHES = 10
CER_BATCH = 3  # long utterances per score(unit="char") call
CER_BATCHES = 16
CER_CHARS = 400
CORRECT_SENTENCES = 64
CORRECT_WORDS = 10  # words per correction sentence
CORRECT_OOV = 2  # of which out of vocabulary

# Channel: voiced/unvoiced stop swaps plus character deletions and insertions.
SWAPS = {"b": "p", "p": "b", "d": "t", "t": "d", "g": "k", "k": "g"}
P_SWAP = 0.3
P_DELETE = 0.03
P_INSERT = 0.03
LETTERS = "abcdefghijklmnopqrstuvwxyz"
MAX_WORD = 9
# letter weights for vocabulary words: stops and vowels common, as in speech
LETTER_WEIGHTS = np.array(
    [8, 4, 3, 5, 10, 2, 4, 3, 7, 1, 4, 4, 3, 6, 7, 4, 1, 6, 6, 7, 3, 1, 2, 1, 2, 1],
    dtype=np.float64,
)


def rng_for(seed: int, workload: str) -> np.random.Generator:
    """One independent stream per (seed, workload)."""
    return np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(workload.encode())])


def wav_bytes(format_tag: int, channels: int, rate: int, bits: int, payload: bytes,
              *, with_data: bool = True) -> bytes:
    """A RIFF/WAVE container assembled by hand."""
    block_align = channels * bits // 8
    fmt = struct.pack("<HHIIHH", format_tag, channels, rate, rate * block_align, block_align, bits)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    if with_data:
        chunks += b"data" + struct.pack("<I", len(payload)) + payload
    else:
        info = b"INFOISFT" + struct.pack("<I", 8) + b"perfbenc"
        chunks += b"LIST" + struct.pack("<I", len(info)) + info
    if len(payload) % 2 and with_data:
        chunks += b"\x00"
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def chirp(rng: np.random.Generator, n: int, rate: int) -> np.ndarray:
    """Amplitude-modulated linear chirp, a stand-in for voiced speech."""
    seconds = n / rate
    t = np.arange(n) / rate
    f0 = rng.uniform(100.0, 250.0)
    f1 = rng.uniform(1200.0, 3000.0)
    phase = f0 * t + (f1 - f0) / (2.0 * seconds) * t * t
    env = 0.6 + 0.4 * np.sin(2.0 * np.pi * rng.uniform(2.0, 5.0) * t)
    return 0.7 * np.sin(2.0 * np.pi * phase) * env


def stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """n values spread evenly over [lo, hi), in random order."""
    return rng.permutation(lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n)


def generate_augment(workload: str, seed: int, root: Path) -> dict:
    """Write clips and manifest.jsonl under root; return the workload spec."""
    spec = AUGMENT[workload]
    rng = rng_for(seed, workload)
    clips_dir = root / "clips"
    clips_dir.mkdir(parents=True, exist_ok=True)
    rate = spec["rate"]
    n_clips = spec["clips"]
    shard = spec["shard"]
    # every shard gets the same spread of durations and, at 44.1 kHz, half
    # float32 stereo clips, so each timed run_batch call does similar work
    durations = np.concatenate([stratified(rng, shard, *spec["seconds"])
                                for _ in range(n_clips // shard)])
    stereo = np.concatenate([rng.permutation(np.arange(shard) % 2 == 1)
                             for _ in range(n_clips // shard)]) & (rate != TARGET_RATE)
    bad_ids = rng.choice(n_clips, size=spec["bad"] * len(BAD_KINDS), replace=False)
    bad_kind = {int(i): kind for i, kind in zip(bad_ids, list(BAD_KINDS) * spec["bad"])}

    clips = []
    with open(root / "manifest.jsonl", "w", encoding="utf-8") as manifest:
        for i in range(n_clips):
            clip_id = f"c{i:04d}"
            path = clips_dir / f"{clip_id}.wav"
            n = int(round(durations[i] * rate))
            kind = bad_kind.get(i)
            x = chirp(rng, n, rate)
            if kind == "alaw":
                payload = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
                data = wav_bytes(0x0006, 1, rate, 8, payload)
            elif kind == "nodata":
                data = wav_bytes(0x0001, 1, rate, 16, b"", with_data=False)
            elif stereo[i]:
                frames = np.stack([x, 0.9 * np.roll(x, 7)], axis=1).astype("<f4")
                data = wav_bytes(0x0003, 2, rate, 32, frames.tobytes())
            else:
                pcm = np.clip(np.rint(x * 32768.0), -32767, 32767).astype("<i2")
                data = wav_bytes(0x0001, 1, rate, 16, pcm.tobytes())
            path.write_bytes(data)
            gender = ("female", "male")[int(rng.integers(2))]
            manifest.write(json.dumps({
                "id": clip_id, "audio": str(path), "text": f"utterance {i}",
                "speaker": f"spk{i % 12:02d}", "gender": gender,
            }) + "\n")
            clips.append({"id": clip_id, "frames": n, "rate": rate, "bad": kind})
    return {"workload": workload, "replication": spec["replication"], "shard": spec["shard"],
            "clips": clips}


def _vocabulary(rng: np.random.Generator) -> list[str]:
    letters = np.frombuffer(LETTERS.encode(), dtype=np.uint8)
    p = LETTER_WEIGHTS / LETTER_WEIGHTS.sum()
    seen = set()
    words = []
    while len(words) < VOCAB_SIZE:
        rows = letters[rng.choice(26, size=(VOCAB_SIZE, MAX_WORD), p=p)]
        lengths = rng.integers(3, MAX_WORD + 1, size=VOCAB_SIZE)
        for row, length in zip(rows, lengths):
            word = row[:length].tobytes().decode()
            if word not in seen and len(words) < VOCAB_SIZE:
                seen.add(word)
                words.append(word)
    return words


def _corrupt_word(word: str, rng: np.random.Generator) -> str:
    out = []
    for c in word:
        if rng.random() < P_DELETE:
            continue
        if c in SWAPS and rng.random() < P_SWAP:
            c = SWAPS[c]
        out.append(c)
        if rng.random() < P_INSERT:
            out.append(LETTERS[int(rng.integers(26))])
    return "".join(out)


def _corrupt(sentence: list[str], rng: np.random.Generator) -> str:
    return " ".join(w for w in (_corrupt_word(w, rng) for w in sentence) if w)


def generate_text(seed: int, root: Path) -> dict:
    """Write the dictionary and the corpus files; return the corpus spec."""
    rng = rng_for(seed, "text")
    root.mkdir(parents=True, exist_ok=True)
    vocab = _vocabulary(rng)
    ranks = np.arange(1, VOCAB_SIZE + 1, dtype=np.float64)
    weights = ranks ** -ZIPF_EXPONENT
    freq = np.maximum(1, np.rint(1e7 * weights / weights.sum())).astype(int)
    probs = weights / weights.sum()
    with open(root / "dictionary.txt", "w", encoding="utf-8") as fout:
        for word, f in zip(vocab, freq):
            fout.write(f"{word}\t{f}\n")
    vocab_set = set(vocab)

    def sentence(n_words: int) -> list[str]:
        return [vocab[j] for j in rng.choice(VOCAB_SIZE, size=n_words, p=probs)]

    def of_chars(target: int) -> list[str]:
        # Zipf words until the sentence reaches `target` characters, so that
        # character-level work does not hinge on the lengths of the few
        # most frequent words, which differ from seed to seed
        words = []
        while sum(len(w) + 1 for w in words) < target:
            words.extend(sentence(1))
        return words

    def pairs(batches):
        return [[[" ".join(s), _corrupt(s, rng)] for s in b] for b in batches]

    # every batch holds the same multiset of sentence sizes
    wer_lengths = np.resize(np.arange(5, 21), WER_BATCH)  # words
    confusion_chars = np.linspace(24, 120, CONFUSION_BATCH).round().astype(int)
    confusion = pairs([[of_chars(int(k)) for k in rng.permutation(confusion_chars)]
                       for _ in range(CONFUSION_BATCHES)])
    wer = pairs([[sentence(int(k)) for k in rng.permutation(wer_lengths)]
                 for _ in range(WER_BATCHES)])
    cer = pairs([[of_chars(CER_CHARS) for _ in range(CER_BATCH)] for _ in range(CER_BATCHES)])

    correct = []
    for _ in range(CORRECT_SENTENCES):
        words = sentence(CORRECT_WORDS)
        hyp = list(words)
        for pos in rng.choice(CORRECT_WORDS, size=CORRECT_OOV, replace=False):
            bad = _corrupt_word(words[pos], rng)
            while not bad or bad in vocab_set:
                # a word without stops often passes the channel unchanged
                bad = _corrupt_word(words[pos] + LETTERS[int(rng.integers(26))], rng)
            hyp[int(pos)] = bad
        correct.append({"ref": words, "hyp": hyp})

    corpus = {"confusion": confusion, "wer": wer, "cer": cer, "correct": correct}
    with open(root / "corpus.json", "w", encoding="utf-8") as fout:
        json.dump(corpus, fout)
    return {"workload": "text", "vocab": VOCAB_SIZE}


def generate(workload: str, seed: int, root: Path) -> dict:
    """Write the inputs of one workload under root.  Both text workloads
    share one corpus, so a seed gives them the same text."""
    root.mkdir(parents=True, exist_ok=True)
    if workload.startswith("text-"):
        spec = generate_text(seed, root)
    else:
        spec = generate_augment(workload, seed, root)
    with open(root / "spec.json", "w", encoding="utf-8") as fout:
        json.dump(spec, fout)
    return spec
