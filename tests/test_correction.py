import copy
import dataclasses
import itertools
import os
import pickle
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dysaug
from dysaug import (
    ConfusionMatrix,
    Dictionary,
    build_confusion,
    correct_sentence,
    correct_word,
    load_dictionary,
    profile,
    weighted_jaccard,
)
from dysaug.correction import _ProfileIndex

from ._correction_oracle import OracleProfileIndex


def multiset_jaccard(word_a, word_b):
    """Brute-force multiset Jaccard distance via Counter min/max."""
    ca, cb = Counter(word_a), Counter(word_b)
    return 1.0 - sum((ca & cb).values()) / sum((ca | cb).values())


def soft_matrix(rows):
    """Matrix that is identity except for the explicitly listed rows."""
    alphabet = set()
    for truth, spread in rows.items():
        alphabet.add(truth)
        alphabet.update(spread)
    alphabet.update("abcdefgh")
    symbols = ("",) + tuple(sorted(alphabet))
    p = np.eye(len(symbols))
    index = {s: i for i, s in enumerate(symbols)}
    for truth, spread in rows.items():
        p[index[truth]] = 0.0
        for realized, mass in spread.items():
            p[index[truth], index[realized]] = mass
    return ConfusionMatrix(symbols=symbols, probabilities=p)


class TestProfile:
    def test_multiset_counts(self):
        assert profile("aba") == {"a": 2, "b": 1}

    def test_identity_matrix_reduces_to_hard_counts(self):
        m = ConfusionMatrix.identity("ab")
        assert profile("b", m) == {"b": 1.0}
        assert profile("aab", m) == {"a": 2.0, "b": 1.0}

    def test_soft_counts(self):
        m = soft_matrix({"b": {"b": 0.8, "x": 0.2}})
        assert profile("b", m) == pytest.approx({"b": 0.8, "x": 0.2})

    def test_char_outside_alphabet_keeps_hard_count(self):
        m = ConfusionMatrix.identity("ab")
        assert profile("z", m) == {"z": 1.0}

    def test_empty_word(self):
        with pytest.raises(ValueError, match="empty"):
            profile("")

    def test_returns_a_fresh_dict(self):
        m = soft_matrix({"b": {"b": 0.8, "x": 0.2}})
        before = weighted_jaccard("ab", "ax", m)
        mutated = profile("ab", m)
        mutated["b"] = 5.0
        mutated["z"] = 1.0
        assert profile("ab", m) == pytest.approx({"a": 1.0, "b": 0.8, "x": 0.2})
        assert weighted_jaccard("ab", "ax", m) == before

    def test_profiles_are_kept_per_matrix(self):
        soft = soft_matrix({"b": {"b": 0.8, "x": 0.2}})
        assert weighted_jaccard("ab", "ax", soft) < 1.0
        assert weighted_jaccard("ab", "ax", ConfusionMatrix.identity("abx")) == pytest.approx(2 / 3)
        assert weighted_jaccard("ab", "ax") == pytest.approx(2 / 3)


class TestWeightedJaccard:
    def test_identical_words(self):
        assert weighted_jaccard("abc", "abc") == 0.0

    def test_disjoint_words(self):
        assert weighted_jaccard("abc", "xyz") == 1.0

    def test_single_substitution(self):
        assert weighted_jaccard("abc", "abd") == 0.5

    def test_anagrams_have_zero_distance(self):
        assert weighted_jaccard("abc", "cab") == 0.0

    def test_symmetric(self):
        rng = random.Random(3)
        for _ in range(200):
            a = "".join(rng.choices("abcd", k=rng.randrange(1, 6)))
            b = "".join(rng.choices("abcd", k=rng.randrange(1, 6)))
            assert weighted_jaccard(a, b) == weighted_jaccard(b, a)

    def test_bounded(self):
        rng = random.Random(4)
        m = soft_matrix({"a": {"a": 0.7, "b": 0.3}})
        for _ in range(200):
            a = "".join(rng.choices("abcd", k=rng.randrange(1, 6)))
            b = "".join(rng.choices("abcd", k=rng.randrange(1, 6)))
            assert 0.0 <= weighted_jaccard(a, b, m) <= 1.0

    def test_identity_matrix_matches_multiset_oracle(self):
        m = ConfusionMatrix.identity("abcd")
        words = ["".join(t) for n in (1, 2, 3) for t in itertools.product("abcd", repeat=n)]
        for a in words[:40]:
            for b in words[:40]:
                assert weighted_jaccard(a, b, m) == pytest.approx(
                    multiset_jaccard(a, b), abs=1e-12
                )

    def test_empty_word(self):
        with pytest.raises(ValueError, match="empty"):
            weighted_jaccard("", "abc")


class TestCorrectWord:
    def test_in_dictionary_short_circuit(self):
        d = Dictionary.from_words(["abc", "xyz"])
        assert correct_word("abc", d) == "abc"

    def test_nearest_word(self):
        d = Dictionary.from_words(["abc", "xyz"])
        assert correct_word("abd", d) == "abc"

    def test_confusion_steers_choice(self):
        # x is usually a misheard c, so "abx" should resolve to "abc"
        d = Dictionary.from_words(["abc", "abd"])
        m = soft_matrix({"x": {"x": 0.4, "c": 0.6}})
        assert correct_word("abx", d, m) == "abc"
        lhs = weighted_jaccard("abx", "abc", m)
        rhs = weighted_jaccard("abx", "abd", m)
        assert lhs < rhs

    def test_tie_broken_by_frequency(self):
        d = Dictionary.from_words(["abd", "abe"], freq={"abe": 9, "abd": 1})
        assert correct_word("abz", d) == "abe"

    def test_tie_broken_by_length_before_lex(self):
        # both candidates are at distance 1.0 from "zz"; "ba" is shorter even
        # though "aaa" sorts first
        d = Dictionary.from_words(["aaa", "ba"])
        assert weighted_jaccard("zz", "aaa") == weighted_jaccard("zz", "ba") == 1.0
        assert correct_word("zz", d) == "ba"

    def test_tie_broken_by_lex_order(self):
        d = Dictionary.from_words(["abd", "abe"])
        assert correct_word("abz", d) == "abd"

    def test_empty_dictionary(self):
        with pytest.raises(ValueError):
            Dictionary.from_words([])

    def test_empty_dictionary_constructor(self):
        with pytest.raises(ValueError, match="at least one word"):
            Dictionary(words=frozenset(), freq={})

    @pytest.mark.parametrize("count", [float("nan"), -1, "9", 1.5, True])
    def test_frequency_must_be_a_non_negative_int(self, count):
        # a NaN ranked "abd" over the more frequent "abe", and "9" failed only
        # at the first correction, with a bare TypeError
        with pytest.raises(ValueError, match=r"^frequency of 'abd' must be a non-negative int, "
                                             rf"got {re.escape(repr(count))}$"):
            Dictionary.from_words(["abd", "abe", "abf"], freq={"abd": count, "abe": 3})

    def test_zero_and_large_frequencies_are_accepted(self):
        d = Dictionary.from_words(["abd", "abe", "abf"], freq={"abd": 0, "abe": 2**70})
        assert correct_word("abx", d) == "abe"


class TestCorrectSentence:
    def test_empty(self):
        d = Dictionary.from_words(["a"])
        assert correct_sentence("", d) == ""

    def test_all_in_dictionary(self):
        d = Dictionary.from_words(["the", "cat", "sat"])
        assert correct_sentence("the cat sat", d) == "the cat sat"

    def test_only_oov_token_changes(self):
        d = Dictionary.from_words(["the", "cat", "sat"])
        assert correct_sentence("the cxt sat", d) == "the cat sat"

    def test_digits_and_punctuation_pass_through(self):
        d = Dictionary.from_words(["one"])
        assert correct_sentence("on3 one, one", d) == "on3 one, one"

    def test_idempotent(self):
        d = Dictionary.from_words(["the", "cat", "sat", "mat"])
        once = correct_sentence("teh cxt sat on 2 mats!", d)
        assert correct_sentence(once, d) == once

    def test_whitespace_normalized(self):
        d = Dictionary.from_words(["a", "b"])
        assert correct_sentence("  a   b ", d) == "a b"


class TestFrozenInputs:
    """The profile caches key on object identity, so neither a matrix nor a
    dictionary may change after construction."""

    def test_matrix_cannot_change(self):
        original = np.eye(3)
        m = ConfusionMatrix(("", "a", "b"), original)
        assert weighted_jaccard("a", "b", m) == 1.0
        with pytest.raises(ValueError, match="read-only"):
            m.probabilities[1] = [0.0, 0.0, 1.0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.probabilities = np.array([[1.0, 0, 0], [0, 0, 1], [0, 0, 1]])
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.symbols = ("", "a", "a")
        original[1] = [0.0, 0.0, 1.0]
        assert np.array_equal(m.probabilities, np.eye(3))
        assert m.probabilities.dtype == np.float64
        # the cached and the uncached call see the same, unchanged matrix
        assert weighted_jaccard("a", "b", m) == 1.0
        assert weighted_jaccard("aa", "b", m) == 1.0

    def test_matrix_takes_a_float64_copy(self):
        ints = np.eye(2, dtype=np.int64)
        m = ConfusionMatrix(["", "a"], ints)
        assert m.symbols == ("", "a")
        assert m.probabilities.dtype == np.float64
        assert not np.shares_memory(m.probabilities, ints)

    def test_dictionary_cannot_change(self):
        freq = {"abd": 1, "abe": 9}
        d = Dictionary.from_words(freq, freq=freq)
        assert correct_word("abx", d) == "abe"
        with pytest.raises(TypeError):
            d.freq["abd"] = 99
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.freq = {"abd": 99}
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.words = frozenset({"abx"})
        freq["abd"] = 99
        assert d.frequency("abd") == 1
        assert correct_word("abx", d) == "abe"

    @pytest.mark.parametrize(
        "clone", [lambda o: pickle.loads(pickle.dumps(o)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_copies_are_rebuilt_frozen(self, clone):
        m = clone(ConfusionMatrix(("", "a", "b"), np.eye(3)))
        assert m.symbols == ("", "a", "b")
        assert np.array_equal(m.probabilities, np.eye(3))
        assert not m.probabilities.flags.writeable
        assert weighted_jaccard("a", "b", m) == 1.0
        d = clone(Dictionary.from_words(["abd", "abe"], freq={"abd": 1, "abe": 9}))
        assert d.words == {"abd", "abe"}
        assert d.frequency("abe") == 9
        with pytest.raises(TypeError):
            d.freq["abd"] = 99
        assert correct_word("abx", d) == "abe"


@pytest.mark.parametrize(
    "clone", [lambda o: o, lambda o: pickle.loads(pickle.dumps(o)), copy.deepcopy],
    ids=["original", "pickle", "deepcopy"],
)
def test_row_lists_the_nonzero_entries_in_column_order(clone):
    soft = soft_matrix({"b": {"b": 0.8, "x": 0.2}, "a": {"h": 0.75, "a": 0.25}})
    dense = build_confusion([("the cat sat", "teh cat sad"), ("on a mat", "on the mat")])
    for matrix in map(clone, (soft, dense)):
        for i, symbol in enumerate(matrix.symbols):
            values = matrix.probabilities[i]
            want = tuple((matrix.symbols[j], float(values[j])) for j in np.nonzero(values)[0])
            got = matrix.row(symbol)
            assert got == want
            assert all(type(p) is float for _, p in got)
            assert matrix.row(symbol) == want  # no cache: a second call builds it anew
    with pytest.raises(KeyError):
        soft.row("z")


@pytest.mark.parametrize("words", [[""], ["", "x"]])
def test_dictionary_rejects_the_empty_word(words):
    with pytest.raises(ValueError, match="must not be empty"):
        Dictionary.from_words(words)


@pytest.mark.parametrize("words, spaced", [
    pytest.param(["a b"], "a b", id="space"),
    pytest.param(["cat", "cat 12"], "cat 12", id="count-after-a-space"),
    pytest.param(["ok", " x"], " x", id="leading"),
    pytest.param(["ok", "x\ty"], "x\ty", id="tab"),
    pytest.param(["ok", "x\u2028y", "y\x85"], "x\u2028y", id="unicode-first-in-order"),
])
def test_dictionary_rejects_a_word_holding_whitespace(words, spaced):
    # correct_sentence("ab", d) once gave "a b", one token turned into two
    with pytest.raises(ValueError, match=f"^dictionary word {re.escape(repr(spaced))} "
                                         "holds whitespace$"):
        Dictionary.from_words(words)


class TestDictionaryFile:
    def test_load_with_frequencies(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("cat\t5\ndog\nbird\t2\ncat\t3\n", encoding="utf-8")
        d = load_dictionary(path)
        assert set(d.words) == {"cat", "dog", "bird"}
        assert d.frequency("cat") == 8
        assert d.frequency("dog") == 0

    def test_utf8_bom_is_not_part_of_the_first_word(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("cat\t5\ndog\n", encoding="utf-8-sig")
        d = load_dictionary(path)
        assert set(d.words) == {"cat", "dog"}
        assert d.frequency("cat") == 5

    def test_bad_frequency(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("cat\tmany\n")
        with pytest.raises(ValueError, match="frequency"):
            load_dictionary(path)

    @pytest.mark.parametrize("text, where", [
        pytest.param("cat 12\ndog\t3\n", ":1: word 'cat 12'", id="line-1"),
        pytest.param("dog\t3\n\na b\t9\nc d\n", ":3: word 'a b'", id="first-of-two"),
    ])
    def test_word_holding_whitespace_names_its_line(self, tmp_path, text, where):
        path = tmp_path / "dict.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path) + where)} holds whitespace; "
                                             "fields are tab-separated$"):
            load_dictionary(path)

    def test_negative_frequency(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("cat\t-3\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"dict\.txt:1: negative frequency -3$"):
            load_dictionary(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="no words"):
            load_dictionary(path)

    def test_frequency_without_a_word(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("cat\t5\n \t \n\t7\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"dict\.txt:3: frequency without a word"):
            load_dictionary(path)
        # a line of blanks and a tab holds neither field, and is skipped
        path.write_text("cat\t5\n \t \n dog \t 2 \n", encoding="utf-8")
        assert dict(load_dictionary(path).freq) == {"cat": 5, "dog": 2}


def test_monotone_benefit_of_confusion_weighting():
    # corrupt c -> c' where the matrix knows c' often stands for c: the
    # weighted distance back to the original must shrink
    m = soft_matrix({"x": {"x": 0.6, "c": 0.4}})
    original = "cab"
    corrupted = "xab"
    weighted = weighted_jaccard(corrupted, original, m)
    unweighted = weighted_jaccard(corrupted, original)
    assert weighted < unweighted


# Dictionary words use "e", which is outside the matrix alphabet; queries
# add "f" (in the matrix alphabet only) and "x", "z" (in neither).
MATRIX_ALPHABET = "abcdf"


@st.composite
def matrices(draw):
    kind = draw(st.sampled_from(["none", "identity", "random"]))
    if kind == "none":
        return None
    if kind == "identity":
        return ConfusionMatrix.identity(MATRIX_ALPHABET)
    k = len(MATRIX_ALPHABET) + 1
    # small integer weights make rows like 1/7, 2/7, ... whose sums tie
    # only up to float rounding
    weights = np.array(draw(st.lists(st.integers(0, 3), min_size=k * k, max_size=k * k)),
                       dtype=np.float64).reshape(k, k) + np.eye(k)
    return ConfusionMatrix(symbols=("",) + tuple(MATRIX_ALPHABET),
                           probabilities=weights / weights.sum(axis=1, keepdims=True))


@settings(max_examples=300, deadline=None)
@given(
    freq=st.dictionaries(st.text("abcde", min_size=1, max_size=6), st.integers(0, 2),
                         min_size=1, max_size=30),
    matrix=matrices(),
    query=st.text("abcdefxz", min_size=1, max_size=7),
)
def test_correct_word_matches_brute_force_oracle(freq, matrix, query):
    assume(query not in freq)
    dictionary = Dictionary.from_words(freq, freq=freq)
    distance = {w: weighted_jaccard(query, w, matrix) for w in freq}
    best = min(distance.values())
    pick = correct_word(query, dictionary, matrix)
    assert distance[pick] <= best + 1e-12
    tied = [w for w, d in distance.items() if d <= best + 1e-12]
    assert pick == min(tied, key=lambda w: (-freq[w], len(w), w))


HASH_SEED_SCRIPT = """
import random
from tests.test_acceptance import _confusable_setup
from dysaug import correct_sentence

dictionary, matrix, cases = _confusable_setup()
queries = [corrupted for _, corrupted, _ in cases]
rng = random.Random(7)
while len(queries) < 1000:
    word = "".join(rng.choices("aeioulmnrbpdtgksz", k=rng.randrange(3, 9)))
    if word not in dictionary:
        queries.append(word)
print(correct_sentence(" ".join(queries), dictionary, matrix))
print(correct_sentence(" ".join(queries), dictionary))
"""


def test_correction_does_not_depend_on_hash_seed():
    # the C09 corrupted words plus seeded random out-of-vocabulary words;
    # a distance summed in hash order once changed about 2% of the picks
    src = Path(dysaug.__file__).resolve().parent.parent
    root = Path(__file__).resolve().parent.parent
    # the refine calls BLAS on every query: the last run pins it to one thread
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    one_thread = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    outputs = []
    for seed, threads in (("1", {}), ("2", {}), ("1", one_thread)):
        env = dict(base, PYTHONHASHSEED=seed, **threads,
                   PYTHONPATH=os.pathsep.join([str(root), str(src)]))
        proc = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT], cwd=root, env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


@settings(max_examples=200, deadline=None)
@given(
    size=st.integers(50, 400),
    seed=st.integers(0, 2**32 - 1),
    matrix=matrices(),
    queries=st.lists(st.text("abcdefxz", min_size=1, max_size=9), min_size=1, max_size=8),
)
def test_pruned_search_matches_full_scan(size, seed, matrix, queries):
    # hundreds of words of lengths 1-8 over five letters fill each length
    # bucket with anagrams and equal frequencies, so ties are common
    rng = random.Random(seed)
    freq = {}
    while len(freq) < size:
        freq["".join(rng.choices("abcde", k=rng.randint(1, 8)))] = rng.randrange(3)
    dictionary = Dictionary.from_words(freq, freq=freq)
    index = _ProfileIndex(dictionary, matrix)
    oracle = OracleProfileIndex(dictionary, matrix)
    for query in queries:
        assert index.nearest(query) == oracle.nearest(query)


def test_pruned_search_scores_few_words_exactly(monkeypatch):
    rng = random.Random(11)
    letters = "abcdefghijklmnopqrstuvwxyz"
    freq = {}
    while len(freq) < 5000:
        word = "".join(rng.choices(letters, k=rng.randint(2, 12)))
        freq[word] = rng.randrange(1, 1000)
    # every letter keeps 0.8 of its mass and spreads the rest over its
    # neighbours and, thinly, over the whole alphabet
    k = len(letters) + 1
    p = np.full((k, k), 0.02 / k) + 0.78 * np.eye(k)
    for i in range(1, k):
        p[i, 1 + (i % 26)] += 0.1
        p[i, 1 + ((i - 2) % 26)] += 0.1
    p[0] = np.eye(k)[0]
    matrix = ConfusionMatrix(("",) + tuple(letters), p / p.sum(axis=1, keepdims=True))
    dictionary = Dictionary.from_words(freq, freq=freq)
    index = _ProfileIndex(dictionary, matrix)
    oracle = OracleProfileIndex(dictionary, matrix)

    scored = []
    distances = _ProfileIndex._distances

    def counting(self, rows, q, q_mass):
        scored.append(len(rows))
        return distances(self, rows, q, q_mass)

    monkeypatch.setattr(_ProfileIndex, "_distances", counting)
    words = sorted(freq)
    visited = 0
    for _ in range(200):
        word = list(rng.choice(words))
        for _ in range(rng.randint(1, 2)):
            word[rng.randrange(len(word))] = rng.choice(letters)
        query = "".join(word)
        pick = index.nearest(query)
        assert pick == oracle.nearest(query)
        # a scan visits at least the length buckets whose mass bound lies
        # within the tie tolerance of the best distance
        q_mass = sum(profile(query, matrix).values())
        best = weighted_jaccard(query, pick, matrix)
        visited += sum(end - start for start, end, lo, hi in index._buckets
                       if max(1.0 - hi / q_mass, 1.0 - q_mass / lo) <= best + 1e-12)
    assert sum(scored) < 0.05 * visited, (sum(scored), visited)


def runs_of(letters, max_run=40):
    """Words made of up to six runs of one letter each."""
    runs = st.lists(st.tuples(st.sampled_from(letters), st.integers(1, max_run)),
                    min_size=1, max_size=6)
    return runs.map(lambda rs: "".join(c * n for c, n in rs))


@st.composite
def skewed_matrices(draw):
    # entries over eight orders of magnitude (and some zeros): float32
    # keeps a row's large and tiny probabilities at different precisions
    k = len(MATRIX_ALPHABET) + 1
    exponents = np.array(draw(st.lists(st.integers(-9, 0), min_size=k * k, max_size=k * k)),
                         dtype=np.float64).reshape(k, k)
    weights = np.where(exponents < -8, 0.0, 10.0 ** exponents) + np.eye(k)
    return ConfusionMatrix(symbols=("",) + tuple(MATRIX_ALPHABET),
                           probabilities=weights / weights.sum(axis=1, keepdims=True))


@settings(max_examples=150, deadline=None)
@given(
    freq=st.dictionaries(runs_of("abcde"), st.integers(0, 2), min_size=1, max_size=40),
    long_letter=st.sampled_from("abcde"),
    long_run=st.integers(256, 400),
    matrix=st.one_of(st.none(), skewed_matrices()),
    queries=st.lists(runs_of("abcdefxz"), min_size=1, max_size=5),
    near_long=st.tuples(st.integers(-3, 3), runs_of("abcdefxz", max_run=3)),
)
def test_float32_filter_matches_full_scan_on_long_repeated_words(
        freq, long_letter, long_run, matrix, queries, near_long):
    # a letter repeated over 255 times widens the counts past uint8, and
    # profile values in the hundreds keep only about 5 decimals in float32
    freq = dict(freq)
    freq[long_letter * long_run] = 1
    dictionary = Dictionary.from_words(freq, freq=freq)
    index = _ProfileIndex(dictionary, matrix)
    assert index.counts.dtype == np.uint16
    oracle = OracleProfileIndex(dictionary, matrix)
    delta, tail = near_long
    for query in queries + [long_letter * (long_run + delta) + tail]:
        assert index.nearest(query) == oracle.nearest(query)


@pytest.mark.parametrize("matrix", [None, ConfusionMatrix.identity("abc"), "soft"],
                         ids=["no-matrix", "identity", "soft"])
def test_query_outside_every_profile_takes_frequency_then_length_then_word(matrix):
    # every word is at distance 1 from a query in another script, so all
    # 3,000 words tie
    if matrix == "soft":
        matrix = soft_matrix({"a": {"a": 0.5, "b": 0.5}})
    rng = random.Random(5)
    freq = {}
    while len(freq) < 3000:
        freq["".join(rng.choices("abcde", k=rng.randint(3, 9)))] = rng.randrange(3)
    freq.update({"eeee": 3, "dde": 3, "ddc": 3})
    dictionary = Dictionary.from_words(freq, freq=freq)
    assert correct_word("\u03a9\u03a9", dictionary, matrix) == "ddc"
    assert OracleProfileIndex(dictionary, matrix).nearest("\u03a9\u03a9") == "ddc"


@pytest.mark.parametrize("matrix", [None, "soft"], ids=["no-matrix", "soft"])
def test_query_outside_every_profile_refines_no_word(monkeypatch, matrix):
    # Arabic words share no character with a Latin dictionary, so every word
    # is at distance exactly 1 and the pick is known before any refine
    if matrix == "soft":
        matrix = soft_matrix({"a": {"a": 0.5, "b": 0.5}})
    rng = random.Random(7)
    freq = {}
    while len(freq) < 2000:
        freq["".join(rng.choices("abcdefgh", k=rng.randint(2, 9)))] = rng.randrange(5)
    dictionary = Dictionary.from_words(freq, freq=freq)
    index = _ProfileIndex(dictionary, matrix)
    oracle = OracleProfileIndex(dictionary, matrix)
    scored = []
    distances = _ProfileIndex._distances

    def counting(self, rows, q, q_mass):
        scored.append(len(rows))
        return distances(self, rows, q, q_mass)

    monkeypatch.setattr(_ProfileIndex, "_distances", counting)
    for query in ["\u0643\u062a\u0628", "\u0633\u0644\u0627\u0645", "\u03a9"]:
        assert index.nearest(query) == oracle.nearest(query)
    assert scored == []
    # one character with a profile row brings the refine back
    assert index.nearest("\u0643a") == oracle.nearest("\u0643a")
    assert scored


def test_index_keeps_no_float64_profile_matrix():
    # the benchmark's size: 20k words over 28 symbols
    rng = random.Random(2)
    letters = "abcdefghijklmnopqrstuvwxyz"
    words = set()
    while len(words) < 20000:
        words.add("".join(rng.choices(letters, k=rng.randint(3, 9))))
    matrix = ConfusionMatrix.identity(letters + "'")
    index = _ProfileIndex(Dictionary.from_words(words), matrix)
    n, k = len(words), len(matrix.symbols)
    assert k == 28
    arrays = [a for a in vars(index).values() if isinstance(a, np.ndarray)]
    assert not [a.shape for a in arrays if a.dtype == np.float64 and a.nbytes >= n * k * 8]
    assert sum(a.nbytes for a in arrays) <= 3.2e6


def test_refine_in_blocks_matches_full_scan_distances():
    # more words than one BLAS block holds: the refine splits its product
    rng = random.Random(3)
    letters = "abcdefghijklmnopqrstuvwxyz"
    words = {"".join(rng.choices(letters, k=rng.randint(3, 9))) for _ in range(2000)}
    matrix = soft_matrix({"a": {"a": 0.5, "e": 0.5}, "o": {"o": 0.75, "u": 0.25}})
    dictionary = Dictionary.from_words(words)
    index = _ProfileIndex(dictionary, matrix)
    oracle = OracleProfileIndex(dictionary, matrix)
    assert index.words == oracle.words
    assert len(index.words) > 3 * index._block
    q = sum(oracle._char_rows[c] for c in "quizzical")
    minsum = np.minimum(oracle.profiles, q).sum(axis=1)
    want = 1.0 - minsum / (oracle.mass + q.sum() - minsum)
    got = index._distances(np.arange(len(index.words)), q, q.sum())
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
