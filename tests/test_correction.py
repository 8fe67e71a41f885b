import itertools
import os
import random
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
    correct_sentence,
    correct_word,
    load_dictionary,
    profile,
    weighted_jaccard,
)


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


class TestDictionaryFile:
    def test_load_with_frequencies(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("cat\t5\ndog\nbird\t2\ncat\t3\n", encoding="utf-8")
        d = load_dictionary(path)
        assert set(d.words) == {"cat", "dog", "bird"}
        assert d.frequency("cat") == 8
        assert d.frequency("dog") == 0

    def test_bad_frequency(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("cat\tmany\n")
        with pytest.raises(ValueError, match="frequency"):
            load_dictionary(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="no words"):
            load_dictionary(path)


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
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([str(root), str(src)]))
        proc = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT], cwd=root, env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
