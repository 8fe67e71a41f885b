import dataclasses
import itertools
import json
import pickle
import random
import re
import tracemalloc

import numpy as np
import pytest

from dysaug import align, build_confusion, normalize_arabic, score, scoring
from dysaug.scoring import DELETE, HIT, INSERT, SUBSTITUTE, Alignment


def brute_distance(ref, hyp):
    """Plain recursive edit distance, no memoization tricks shared with align."""
    if not ref:
        return len(hyp)
    if not hyp:
        return len(ref)
    return min(
        brute_distance(ref[:-1], hyp[:-1]) + (ref[-1] != hyp[-1]),
        brute_distance(ref[:-1], hyp) + 1,
        brute_distance(ref, hyp[:-1]) + 1,
    )


class TestAlign:
    def test_identity(self):
        a = align("abc", "abc")
        assert a.distance == 0
        assert [op[0] for op in a.ops] == [HIT, HIT, HIT]

    def test_empty_hypothesis(self):
        a = align("abc", "")
        assert a.distance == 3
        assert [op[0] for op in a.ops] == [DELETE, DELETE, DELETE]

    def test_empty_reference(self):
        a = align("", "xy")
        assert [op[0] for op in a.ops] == [INSERT, INSERT]

    def test_substitution(self):
        a = align("abc", "axc")
        assert [op[0] for op in a.ops] == [HIT, SUBSTITUTE, HIT]
        assert a.ops[1] == (SUBSTITUTE, "b", "x")

    def test_word_tokens(self):
        a = align(["the", "cat"], ["the", "hat"])
        assert a.counts() == (1, 1, 0, 0)

    def test_distance_matches_brute_force_small(self):
        strings = [""]
        for n in (1, 2, 3, 4):
            strings += ["".join(t) for t in itertools.product("abc", repeat=n)]
        for ref in strings[:60]:
            for hyp in strings[:60]:
                assert align(ref, hyp).distance == brute_distance(ref, hyp)

    def test_replay_reconstructs_inputs(self):
        rng = random.Random(5)
        for _ in range(300):
            ref = "".join(rng.choices("abcd", k=rng.randrange(0, 8)))
            hyp = "".join(rng.choices("abcd", k=rng.randrange(0, 8)))
            ops = align(ref, hyp).ops
            assert "".join(r for k, r, _ in ops if k in (HIT, SUBSTITUTE, DELETE)) == ref
            assert "".join(h for k, _, h in ops if k in (HIT, SUBSTITUTE, INSERT)) == hyp

    # tokens match as dict keys do: the same object, or equal under ==.  List
    # equality compares NaNs by identity, so each op must hold the right NaN
    def test_a_nan_token_matches_only_itself(self):
        nan, other = float("nan"), float("nan")
        assert align([nan, "a"], [nan, "a"]).ops == [(HIT, nan, nan), (HIT, "a", "a")]
        assert align([nan], [other]).ops == [(SUBSTITUTE, nan, other)]
        a = align(["x", nan], [other, nan, "x"])
        assert a.distance == 2
        assert a.ops == [(SUBSTITUTE, "x", other), (HIT, nan, nan), (INSERT, None, "x")]

    def test_numbers_equal_under_eq_match(self):
        a = align([1, 2, "a"], [1.0, "a", True])
        assert a.ops == [(HIT, 1, 1.0), (SUBSTITUTE, 2, "a"), (SUBSTITUTE, "a", True)]
        assert [type(h) for _, _, h in a.ops] == [float, str, bool]
        a = align([True, 1.0], [1])
        assert a.ops == [(DELETE, True, None), (HIT, 1.0, 1)]
        assert [type(r) for _, r, _ in a.ops] == [bool, float]

    # a rebuilt alignment holds equal, not identical, op kinds
    def test_counts_survive_pickle_and_json_round_trips(self):
        a = align("abcd", "bxdy")
        assert a.counts() == (2, 1, 1, 1)
        pickled = pickle.loads(pickle.dumps(a))
        data = json.loads(json.dumps(dataclasses.asdict(a)))
        from_json = Alignment([tuple(op) for op in data["ops"]], data["distance"])
        for back in (pickled, from_json):
            assert back == a
            assert back.counts() == a.counts()
        assert pickle.loads(pickle.dumps(align("ab", "a"))).counts() == (1, 0, 1, 0)


def test_word_score_aligns_per_pair_and_char_paths_through_align_lanes(monkeypatch):
    # word-unit score looks scoring._align up at call time, char-unit score
    # and build_confusion scoring._align_lanes, so a wrapper installed there
    # sees every pair once, in order, with no hits asked for; none of them
    # calls the public align
    pairs = [("the cat sat", "the hat sat"), ("a b", "a b c"), ("xyz", "")]
    aligned = []
    real_align = scoring._align

    def counting_align(ref, hyp, hits):
        aligned.append((ref, hyp, hits))
        return real_align(ref, hyp, hits)

    def no_align(ref, hyp):
        raise AssertionError("scoring.align called")

    monkeypatch.setattr(scoring, "align", no_align)
    monkeypatch.setattr(scoring, "_align", counting_align)
    score(pairs, unit="word")
    assert aligned == [(ref.split(), hyp.split(), False) for ref, hyp in pairs]

    laned = []
    real_lanes = scoring._align_lanes

    def counting_lanes(batch, hits):
        assert not hits
        laned.extend(batch)
        return real_lanes(batch, hits)

    monkeypatch.setattr(scoring, "_align_lanes", counting_lanes)
    for run in (lambda: score(pairs, unit="char"), lambda: build_confusion(pairs)):
        laned.clear()
        run()
        assert laned == pairs


class TestScore:
    def test_identical_corpus(self):
        report = score([("a b c", "a b c"), ("d", "d")], unit="word")
        assert report.error_rate == 0.0
        assert report.hits == report.ref_length == 4

    def test_word_substitution(self):
        report = score([("a b c", "a x c")], unit="word")
        assert report.substitutions == 1
        assert report.error_rate == pytest.approx(1 / 3)

    def test_char_insertion(self):
        report = score([("ab", "abc")], unit="char")
        assert report.insertions == 1
        assert report.error_rate == pytest.approx(0.5)

    def test_rate_can_exceed_one(self):
        report = score([("a", "x y z")], unit="word")
        assert report.error_rate > 1.0

    def test_whitespace_noise_ignored_at_char_level(self):
        report = score([("  a  b ", "a b")], unit="char")
        assert report.error_rate == 0.0

    def test_additive_over_corpora(self):
        part1 = [("a b", "a x"), ("c", "c")]
        part2 = [("d e f", "d f")]
        merged = score(part1 + part2, unit="word")
        summed = score(part1, unit="word") + score(part2, unit="word")
        assert merged == summed

    def test_permutation_invariant(self):
        pairs = [("a b", "b a"), ("c d e", "c e"), ("f", "f g")]
        a = score(pairs, unit="word")
        b = score(list(reversed(pairs)), unit="word")
        assert a == b

    def test_accounting_identity_fuzz(self):
        rng = random.Random(17)
        for _ in range(300):
            ref = " ".join(rng.choices("ab cd ef".split(), k=rng.randrange(1, 6)))
            hyp = " ".join(rng.choices("ab cd ef gh".split(), k=rng.randrange(0, 6)))
            report = score([(ref, hyp)], unit="word")
            assert report.substitutions + report.deletions + report.hits == report.ref_length

    def test_all_empty_references(self):
        with pytest.raises(ValueError, match="empty"):
            score([("", "x")], unit="word")

    def test_bad_unit(self):
        with pytest.raises(ValueError, match="unit"):
            score([("a", "a")], unit="phoneme")
        # the unit is checked before the pairs, so no pairs still name it
        with pytest.raises(ValueError, match="unit must be 'word' or 'char', got 'x'"):
            score([], unit="x")

    def test_arabic_normalization_flag(self):
        ref = "كِتَاب"  # with harakat
        hyp = "كتاب"
        assert score([(ref, hyp)], unit="char").error_rate > 0
        assert score([(ref, hyp)], unit="char", arabic_normalization=True).error_rate == 0


class TestNormalizeArabic:
    def test_strips_tatweel_and_harakat(self):
        assert normalize_arabic("كــتَا") == "كتا"

    def test_leaves_plain_text(self):
        assert normalize_arabic("hello") == "hello"

    def test_equals_a_per_character_filter_on_every_code_point(self):
        strip = {0x0640} | set(range(0x064B, 0x0653))
        text = "".join(map(chr, range(0x110000)))
        assert normalize_arabic(text) == "".join(c for c in text if ord(c) not in strip)


class TestBuildConfusion:
    def test_rows_are_distributions(self):
        m = build_confusion([("abc", "abd"), ("ba", "ab")])
        sums = m.probabilities.sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)
        assert (m.probabilities >= 0).all()

    def test_identity_pairs_favor_diagonal(self):
        m = build_confusion([("ab", "ab")] * 10)
        for c in "ab":
            row = {sym: p for sym, p in m.row(c)}
            assert row[c] == max(row.values())

    def test_repeated_substitution_dominates(self):
        m = build_confusion([("b", "x")] * 100 + [("a", "a")])
        row = dict(m.row("b"))
        off_diag = {sym: p for sym, p in row.items() if sym != "b"}
        assert max(off_diag, key=off_diag.get) == "x"

    def test_deletion_mass_goes_to_null(self):
        m = build_confusion([("ab", "a")] * 5)
        row = dict(m.row("b"))
        assert row[""] == max(row.values())

    def test_insertion_mass_in_null_row(self):
        m = build_confusion([("a", "ax")] * 5)
        null_row = dict(m.row(""))
        assert null_row["x"] == max(null_row.values())

    def test_empty_input(self):
        with pytest.raises(ValueError, match="no pairs"):
            build_confusion([])

    def test_bad_smoothing(self):
        with pytest.raises(ValueError, match="smoothing"):
            build_confusion([("a", "a")], smoothing=0.0)

    @pytest.mark.parametrize("smoothing", [float("nan"), float("inf"), 0.0, -1.0])
    def test_smoothing_must_be_positive_and_finite(self, smoothing):
        with pytest.raises(ValueError, match="smoothing must be positive and finite"):
            build_confusion([("a", "a")], smoothing=smoothing)

    def test_smoothing_is_checked_before_any_pair_is_read(self):
        def pairs():
            raise AssertionError("a pair was read")
            yield

        with pytest.raises(ValueError, match="smoothing must be positive and finite"):
            build_confusion(pairs(), smoothing=0.0)

    def test_memory_does_not_grow_with_the_corpus(self):
        # the pairs stream in, so ten times the pairs must not hold ten
        # times the memory; equal-length pairs give every pass one shape
        def pairs(n):
            rng = random.Random(5)
            for _ in range(n):
                ref = "".join(rng.choices("abcdefghij ", k=12))
                i = rng.randrange(12)
                yield ref, ref[:i] + rng.choice("abcdefghij ") + ref[i + 1:]

        def peak(n):
            tracemalloc.start()
            try:
                build_confusion(pairs(n))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(20_000) <= 1.25 * peak(2_000)

    def test_save_load_round_trip(self, tmp_path):
        from dysaug import ConfusionMatrix

        m = build_confusion([("abc", "abd")])
        path = tmp_path / "m.json"
        m.save(path)
        back = ConfusionMatrix.load(path)
        assert back.symbols == m.symbols
        np.testing.assert_allclose(back.probabilities, m.probabilities)

    def test_load_skips_a_utf8_bom(self, tmp_path):
        from dysaug import ConfusionMatrix

        m = build_confusion([("abc", "abd")])
        path = tmp_path / "m.json"
        path.write_text(json.dumps(m.to_dict()), encoding="utf-8-sig")
        back = ConfusionMatrix.load(path)
        assert back.symbols == m.symbols
        np.testing.assert_array_equal(back.probabilities, m.probabilities)

    def test_exact_counts_with_indels_and_arabic(self):
        # a->a hit, b->c substitution, x inserted, ب deleted; smoothing 0.5
        m = build_confusion([("ab", "ac"), ("", "x"), ("ب", "")])
        assert m.symbols == ("", "a", "b", "c", "x", "ب")
        assert m.prob("a", "a") == 1.5 / 4 and m.prob("a", "b") == 0.5 / 4
        assert m.prob("b", "c") == 1.5 / 4
        assert m.prob("", "x") == 1.5 / 4
        assert m.prob("ب", "") == 1.5 / 4
        np.testing.assert_allclose(m.probabilities[m.symbols.index("c")], 1 / 6)

    def test_identity_constructor(self):
        from dysaug import ConfusionMatrix

        m = ConfusionMatrix.identity("ba")
        assert m.symbols == ("", "a", "b")
        assert m.prob("a", "a") == 1.0
        assert m.prob("a", "b") == 0.0


class TestConfusionMatrixValidation:
    SYMBOLS = ("", "a", "b")
    BAD = {
        "negative": [[1, 0, 0], [0, 2, -1], [0, 0, 1]],
        "zero row": [[1, 0, 0], [0, 0, 0], [0, 0, 1]],
        "row sum": [[1, 0, 0], [0, 0.5, 0.4], [0, 0, 1]],
        "nan": [[1, 0, 0], [0, float("nan"), 1], [0, 0, 1]],
    }

    @pytest.mark.parametrize("name", sorted(BAD))
    def test_constructor_rejects(self, name):
        from dysaug import ConfusionMatrix

        with pytest.raises(ValueError):
            ConfusionMatrix(symbols=self.SYMBOLS, probabilities=np.array(self.BAD[name]))

    @pytest.mark.parametrize("name", ["negative", "zero row"])
    def test_load_rejects(self, tmp_path, name):
        from dysaug import ConfusionMatrix

        path = tmp_path / "m.json"
        path.write_text(json.dumps({"alphabet": list(self.SYMBOLS),
                                    "probabilities": self.BAD[name]}), encoding="utf-8")
        with pytest.raises(ValueError):
            ConfusionMatrix.load(path)

    @pytest.mark.parametrize("obj, match", [
        ({"alphabet": ["", "a"]}, "probabilities"),
        ({"probabilities": [[1.0]]}, "alphabet"),
        ([["", "a"], [[1, 0], [0, 1]]], "JSON object"),
        ({"alphabet": "ab", "probabilities": [[1.0]]}, "alphabet"),
        ({"alphabet": ["", "a"], "probabilities": [[1, 0], [{}, 1]]}, "probabilities"),
        # numpy alone would read both of these as 1.0
        ({"alphabet": [""], "probabilities": [["1"]]}, "'probabilities' must be rows of numbers"),
        ({"alphabet": [""], "probabilities": [[True]]}, "'probabilities' must be rows of numbers"),
    ])
    def test_from_dict_rejects_malformed(self, obj, match):
        from dysaug import ConfusionMatrix

        with pytest.raises(ValueError, match=match):
            ConfusionMatrix.from_dict(obj)

    def test_rejects_empty_alphabet(self):
        from dysaug import ConfusionMatrix

        with pytest.raises(ValueError, match="at least the null symbol"):
            ConfusionMatrix((), np.zeros((0, 0)))

    def test_rejects_repeated_symbol(self, tmp_path):
        from dysaug import ConfusionMatrix

        with pytest.raises(ValueError, match="symbol 'a' appears more than once"):
            ConfusionMatrix(("", "a", "a"), np.eye(3))
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"alphabet": ["", "a", "a"],
                                    "probabilities": np.eye(3).tolist()}), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: symbol 'a'")):
            ConfusionMatrix.load(path)

    def test_accepts_rounding_within_tolerance(self):
        from dysaug import ConfusionMatrix

        p = np.full((3, 3), 1 / 3)
        assert abs(p.sum(axis=1)[0] - 1.0) < 1e-9
        ConfusionMatrix(symbols=self.SYMBOLS, probabilities=p)
