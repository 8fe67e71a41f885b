"""The bit-parallel `align`, and `_align_lanes`, which runs many pairs in
one column step, against the cost-table DP they replaced; `_passes`,
which plans those passes, against its two bounds; and `score` and
`build_confusion`, which record only the edits and derive the hits,
against counts taken from that DP's edit scripts.

All must give the same edit script, tie-breaks included, and the same
distance, for characters and word tokens, empty sides, Arabic with
harakat, and reference lengths on either side of the 64- and 128-bit
word boundaries of the column vectors.  Without hits recorded, the
script is the same with its hits left out.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dysaug import build_confusion, scoring
from dysaug.scoring import DELETE, HIT, INSERT, SUBSTITUTE, align, normalize_arabic, score

from ._align_oracle import oracle_align

# Arabic letters, tatweel and the harakat/tanwin marks normalize_arabic strips
ARABIC = "".join(chr(c) for c in range(0x0621, 0x063B)) + "ـ" + "".join(
    chr(c) for c in range(0x064B, 0x0653)
)
WORDS = ["the", "cat", "sat", "on", "mat", "a", "كتب", "كُتُب"]
BOUNDARY_LENGTHS = [1, 63, 64, 65, 127, 128, 129, 191, 192, 193, 300]


def lengths(max_len=300):
    """Mostly short, plus lengths at and around multiples of 64 bits."""
    return st.one_of(
        st.integers(0, 12), st.sampled_from(BOUNDARY_LENGTHS), st.integers(0, max_len)
    )


@st.composite
def sequences(draw, alphabet):
    n = draw(lengths())
    return draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n))


@st.composite
def edited(draw, ref, alphabet):
    """`ref` after a few random substitutions, deletions and insertions."""
    hyp = list(ref)
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["sub", "del", "ins"]))
        pos = draw(st.integers(0, len(hyp)))
        if kind == "ins":
            hyp.insert(pos, draw(st.sampled_from(alphabet)))
        elif pos < len(hyp):
            if kind == "sub":
                hyp[pos] = draw(st.sampled_from(alphabet))
            else:
                del hyp[pos]
    return hyp


@st.composite
def pairs(draw, alphabet):
    ref = draw(sequences(alphabet))
    hyp = draw(st.one_of(sequences(alphabet), edited(ref, alphabet)))
    return ref, hyp


def edits(alignment):
    """An alignment's ops without its hits, as `_edits` yields them."""
    return [op for op in alignment.ops if op[0] != HIT]


def check(ref, hyp):
    got, want = align(ref, hyp), oracle_align(ref, hyp)
    assert got.distance == want.distance
    assert got.ops == want.ops
    assert got.counts() == want.counts()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["ab", "abc", "abcdefghij "]).flatmap(pairs))
@example(([], []))
@example((list("abc"), []))
@example(([], list("xy")))
def test_characters_match_oracle(pair):
    ref, hyp = pair
    check("".join(ref), "".join(hyp))


@settings(max_examples=150, deadline=None)
@given(pairs(WORDS))
def test_word_tokens_match_oracle(pair):
    check(*pair)


@settings(max_examples=150, deadline=None)
@given(pairs(ARABIC))
def test_arabic_with_harakat_matches_oracle(pair):
    ref, hyp = pair
    check("".join(ref), "".join(hyp))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(BOUNDARY_LENGTHS), st.sampled_from(BOUNDARY_LENGTHS),
       st.sampled_from(["a", "ab"]), st.randoms(use_true_random=False))
def test_boundary_lengths_with_dense_ties_match_oracle(m, n, alphabet, rng):
    ref = "".join(rng.choice(alphabet) for _ in range(m))
    hyp = "".join(rng.choice(alphabet) for _ in range(n))
    check(ref, hyp)


@st.composite
def lane_batches(draw):
    """(text pairs, arabic_normalization) for the character path: a mix of
    alphabets, and sometimes enough copies of the pairs to fill several
    passes of _LANE_BITS."""
    batch = draw(st.lists(
        st.sampled_from(["ab", "abcdefghij ", ARABIC]).flatmap(pairs), max_size=10))
    batch = [("".join(ref), "".join(hyp)) for ref, hyp in batch]
    return batch * draw(st.sampled_from([1, 1, 1, 40])), draw(st.booleans())


def chars(text, arabic_normalization):
    """The character tokens `score` and `build_confusion` align."""
    return " ".join((normalize_arabic(text) if arabic_normalization else text).split())


def lane_bits(batch):
    return sum(8 * (len(ref) // 8 + 1) for ref, _ in batch)


@settings(max_examples=60, deadline=None)
@given(lane_batches())
@example(([("", ""), ("", "xy"), ("abc", ""), ("abcdefg", "abdefgh"), ("a" * 65, "a" * 64)],
          False))
@example(([("abc" * 30, "abd" * 31)] * 50, False))
def test_lanes_match_align_and_oracle(drawn):
    batch, arabic_normalization = drawn
    tokens = [(chars(ref, arabic_normalization), chars(hyp, arabic_normalization))
              for ref, hyp in batch]
    want = [align(ref, hyp) for ref, hyp in tokens]
    assert scoring._align_lanes(tokens, True) == [(a.ops, a.distance) for a in want]
    assert scoring._align_lanes(tokens, False) == [(edits(a), a.distance) for a in want]
    assert list(scoring._edits(batch, "char", arabic_normalization)) == [
        (ref, edits(a)) for (ref, _), a in zip(tokens, want)]
    for (ref, hyp), alignment in dict(zip(tokens, want)).items():
        want = oracle_align(ref, hyp)
        assert alignment.ops == want.ops
        assert alignment.distance == want.distance


def test_a_batch_wider_than_lane_bits_runs_in_passes(monkeypatch):
    # 90 characters take a 96-bit lane, so a pass holds 42 pairs and the
    # 85th pair is a pass of its own, which `_align` takes
    batch = [("abc" * 30, "abd" * 31)] * 85
    want = (batch[0][0], edits(align(*batch[0])))
    passes = []
    real_lanes, real_align = scoring._align_lanes, scoring._align

    def counting_lanes(pass_pairs, hits):
        passes.append(len(pass_pairs))
        assert lane_bits(pass_pairs) <= scoring._LANE_BITS
        return real_lanes(pass_pairs, hits)

    def counting_align(ref, hyp, hits):
        passes.append("align")
        return real_align(ref, hyp, hits)

    monkeypatch.setattr(scoring, "_align_lanes", counting_lanes)
    monkeypatch.setattr(scoring, "_align", counting_align)
    assert list(scoring._edits(batch, "char", False)) == [want] * 85
    assert passes == [42, 42, 1, "align"]


def test_char_alignments_read_at_most_one_pass_ahead():
    # 60 characters take a 64-bit lane, so a pass holds _LANE_BITS // 64
    # pairs; the pair that did not fit is the only one read beyond it
    drawn = 0

    def endless():
        nonlocal drawn
        while True:
            drawn += 1
            yield "abc" * 20, "abd" * 20

    stream = scoring._edits(endless(), "char", False)
    first = next(stream)
    assert first == ("abc" * 20, edits(align("abc" * 20, "abd" * 20)))
    assert drawn == scoring._LANE_BITS // 64 + 1


def column_step(batch):
    """(lane bits, lane bits x longest hypothesis, sum of lane bits x own
    hypothesis) of one pass."""
    bits = lane_bits(batch)
    alone = sum(8 * (len(ref) // 8 + 1) * len(hyp) for ref, hyp in batch)
    return bits, bits * max(len(hyp) for _, hyp in batch), alone


def within_bounds(batch):
    bits, step, alone = column_step(batch)
    return bits <= scoring._LANE_BITS and step <= 2 * alone


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(lengths(600), st.one_of(st.integers(0, 20), st.integers(0, 3000))),
                max_size=80))
def test_passes_keep_order_and_both_bounds(sizes):
    # skewed hypothesis lengths: mostly short, some up to 150x longer
    pairs = [(("abc" * m)[:m], ("abd" * n)[:n]) for m, n in sizes]
    passes = list(scoring._passes(iter(pairs)))
    assert [pair for batch in passes for pair in batch] == pairs
    for batch in passes:
        assert batch and (len(batch) == 1 or within_bounds(batch))
    # a pass closes only where the next pair would break a bound
    for batch, after in zip(passes, passes[1:]):
        assert not within_bounds(batch + after[:1])
    if sum(n for _, n in sizes) <= 6000:
        assert list(scoring._edits(pairs, "char", False)) == [
            (ref, edits(align(ref, hyp))) for ref, hyp in pairs]


def test_one_long_hypothesis_is_a_pass_of_its_own(monkeypatch):
    # 40 short pairs and one 20,000-character hypothesis: packing the long
    # one with the others would step all 41 lanes through its columns
    batch = [("the cat sat", "the hat sat")] * 40 + [("abc", "x" * 20_000)]
    passes = []
    real_lanes = scoring._align_lanes

    def counting_lanes(pass_pairs, hits):
        passes.append(len(pass_pairs))
        return real_lanes(pass_pairs, hits)

    monkeypatch.setattr(scoring, "_align_lanes", counting_lanes)
    assert list(scoring._edits(batch, "char", False)) == [
        (ref, edits(align(ref, hyp))) for ref, hyp in batch]
    assert passes == [40, 1]
    monkeypatch.undo()

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def alone():
        for ref, hyp in batch:
            align(ref, hyp).counts()

    alone_peak = peak(alone)
    assert peak(lambda: score(batch, unit="char")) <= 1.25 * alone_peak
    report = score(batch, unit="char")
    assert (report.substitutions, report.insertions, report.deletions) == (43, 19997, 0)
    assert f"{report.error_rate:.3f}" == "45.237"


@st.composite
def text_batches(draw):
    """A few (ref, hyp) texts of at most 40 tokens from one alphabet, Latin
    or Arabic with harakat, both with spaces so word units differ."""
    alphabet = draw(st.sampled_from(["abcdefghij ", ARABIC + " "]))
    tokens = st.lists(st.sampled_from(alphabet), max_size=40)
    batch = []
    for _ in range(draw(st.integers(1, 6))):
        ref = draw(tokens)
        hyp = draw(st.one_of(tokens, edited(ref, alphabet)))
        batch.append(("".join(ref), "".join(hyp)))
    return batch


def oracle_ops(batch, unit, arabic_normalization):
    """Every op, hits included, of the cost-table DP's script of each pair,
    on the tokens `score` and `build_confusion` align."""
    for ref, hyp in batch:
        ref, hyp = chars(ref, arabic_normalization), chars(hyp, arabic_normalization)
        if unit == "word":
            ref, hyp = ref.split(), hyp.split()
        yield from oracle_align(ref, hyp).ops


def oracle_matrix(batch, arabic_normalization, smoothing=0.5):
    """(symbols, probabilities) counted from every oracle op, hits included,
    and normalized as `build_confusion` documents."""
    counts = Counter((r or "", h or "") for _, r, h in oracle_ops(batch, "char",
                                                                   arabic_normalization))
    symbols = ("",) + tuple(sorted({c for pair in counts for c in pair} - {""}))
    index = {s: i for i, s in enumerate(symbols)}
    matrix = np.zeros((len(symbols), len(symbols)))
    for (a, b), c in counts.items():
        matrix[index[a], index[b]] = c
    matrix += smoothing
    return symbols, matrix / matrix.sum(axis=1, keepdims=True)


# x is substituted once and deleted twice, never a hit
NEVER_A_HIT = [("axb", "ayb"), ("xc", "c"), ("ax", "a")]
# z is only ever inserted, so it has no reference count to derive hits from
ONLY_INSERTED = [("ab", "azb"), ("", "z")]
EMPTY_SIDES = [("", ""), ("", "ab"), ("ab", ""), ("a b", "a b")]


EXPLICIT = [
    (NEVER_A_HIT, False),
    (ONLY_INSERTED, False),
    (NEVER_A_HIT + ONLY_INSERTED, True),
    (EMPTY_SIDES, False),
    ([("", ""), ("", "xy")], False),
    ([("كُتُب", "كتب"), ("كتب كُتُب", "كتب")], False),
    ([("كُتُب", "كتب"), ("كتب كُتُب", "كتب")], True),
]


def derived_hit_cases(test):
    """Run `test(batch, arabic_normalization)` on drawn batches and on EXPLICIT."""
    for batch, arabic_normalization in EXPLICIT:
        test = example(batch, arabic_normalization)(test)
    return settings(max_examples=150, deadline=None)(given(text_batches(), st.booleans())(test))


# score and build_confusion record only the edits; the hits they derive
# from the references must be the oracle's hit ops


@derived_hit_cases
def test_confusion_counts_match_the_oracle(batch, arabic_normalization):
    symbols, probabilities = oracle_matrix(batch, arabic_normalization)
    matrix = build_confusion(batch, arabic_normalization=arabic_normalization)
    assert matrix.symbols == symbols
    assert np.array_equal(matrix.probabilities, probabilities)


@derived_hit_cases
def test_score_counts_match_the_oracle(batch, arabic_normalization):
    for unit in ("word", "char"):
        kinds = Counter(kind for kind, _, _ in oracle_ops(batch, unit, arabic_normalization))
        want = (kinds[SUBSTITUTE], kinds[INSERT], kinds[DELETE], kinds[HIT])
        if not kinds[HIT] + kinds[SUBSTITUTE] + kinds[DELETE]:
            with pytest.raises(ValueError, match="every reference is empty"):
                score(batch, unit, arabic_normalization)
            continue
        report = score(batch, unit, arabic_normalization)
        assert (report.substitutions, report.insertions, report.deletions, report.hits) == want
        assert report.ref_length == sum(want) - report.insertions
