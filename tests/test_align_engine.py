"""The bit-parallel `align`, and `_align_lanes`, which runs many pairs in
one column step, against the cost-table DP they replaced.

All must give the same edit script, tie-breaks included, and the same
distance, for characters and word tokens, empty sides, Arabic with
harakat, and reference lengths on either side of the 64- and 128-bit
word boundaries of the column vectors.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dysaug import scoring
from dysaug.scoring import align, normalize_arabic

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
    got = scoring._align_lanes(tokens)
    assert got == [align(ref, hyp) for ref, hyp in tokens]
    assert [a for _, a in scoring._alignments(batch, "char", arabic_normalization)] == got
    for (ref, hyp), alignment in dict(zip(tokens, got)).items():
        want = oracle_align(ref, hyp)
        assert alignment.ops == want.ops
        assert alignment.distance == want.distance


def test_a_batch_wider_than_lane_bits_runs_in_passes(monkeypatch):
    # 90 characters take a 96-bit lane, so a pass holds 42 pairs and the
    # 85th pair is a pass of its own, which `align` takes
    batch = [("abc" * 30, "abd" * 31)] * 85
    want = align(*batch[0])
    passes = []
    real_pass, real_align = scoring._align_pass, scoring.align

    def counting_pass(pass_pairs):
        passes.append(len(pass_pairs))
        assert lane_bits(pass_pairs) <= scoring._LANE_BITS
        return real_pass(pass_pairs)

    def counting_align(ref, hyp):
        passes.append(1)
        return real_align(ref, hyp)

    monkeypatch.setattr(scoring, "_align_pass", counting_pass)
    monkeypatch.setattr(scoring, "align", counting_align)
    assert scoring._align_lanes(batch) == [want] * 85
    assert passes == [42, 42, 1]


def test_char_alignments_read_at_most_one_pass_ahead():
    # 60 characters take a 64-bit lane, so a pass holds _LANE_BITS // 64
    # pairs; the pair that did not fit is the only one read beyond it
    drawn = 0

    def endless():
        nonlocal drawn
        while True:
            drawn += 1
            yield "abc" * 20, "abd" * 20

    stream = scoring._alignments(endless(), "char", False)
    ref, first = next(stream)
    assert first == align("abc" * 20, "abd" * 20)
    assert drawn == scoring._LANE_BITS // 64 + 1
