"""The bit-parallel `align` against the cost-table DP it replaced.

Both must give the same edit script, tie-breaks included, and the same
distance, for characters and word tokens, empty sides, Arabic with
harakat, and reference lengths on either side of the 64- and 128-bit
word boundaries of the column vectors.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dysaug.scoring import align

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
