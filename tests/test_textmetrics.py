import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from persuasionkit.textmetrics import (
    _lcs_len,
    bleu4,
    rouge_l,
    score_caption_pairs,
    tokenize,
)

from oracles import brute_lcs, reference_bleu4, reference_lcs_len


def test_tokenize():
    assert tokenize("The cat SAT.") == ["the", "cat", "sat", "."]
    assert tokenize("don't!") == ["don", "'", "t", "!"]
    assert tokenize("Ça VA, naïve?") == ["ça", "va", ",", "naïve", "?"]
    assert tokenize("") == []
    assert tokenize("  \n\t ") == []
    # deterministic and free of empty tokens
    toks = tokenize("a--b  c!!d")
    assert toks == tokenize("a--b  c!!d")
    assert all(toks)


def test_rouge_l_worked_example():
    s = rouge_l(tokenize("the cat sat"), tokenize("the cat was sat"))
    assert s.precision == pytest.approx(1.0, abs=1e-6)
    assert s.recall == pytest.approx(0.75, abs=1e-6)
    assert s.f1 == pytest.approx(0.857143, abs=1e-6)


def test_rouge_l_identity_disjoint_empty():
    toks = tokenize("a small example caption")
    s = rouge_l(toks, toks)
    assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)
    s = rouge_l(["x", "y"], ["a", "b"])
    assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)
    s = rouge_l([], ["a"])
    assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="reference"):
        rouge_l(["a"], [])


def test_lcs_against_full_table_oracle():
    rng = random.Random(31)
    alphabet = list("abcde")
    for _ in range(300):
        a = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
        b = [rng.choice(alphabet) for _ in range(rng.randint(1, 12))]
        lcs = brute_lcs(a, b)
        s = rouge_l(a, b)
        if a:
            assert s.precision == pytest.approx(lcs / len(a) if lcs else 0.0, abs=1e-12)
            assert s.recall == pytest.approx(lcs / len(b) if lcs else 0.0, abs=1e-12)


def test_bleu_worked_example():
    # two orders present and perfect, orders 3-4 skipped, BP = e^(1-4/2)
    got = bleu4(tokenize("a b"), [tokenize("a b c d")])
    assert got == pytest.approx(0.367879, abs=1e-6)
    assert got == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_bleu_identity_and_edges():
    toks = tokenize("the quick brown fox jumps")
    assert bleu4(toks, [toks]) == pytest.approx(1.0, abs=1e-12)
    assert bleu4([], [toks]) == 0.0
    assert bleu4(["zz"], [toks]) == 0.0  # no unigram overlap
    with pytest.raises(ValueError, match="reference"):
        bleu4(toks, [])
    with pytest.raises(ValueError, match="reference"):
        bleu4(toks, [[]])


def test_bleu_clipping():
    # candidate repeats "the" 4x; reference has it twice -> p1 = 2/4
    cand = ["the", "the", "the", "the"]
    ref = ["the", "cat", "the", "mat"]
    got = bleu4(cand, [ref])
    # p2 ("the the") = 0 -> whole score 0 because order 2 is present
    assert got == 0.0
    got1 = bleu4(["the", "the"], [ref])
    # p1 = 2/2 (clip to 2), p2 ("the the") = 0 -> 0
    assert got1 == 0.0
    got_uni = bleu4(["the"], [ref])  # only order 1 in play
    assert got_uni == pytest.approx(math.exp(1 - 4 / 1), abs=1e-9)


def test_bleu_multiple_references_and_order_invariance():
    cand = tokenize("the cat sat on the mat")
    r1 = tokenize("the cat sat on a mat")
    r2 = tokenize("a feline rested on the mat today")
    assert bleu4(cand, [r1, r2]) == pytest.approx(bleu4(cand, [r2, r1]), abs=1e-15)
    # an extra reference can only help the clipped counts
    assert bleu4(cand, [r1, r2]) >= bleu4(cand, [r1]) - 1e-15


def test_brevity_penalty_closest_reference():
    cand = ["a", "b"]
    # lengths 2 and 4: tie-free, closest is 2 -> no penalty
    refs = [["a", "b"], ["a", "b", "c", "d"]]
    assert bleu4(cand, refs) == pytest.approx(1.0, abs=1e-12)
    # closest length 3 -> BP = exp(1 - 3/2)
    refs = [["a", "b", "x"], ["a", "b", "c", "d", "e"]]
    assert bleu4(cand, refs) == pytest.approx(math.exp(1 - 3 / 2), abs=1e-9)


def test_growing_reference_prefix_never_decreases_scores():
    rng = random.Random(17)
    alphabet = list("abcdefg")
    for _ in range(50):
        ref = [rng.choice(alphabet) for _ in range(rng.randint(2, 10))]
        prev_f = prev_b = -1.0
        for k in range(1, len(ref) + 1):
            cand = ref[:k]
            f = rouge_l(cand, ref).f1
            b = bleu4(cand, [ref])
            assert f >= prev_f - 1e-12
            assert b >= prev_b - 1e-12
            prev_f, prev_b = f, b


@given(
    st.lists(st.sampled_from("abc"), max_size=12),
    st.lists(st.sampled_from("abc"), min_size=1, max_size=12),
)
def test_scores_bounded(cand, ref):
    s = rouge_l(cand, ref)
    for v in (s.precision, s.recall, s.f1):
        assert 0.0 <= v <= 1.0
    assert 0.0 <= bleu4(cand, [ref]) <= 1.0


def test_score_caption_pairs():
    rep = score_caption_pairs(
        ["the cat sat", "a b"],
        ["the cat was sat", "a b c d"],
    )
    assert rep.n_pairs == 2
    # pair 1: LCS 3 -> F1 6/7; pair 2: LCS 2 -> P=1, R=1/2, F1 2/3
    assert rep.rouge_l_f1 == pytest.approx((6 / 7 + 2 / 3) / 2, abs=1e-9)
    # pair 1 BLEU is 0 (trigram order present but unmatched); pair 2 is e^-1
    assert rep.bleu_4 == pytest.approx((0.0 + math.exp(-1.0)) / 2, abs=1e-9)


def test_score_caption_pairs_values():
    rep = score_caption_pairs(["the cat sat"], ["the cat was sat"])
    assert rep.rouge_l_precision == pytest.approx(1.0, abs=1e-9)
    assert rep.rouge_l_recall == pytest.approx(0.75, abs=1e-9)
    assert rep.bleu_4 == pytest.approx(bleu4(tokenize("the cat sat"), [tokenize("the cat was sat")]), abs=1e-12)


def test_score_caption_pairs_errors():
    with pytest.raises(ValueError, match="counts differ"):
        score_caption_pairs(["a"], ["a", "b"])
    with pytest.raises(ValueError, match="no caption pairs"):
        score_caption_pairs([], [])
    with pytest.raises(ValueError, match="pair 1"):
        score_caption_pairs(["a", "b"], ["a", "   "])


# -- the fast kernels return exactly what the quadratic references return -------

@st.composite
def token_pairs(draw):
    """Two token lists of 0-300 tokens over 1-6 symbols.

    Lengths are drawn first so the bit masks often cross the 64- and
    128-bit boundaries; the second list is either independent or an
    edited copy of the first, which keeps the LCS long.
    """
    symbols = st.sampled_from("abcdef"[: draw(st.integers(1, 6))])
    a = draw(st.lists(symbols, min_size=(n := draw(st.integers(0, 300))), max_size=n))
    if draw(st.booleans()):
        b = draw(st.lists(symbols, min_size=(m := draw(st.integers(0, 300))), max_size=m))
    else:
        keep = draw(st.lists(st.booleans(), min_size=len(a), max_size=len(a)))
        b = [x for x, k in zip(a, keep) if k] + draw(st.lists(symbols, max_size=80))
    return a, b


@settings(max_examples=80)
@given(token_pairs())
def test_lcs_len_equals_reference(pair):
    a, b = pair
    want = reference_lcs_len(a, b)
    assert _lcs_len(a, b) == want
    assert _lcs_len(b, a) == want


@settings(max_examples=40)
@given(token_pairs())
def test_lcs_len_equals_full_table(pair):
    a, b = pair
    assert _lcs_len(a, b) == brute_lcs(a, b)


@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129, 300])
def test_lcs_len_at_word_boundaries(n):
    rng = random.Random(n)
    a = [rng.choice("ab") for _ in range(n)]
    for b in (a, a[::-1], ["a"] * n, [rng.choice("abc") for _ in range(n + 1)]):
        assert _lcs_len(a, b) == _lcs_len(b, a) == reference_lcs_len(a, b)


@st.composite
def bleu_cases(draw):
    """A candidate and 1-3 references of 0-20 tokens, some empty or
    shorter than the highest order."""
    tokens = st.lists(st.sampled_from("abcde"[: draw(st.integers(1, 5))]), max_size=20)
    cand = draw(tokens)
    refs = draw(st.lists(tokens, min_size=1, max_size=3))
    return cand, refs, draw(st.integers(1, 4))


@settings(max_examples=200)
@given(bleu_cases())
def test_bleu4_equals_reference(case):
    cand, refs, max_order = case
    try:
        want = reference_bleu4(cand, refs, max_order)
    except ValueError:
        with pytest.raises(ValueError, match="reference"):
            bleu4(cand, refs, max_order)
        return
    assert bleu4(cand, refs, max_order) == want
