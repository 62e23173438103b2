import hashlib
import json
import logging
import os
import random
import signal
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse
from scipy.special import expit

from persuasionkit import baseline
from persuasionkit.baseline import (
    MODE_TEXT,
    MODE_TEXT_CAPTION,
    THRESHOLD_GRID,
    FeatureConfig,
    HierModel,
    TrainConfig,
    featurize,
    load_model,
    loss_and_grad,
    predict,
    predict_corpus,
    save_model,
    train,
    tune_thresholds,
)
from persuasionkit.corpus import MemeInstance
from persuasionkit.hierarchy import parse_hierarchy
from persuasionkit.metrics import hierarchical_score

from oracles import (
    dense_descent,
    design_matrix,
    fd_gradient,
    reference_featurize,
    reference_gradient,
    reference_instance_scores,
    reference_save_model,
    reference_scores,
    reference_tune_thresholds,
)

H = parse_hierarchy(
    "persuasion\nEthos\tpersuasion\nPathos\tpersuasion\nNameCalling\tEthos\n"
)
_SUBTASK2A = os.path.join(
    os.path.dirname(__file__), "..", "data", "hierarchies", "subtask2a_techniques.txt"
)
with open(_SUBTASK2A, encoding="utf-8") as _fh:
    SUBTASK2A = parse_hierarchy(_fh.read())


def doc(iid, text, gold=(), caption=None):
    return MemeInstance(
        id=iid, text=text, image=None, gold=frozenset(gold),
        caption=caption, caption_source="manual" if caption else None,
    )


# -- features ----------------------------------------------------------------

def test_featurize_deterministic_and_normalized():
    cfg = FeatureConfig(dimension=2**12)
    v1 = featurize("Hello, world! Hello again.", None, cfg)
    v2 = featurize("Hello, world! Hello again.", None, cfg)
    assert v1 == v2
    assert sum(x * x for x in v1.values()) == pytest.approx(1.0, abs=1e-12)


def test_featurize_empty_input_is_zero_vector():
    cfg = FeatureConfig(dimension=2**12)
    assert featurize("", None, cfg) == {}


def test_caption_namespace_differs_from_concatenation():
    dim = 2**12
    with_ns = featurize(
        "hello world", "nice cat", FeatureConfig(dimension=dim, mode=MODE_TEXT_CAPTION)
    )
    concat = featurize("hello world nice cat", None, FeatureConfig(dimension=dim))
    assert with_ns != concat


def test_missing_caption_degrades_to_text_only():
    dim = 2**12
    degraded = featurize("some text", None, FeatureConfig(dimension=dim, mode=MODE_TEXT_CAPTION))
    text_only = featurize("some text", None, FeatureConfig(dimension=dim))
    assert degraded == text_only


def test_hash_memo_is_keyed_on_dimension(monkeypatch):
    # One n-gram hashed at two dimensions must not share a memo entry: the
    # memoised results at 2^8, 2^16 and again 2^8 equal uncached ones.
    monkeypatch.setattr(baseline, "_hash_memos", {})
    text = "Memo keys: one n-gram, two dimensions, then the first again."
    dims = (2**8, 2**16, 2**8)
    cached = [featurize(text, None, FeatureConfig(dimension=d)) for d in dims]
    for feature in ("w1:memo", "c3:mem", "w2:two dimensions"):
        v = int.from_bytes(
            hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest(), "little"
        )
        tag, gram = feature.split(":", 1)
        for d in dims:
            want = (v % d, 1.0 if v >> 63 else -1.0)
            assert baseline._hash_feature(feature, d) == want
            assert baseline._hash_memos[d, tag + ":"][gram] == want
    assert sorted({d for d, _ in baseline._hash_memos}) == [2**8, 2**16]
    assert cached == [reference_featurize(text, None, FeatureConfig(dimension=d))
                      for d in dims]


def test_hash_memo_is_bounded(monkeypatch):
    # A memo that fills up is cleared, so none holds more than
    # _HASH_MEMO_SIZE entries, and the features do not change.
    monkeypatch.setattr(baseline, "_hash_memos", {})
    monkeypatch.setattr(baseline, "_HASH_MEMO_SIZE", 5)
    cfg = FeatureConfig(dimension=2**10, mode=MODE_TEXT_CAPTION)
    texts = ["the quick brown fox jumps over the lazy dog", "a naïve café, twice: café",
             "the quick brown fox", ""]
    for text in texts + texts[::-1]:
        got = featurize(text, text[::-1], cfg)
        assert list(got.items()) == list(reference_featurize(text, text[::-1], cfg).items())
        assert all(0 < len(m) <= 5 for m in baseline._hash_memos.values())


def test_cancelled_buckets_are_dropped():
    cfg = FeatureConfig(dimension=4)
    assert featurize("dog calm", None, cfg) == {}
    assert featurize("duty naive", None, cfg) == {1: 1.0}  # three of four buckets cancel
    assert featurize("sun", "buy", FeatureConfig(dimension=4, mode=MODE_TEXT_CAPTION)) == {}


@settings(max_examples=150, deadline=None)
@given(
    text=st.text(max_size=60),
    caption=st.none() | st.text(max_size=40),
    mode=st.sampled_from((MODE_TEXT, MODE_TEXT_CAPTION)),
    log_dim=st.integers(2, 12),
)
# At 2^2 every bucket of "dog calm", and of "sun" with the caption "buy",
# cancels; "duty naive" keeps one bucket of four.
@example(text="dog calm", caption=None, mode=MODE_TEXT, log_dim=2)
@example(text="sun", caption="buy", mode=MODE_TEXT_CAPTION, log_dim=2)
@example(text="duty naive", caption=None, mode=MODE_TEXT, log_dim=2)
def test_featurize_equals_reference(text, caption, mode, log_dim):
    cfg = FeatureConfig(dimension=2**log_dim, mode=mode)
    got = featurize(text, caption, cfg)
    want = reference_featurize(text, caption, cfg)
    # The same dict: keys, values and key order.
    assert list(got.items()) == list(want.items())


def test_feature_config_validation():
    with pytest.raises(ValueError, match="power of two"):
        FeatureConfig(dimension=1000)
    with pytest.raises(ValueError, match="mode"):
        FeatureConfig(mode="caption-only")
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=0)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(learning_rate=bad)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="l2"):
            TrainConfig(l2=bad)
    TrainConfig(learning_rate=1e300, l2=0.0)


# -- objective ---------------------------------------------------------------

def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n, d = 7, 5
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(np.float64)
        w0 = rng.normal(scale=0.5, size=d)
        b0 = rng.normal(scale=0.5)
        l2 = 1e-3
        _, gw, gb = loss_and_grad(X, y, w0, b0, l2)

        packed = np.concatenate([w0, [b0]])
        num = fd_gradient(
            lambda v: loss_and_grad(X, y, v[:-1], float(v[-1]), l2)[0], packed
        )
        got = np.concatenate([gw, [gb]])
        denom = max(1.0, float(np.linalg.norm(num)))
        assert np.linalg.norm(got - num) / denom < 1e-5


@st.composite
def _gradient_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d, k = draw(st.integers(1, 40)), draw(st.integers(1, 10)), draw(st.integers(1, 5))
    X = rng.normal(size=(n, d))
    X[rng.random((n, d)) < draw(st.sampled_from((0.0, 0.5, 0.9)))] = 0.0
    # Empty rows, as a document with no feature gives.
    X[rng.random(n) < draw(st.sampled_from((0.0, 0.3, 1.0)))] = 0.0
    Y = rng.integers(0, 2, size=(n, k)).astype(np.float64)
    W = rng.normal(scale=draw(st.sampled_from((0.1, 1.0, 5.0))), size=(d, k))
    B = rng.normal(size=k)
    return sparse.csr_array(X), Y, W, B, draw(st.sampled_from((0.0, 1e-4, 0.1)))


@settings(max_examples=100, deadline=None)
@given(_gradient_cases())
def test_loss_and_grad_is_a_column_of_the_trainer_gradient(case):
    X, Y, W, B, l2 = case
    gW, gB = baseline._gradient(X, Y, W, B, l2)
    for j in range(Y.shape[1]):
        _, gw, gb = loss_and_grad(X, Y[:, j], W[:, j], B[j], l2)
        assert np.array_equal(gw, gW[:, j])
        assert gb == gB[j]


@st.composite
def _forward_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d, k = draw(st.integers(1, 30)), draw(st.integers(1, 40)), draw(st.sampled_from((1, 2, 6)))
    X = rng.normal(size=(n, d))
    X[rng.random((n, d)) < draw(st.sampled_from((0.0, 0.5, 0.95)))] = 0.0
    # Empty rows, as a document with no feature gives, and empty columns.
    X[rng.random(n) < draw(st.sampled_from((0.0, 0.3, 1.0)))] = 0.0
    X[:, rng.random(d) < draw(st.sampled_from((0.0, 0.3, 1.0)))] = 0.0
    Y = rng.integers(0, 2, size=(n, k)).astype(np.float64)
    W = rng.normal(scale=draw(st.sampled_from((0.1, 1.0, 50.0))), size=(d, k))
    # Signed zeros: x * -0.0 terms must leave each sum as the CSR product does.
    W[rng.random((d, k)) < 0.2] = 0.0
    W[rng.random((d, k)) < 0.2] = -0.0
    B = rng.normal(size=k)
    return sparse.csr_array(X), Y, W, B, draw(st.sampled_from((0.0, 1e-4, 0.1)))


@settings(max_examples=150, deadline=None)
@given(_forward_cases())
def test_gradient_through_the_column_major_copy_is_bit_identical(case):
    # train descends over a CSC copy alone, forward and backward; the
    # gradient must be the row-major one bit for bit, signed zeros included.
    X, Y, W, B, l2 = case
    E = (expit(X @ W + B) - Y) / X.shape[0]
    want = (X.T @ E + l2 * W, np.cumsum(E, axis=0)[-1])
    for matrix in (X.tocsc(), X):
        for a, b in zip(baseline._gradient(matrix, Y, W, B, l2), want):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("k", [1, 2, 6])
def test_descent_arithmetic_equals_the_plain_python_reference(k):
    # A canary for the libraries under descent: a numpy or scipy that
    # reorders one of descent's sums fails here, naming the sum, before
    # it fails a pinned sha256.  Terms spanning six decades make the
    # order show: reversing the instances or the columns must change the
    # reference's bits in most draws, or this test could not fail.
    rng = np.random.default_rng(k)
    draws, sensitive = 40, 0
    for _ in range(draws):
        n, d = int(rng.integers(1, 40)), int(rng.integers(1, 30))
        X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, d))
        X[rng.random((n, d)) < 0.5] = 0.0
        Y = rng.integers(0, 2, size=(n, k)).astype(np.float64)
        W = rng.normal(scale=rng.choice((0.1, 1.0, 5.0)), size=(d, k))
        B = rng.normal(size=k)
        l2 = float(rng.choice((0.0, 1e-4, 0.1)))
        Xs = sparse.csr_array(X)
        want = reference_gradient(Xs, Y, W, B, l2)
        for matrix in (Xs.tocsc(), Xs):
            # The forward product as _gradient takes it, then its result.
            got = (matrix @ W, *baseline._gradient(matrix, Y, W, B, l2))
            differ = [name for name, a, b in zip(("forward", "backward", "bias"), got, want)
                      if not np.array_equal(_bits(a), _bits(b))]
            assert not differ, (f"descent's {', '.join(differ)} sum differs from the "
                                f"plain-Python reference ({matrix.format})")
        by_instance = reference_gradient(sparse.csr_array(X[::-1]), Y[::-1], W, B, l2)
        by_column = reference_gradient(sparse.csr_array(X[:, ::-1]), Y, W[::-1], B, l2)
        sensitive += not (np.array_equal(_bits(by_instance[1]), _bits(want[1]))
                          and np.array_equal(_bits(by_instance[2]), _bits(want[2]))
                          and np.array_equal(_bits(by_column[0]), _bits(want[0])))
    assert sensitive >= draws // 2


_SIGMOID_EXTREMES = [0.0, -0.0, 709.78, -709.78, 745.0, -745.0,
                     float("inf"), -float("inf"), float("nan")]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.floats(-800.0, 800.0)), min_size=1, max_size=40))
@example(_SIGMOID_EXTREMES)
def test_sigmoid_is_scipy_expit_bit_for_bit(xs):
    # Scores go through the C library's exp, as expit's do; a platform
    # whose libm rounds differently fails here.
    got = np.array([baseline._sigmoid(x) for x in xs])
    assert np.array_equal(got.view(np.int64), expit(np.array(xs)).view(np.int64))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 12).flatmap(lambda k: st.tuples(
    st.just(2**k), st.sets(st.integers(0, 2**k - 1)),
    st.lists(st.integers(0, 2**k - 1), max_size=3 * 2**k))))
def test_positions_by_map_and_by_search_agree(case):
    # With no map allowance, a dimension above the index count takes the
    # binary search; with the default one, every dimension here is mapped.
    dimension, rows, indices = case
    rows = np.array(sorted(rows), dtype=np.int64)
    want = [int(np.searchsorted(rows, i)) if i in rows else -1 for i in indices]
    for entries in (0, baseline._MAP_ENTRIES):
        with mock.patch.object(baseline, "_MAP_ENTRIES", entries):
            got_rows, got = baseline._renumber(
                np.array(indices, dtype=np.int64), dimension, rows, np.int32)
        assert got_rows is rows
        assert got.dtype == np.int32 and got.tolist() == want


@settings(max_examples=60, deadline=None)
@given(_forward_cases(), st.sampled_from((0, 1, 2**20)))
def test_renumbering_keeps_every_used_column(case, entries):
    X = case[0]
    with mock.patch.object(baseline, "_MAP_ENTRIES", entries), \
            mock.patch.object(baseline, "_INDEX_CHUNK", 7):
        used, pos = baseline._renumber(X.indices, X.shape[1], dtype=np.int32)
    assert used.dtype == np.int64 and used.tolist() == sorted(set(X.indices.tolist()))
    assert pos.dtype == np.int32 and np.array_equal(used[pos], X.indices)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(st.text(max_size=3), st.text(max_size=30)), max_size=12),
       st.sampled_from((2**4, 2**10, 2**24, 2**31, 2**40)), st.booleans())
def test_design_rows_are_featurize_renumbered_and_sorted(texts, dimension, restrict):
    # Row i holds featurize's buckets that are among the rows, ascending,
    # with featurize's values.  Rows are sorted in pieces of at most 5
    # non-zeros and 5 rows: short and empty documents share a piece, a
    # longer one is a piece on its own, and cuts fall at any row, not only
    # at the edges of a scoring block.  Buckets are collected in 4 bytes up
    # to 2**31 and in 8 above it.
    cfg = FeatureConfig(dimension=dimension)
    vecs = [featurize(t, None, cfg) for t in texts]
    used = sorted(set().union(*vecs))
    rows = np.array(used[::2], dtype=np.int64) if restrict else None
    with mock.patch.object(baseline, "_INDEX_CHUNK", 5):
        got_rows, data, pos, indptr = baseline._design(
            [doc(f"d{i}", t) for i, t in enumerate(texts)], cfg, rows)
    assert got_rows.tolist() == (used[::2] if restrict else used)
    assert pos.dtype == indptr.dtype == np.int32 and indptr.size == len(texts) + 1
    for i, vec in enumerate(vecs):
        lo, hi = indptr[i], indptr[i + 1]
        assert [(int(got_rows[p]), x) for p, x in zip(pos[lo:hi], data[lo:hi].tolist())] \
            == sorted((b, x) for b, x in vec.items() if b in set(got_rows.tolist()))


def test_loss_agrees_between_sparse_and_dense():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(6, 4))
    X[X < 0.3] = 0.0
    y = rng.integers(0, 2, size=6).astype(np.float64)
    w = rng.normal(size=4)
    ld, gwd, gbd = loss_and_grad(X, y, w, 0.1, 1e-4)
    ls, gws, gbs = loss_and_grad(sparse.csr_array(X), y, w, 0.1, 1e-4)
    assert ls == pytest.approx(ld, abs=1e-12)
    assert np.allclose(gws, gwd, atol=1e-12)
    assert gbs == pytest.approx(gbd, abs=1e-12)


# -- training ----------------------------------------------------------------

MEMORIZE = [
    doc("d1", "buy buy buy bargain bargain", {"NameCalling"}),
    doc("d2", "fear fear dread dread panic", {"Pathos"}),
    doc("d3", "trust trust honor honor duty", {"Ethos"}),
    doc("d4", "calm calm plain plain prose", ()),
]


def test_memorizes_tiny_corpus():
    model = train(MEMORIZE, H, FeatureConfig(dimension=2**10),
                  TrainConfig(epochs=500), seed=1)
    assert model.labels == ("Ethos", "NameCalling", "Pathos")
    preds = predict_corpus(model, H, MEMORIZE)
    assert preds["d1"] == frozenset({"NameCalling", "Ethos"})
    assert preds["d2"] == frozenset({"Pathos"})
    assert preds["d3"] == frozenset({"Ethos"})
    assert preds["d4"] == frozenset()
    for p in preds.values():
        assert H.is_consistent(p)


def test_training_requires_gold():
    bad = [doc("d1", "x", {"Ethos"}), MemeInstance(id="d2", text="y", image=None)]
    with pytest.raises(ValueError, match="d2"):
        train(bad, H)
    with pytest.raises(ValueError, match="empty"):
        train([], H)


def test_zero_positive_label_is_always_negative(caplog):
    corpus = [
        doc("d1", "buy buy bargain", {"NameCalling"}),
        doc("d2", "trust honor duty", {"Ethos"}),
    ]
    with caplog.at_level(logging.WARNING):
        model = train(corpus, H, FeatureConfig(dimension=2**10))
    assert "Pathos" in caplog.text and "no positive examples" in caplog.text
    # even a doc made of fear words cannot trip the untrained head
    out = predict(model, H, doc("q", "fear dread panic"))
    assert "Pathos" not in out


def test_same_seed_same_bytes():
    a = train(MEMORIZE, H, FeatureConfig(dimension=2**10), seed=5)
    b = train(MEMORIZE, H, FeatureConfig(dimension=2**10), seed=5)
    assert save_model(a) == save_model(b)


WORDS = ("buy", "fear", "trust", "duty", "calm", "a", "of", "naïve")


@st.composite
def _training_cases(draw):
    mode = draw(st.sampled_from((MODE_TEXT, MODE_TEXT_CAPTION)))
    blank = draw(st.booleans())  # every document empty: no column is used
    text = st.just("") if blank else st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join)
    caption = st.none() if blank else st.none() | text
    gold = st.frozensets(st.sampled_from(sorted(H.non_root_labels())), max_size=2)
    corpus = [
        doc(f"d{i}", draw(text), draw(gold), caption=draw(caption))
        for i in range(draw(st.integers(1, 8)))
    ]
    fcfg = FeatureConfig(dimension=2 ** draw(st.integers(6, 12)), mode=mode)
    tcfg = TrainConfig(
        epochs=draw(st.integers(1, 40)),
        learning_rate=draw(st.sampled_from((0.1, 0.5, 2.0))),
        l2=draw(st.sampled_from((0.0, 1e-4, 0.1))),
    )
    return corpus, fcfg, tcfg


@settings(max_examples=80, deadline=None)
@given(_training_cases())
def test_training_matches_dense_reference_bit_for_bit(case):
    corpus, fcfg, tcfg = case
    model = train(corpus, H, fcfg, tcfg)
    Y = np.array([[lab in H.extend(d.gold) for lab in model.labels] for d in corpus],
                 dtype=np.float64)
    W, B = dense_descent(design_matrix(corpus, fcfg), Y,
                         tcfg.epochs, tcfg.learning_rate, tcfg.l2)
    assert np.array_equal(model.weights, W)
    assert np.array_equal(model.bias, B)


@st.composite
def _wide_training_cases(draw):
    h = draw(st.sampled_from((H, SUBTASK2A)))
    text = st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join)
    labels = sorted(h.non_root_labels())
    one_head = draw(st.booleans())
    if one_head:
        # Exactly one trainable head: a label with no ancestor but the root.
        labels = [draw(st.sampled_from([lab for lab in labels if h.extend({lab}) == {lab}]))]
    gold = st.frozensets(st.sampled_from(labels), max_size=3)
    corpus = [doc(f"d{i}", draw(text), labels if one_head and i == 0 else draw(gold))
              for i in range(draw(st.integers(1, 40)))]
    tcfg = TrainConfig(
        epochs=draw(st.integers(1, 30)),
        learning_rate=draw(st.sampled_from((0.1, 0.5, 2.0))),
        l2=draw(st.sampled_from((0.0, 1e-4, 0.1))),
    )
    return h, corpus, FeatureConfig(dimension=2**10), tcfg


@settings(max_examples=40, deadline=None)
@given(_wide_training_cases())
def test_training_is_bit_identical_at_every_worker_count(case):
    h, corpus, fcfg, tcfg = case
    Y = h.closed_rows(d.gold for d in corpus).astype(np.float64)
    W, B = dense_descent(design_matrix(corpus, fcfg), Y,
                         tcfg.epochs, tcfg.learning_rate, tcfg.l2)
    for workers in (1, 2, 3, 4, 64):
        with mock.patch.object(baseline, "_cpu_count", return_value=workers):
            model = train(corpus, h, fcfg, tcfg)
        assert np.array_equal(model.weights, W), workers
        assert np.array_equal(model.bias, B), workers


def test_more_head_groups_than_cores_match_the_reference():
    # Up to 15 threads writing their own columns of one weight matrix,
    # switching as often as the interpreter allows.
    labels = sorted(SUBTASK2A.non_root_labels())
    corpus = [doc(f"d{i}", f"{WORDS[i % 8]} {WORDS[i % 7]} {WORDS[i % 3]}",
                  {labels[i % len(labels)], labels[(3 * i) % len(labels)]})
              for i in range(3 * len(labels))]
    fcfg, tcfg = FeatureConfig(dimension=2**10), TrainConfig(epochs=30)
    Y = SUBTASK2A.closed_rows(d.gold for d in corpus).astype(np.float64)
    W, B = dense_descent(design_matrix(corpus, fcfg), Y,
                         tcfg.epochs, tcfg.learning_rate, tcfg.l2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(baseline, "_cpu_count", return_value=64):
            model = train(corpus, SUBTASK2A, fcfg, tcfg)
    finally:
        sys.setswitchinterval(interval)
    assert Y.any(axis=0).sum() >= 30
    assert np.array_equal(model.weights, W)
    assert np.array_equal(model.bias, B)


def test_a_model_with_one_trainable_head_has_pinned_bytes():
    # Its one head descends in a group of its own, whose bias gradient is
    # summed in instance order as every wider group's is.  Sixty documents
    # are enough for numpy's pairwise sum, which this model used before,
    # to give other bytes (0e347c51…).
    corpus = [doc(f"d{i}", f"{WORDS[i % 8]} {WORDS[3 * i % 7]} {WORDS[i % 5]}",
                  {"Pathos"} if i % 3 == 0 else ()) for i in range(60)]
    fcfg, tcfg = FeatureConfig(dimension=2**10), TrainConfig(epochs=50)
    Y = H.closed_rows(d.gold for d in corpus).astype(np.float64)
    W, B = dense_descent(design_matrix(corpus, fcfg), Y,
                         tcfg.epochs, tcfg.learning_rate, tcfg.l2)
    for workers in (1, 4):
        with mock.patch.object(baseline, "_cpu_count", return_value=workers):
            model = train(corpus, H, fcfg, tcfg)
        assert np.array_equal(model.weights, W) and np.array_equal(model.bias, B), workers
    assert Y.any(axis=0).sum() == 1
    assert hashlib.sha256(save_model(model)).hexdigest() == (
        "760c247053627ed6be75b8704a4e97dae24cc5025a62f16fb0eb0517cc8ffe69")


def test_more_threads_than_used_columns_match_the_reference():
    # Documents of one short word use two columns between them, so most
    # threads' ranges of weight rows are empty.
    labels = sorted(SUBTASK2A.non_root_labels())
    corpus = [doc(f"d{i}", ("a", "of", "")[i % 3],
                  {labels[i % len(labels)], labels[(5 * i) % len(labels)]})
              for i in range(2 * len(labels))]
    fcfg, tcfg = FeatureConfig(dimension=2**10), TrainConfig(epochs=20)
    Y = SUBTASK2A.closed_rows(d.gold for d in corpus).astype(np.float64)
    W, B = dense_descent(design_matrix(corpus, fcfg), Y,
                         tcfg.epochs, tcfg.learning_rate, tcfg.l2)
    for workers in (3, 64):
        with mock.patch.object(baseline, "_cpu_count", return_value=workers):
            model = train(corpus, SUBTASK2A, fcfg, tcfg)
        assert model.weight_rows.size == 2 < workers
        assert np.array_equal(model.weights, W), workers
        assert np.array_equal(model.bias, B), workers


def test_more_threads_than_training_instances_match_the_reference():
    # Three documents and a thread per trainable head: most threads'
    # ranges of instances are empty in the forward half.
    labels = sorted(SUBTASK2A.non_root_labels())
    corpus = [doc(f"d{i}", f"{WORDS[i]} {WORDS[i + 2]}", set(labels[i::3])) for i in range(3)]
    fcfg, tcfg = FeatureConfig(dimension=2**10), TrainConfig(epochs=20)
    Y = SUBTASK2A.closed_rows(d.gold for d in corpus).astype(np.float64)
    W, B = dense_descent(design_matrix(corpus, fcfg), Y,
                         tcfg.epochs, tcfg.learning_rate, tcfg.l2)
    assert Y.any(axis=0).sum() > 2 * len(corpus)
    for workers in (4, 64):
        with mock.patch.object(baseline, "_cpu_count", return_value=workers):
            model = train(corpus, SUBTASK2A, fcfg, tcfg)
        assert np.array_equal(model.weights, W), workers
        assert np.array_equal(model.bias, B), workers


def test_train_peaks_near_one_design_until_descent():
    # The traced peak from _design's start to the first epoch, above the
    # traced memory before _design, is below 1.6x the design's bytes: no
    # second copy of the matrix, in any layout, and no sort temporary that
    # grows with the corpus, is ever alive beside it.  (Holding a CSC
    # copy, even briefly, reads above 2x.)  A vocabulary of 100 words keeps
    # every hash memo below its bound, so the warm-up fills them for good.
    rng = random.Random(3)
    words = [f"w{k}" for k in range(100)]
    corpus = [doc(f"d{i}", " ".join(rng.choice(words) for _ in range(60)),
                  {("Pathos", "NameCalling", "Ethos")[i % 3]}) for i in range(1000)]
    fcfg = FeatureConfig(dimension=2**16)
    baseline._design(corpus, fcfg)  # fills the hash memo before tracing
    design, epoch, seen = baseline._design, baseline._epoch, {}
    lock = threading.Lock()

    def traced_design(*args):
        seen["before"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return design(*args)

    def first_epoch(*args):
        with lock:
            if "peak" not in seen:
                X = args[0]
                seen["peak"] = tracemalloc.get_traced_memory()[1]
                seen["X"] = X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
        return epoch(*args)

    tracemalloc.start()
    try:
        with mock.patch.object(baseline, "_cpu_count", return_value=4), \
                mock.patch.object(baseline, "_design", traced_design), \
                mock.patch.object(baseline, "_epoch", first_epoch):
            train(corpus, H, fcfg, TrainConfig(epochs=2))
    finally:
        tracemalloc.stop()
    assert seen["X"] > 2**22
    assert seen["peak"] - seen["before"] < 1.6 * seen["X"], seen


def test_descent_holds_one_copy_of_the_design():
    # At the first epoch, traced memory above its level before _design is
    # below 1.5x the design's bytes: descent takes _design's own arrays,
    # and no thread's range of rows is a copy.
    rng = random.Random(3)
    words = [f"w{k}" for k in range(300)]
    corpus = [doc(f"d{i}", " ".join(rng.choice(words) for _ in range(60)),
                  {("Pathos", "NameCalling", "Ethos")[i % 3]}) for i in range(400)]
    fcfg = FeatureConfig(dimension=2**16)
    baseline._design(corpus, fcfg)  # fills the hash memo before tracing
    design, epoch, seen = baseline._design, baseline._epoch, {}
    lock = threading.Lock()

    def traced_design(*args):
        seen["before"] = tracemalloc.get_traced_memory()[0]
        return design(*args)

    def first_epoch(*args):
        with lock:
            if "epoch" not in seen:
                X = args[0]
                seen["epoch"] = tracemalloc.get_traced_memory()[0]
                seen["X"] = X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
        return epoch(*args)

    tracemalloc.start()
    try:
        with mock.patch.object(baseline, "_cpu_count", return_value=4), \
                mock.patch.object(baseline, "_design", traced_design), \
                mock.patch.object(baseline, "_epoch", first_epoch):
            train(corpus, H, fcfg, TrainConfig(epochs=2))
    finally:
        tracemalloc.stop()
    assert seen["X"] > 2**21
    assert seen["epoch"] - seen["before"] < 1.5 * seen["X"], seen


def test_a_failing_head_group_stops_the_others():
    corpus = [doc(f"d{i}", f"{WORDS[i % 8]} {WORDS[i % 5]}", {lab})
              for i, lab in enumerate(sorted(SUBTASK2A.non_root_labels())[:8])]
    epoch, calls = baseline._epoch, []

    def failing(*args):
        calls.append(None)
        if len(calls) == 5:
            raise RuntimeError("descent failed")
        return epoch(*args)

    with mock.patch.object(baseline, "_cpu_count", return_value=4), \
            mock.patch.object(baseline, "_epoch", failing):
        with pytest.raises(RuntimeError, match="descent failed"):
            train(corpus, SUBTASK2A, FeatureConfig(dimension=2**10), TrainConfig(epochs=10**5))
    # The other groups stopped at their next epoch, and none outlived train.
    assert len(calls) < 10**4
    assert not [t for t in threading.enumerate() if t.name.startswith("descent")]


# -- the thread runner -----------------------------------------------------------


def _runner_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("runner")]


def test_a_raising_call_stops_its_siblings_from_its_own_thread():
    stop, stopped_on = threading.Event(), []

    def halt():
        stopped_on.append(threading.current_thread().name)
        stop.set()

    def failing():
        raise RuntimeError("call failed")

    with pytest.raises(RuntimeError, match="call failed"):
        baseline._run_together([lambda: stop.wait(30), failing], halt, "runner")
    # Once from the failing call's thread, then once after the join.
    assert stopped_on == ["runner_1", threading.current_thread().name]


def test_the_first_exception_propagates_once_every_thread_has_ended():
    stop = threading.Event()

    def first():
        raise KeyError("first")

    def second():
        stop.wait(30)
        raise ValueError("second")

    with pytest.raises(KeyError, match="first"):
        baseline._run_together([second, first, second], stop.set, "runner")
    assert not _runner_threads()


def test_the_runner_stops_once_after_every_call_succeeds():
    ended, stops = [], []
    baseline._run_together([lambda k=k: ended.append(k) for k in range(3)],
                           lambda: stops.append(sorted(ended)), "runner")
    assert stops == [[0, 1, 2]]
    assert not _runner_threads()


def test_ctrl_c_only_stops_the_calls_until_every_thread_has_ended():
    # Two SIGINTs while one call waits on the stop: the first only stops,
    # the second does nothing more, and KeyboardInterrupt comes after the
    # waiting call has ended.
    stop, stops, ended = threading.Event(), [], []

    def halt():
        stops.append(None)
        stop.set()

    def interrupting():
        os.kill(os.getpid(), signal.SIGINT)
        os.kill(os.getpid(), signal.SIGINT)

    def waiting():
        ended.append(stop.wait(30))

    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            baseline._run_together([waiting, interrupting], halt, "runner")
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
    finally:
        signal.signal(signal.SIGINT, previous)
    assert ended == [True]
    assert len(stops) == 2  # the Ctrl-C, then the one after the join
    assert not _runner_threads()


def test_a_runner_off_the_main_thread_leaves_the_sigint_handler_alone():
    seen = []

    def look():
        seen.append(signal.getsignal(signal.SIGINT))

    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        baseline._run_together([look], lambda: None)  # the main thread
        caller = threading.Thread(target=baseline._run_together, args=([look], lambda: None))
        caller.start()
        caller.join(30)
        assert not caller.is_alive()
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
    finally:
        signal.signal(signal.SIGINT, previous)
    assert seen[0] is not signal.default_int_handler
    assert seen[1] is signal.default_int_handler


# -- thresholds ----------------------------------------------------------------

def _dev_hf1(model, corpus):
    gold = {d.id: d.gold for d in corpus}
    return hierarchical_score(H, gold, predict_corpus(model, H, corpus)).hf_beta


def _noisy_corpus(rng, n, prefix):
    words = {"NameCalling": "buy", "Ethos": "trust", "Pathos": "fear"}
    docs = []
    for i in range(n):
        lab = rng.choice(sorted(words))
        toks = [words[lab]] * rng.integers(1, 3) + [
            rng.choice(["the", "a", "of", "very", "plain"]) for _ in range(6)
        ]
        rng.shuffle(toks)
        docs.append(doc(f"{prefix}{i}", " ".join(toks), {lab}))
    return docs


def test_threshold_grid():
    assert len(THRESHOLD_GRID) == 19
    assert THRESHOLD_GRID[0] == 0.05 and THRESHOLD_GRID[-1] == 0.95


def test_tuning_never_hurts_and_is_idempotent():
    rng = np.random.default_rng(11)
    train_docs = _noisy_corpus(rng, 30, "t")
    dev_docs = _noisy_corpus(rng, 30, "v")
    model = train(train_docs, H, FeatureConfig(dimension=2**10),
                  TrainConfig(epochs=50))
    before = _dev_hf1(model, dev_docs)
    tuned = tune_thresholds(model, dev_docs, H)
    after = _dev_hf1(tuned, dev_docs)
    assert after >= before
    again = tune_thresholds(tuned, dev_docs, H)
    assert np.array_equal(again.thresholds, tuned.thresholds)


@st.composite
def _tuning_cases(draw):
    h = draw(st.sampled_from((H, SUBTASK2A)))
    n_labels = len(h.labels)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = 2**6
    model = HierModel(
        labels=h.labels,
        feature_config=FeatureConfig(dimension=dim),
        hierarchy_fingerprint=h.fingerprint(),
        seed=0,
        weight_rows=np.arange(dim, dtype=np.int64),
        row_weights=rng.normal(0.0, draw(st.sampled_from((0.5, 2.0, 8.0))), (dim, n_labels)),
        bias=rng.normal(0.0, 1.0, n_labels),
        thresholds=np.array(draw(st.lists(st.sampled_from(THRESHOLD_GRID),
                                          min_size=n_labels, max_size=n_labels))),
    )
    text = st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join)
    gold = st.frozensets(st.sampled_from(h.labels), max_size=3)
    dev = [doc(f"v{i}", draw(text), draw(gold)) for i in range(draw(st.integers(1, 8)))]
    return h, model, dev, draw(st.integers(1, 3))


@settings(max_examples=40, deadline=None)
@given(_tuning_cases())
def test_tuning_matches_reference_tuner(case):
    h, model, dev, passes = case
    with mock.patch.object(baseline, "_MAX_PASSES", passes):
        got = tune_thresholds(model, dev, h)
    want = reference_tune_thresholds(model, dev, h, max_passes=passes)
    assert np.array_equal(got.thresholds, want.thresholds)


# -- the batched scorer ----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(_tuning_cases())
def test_scores_equal_blas_free_reference(case):
    h, model, dev, _ = case
    # No tolerance: the CSR product adds each row's terms in the order the
    # plain-Python reference does.
    assert np.array_equal(baseline._score_matrix(model, dev), reference_scores(model, dev))


@settings(max_examples=60, deadline=None)
@given(_tuning_cases())
def test_scores_within_stated_tolerance_of_per_instance_path(case):
    # The per-instance BLAS path summed the same products in another order
    # (or with FMA).  Either sum of k products is within about k * 2^-53 *
    # sum|x_i w_i| of the exact one; adding b, expit (slope <= 1/4) and its
    # rounding keep the gap within (k + 4) * 2^-52 * (sum|x_i w_i| + |b| + 1).
    h, model, dev, _ = case
    new = baseline._score_matrix(model, dev)
    for row, inst in zip(new, dev):
        vec = featurize(inst.text, inst.caption, model.feature_config)
        idx = list(vec)
        mass = np.abs(list(vec.values())) @ np.abs(model.weights[idx]) if idx else 0.0
        bound = (len(idx) + 4) * 2.0**-52 * (mass + np.abs(model.bias) + 1.0)
        assert np.all(np.abs(reference_instance_scores(model, inst) - row) <= bound)


@settings(max_examples=40, deadline=None)
@given(_tuning_cases())
def test_predict_is_a_one_row_batch(case):
    h, model, dev, _ = case
    batch = predict_corpus(model, h, dev)
    scores = reference_scores(model, dev)
    for inst, row in zip(dev, scores):
        want = h.extend(lab for lab, s, t in zip(model.labels, row, model.thresholds) if s > t)
        assert predict(model, h, inst) == batch[inst.id] == want


@st.composite
def _sparse_row_cases(draw):
    cfg = FeatureConfig(dimension=2 ** draw(st.integers(4, 8)))
    text = st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join)  # "" is a zero row
    corpus = [doc(f"s{i}", draw(text)) for i in range(draw(st.integers(1, 8)))]
    seen = {i for inst in corpus for i in featurize(inst.text, None, cfg)}
    kind = draw(st.sampled_from(("subset", "unseen", "none")))
    if kind == "subset":
        rows = sorted(draw(st.sets(st.integers(0, cfg.dimension - 1))))
    else:  # no instance has a model column, or the model has no rows
        rows = [i for i in range(cfg.dimension) if i not in seen] if kind == "unseen" else []
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W = rng.normal(0.0, 4.0, (len(rows), len(H.labels)))
    # Some rows all zero, of either sign: kept in memory, not in the file.
    zero = rng.random(len(rows)) < 0.3
    W[zero] = np.copysign(0.0, rng.normal(size=(int(zero.sum()), len(H.labels))))
    model = HierModel(labels=H.labels, feature_config=cfg,
                      hierarchy_fingerprint=H.fingerprint(), seed=0,
                      weight_rows=np.array(rows, dtype=np.int64), row_weights=W,
                      bias=rng.normal(0.0, 1.0, len(H.labels)),
                      thresholds=np.full(len(H.labels), 0.5))
    return model, corpus, rng


@settings(max_examples=80, deadline=None)
@given(_sparse_row_cases())
def test_sparse_rows_score_like_the_dense_matrix(case):
    # Dropping the columns the model lacks drops only x * 0.0 terms, which
    # leave the CSR product's running sum unchanged: no tolerance.
    model, corpus, rng = case
    X = design_matrix(corpus, model.feature_config)
    want = expit(X @ model.weights + model.bias)
    assert np.array_equal(baseline._score_matrix(model, corpus), want)
    payload = json.loads(save_model(model))
    perm = rng.permutation(len(payload["weight_rows"]))
    for key in ("weight_rows", "weights"):
        payload[key] = [payload[key][k] for k in perm]
    back = load_model(json.dumps(payload).encode())
    assert np.all(np.diff(back.weight_rows) > 0)
    assert np.array_equal(baseline._score_matrix(back, corpus), want)
    assert save_model(back) == save_model(model)


def test_block_scoring_equals_one_block(monkeypatch):
    rng = np.random.default_rng(5)
    model = train(_noisy_corpus(rng, 30, "t"), H, FeatureConfig(dimension=2**10),
                  TrainConfig(epochs=50))
    test = _noisy_corpus(rng, 10, "x") + [doc("empty", "")]
    whole = baseline._score_matrix(model, test)
    preds = predict_corpus(model, H, test)
    monkeypatch.setattr(baseline, "_SCORE_BLOCK", 3)
    assert np.array_equal(baseline._score_matrix(model, test), whole)
    assert predict_corpus(model, H, test) == preds


def _dict_order_score(model, inst, j):
    # The sum in feature-dict order, as the per-instance path took it.
    z = 0.0
    for i, x in featurize(inst.text, inst.caption, model.feature_config).items():
        z += x * float(model.weights[i, j])
    return float(expit(np.array([z + model.bias[j]]))[0])


def test_near_tie_is_decided_by_the_batched_score():
    # A head whose ascending-order sum plus bias is exactly 0 scores exactly
    # 0.5, which is not above a 0.5 threshold; summed in feature-dict order
    # the same products give a score above 0.5.  Prediction and tuning must
    # both follow the batched score.
    cfg = FeatureConfig(dimension=2**10)
    inst = doc("tie", "trust honor duty, buy fear: calm plain prose", {"Ethos"})
    vec = featurize(inst.text, None, cfg)
    assert list(vec) != sorted(vec)
    j = H.labels.index("Ethos")
    w = dict(zip(vec, np.random.default_rng(0).normal(0.0, 1000.0, len(vec))))
    rows = np.array(sorted(vec), dtype=np.int64)
    W = np.zeros((rows.size, len(H.labels)))
    W[:, j] = [w[i] for i in rows]
    z = 0.0
    for i in sorted(vec):
        z += vec[i] * w[i]
    bias = np.full(len(H.labels), -50.0)
    bias[j] = -z
    model = HierModel(labels=H.labels, feature_config=cfg,
                      hierarchy_fingerprint=H.fingerprint(), seed=0,
                      weight_rows=rows, row_weights=W,
                      bias=bias, thresholds=np.full(len(H.labels), 0.5))
    assert _dict_order_score(model, inst, j) > 0.5

    assert baseline._score_matrix(model, [inst])[0, j] == 0.5
    assert reference_scores(model, [inst])[0, j] == 0.5
    assert predict(model, H, inst) == frozenset()
    assert predict_corpus(model, H, [inst]) == {"tie": frozenset()}
    below = model.thresholds.copy()
    below[j] = np.nextafter(0.5, 0.0)
    assert predict(replace(model, thresholds=below), H, inst) == frozenset({"Ethos"})
    # Gold is {Ethos}: at 0.5 the head is negative, so the tuner lowers its
    # threshold to the first grid value; dict-order scores would have left it.
    tuned = tune_thresholds(model, [inst], H)
    assert tuned.thresholds[j] == THRESHOLD_GRID[0]
    assert np.array_equal(tuned.thresholds,
                          reference_tune_thresholds(model, [inst], H).thresholds)


_KERNEL_SCRIPT = """
import hashlib, json, sys
from persuasionkit import baseline
from persuasionkit.corpus import load_corpus, write_predictions
from persuasionkit.hierarchy import parse_hierarchy

d = sys.argv[1]
read = lambda name: open(f"{d}/{name}", encoding="utf-8").read()
h = parse_hierarchy(read("hierarchy.txt"))
train = load_corpus(read("train.json"), hierarchy=h)
dev = load_corpus(read("heldout.json"), hierarchy=h)
model = baseline.train(train, h, baseline.FeatureConfig(dimension=2**16), seed=0)
tuned = baseline.tune_thresholds(model, dev, h)
digest = lambda b: hashlib.sha256(b).hexdigest()
print(json.dumps({
    "scores": digest(baseline._score_matrix(model, dev + train).tobytes()),
    "model": digest(baseline.save_model(tuned)),
    "predictions": digest(write_predictions(
        baseline.predict_corpus(tuned, h, dev)).encode("utf-8")),
}))
"""


def test_scores_model_and_predictions_do_not_depend_on_blas_kernel():
    # OPENBLAS_CORETYPE picks numpy's OpenBLAS kernel at start-up; the
    # scores, the tuned model and its predictions must not change with it.
    data = os.path.join(os.path.dirname(__file__), "..", "data", "synthetic")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    results = []
    for coretype in (None, "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        proc = subprocess.run([sys.executable, "-c", _KERNEL_SCRIPT, data],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert results[0] == results[1]
    assert results[0]["model"] == (
        "c7bb85e32af53d97e4e4b2c735986ef75cf35dcc3c1ccd0bcc64aea4ead0e834")


def test_tuning_validates_inputs():
    model = train(MEMORIZE, H, FeatureConfig(dimension=2**10))
    with pytest.raises(ValueError, match="empty"):
        tune_thresholds(model, [], H)
    with pytest.raises(ValueError, match="gold"):
        tune_thresholds(model, [MemeInstance(id="x", text="t", image=None)], H)


# -- serialization and guards --------------------------------------------------

def test_save_load_round_trip_exact():
    model = train(MEMORIZE, H, FeatureConfig(dimension=2**10), seed=9)
    tuned = tune_thresholds(model, MEMORIZE, H)
    blob = save_model(tuned)
    back = load_model(blob)
    assert back.labels == tuned.labels
    assert back.feature_config == tuned.feature_config
    assert back.hierarchy_fingerprint == tuned.hierarchy_fingerprint
    assert back.seed == tuned.seed
    assert np.array_equal(back.weights, tuned.weights)
    assert np.array_equal(back.bias, tuned.bias)
    assert np.array_equal(back.thresholds, tuned.thresholds)
    assert save_model(back) == blob
    # loaded model predicts identically
    assert predict_corpus(back, H, MEMORIZE) == predict_corpus(tuned, H, MEMORIZE)


_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308, 1.0)


@st.composite
def _models(draw):
    n_labels = draw(st.integers(1, 4))
    labels = tuple(draw(st.lists(st.text(min_size=1, max_size=5), min_size=n_labels,
                                 max_size=n_labels, unique=True)))
    dimension = 2 ** draw(st.integers(0, 62))
    rows = sorted(draw(st.lists(st.integers(0, dimension - 1), max_size=7, unique=True)))
    number = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)
    weights = draw(st.lists(st.lists(number, min_size=n_labels, max_size=n_labels),
                            min_size=len(rows), max_size=len(rows)))
    threshold = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    return HierModel(
        labels=labels,
        feature_config=FeatureConfig(dimension, draw(st.sampled_from((MODE_TEXT,
                                                                      MODE_TEXT_CAPTION)))),
        hierarchy_fingerprint=draw(st.text(max_size=8)),
        seed=draw(st.integers(-2**70, 2**70)),
        weight_rows=np.array(rows, dtype=np.int64),
        row_weights=np.array(weights, dtype=np.float64).reshape(len(rows), n_labels),
        bias=np.array(draw(st.lists(number, min_size=n_labels, max_size=n_labels))),
        thresholds=np.array(draw(st.lists(threshold, min_size=n_labels, max_size=n_labels))),
    )


@settings(max_examples=200, deadline=None)
@given(_models(), st.sampled_from((1, 2, 3, 1024)))
@example(HierModel(labels=("Éthos", "名前"), feature_config=FeatureConfig(2**62),
                   hierarchy_fingerprint="", seed=0,
                   weight_rows=np.zeros(0, dtype=np.int64), row_weights=np.zeros((0, 2)),
                   bias=np.array([-0.0, 1e308]), thresholds=np.array([5e-324, 0.5])), 2)
def test_model_file_round_trips_byte_for_byte(model, block):
    # save_model encodes the weight rows a block at a time; the block
    # size cannot change a byte.
    with mock.patch.object(baseline, "_SCORE_BLOCK", block):
        blob = save_model(model)
        assert blob == reference_save_model(model)
        back = load_model(blob)
        assert save_model(back) == blob
    # save_model leaves out the rows whose weights are all zero.
    kept = np.any(model.row_weights != 0.0, axis=1)
    assert back == model
    assert np.array_equal(back.weight_rows, model.weight_rows[kept])
    for got, want in ((back.row_weights, model.row_weights[kept]), (back.bias, model.bias),
                      (back.thresholds, model.thresholds)):
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))


def test_load_rejects_foreign_files():
    with pytest.raises(ValueError, match="not a model file"):
        load_model(b"{\"kind\":\"something-else\"}")
    with pytest.raises(ValueError, match="model file: invalid JSON"):
        load_model(b"\xff\xfe not json")
    with pytest.raises(ValueError, match="not a model file"):
        load_model(b"[1, 2]")
    good = save_model(train(MEMORIZE, H, FeatureConfig(dimension=2**10)))
    import json

    payload = json.loads(good)
    payload["format_version"] = 99
    with pytest.raises(ValueError, match="version"):
        load_model(json.dumps(payload).encode())


_DROP = object()


def _corrupt(payload, key, value):
    payload = json.loads(json.dumps(payload))
    if value is _DROP:
        del payload[key]
    elif callable(value):
        payload[key] = value(payload[key])
    else:
        payload[key] = value
    return payload


@pytest.mark.parametrize("key,value,message", [
    ("feature_config", _DROP, "missing feature_config"),
    ("weights", _DROP, "missing weights"),
    ("feature_config", lambda fc: {k: v for k, v in fc.items() if k != "mode"},
     "missing feature_config.mode"),
    ("feature_config", [], "feature_config is not an object"),
    ("feature_config", lambda fc: {**fc, "dimension": 1000}, "power of two"),
    ("labels", "Ethos", "labels must be a list of strings"),
    ("weight_rows", lambda r: [2**10] + r[1:], r"not an integer in \[0, 1024\)"),
    ("weight_rows", lambda r: [-1] + r[1:], "not an integer in"),
    ("weight_rows", lambda r: [0.5] + r[1:], "not an integer in"),
    ("weight_rows", lambda r: r[:1] + r[:-1], "repeats"),
    ("weight_rows", lambda r: r[:-1], "equal length"),
    ("weights", lambda w: [w[0][:-1]] + w[1:], "must hold 3 numbers"),
    ("weights", lambda w: [["x"] * 3] + w[1:], "malformed"),
    ("bias", lambda b: b[:-1], "bias must hold 3 numbers"),
    ("thresholds", lambda t: t + [0.5], "thresholds must hold 3 numbers"),
    ("seed", None, "malformed"),
    ("hierarchy_fingerprint", 5, "hierarchy_fingerprint must be a string, not 5"),
    ("hierarchy_fingerprint", None, "hierarchy_fingerprint must be a string, not null"),
])
def test_load_rejects_inconsistent_files(key, value, message):
    good = json.loads(save_model(train(MEMORIZE, H, FeatureConfig(dimension=2**10))))
    assert good["weight_rows"]
    with pytest.raises(ValueError, match=message):
        load_model(json.dumps(_corrupt(good, key, value)).encode())


def test_predict_corpus_checks_fingerprint_once(monkeypatch):
    model = train(MEMORIZE, H, FeatureConfig(dimension=2**10))
    calls = []
    original = type(H).fingerprint

    def counting(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(type(H), "fingerprint", counting)
    predict_corpus(model, H, MEMORIZE * 5)
    assert len(calls) == 1


def test_predict_refuses_wrong_hierarchy():
    model = train(MEMORIZE, H, FeatureConfig(dimension=2**10))
    other = parse_hierarchy("persuasion\nEthos\tpersuasion\nPathos\tpersuasion\n")
    with pytest.raises(ValueError, match="fingerprint"):
        predict(model, other, MEMORIZE[0])
    with pytest.raises(ValueError, match="fingerprint"):
        predict_corpus(model, other, MEMORIZE)


def test_a_model_whose_heads_are_not_the_hierarchy_labels_is_refused():
    # Head j closes through row j of H.closure, so the heads must be
    # H.labels in order.
    model = train(MEMORIZE, H, FeatureConfig(dimension=2**10))
    permuted = replace(model, labels=model.labels[::-1])
    for call in (lambda: predict(permuted, H, MEMORIZE[0]),
                 lambda: predict_corpus(permuted, H, MEMORIZE),
                 lambda: tune_thresholds(permuted, MEMORIZE, H)):
        with pytest.raises(ValueError, match="model labels do not match the hierarchy"):
            call()
