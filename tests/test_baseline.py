import hashlib
import json
import logging
import os
import subprocess
import sys
import threading
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
    fd_gradient,
    reference_featurize,
    reference_instance_scores,
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
    cfg = FeatureConfig(dimension=4, word_orders=(1,), char_orders=())
    assert featurize("duty calm", None, cfg) == {}
    assert featurize("duty fear calm naive buy", None, cfg) == {3: -1.0}


_ORDERS = st.lists(st.integers(1, 6), min_size=0, max_size=3, unique=True).map(tuple)


@settings(max_examples=150, deadline=None)
@given(
    text=st.text(max_size=60),
    caption=st.none() | st.text(max_size=40),
    mode=st.sampled_from((MODE_TEXT, MODE_TEXT_CAPTION)),
    log_dim=st.integers(2, 12),
    word_orders=st.one_of(st.just((1, 2)), _ORDERS),
    char_orders=st.one_of(st.just((3, 4, 5)), _ORDERS),
)
# At 2^2, "duty"/"calm" and "fear"/"naive" share a bucket with opposite signs.
@example(text="duty calm", caption=None, mode=MODE_TEXT, log_dim=2,
         word_orders=(1,), char_orders=())
@example(text="duty fear buy", caption="calm naive", mode=MODE_TEXT_CAPTION, log_dim=2,
         word_orders=(1,), char_orders=())
@example(text="duty fear calm naive buy duty", caption=None, mode=MODE_TEXT, log_dim=2,
         word_orders=(1,), char_orders=())
def test_featurize_equals_reference(text, caption, mode, log_dim, word_orders, char_orders):
    cfg = FeatureConfig(dimension=2**log_dim, word_orders=word_orders,
                        char_orders=char_orders, mode=mode)
    got = featurize(text, caption, cfg)
    want = reference_featurize(text, caption, cfg)
    # The same dict: keys, values and key order.
    assert list(got.items()) == list(want.items())


def test_feature_config_validation():
    with pytest.raises(ValueError, match="power of two"):
        FeatureConfig(dimension=1000)
    with pytest.raises(ValueError, match="mode"):
        FeatureConfig(mode="caption-only")
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


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
    n, d, k = draw(st.integers(1, 12)), draw(st.integers(1, 10)), draw(st.integers(2, 5))
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
        # numpy sums a 1-D array pairwise but axis 0 of a 2-D one row by
        # row, so the bias gradients may differ in the last bits.
        assert gb == pytest.approx(gB[j], rel=1e-12, abs=0.0)


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
    W, B = dense_descent(baseline._design_matrix(corpus, fcfg), Y,
                         tcfg.epochs, tcfg.learning_rate, tcfg.l2)
    assert np.array_equal(model.weights, W)
    assert np.array_equal(model.bias, B)


@st.composite
def _wide_training_cases(draw):
    # Nine documents or more: numpy sums a column of eight or more values
    # pairwise, so a one-head group would not match the reference.
    h = draw(st.sampled_from((H, SUBTASK2A)))
    text = st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join)
    gold = st.frozensets(st.sampled_from(sorted(h.non_root_labels())), max_size=3)
    corpus = [doc(f"d{i}", draw(text), draw(gold)) for i in range(draw(st.integers(9, 40)))]
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
    W, B = dense_descent(baseline._design_matrix(corpus, fcfg), Y,
                         tcfg.epochs, tcfg.learning_rate, tcfg.l2)
    for workers in (1, 2, 3, 4):
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
    W, B = dense_descent(baseline._design_matrix(corpus, fcfg), Y,
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


def test_a_failing_head_group_stops_the_others():
    corpus = [doc(f"d{i}", f"{WORDS[i % 8]} {WORDS[i % 5]}", {lab})
              for i, lab in enumerate(sorted(SUBTASK2A.non_root_labels())[:8])]
    gradient, calls = baseline._gradient, []

    def failing(*args):
        calls.append(None)
        if len(calls) == 5:
            raise RuntimeError("descent failed")
        return gradient(*args)

    with mock.patch.object(baseline, "_cpu_count", return_value=4), \
            mock.patch.object(baseline, "_gradient", failing):
        with pytest.raises(RuntimeError, match="descent failed"):
            train(corpus, SUBTASK2A, FeatureConfig(dimension=2**10), TrainConfig(epochs=10**5))
    # The other groups stopped at their next epoch, and none outlived train.
    assert len(calls) < 10**4
    assert not [t for t in threading.enumerate() if t.name.startswith("descent")]


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
    X = baseline._design_matrix(corpus, model.feature_config)
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


def test_load_rejects_foreign_files():
    with pytest.raises(ValueError, match="not a model file"):
        load_model(b"{\"kind\":\"something-else\"}")
    with pytest.raises(ValueError, match="not a model file"):
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

