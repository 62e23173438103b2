import hashlib
import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from persuasionkit import baseline
from persuasionkit.baseline import (
    MODE_TEXT,
    MODE_TEXT_CAPTION,
    THRESHOLD_GRID,
    FeatureConfig,
    FeatureStats,
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

from oracles import dense_descent, fd_gradient

H = parse_hierarchy(
    "persuasion\nEthos\tpersuasion\nPathos\tpersuasion\nNameCalling\tEthos\n"
)


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
    stats = FeatureStats()
    degraded = featurize(
        "some text", None, FeatureConfig(dimension=dim, mode=MODE_TEXT_CAPTION), stats
    )
    text_only = featurize("some text", None, FeatureConfig(dimension=dim))
    assert degraded == text_only
    assert stats.missing_caption == 1


def test_hash_memo_is_keyed_on_dimension(monkeypatch):
    text = "Memo keys: one n-gram, two dimensions, then the first again."
    dims = (2**8, 2**16, 2**8)
    cached = [featurize(text, None, FeatureConfig(dimension=d)) for d in dims]
    for feature in ("w1:memo", "c3:mem", "w2:two dimensions"):
        v = int.from_bytes(
            hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest(), "little"
        )
        for d in dims:
            assert baseline._hash_feature(feature, d) == (v % d, 1.0 if v >> 63 else -1.0)
    monkeypatch.setattr(baseline, "_hash_feature", baseline._hash_feature.__wrapped__)
    assert cached == [featurize(text, None, FeatureConfig(dimension=d)) for d in dims]


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


def test_caption_mode_counts_degraded_instances():
    corpus = [
        doc("a", "buy bargain", {"NameCalling"}, caption="a shopping meme"),
        doc("b", "fear dread", {"Pathos"}),  # no caption
    ]
    model = train(corpus, H, FeatureConfig(dimension=2**10, mode=MODE_TEXT_CAPTION))
    stats = FeatureStats()
    predict_corpus(model, H, corpus, stats)
    assert stats.missing_caption == 1
