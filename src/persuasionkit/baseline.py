"""Reproducible hierarchical baseline: hashed n-gram features feeding one
logistic head per label, predictions closed upward over the hierarchy.

Training is full-batch gradient descent with a fixed epoch count, zero
initialization and an L2 penalty, so a (corpus, hierarchy, config, seed)
tuple maps to bit-identical model files.  Per-label decision thresholds
start at 0.5 and can be tuned by coordinate ascent on dev HF1.

scipy is imported inside the functions that fit and score, so the
commands that never touch a model do not pay for loading it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import MemeInstance
from .hierarchy import LabelHierarchy
from .metrics import hierarchical_from_totals
from .metrics import hierarchical_score  # noqa: F401  (perfbench/tracer.py wraps this name)
from .textmetrics import tokenize

__all__ = [
    "MODE_TEXT",
    "MODE_TEXT_CAPTION",
    "FeatureConfig",
    "TrainConfig",
    "featurize",
    "HierModel",
    "train",
    "predict",
    "predict_corpus",
    "tune_thresholds",
    "loss_and_grad",
    "save_model",
    "load_model",
]

logger = logging.getLogger(__name__)

MODE_TEXT = "text"
MODE_TEXT_CAPTION = "text+caption"

# Bias used for heads with zero positive examples: sigmoid(-50) is far
# below any threshold the tuner can pick.
_NEGATIVE_BIAS = -50.0

_FORMAT_VERSION = 1
_MODEL_KIND = "persuasionkit-linear-hier"


@dataclass(frozen=True)
class FeatureConfig:
    """Hashed n-gram feature space.

    Word n-grams come from the reference tokenizer; character n-grams run
    over the lowercased text with whitespace collapsed.  Caption-derived
    features carry a namespace prefix so a caption token can never collide
    with the same meme-text token.
    """

    dimension: int = 2**18
    word_orders: tuple[int, ...] = (1, 2)
    char_orders: tuple[int, ...] = (3, 4, 5)
    mode: str = MODE_TEXT

    def __post_init__(self):
        if self.dimension <= 0 or self.dimension & (self.dimension - 1):
            raise ValueError("dimension must be a positive power of two")
        if self.mode not in (MODE_TEXT, MODE_TEXT_CAPTION):
            raise ValueError(f"mode must be {MODE_TEXT!r} or {MODE_TEXT_CAPTION!r}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    learning_rate: float = 0.5
    l2: float = 1e-4

    def __post_init__(self):
        if self.epochs < 1 or self.learning_rate <= 0 or self.l2 < 0:
            raise ValueError("bad training hyperparameters")


# One memo per (dimension, tag), from a raw n-gram to its bucket and sign;
# the tag names the n-gram's namespace, kind and order ("w2:", "C|c4:").
# A memo is a pure cache of _hash_feature, so sharing it across callers
# changes no result.  A memo that reaches _HASH_MEMO_SIZE entries is
# cleared, so memory stays bounded on corpora with more distinct n-grams:
# about 12 MB per full memo, and the default orders in text+caption mode
# use 10 memos per dimension.
_HASH_MEMO_SIZE = 2**16
_hash_memos: dict[tuple[int, str], dict[str, tuple[int, float]]] = {}


def _hash_feature(feature: str, dim: int) -> tuple[int, float]:
    # Stable across processes and platforms, unlike builtin hash().
    digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest()
    v = int.from_bytes(digest, "little")
    sign = 1.0 if v & (1 << 63) else -1.0
    return v % dim, sign


def _add_grams(vec: dict[int, float], grams: list[str], tag: str, dim: int):
    memo = _hash_memos.get((dim, tag))
    if memo is None:
        memo = _hash_memos[dim, tag] = {}
    for gram in grams:
        hashed = memo.get(gram)
        if hashed is None:
            if len(memo) >= _HASH_MEMO_SIZE:
                memo.clear()
            hashed = memo[gram] = _hash_feature(tag + gram, dim)
        idx, sign = hashed
        vec[idx] = vec.get(idx, 0.0) + sign


def _accumulate(vec: dict[int, float], text: str, prefix: str, cfg: FeatureConfig):
    tokens = tokenize(text)
    for n in cfg.word_orders:
        grams = tokens if n == 1 else [
            " ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]
        _add_grams(vec, grams, f"{prefix}w{n}:", cfg.dimension)
    chars = " ".join(text.lower().split())
    for n in cfg.char_orders:
        _add_grams(vec, [chars[i : i + n] for i in range(len(chars) - n + 1)],
                   f"{prefix}c{n}:", cfg.dimension)


def featurize(text: str, caption: str | None, cfg: FeatureConfig) -> dict[int, float]:
    """Signed hashed n-gram counts, L2-normalized; bucket index -> value.

    Every word n-gram of :func:`tokenize`'s tokens (orders
    ``cfg.word_orders``) and every character n-gram of the lowercased text
    with whitespace collapsed to single spaces (orders ``cfg.char_orders``)
    is hashed, with a tag naming its kind and order (``w2:``, ``c4:``), by
    BLAKE2b to one of ``cfg.dimension`` buckets and a sign of +1 or -1
    (Weinberger et al. 2009).  A bucket's value is the sum of the signs of
    the n-grams that land in it, so the counts are exact small integers and
    colliding n-grams may cancel.

    In text+caption mode the caption's n-grams carry an extra ``C|``
    namespace prefix, so a caption token hashes independently of the same
    meme-text token; a missing caption degrades to text-only features.

    Buckets whose count cancels to zero are dropped, and the rest are
    divided by the vector's L2 norm.  Keys appear in the order in which
    their first n-gram occurs (word orders, then character orders; text,
    then caption).  Empty input yields the zero vector (an empty dict).
    """
    vec: dict[int, float] = {}
    _accumulate(vec, text, "", cfg)
    if cfg.mode == MODE_TEXT_CAPTION and caption is not None:
        _accumulate(vec, caption, "C|", cfg)
    norm = math.sqrt(sum(v * v for v in vec.values()))
    return {i: v / norm for i, v in vec.items() if v}


@dataclass(frozen=True)
class HierModel:
    """Per-label linear scorers plus the bookkeeping needed to refuse
    mismatched feature spaces or hierarchies at predict time."""

    labels: tuple[str, ...]
    feature_config: FeatureConfig
    hierarchy_fingerprint: str
    seed: int
    weights: np.ndarray = field(compare=False)  # (dimension, n_labels)
    bias: np.ndarray = field(compare=False)  # (n_labels,)
    thresholds: np.ndarray = field(compare=False)  # (n_labels,), each in (0, 1)


def _zero_weights(dimension: int, n_labels: int) -> np.ndarray:
    """The dense ``(dimension, n_labels)`` weight matrix, all zeros.

    Raises ValueError naming the dimension when the matrix cannot be
    allocated, instead of numpy's MemoryError.
    """
    try:
        return np.zeros((dimension, n_labels), dtype=np.float64)
    except (MemoryError, ValueError):
        raise ValueError(
            f"feature dimension {dimension} is too large: its ({dimension}, {n_labels}) "
            "weight matrix cannot be allocated"
        ) from None


def loss_and_grad(
    X: "sparse.csr_array | np.ndarray",
    y: np.ndarray,
    w: np.ndarray,
    b: float,
    l2: float,
) -> tuple[float, np.ndarray, float]:
    """Mean logistic loss with L2 penalty on the weights (not the bias).

    Returns (loss, dloss/dw, dloss/db).  This is the exact objective the
    trainer descends, exposed so the gradients can be checked numerically.
    """
    from scipy.special import expit

    n = X.shape[0]
    z = X @ w + b
    p = expit(z)
    # log-loss via logaddexp for stability: log(1 + e^-z) etc.
    loss = float(
        np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * float(w @ w)
    )
    err = (p - y) / n
    grad_w = X.T @ err + l2 * w
    grad_b = float(err.sum())
    return loss, np.asarray(grad_w).ravel(), grad_b


def _design_matrix(instances: Sequence[MemeInstance], cfg: FeatureConfig) -> "sparse.csr_array":
    from scipy import sparse

    # Flat typed buffers rather than one Python object per non-zero.
    cols = array("q")
    vals = array("d")
    indptr = array("q", [0])
    for inst in instances:
        vec = featurize(inst.text, inst.caption, cfg)
        cols.extend(vec.keys())
        vals.extend(vec.values())
        indptr.append(len(cols))
    X = sparse.csr_array(
        (np.frombuffer(vals, dtype=np.float64), np.frombuffer(cols, dtype=np.int64),
         np.frombuffer(indptr, dtype=np.int64)),
        shape=(len(instances), cfg.dimension),
    )
    # Ascending columns per row, as a COO -> CSR build leaves them: descent
    # sums in this order, so the model bytes depend on it.
    X.sort_indices()
    return X


def train(
    corpus: Sequence[MemeInstance],
    h: LabelHierarchy,
    feature_config: FeatureConfig | None = None,
    train_config: TrainConfig | None = None,
    seed: int = 0,
) -> HierModel:
    """Fit one logistic head per non-root label on extended gold sets.

    Labels with zero positive examples are not descended at all: they get
    zero weights and a strongly negative bias (always-negative head) and a
    warning.  Thresholds start at 0.5.
    """
    from scipy.special import expit

    fcfg = feature_config or FeatureConfig()
    tcfg = train_config or TrainConfig()
    if not corpus:
        raise ValueError("training corpus is empty")
    for inst in corpus:
        if inst.gold is None:
            raise ValueError(f"instance {inst.id!r} has no gold labels")

    labels = h.labels
    W = _zero_weights(fcfg.dimension, len(labels))
    X = _design_matrix(corpus, fcfg)
    n = len(corpus)
    Y = h.closed_rows(inst.gold for inst in corpus).astype(np.float64)

    positives = Y.sum(axis=0)
    trainable = positives > 0
    for lab, ok in zip(labels, trainable):
        if not ok:
            logger.warning("label %r has no positive examples; head is always-negative", lab)

    B = np.zeros(len(labels), dtype=np.float64)
    B[~trainable] = _NEGATIVE_BIAS

    active = np.flatnonzero(trainable)
    if active.size:
        # A column no document touches starts at 0 and the L2 update keeps
        # it there, so descending on the used columns alone is exact.
        used = np.unique(X.indices)
        Xu = X[:, used]
        Wa = np.zeros((used.size, active.size), dtype=np.float64)
        Ba = np.zeros(active.size, dtype=np.float64)
        Ya = Y[:, active]
        XT = Xu.T.tocsr()
        for _ in range(tcfg.epochs):
            P = expit(Xu @ Wa + Ba)
            E = (P - Ya) / n
            Wa -= tcfg.learning_rate * (XT @ E + tcfg.l2 * Wa)
            Ba -= tcfg.learning_rate * E.sum(axis=0)
        W[np.ix_(used, active)] = Wa
        B[active] = Ba

    return HierModel(
        labels=labels,
        feature_config=fcfg,
        hierarchy_fingerprint=h.fingerprint(),
        seed=seed,
        weights=W,
        bias=B,
        thresholds=np.full(len(labels), 0.5, dtype=np.float64),
    )


def _check_hierarchy(model: HierModel, h: LabelHierarchy):
    if h.fingerprint() != model.hierarchy_fingerprint:
        raise ValueError(
            "hierarchy fingerprint mismatch: the model was trained against a "
            "different hierarchy"
        )


def _score_matrix(model: HierModel, corpus: Sequence[MemeInstance]) -> np.ndarray:
    """Sigmoid scores, one row per instance and one column per head.

    ``expit(X @ W + b)`` with ``X`` the corpus's design matrix: scipy's
    CSR product adds each row's terms one after another in ascending
    column order, with no BLAS call, so the scores do not depend on the
    CPU's BLAS kernel or on how many instances are scored together.
    """
    from scipy.special import expit

    X = _design_matrix(corpus, model.feature_config)
    return expit(X @ model.weights + model.bias)


def _head_closure(model: HierModel, h: LabelHierarchy) -> np.ndarray:
    # Row j: the closed label set, over h.labels, that a positive head j
    # contributes.
    return h.closed_rows([label] for label in model.labels)


def _predicted_sets(
    model: HierModel, h: LabelHierarchy, corpus: Sequence[MemeInstance]
) -> list[frozenset[str]]:
    closed = (_score_matrix(model, corpus) > model.thresholds) @ _head_closure(model, h)
    labels = np.array(h.labels, dtype=object)
    return [frozenset(labels[row]) for row in closed]


def predict(model: HierModel, h: LabelHierarchy, inst: MemeInstance) -> frozenset[str]:
    """Labels whose sigmoid score clears their threshold, ancestor-closed.

    The score of head ``j`` is ``expit(sum_i x_i * W[i, j] + b[j])`` over
    the instance's :func:`featurize` vector, summed in ascending bucket
    order; a head is positive when its score is strictly above its
    threshold.  The positive heads' labels are closed upward over ``h``.
    The instance is scored as a one-row batch of :func:`predict_corpus`,
    so both give the same set bit for bit.

    May be empty.  Refuses a hierarchy whose fingerprint differs from the
    one the model was trained against.
    """
    _check_hierarchy(model, h)
    return _predicted_sets(model, h, [inst])[0]


def predict_corpus(
    model: HierModel, h: LabelHierarchy, corpus: Iterable[MemeInstance]
) -> dict[str, frozenset[str]]:
    """:func:`predict` for every instance, keyed by id, scored in one batch."""
    _check_hierarchy(model, h)
    corpus = list(corpus)
    return {inst.id: labels
            for inst, labels in zip(corpus, _predicted_sets(model, h, corpus))}


THRESHOLD_GRID = tuple(round(0.05 * k, 2) for k in range(1, 20))  # 0.05 .. 0.95


def tune_thresholds(
    model: HierModel,
    dev_corpus: Sequence[MemeInstance],
    h: LabelHierarchy,
    max_passes: int = 2,
) -> HierModel:
    """Coordinate-ascent threshold tuning on dev HF1.

    Sweeps labels in lexicographic order over THRESHOLD_GRID, keeping a
    new threshold only when corpus HF1 strictly improves; at most
    ``max_passes`` full passes, stopping early at a fixed point.  Dev HF1
    never decreases, and rerunning on the result is a no-op.
    """
    _check_hierarchy(model, h)
    if not dev_corpus:
        raise ValueError("dev corpus is empty")
    for inst in dev_corpus:
        if inst.gold is None:
            raise ValueError(f"dev instance {inst.id!r} has no gold labels")

    S = _score_matrix(model, dev_corpus)
    G = h.closed_rows(inst.gold for inst in dev_corpus)
    C = _head_closure(model, h)
    gold_total = int(G.sum())

    def hf1(thresholds: np.ndarray) -> float:
        P = (S > thresholds) @ C
        return hierarchical_from_totals((int((G & P).sum()), int(P.sum()), gold_total))[2]

    t = model.thresholds.copy()
    best = hf1(t)
    for _ in range(max_passes):
        improved = False
        for j in range(len(model.labels)):
            original = t[j]
            best_here = original
            for cand in THRESHOLD_GRID:
                if cand == original:
                    continue
                t[j] = cand
                score = hf1(t)
                if score > best:
                    best = score
                    best_here = cand
                    improved = True
            t[j] = best_here
        if not improved:
            break
    return replace(model, thresholds=t)


# -- serialization -----------------------------------------------------------

def save_model(model: HierModel) -> bytes:
    """Canonical JSON bytes; float values round-trip exactly."""
    nz = np.flatnonzero(np.any(model.weights != 0.0, axis=1))
    payload = {
        "kind": _MODEL_KIND,
        "format_version": _FORMAT_VERSION,
        "labels": list(model.labels),
        "feature_config": {
            "dimension": model.feature_config.dimension,
            "word_orders": list(model.feature_config.word_orders),
            "char_orders": list(model.feature_config.char_orders),
            "mode": model.feature_config.mode,
        },
        "hierarchy_fingerprint": model.hierarchy_fingerprint,
        "seed": model.seed,
        "bias": [float(v) for v in model.bias],
        "thresholds": [float(v) for v in model.thresholds],
        "weight_rows": [int(i) for i in nz],
        "weights": [[float(v) for v in model.weights[i]] for i in nz],
    }
    return (json.dumps(payload, ensure_ascii=False, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


_MODEL_KEYS = ("labels", "feature_config", "hierarchy_fingerprint", "seed",
               "bias", "thresholds", "weight_rows", "weights")
_FEATURE_KEYS = ("dimension", "word_orders", "char_orders", "mode")


def load_model(data: bytes) -> HierModel:
    """Inverse of save_model; validates kind, format version and structure.

    Raises ValueError naming the problem for a file that is not a model,
    lacks a key, whose weights, bias or thresholds disagree in shape
    with its labels and feature dimension, or whose dimension is too
    large for its weight matrix to be allocated.
    """
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"not a model file: {exc}") from None
    if not isinstance(payload, dict) or payload.get("kind") != _MODEL_KIND:
        raise ValueError("not a model file (bad kind marker)")
    if payload.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {payload.get('format_version')!r}"
        )
    missing = [k for k in _MODEL_KEYS if k not in payload]
    fc = payload.get("feature_config", {})
    if not isinstance(fc, dict):
        raise ValueError("model file: feature_config is not an object")
    missing += [f"feature_config.{k}" for k in _FEATURE_KEYS if k not in fc]
    if missing:
        raise ValueError(f"model file is missing {', '.join(missing)}")
    try:
        cfg = FeatureConfig(
            dimension=int(fc["dimension"]),
            word_orders=tuple(fc["word_orders"]),
            char_orders=tuple(fc["char_orders"]),
            mode=fc["mode"],
        )
        seed = int(payload["seed"])
        bias = np.asarray(payload["bias"], dtype=np.float64)
        thresholds = np.asarray(payload["thresholds"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed model file: {exc}") from None
    labels = payload["labels"]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ValueError("model file: labels must be a list of strings")
    n = len(labels)
    for name, arr in (("bias", bias), ("thresholds", thresholds)):
        if arr.shape != (n,):
            raise ValueError(f"model file: {name} must hold {n} numbers, one per label")
    rows, weights = payload["weight_rows"], payload["weights"]
    if not isinstance(rows, list) or not isinstance(weights, list) or len(rows) != len(weights):
        raise ValueError("model file: weight_rows and weights must be lists of equal length")
    for i, row in zip(rows, weights):
        if type(i) is not int or not 0 <= i < cfg.dimension:
            raise ValueError(
                f"model file: weight row index {i!r} is not an integer in "
                f"[0, {cfg.dimension})"
            )
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"model file: weight row {i} must hold {n} numbers, one per label")
    if len(set(rows)) != len(rows):
        raise ValueError("model file: weight_rows repeats an index")
    W = _zero_weights(cfg.dimension, n)
    try:
        W[rows] = np.asarray(weights, dtype=np.float64).reshape(len(rows), n)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed model file: {exc}") from None
    return HierModel(
        labels=tuple(labels),
        feature_config=cfg,
        hierarchy_fingerprint=payload["hierarchy_fingerprint"],
        seed=seed,
        weights=W,
        bias=bias,
        thresholds=thresholds,
    )
