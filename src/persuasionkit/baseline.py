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
import os
import threading
from array import array
from collections.abc import Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor, as_completed
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

# The largest power of two whose bucket indices, and a sparse matrix with
# that many columns, fit a signed 64-bit integer.
_MAX_DIMENSION = 2**62

# Instances featurized and scored together: bounds scoring memory, and
# cannot change a score, since each row is scored on its own.
_SCORE_BLOCK = 1024


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
        if self.dimension > _MAX_DIMENSION:
            raise ValueError(
                f"feature dimension {self.dimension} is too large: bucket indices must "
                "fit a signed 64-bit integer, so it may be at most 2**62"
            )
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
    mismatched feature spaces or hierarchies at predict time.

    Only the weight rows the model uses are held: row ``r`` of
    ``row_weights`` is bucket ``weight_rows[r]``'s weight per head, and
    every other bucket's weights are zero.  So memory grows with the
    number of n-gram buckets seen in training, not with
    ``feature_config.dimension``.  ``weights`` is the dense matrix, built
    from the rows on each access; the package itself never reads it.
    """

    labels: tuple[str, ...]
    feature_config: FeatureConfig
    hierarchy_fingerprint: str
    seed: int
    weight_rows: np.ndarray = field(compare=False)  # (R,) int64 buckets, ascending
    row_weights: np.ndarray = field(compare=False)  # (R, n_labels)
    bias: np.ndarray = field(compare=False)  # (n_labels,)
    thresholds: np.ndarray = field(compare=False)  # (n_labels,), each in (0, 1)

    @property
    def weights(self) -> np.ndarray:
        """The dense ``(dimension, n_labels)`` weight matrix, built anew on
        each access; raises ValueError when it cannot be allocated."""
        W = _zero_weights(self.feature_config.dimension, len(self.labels))
        W[self.weight_rows] = self.row_weights
        return W


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


def _gradient(
    X: "sparse.csr_array | np.ndarray", Y: np.ndarray, W: np.ndarray, B: np.ndarray, l2: float
) -> tuple[np.ndarray, np.ndarray]:
    """``(dloss/dW, dloss/dB)`` of :func:`loss_and_grad`'s objective for
    the heads in the columns of ``Y``, ``W`` and ``B``.

    For a CSR ``X``, ``X.T`` is a CSC view sharing its arrays, and each
    column of ``X.T @ E`` adds its terms in ascending instance order, as
    a product with a CSR copy of the transpose does.
    """
    from scipy.special import expit

    E = (expit(X @ W + B) - Y) / X.shape[0]
    return X.T @ E + l2 * W, E.sum(axis=0)


def loss_and_grad(
    X: "sparse.csr_array | np.ndarray",
    y: np.ndarray,
    w: np.ndarray,
    b: float,
    l2: float,
) -> tuple[float, np.ndarray, float]:
    """Mean logistic loss with L2 penalty on the weights (not the bias).

    Returns (loss, dloss/dw, dloss/db).  The gradient is the one ``train``
    descends, for a single head, so checking it numerically checks the
    trainer's own code.
    """
    z = X @ w + b
    # log-loss via logaddexp for stability: log(1 + e^-z) etc.
    loss = float(
        np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * float(w @ w)
    )
    grad_w, grad_b = _gradient(X, y[:, None], w[:, None], np.array([b]), l2)
    return loss, grad_w.ravel(), float(grad_b[0])


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


def _onto_rows(X: "sparse.csr_array", rows: np.ndarray) -> "sparse.csr_array":
    """``X``'s columns renumbered onto the ascending bucket indices
    ``rows``, with the columns not in ``rows`` dropped.

    Each row keeps its ascending column order, so ``_onto_rows(X, rows) @
    row_weights`` adds the same products in the same order as ``X @ W``
    for the dense ``W`` that is zero off ``rows``, less the dropped terms.
    Each of those is ``x * 0.0``, a signed zero, and adding a signed zero
    to the CSR product's running sum, which starts at +0.0, never changes
    it: the two products are equal bit for bit.
    """
    from scipy import sparse

    pos = np.searchsorted(rows, X.indices)
    keep = np.searchsorted(rows, X.indices, side="right") > pos
    data, indptr = X.data, X.indptr
    if not keep.all():
        data, pos = data[keep], pos[keep]
        indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
    return sparse.csr_array((data, pos, indptr), shape=(X.shape[0], rows.size))


def _gold_rows(corpus: Sequence[MemeInstance], h: LabelHierarchy, what: str) -> np.ndarray:
    """The corpus's closed gold sets as ``h.closed_rows``; raises ValueError
    for an empty corpus or an instance without gold labels."""
    if not corpus:
        raise ValueError(f"{what} corpus is empty")
    for inst in corpus:
        if inst.gold is None:
            raise ValueError(f"{what} instance {inst.id!r} has no gold labels")
    return h.closed_rows(inst.gold for inst in corpus)


def _cpu_count() -> int:
    """The CPUs this process may run on, which bounds descent's threads."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _descend(
    Xu: "sparse.csr_array",
    Y: np.ndarray,
    heads: np.ndarray,
    W: np.ndarray,
    B: np.ndarray,
    tcfg: TrainConfig,
    stop: threading.Event,
):
    """Every epoch of descent for the heads ``heads``, written into
    ``W[:, heads]`` and ``B[heads]``; returns early, writing nothing, once
    ``stop`` is set."""
    Yg = Y[:, heads]
    Wg = np.zeros((Xu.shape[1], heads.size), dtype=np.float64)
    Bg = np.zeros(heads.size, dtype=np.float64)
    for _ in range(tcfg.epochs):
        if stop.is_set():
            return
        gW, gB = _gradient(Xu, Yg, Wg, Bg, tcfg.l2)
        Wg -= tcfg.learning_rate * gW
        Bg -= tcfg.learning_rate * gB
    W[:, heads] = Wg
    B[heads] = Bg


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
    warning.  Thresholds start at 0.5.  The model holds one weight row per
    bucket some training document uses.

    The heads descend in groups of at least two, one thread per group and
    at most one per CPU.  Every element of ``_gradient``'s products and
    of ``expit`` is computed per column in the same order at any group
    width, and an ``(n, k)`` bias gradient is summed row by row for every
    ``k >= 2``, so the model is the same bit for bit at any thread count.
    (numpy sums an ``(n, 1)`` column pairwise, so a one-head group would
    not be; only a model with a single trainable head descends one.)
    An error in one group, or an interrupt while the groups descend, stops
    the others at their next epoch, and the call waits for them to stop.
    """
    from scipy import sparse

    fcfg = feature_config or FeatureConfig()
    tcfg = train_config or TrainConfig()
    Y = _gold_rows(corpus, h, "training").astype(np.float64)
    labels = h.labels
    X = _design_matrix(corpus, fcfg)

    positives = Y.sum(axis=0)
    trainable = positives > 0
    for lab, ok in zip(labels, trainable):
        if not ok:
            logger.warning("label %r has no positive examples; head is always-negative", lab)

    B = np.zeros(len(labels), dtype=np.float64)
    B[~trainable] = _NEGATIVE_BIAS

    # A column no document touches starts at 0 and the L2 update keeps it
    # there, so the model is exact on the used columns alone.
    used = np.unique(X.indices).astype(np.int64)
    W = np.zeros((used.size, len(labels)), dtype=np.float64)
    active = np.flatnonzero(trainable)
    if active.size:
        # Every column is used, so each index renumbers by one search;
        # int32 indices halve the index memory and give the same products.
        index = np.int32 if X.nnz < 2**31 else np.int64
        Xu = sparse.csr_array(
            (X.data, np.searchsorted(used, X.indices).astype(index, copy=False),
             X.indptr.astype(index, copy=False)),
            shape=(X.shape[0], used.size),
        )
        del X
        groups = np.array_split(active, max(1, min(_cpu_count(), active.size // 2)))
        stop = threading.Event()
        with ThreadPoolExecutor(len(groups), thread_name_prefix="descent") as pool:
            try:
                jobs = [pool.submit(_descend, Xu, Y, heads, W, B, tcfg, stop)
                        for heads in groups]
                for job in as_completed(jobs):
                    job.result()
            finally:
                stop.set()

    return HierModel(
        labels=labels,
        feature_config=fcfg,
        hierarchy_fingerprint=h.fingerprint(),
        seed=seed,
        weight_rows=used,
        row_weights=W,
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
    CPU's BLAS kernel or on how many instances are scored together.  It
    is computed as ``_onto_rows(X, weight_rows) @ row_weights``, which is
    equal bit for bit, over blocks of at most ``_SCORE_BLOCK`` instances.
    """
    from scipy.special import expit

    S = np.empty((len(corpus), len(model.labels)), dtype=np.float64)
    for start in range(0, len(corpus), _SCORE_BLOCK):
        block = corpus[start : start + _SCORE_BLOCK]
        X = _onto_rows(_design_matrix(block, model.feature_config), model.weight_rows)
        S[start : start + len(block)] = expit(X @ model.row_weights + model.bias)
    return S


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
_MAX_PASSES = 2


def tune_thresholds(
    model: HierModel,
    dev_corpus: Sequence[MemeInstance],
    h: LabelHierarchy,
) -> HierModel:
    """Coordinate-ascent threshold tuning on dev HF1.

    Sweeps labels in lexicographic order over THRESHOLD_GRID, keeping a
    new threshold only when corpus HF1 strictly improves; at most
    ``_MAX_PASSES`` full passes, stopping early at a fixed point.  Dev HF1
    never decreases, and rerunning on the result is a no-op.
    """
    _check_hierarchy(model, h)
    G = _gold_rows(dev_corpus, h, "dev")
    S = _score_matrix(model, dev_corpus)
    C = _head_closure(model, h)
    gold_total = int(G.sum())

    def hf1(thresholds: np.ndarray) -> float:
        P = (S > thresholds) @ C
        return hierarchical_from_totals((int((G & P).sum()), int(P.sum()), gold_total))[2]

    t = model.thresholds.copy()
    best = hf1(t)
    for _ in range(_MAX_PASSES):
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
    nz = np.flatnonzero(np.any(model.row_weights != 0.0, axis=1))
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
        "weight_rows": model.weight_rows[nz].tolist(),
        "weights": model.row_weights[nz].tolist(),
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
    with its labels and feature dimension, or whose dimension is not a
    power of two or is above 2**62.  The rows may come in any order.
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
        dimension = int(fc["dimension"])
        word_orders, char_orders = tuple(fc["word_orders"]), tuple(fc["char_orders"])
        seed = int(payload["seed"])
        bias = np.asarray(payload["bias"], dtype=np.float64)
        thresholds = np.asarray(payload["thresholds"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed model file: {exc}") from None
    # Its own message names a bad dimension or mode.
    cfg = FeatureConfig(dimension, word_orders, char_orders, fc["mode"])
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
    try:
        W = np.asarray(weights, dtype=np.float64).reshape(len(rows), n)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed model file: {exc}") from None
    rows = np.asarray(rows, dtype=np.int64)
    order = np.argsort(rows)
    return HierModel(
        labels=tuple(labels),
        feature_config=cfg,
        hierarchy_fingerprint=payload["hierarchy_fingerprint"],
        seed=seed,
        weight_rows=rows[order],
        row_weights=W[order],
        bias=bias,
        thresholds=thresholds,
    )
