"""Reproducible hierarchical baseline: hashed n-gram features feeding one
logistic head per label, predictions closed upward over the hierarchy.

Training is full-batch gradient descent with a fixed epoch count, zero
initialization and an L2 penalty, so a (corpus, hierarchy, config, seed)
tuple maps to bit-identical model files.  Per-label decision thresholds
start at 0.5 and can be tuned by coordinate ascent on dev HF1.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
from scipy.special import expit

from .corpus import MemeInstance
from .hierarchy import LabelHierarchy
from .metrics import hierarchical_score
from .textmetrics import tokenize

__all__ = [
    "MODE_TEXT",
    "MODE_TEXT_CAPTION",
    "FeatureConfig",
    "TrainConfig",
    "FeatureStats",
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


@dataclass
class FeatureStats:
    """Counters surfaced to callers (e.g. degraded caption coverage)."""

    missing_caption: int = 0


# About 20 MB when full; a corpus with more distinct n-grams keeps its
# most recent ones cached.
_HASH_MEMO_SIZE = 2**16


@functools.lru_cache(maxsize=_HASH_MEMO_SIZE)
def _hash_feature(feature: str, dim: int) -> tuple[int, float]:
    # Stable across processes and platforms, unlike builtin hash().
    digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest()
    v = int.from_bytes(digest, "little")
    sign = 1.0 if v & (1 << 63) else -1.0
    return v % dim, sign


def _accumulate(vec: dict[int, float], text: str, prefix: str, cfg: FeatureConfig):
    tokens = tokenize(text)
    for n in cfg.word_orders:
        for i in range(len(tokens) - n + 1):
            idx, sign = _hash_feature(
                f"{prefix}w{n}:" + " ".join(tokens[i : i + n]), cfg.dimension
            )
            vec[idx] = vec.get(idx, 0.0) + sign
    chars = " ".join(text.lower().split())
    for n in cfg.char_orders:
        for i in range(len(chars) - n + 1):
            idx, sign = _hash_feature(f"{prefix}c{n}:" + chars[i : i + n], cfg.dimension)
            vec[idx] = vec.get(idx, 0.0) + sign


def featurize(
    text: str,
    caption: str | None,
    cfg: FeatureConfig,
    stats: FeatureStats | None = None,
) -> dict[int, float]:
    """Signed hashed n-gram counts, L2-normalized; bucket index -> value.

    In text+caption mode a missing caption degrades to text-only features
    and bumps ``stats.missing_caption``.  Empty input yields the zero
    vector (an empty dict).
    """
    vec: dict[int, float] = {}
    _accumulate(vec, text, "", cfg)
    if cfg.mode == MODE_TEXT_CAPTION:
        if caption is None:
            if stats is not None:
                stats.missing_caption += 1
        else:
            _accumulate(vec, caption, "C|", cfg)
    vec = {i: v for i, v in vec.items() if v != 0.0}
    norm = np.sqrt(sum(v * v for v in vec.values()))
    if norm > 0:
        vec = {i: v / norm for i, v in vec.items()}
    return vec


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


def _design_matrix(
    instances: Sequence[MemeInstance],
    cfg: FeatureConfig,
    stats: FeatureStats | None = None,
) -> "sparse.csr_array":
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for i, inst in enumerate(instances):
        for j, v in featurize(inst.text, inst.caption, cfg, stats).items():
            rows.append(i)
            cols.append(j)
            vals.append(v)
    return sparse.csr_array(
        (vals, (rows, cols)), shape=(len(instances), cfg.dimension), dtype=np.float64
    )


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
    fcfg = feature_config or FeatureConfig()
    tcfg = train_config or TrainConfig()
    if not corpus:
        raise ValueError("training corpus is empty")
    for inst in corpus:
        if inst.gold is None:
            raise ValueError(f"instance {inst.id!r} has no gold labels")

    labels = tuple(sorted(h.non_root_labels()))
    X = _design_matrix(corpus, fcfg)
    n = len(corpus)
    Y = np.zeros((n, len(labels)), dtype=np.float64)
    col = {lab: j for j, lab in enumerate(labels)}
    for i, inst in enumerate(corpus):
        for lab in h.extend(inst.gold):
            Y[i, col[lab]] = 1.0

    positives = Y.sum(axis=0)
    trainable = positives > 0
    for lab, ok in zip(labels, trainable):
        if not ok:
            logger.warning("label %r has no positive examples; head is always-negative", lab)

    W = np.zeros((fcfg.dimension, len(labels)), dtype=np.float64)
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


def _scores_for(
    model: HierModel, inst: MemeInstance, stats: FeatureStats | None
) -> np.ndarray:
    vec = featurize(inst.text, inst.caption, model.feature_config, stats)
    if not vec:
        return expit(model.bias.copy())
    idx = np.fromiter(vec.keys(), dtype=np.int64, count=len(vec))
    val = np.fromiter(vec.values(), dtype=np.float64, count=len(vec))
    return expit(val @ model.weights[idx] + model.bias)


def predict(
    model: HierModel,
    h: LabelHierarchy,
    inst: MemeInstance,
    stats: FeatureStats | None = None,
) -> frozenset[str]:
    """Labels whose sigmoid score clears their threshold, ancestor-closed.

    May be empty.  Refuses a hierarchy whose fingerprint differs from the
    one the model was trained against.
    """
    _check_hierarchy(model, h)
    return _predict_checked(model, h, inst, stats)


def _predict_checked(
    model: HierModel,
    h: LabelHierarchy,
    inst: MemeInstance,
    stats: FeatureStats | None,
) -> frozenset[str]:
    scores = _scores_for(model, inst, stats)
    chosen = [lab for lab, s, t in zip(model.labels, scores, model.thresholds) if s > t]
    return h.extend(chosen)


def predict_corpus(
    model: HierModel,
    h: LabelHierarchy,
    corpus: Iterable[MemeInstance],
    stats: FeatureStats | None = None,
) -> dict[str, frozenset[str]]:
    _check_hierarchy(model, h)
    return {inst.id: _predict_checked(model, h, inst, stats) for inst in corpus}


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

    S = np.vstack([_scores_for(model, inst, None) for inst in dev_corpus])
    gold = {inst.id: inst.gold for inst in dev_corpus}
    ids = [inst.id for inst in dev_corpus]

    def hf1(thresholds: np.ndarray) -> float:
        pred = {}
        over = S > thresholds  # (n, L) bool
        for i, iid in enumerate(ids):
            chosen = [model.labels[j] for j in np.flatnonzero(over[i])]
            pred[iid] = h.extend(chosen)
        return hierarchical_score(h, gold, pred).hf_beta

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
    lacks a key, or whose weights, bias or thresholds disagree in shape
    with its labels and feature dimension.
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
    W = np.zeros((cfg.dimension, n), dtype=np.float64)
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
