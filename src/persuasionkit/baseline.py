"""Reproducible hierarchical baseline: hashed n-gram features feeding one
logistic head per label, predictions closed upward over the hierarchy.

Training is full-batch gradient descent with a fixed epoch count, zero
initialization and an L2 penalty, so a (corpus, hierarchy, config, seed)
tuple maps to bit-identical model files.  Per-label decision thresholds
start at 0.5 and can be tuned by coordinate ascent on dev HF1.

numpy is imported inside the functions that compute with arrays, and
scipy inside the functions that fit, so a command pays for loading each
only when it uses it: the commands that never train do not load scipy,
and scoring runs on plain arrays.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import math
import os
import signal
import threading
from array import array
from collections.abc import Callable, Iterable, Sequence
from contextlib import suppress
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain
from typing import TYPE_CHECKING

from .corpus import MemeInstance, read_int, read_json, read_number
from .hierarchy import LabelHierarchy
from .metrics import hierarchical_from_totals
from .metrics import hierarchical_score  # noqa: F401  (perfbench/tracer.py wraps this name)
from .textmetrics import tokenize

if TYPE_CHECKING:
    import numpy as np
    from scipy import sparse

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
    "check_hierarchy",
    "tune_thresholds",
    "loss_and_grad",
    "save_model",
    "load_model",
]

logger = logging.getLogger(__name__)

MODE_TEXT = "text"
MODE_TEXT_CAPTION = "text+caption"

# The n-gram orders of every feature space; load_model refuses others.
_WORD_ORDERS = (1, 2)
_CHAR_ORDERS = (3, 4, 5)

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

# Index elements searched at a time when renumbering without a bucket
# map, and the most non-zeros (and rows) whose columns are sorted at a
# time: bounds the temporaries of both.
_INDEX_CHUNK = 2**16

# A bucket map (see _renumber) is built when the dimension is at most
# this, or at most the number of indices it renumbers: so it never takes
# more than 8 MB or the size of the indices.
_MAP_ENTRIES = 2**20


@dataclass(frozen=True)
class FeatureConfig:
    """Hashed n-gram feature space.

    Word n-grams come from the reference tokenizer; character n-grams run
    over the lowercased text with whitespace collapsed.  Caption-derived
    features carry a namespace prefix so a caption token can never collide
    with the same meme-text token.
    """

    dimension: int = 2**18
    mode: str = MODE_TEXT

    def __post_init__(self):
        if self.dimension <= 0 or self.dimension & (self.dimension - 1):
            raise ValueError(f"dimension must be a positive power of two, not {self.dimension}")
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
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, not {self.epochs}")
        # Chained comparisons are false for NaN, which would train to NaN.
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(
                f"learning rate must be a finite number above 0, not {self.learning_rate}")
        if not 0 <= self.l2 < math.inf:
            raise ValueError(f"l2 must be a finite number >= 0, not {self.l2}")


# One memo per (dimension, tag), from a raw n-gram to its bucket and sign;
# the tag names the n-gram's namespace, kind and order ("w2:", "C|c4:").
# A memo is a pure cache of _hash_feature, so sharing it across callers
# changes no result.  A memo that reaches _HASH_MEMO_SIZE entries is
# cleared, so memory stays bounded on corpora with more distinct n-grams:
# about 12 MB per full memo, and text+caption mode uses 10 memos per
# dimension.
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
    for n in _WORD_ORDERS:
        grams = tokens if n == 1 else [
            " ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]
        _add_grams(vec, grams, f"{prefix}w{n}:", cfg.dimension)
    chars = " ".join(text.lower().split())
    for n in _CHAR_ORDERS:
        _add_grams(vec, [chars[i : i + n] for i in range(len(chars) - n + 1)],
                   f"{prefix}c{n}:", cfg.dimension)


def featurize(text: str, caption: str | None, cfg: FeatureConfig) -> dict[int, float]:
    """Signed hashed n-gram counts, L2-normalized; bucket index -> value.

    Every word 1- and 2-gram of :func:`tokenize`'s tokens and every
    character 3-, 4- and 5-gram of the lowercased text with whitespace
    collapsed to single spaces is hashed, with a tag naming its kind and
    order (``w2:``, ``c4:``), by BLAKE2b to one of ``cfg.dimension``
    buckets and a sign of +1 or -1 (Weinberger et al. 2009).  A bucket's
    value is the sum of the signs of the n-grams that land in it, so the
    counts are exact small integers and colliding n-grams may cancel.

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
        import numpy as np

        dimension, n_labels = self.feature_config.dimension, len(self.labels)
        try:
            W = np.zeros((dimension, n_labels), dtype=np.float64)
        except (MemoryError, ValueError):
            raise ValueError(
                f"feature dimension {dimension} is too large: its ({dimension}, {n_labels}) "
                "weight matrix cannot be allocated"
            ) from None
        W[self.weight_rows] = self.row_weights
        return W


def _errors(X: "sparse.sparray | np.ndarray", Y: np.ndarray, W: np.ndarray,
            B: np.ndarray, n: int) -> np.ndarray:
    """``(expit(X @ W + B) - Y) / n``: the derivative of the mean loss over
    ``n`` instances by the logit of each of ``X``'s rows, per head.

    Each sum of ``X @ W`` starts at +0.0 and adds its terms in ascending
    column order, whether ``X`` is CSR (a gather along each row, as
    ``train`` takes it) or CSC (a scatter of each column into the rows'
    sums): the two are equal bit for bit.
    """
    from scipy.special import expit

    E = X @ W
    E += B
    expit(E, out=E)
    E -= Y
    E /= n
    return E


def _weight_gradient(XT: "sparse.sparray | np.ndarray", E: np.ndarray, W: np.ndarray,
                     l2: float) -> np.ndarray:
    """``XT @ E + l2 * W``, with ``XT`` the transposed design matrix, ``E``
    the errors of some heads and ``W`` their weights.  Each sum starts at
    +0.0 and adds its terms in ascending instance order at any number of
    heads, whether ``XT`` is the CSC view of a CSR matrix (a scatter, as
    ``train`` takes it) or the CSR view of a CSC one (a gather)."""
    G = XT @ E
    G += l2 * W
    return G


def _column_sums(E: np.ndarray) -> np.ndarray:
    """Each column's sum of ``E``, added in ascending row order at any
    number of columns; overwrites ``E``."""
    import numpy as np

    return np.cumsum(E, axis=0, out=E)[-1]


def _gradient(
    X: "sparse.sparray | np.ndarray",
    Y: np.ndarray,
    W: np.ndarray,
    B: np.ndarray,
    l2: float,
) -> tuple[np.ndarray, np.ndarray]:
    """``(dloss/dW, dloss/dB)`` of :func:`loss_and_grad`'s objective for
    the heads in the columns of ``Y``, ``W`` and ``B``.

    It is :func:`_errors`, :func:`_weight_gradient` of ``X.T`` and
    :func:`_column_sums`, the three steps ``train`` takes on the design's
    CSR arrays, so each column is the trainer's gradient of that head bit
    for bit, whatever ``X``'s sparse format.
    """
    E = _errors(X, Y, W, B, X.shape[0])
    return _weight_gradient(X.T, E, W, l2), _column_sums(E)


def loss_and_grad(
    X: "sparse.csr_array | np.ndarray",
    y: np.ndarray,
    w: np.ndarray,
    b: float,
    l2: float,
) -> tuple[float, np.ndarray, float]:
    """Mean logistic loss with L2 penalty on the weights (not the bias).

    Returns (loss, dloss/dw, dloss/db).  The gradient is the one ``train``
    descends for a single head, bit for bit, so checking it numerically
    checks the trainer's own code.
    """
    import numpy as np

    z = X @ w + b
    # log-loss via logaddexp for stability: log(1 + e^-z) etc.
    loss = float(
        np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * float(w @ w)
    )
    grad_w, grad_b = _gradient(X, y[:, None], w[:, None], np.array([b]), l2)
    return loss, grad_w.ravel(), float(grad_b[0])


def _renumber(
    indices: np.ndarray, dimension: int, rows: np.ndarray | None = None, dtype="int64"
) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, positions)``: the ascending bucket indices ``rows``, by
    default every bucket in ``indices``, and each of ``indices``' position
    in ``rows`` as ``dtype``, or -1 where it is not one of them.

    When ``dimension`` is at most ``max(indices.size, _MAP_ENTRIES)``,
    both come from a map from every bucket, whose memory is then bounded.
    Otherwise ``rows`` are the union of each chunk's unique indices and the
    positions are found by binary search, ``_INDEX_CHUNK`` indices at a
    time, so no temporary grows with ``dimension``.  ``indices`` need not
    be sorted.
    """
    import numpy as np

    if dimension <= max(indices.size, _MAP_ENTRIES):
        where = np.full(dimension, -1, dtype=dtype)
        if rows is None:
            where[indices] = 0
            rows = np.flatnonzero(where == 0)
        where[rows] = np.arange(rows.size, dtype=dtype)
        return rows, where[indices]
    if rows is None:
        rows = np.unique(np.concatenate(
            [np.unique(indices[s : s + _INDEX_CHUNK])
             for s in range(0, indices.size, _INDEX_CHUNK)] or [[]]
        )).astype(np.int64)
    positions = np.full(indices.size, -1, dtype=dtype)
    # With no rows, every position is -1, and there is nothing to take.
    for s in range(0, indices.size if rows.size else 0, _INDEX_CHUNK):
        chunk = indices[s : s + _INDEX_CHUNK]
        pos = np.searchsorted(rows, chunk)
        positions[s : s + _INDEX_CHUNK] = np.where(
            rows.take(pos, mode="clip") == chunk, pos, -1)
    return rows, positions


def _design(
    instances: Sequence[MemeInstance], cfg: FeatureConfig, rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, data, positions, indptr)``: the instances' :func:`featurize`
    vectors as CSR arrays, one row per instance, with each bucket
    renumbered by :func:`_renumber` to its position in the ascending
    bucket indices ``rows`` (by default every bucket the instances use),
    the buckets not in ``rows`` dropped, and each row's columns sorted
    ascending.  The indices are int32 when they fit, int64 otherwise.

    Descent and scoring both multiply these arrays, so both add each
    row's terms in ascending bucket order; the model bytes and the scores
    depend on that order.  Against the dense ``W`` that is zero off
    ``rows``, the dropped terms are each ``x * 0.0``, a signed zero, and
    adding a signed zero to a running sum that starts at +0.0 never
    changes it: the product with the rows' weights is equal bit for bit
    to ``X @ W``.
    """
    import numpy as np

    # Flat typed buffers rather than one Python object per non-zero; the
    # bucket indices take 4 bytes each when every bucket fits.
    small = cfg.dimension <= 2**31
    cols, vals, ends = array("i" if small else "q"), array("d"), array("q", [0])
    for inst in instances:
        # Through the module name, which a tracer may wrap.
        vec = featurize(inst.text, inst.caption, cfg)
        cols.extend(vec.keys())
        vals.extend(vec.values())
        ends.append(len(cols))
    data = np.frombuffer(vals, dtype=np.float64)
    indptr = np.frombuffer(ends, dtype=np.int64)
    index = np.int32 if max(len(cols), 0 if rows is None else rows.size) < 2**31 else np.int64
    rows, pos = _renumber(np.frombuffer(cols, dtype=np.intc if small else np.int64),
                          cfg.dimension, rows, index)
    del cols
    keep = pos >= 0
    if not keep.all():
        data, pos = data[keep], pos[keep]
        indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
    del keep
    # A row's buckets are distinct, so its (row, position) keys are too.
    # Sorted a piece of whole rows at a time, at most _INDEX_CHUNK rows and
    # _INDEX_CHUNK non-zeros unless one row holds more, the keys stay far
    # below 2**63 and no temporary grows with the corpus.
    s = 0
    while s < len(instances):
        e = int(np.searchsorted(indptr, indptr[s] + _INDEX_CHUNK, "right")) - 1
        e = max(s + 1, min(e, s + _INDEX_CHUNK))
        bounds = indptr[s : e + 1]
        block = slice(bounds[0], bounds[-1])
        key = np.repeat(np.arange(e - s) * rows.size, np.diff(bounds))
        key += pos[block]
        order = np.argsort(key)
        data[block], pos[block] = data[block][order], pos[block][order]
        s = e
    return rows, data, pos, indptr.astype(index)


def _product(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, W: np.ndarray
) -> np.ndarray:
    """``X @ W`` for the CSR matrix ``X`` with arrays ``(data, indices,
    indptr)``, equal bit for bit to scipy's CSR product.

    The rows are taken longest first.  Step ``p`` adds the ``p``-th term
    of every row longer than ``p`` to that row's sums, so each sum starts
    at +0.0 and adds its terms one after another in stored order, as
    scipy's loop does, with no BLAS call.
    """
    import numpy as np

    lengths = np.diff(indptr)
    order = np.argsort(-lengths, kind="stable")
    longest = lengths[order]
    starts = indptr[:-1][order]
    acc = np.zeros((lengths.size, W.shape[1]), dtype=np.float64)
    for p in range(int(longest[0]) if lengths.size else 0):
        m = int(np.count_nonzero(longest > p))
        k = starts[:m] + p
        acc[:m] += data[k, None] * W[indices[k]]
    out = np.empty_like(acc)
    out[order] = acc
    return out


def _sigmoid(x: float) -> float:
    """``1 / (1 + e^-x)`` through the C library's ``exp``, as
    ``scipy.special.expit`` computes it; numpy's own ``exp`` rounds some
    values differently."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # e^-x above the largest double: 1 / inf
        return 0.0


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


def _row_ranges(X: "sparse.csr_array", parts: int) -> list[tuple[slice, "sparse.csr_array"]]:
    """``X`` cut into ``parts`` ranges of rows with about equal non-zeros,
    as ``(rows, X[rows])`` pairs; each ``X[rows]`` is a CSR array over
    ``X``'s own data and indices, not a copy of them.  A range may be
    empty."""
    import numpy as np
    from scipy import sparse

    cuts = np.searchsorted(X.indptr, np.arange(1, parts) * X.nnz // parts)
    bounds = [0, *cuts.tolist(), X.shape[0]]
    ranges = []
    for a, b in zip(bounds, bounds[1:]):
        start, stop = X.indptr[a], X.indptr[b]
        # Set in place: scipy's slicing, and its constructor for a slice
        # under half of its base, copy the arrays.
        part = sparse.csr_array((b - a, X.shape[1]), dtype=X.dtype)
        part.indptr = X.indptr[a : b + 1] - start
        part.indices, part.data = X.indices[start:stop], X.data[start:stop]
        ranges.append((slice(a, b), part))
    return ranges


def _epoch(X: "sparse.csr_array", rows: slice, Xr: "sparse.csr_array", heads: slice,
           Y: np.ndarray, W: np.ndarray, B: np.ndarray, E: np.ndarray, tcfg: TrainConfig,
           barrier: threading.Barrier):
    """One epoch of one descent thread, in two halves that every thread
    runs together.

    First the forward product ``Xr @ W`` for every head, with ``Xr`` the
    rows ``rows`` of ``X`` (a gather along each row): the thread writes
    those rows of ``E``.  Once every thread has, the backward product
    ``X.T @ E[:, heads]`` (a scatter through the CSC view that shares
    ``X``'s arrays): the thread steps its heads' weights, then their
    biases from their columns' sums over all rows, which overwrite those
    columns of ``E``.  No thread starts the next epoch's forward product
    before every head has stepped.
    """
    E[rows] = _errors(Xr, Y[rows], W, B, X.shape[0])
    barrier.wait()
    Eg = E[:, heads]
    W[:, heads] -= tcfg.learning_rate * _weight_gradient(X.T, Eg, W[:, heads], tcfg.l2)
    B[heads] -= tcfg.learning_rate * _column_sums(Eg)
    barrier.wait()


def _descend(epochs: int, *args):
    """``epochs`` calls of :func:`_epoch` with ``args``; returns early once
    their barrier is aborted."""
    with suppress(threading.BrokenBarrierError):
        for _ in range(epochs):
            _epoch(*args)


def _run_together(calls: Iterable[Callable[[], object]], stop: Callable[[], object],
                  name: str = ""):
    """Run each of ``calls`` on a thread of its own, named ``{name}_{k}``
    if ``name`` is given, and wait for them all.

    A call that raises calls ``stop()`` on its own thread; ``stop()`` is
    called once more when every call has ended, and then the first
    exception is raised.  In the main thread, under Python's default
    SIGINT handler, Ctrl-C only calls ``stop()`` (a second one does
    nothing), and KeyboardInterrupt is raised once every thread has ended:
    Python runs signal handlers in the main thread, so none can raise
    while a thread is started or joined.
    """
    errors, interrupted = [], []

    def run(call):
        try:
            call()
        except BaseException as exc:
            errors.append(exc)
            stop()

    def on_sigint(signum, frame):
        interrupted.append(signum)
        # A second Ctrl-C may land inside the first one's stop().
        if len(interrupted) == 1:
            stop()

    catch = (threading.current_thread() is threading.main_thread()
             and signal.getsignal(signal.SIGINT) is signal.default_int_handler)
    if catch:
        signal.signal(signal.SIGINT, on_sigint)
    threads = []
    try:
        for k, call in enumerate(calls):
            thread = threading.Thread(target=run, args=(call,),
                                      name=f"{name}_{k}" if name else None)
            thread.start()
            threads.append(thread)
    except BaseException:  # a thread that could not start
        stop()
        raise
    finally:
        for thread in threads:
            thread.join()
        if catch:
            signal.signal(signal.SIGINT, signal.default_int_handler)
    stop()
    if errors:
        raise errors[0]
    if interrupted:
        raise KeyboardInterrupt


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

    Descent holds the design matrix once, as the row-major (CSR) arrays
    :func:`_design` returns.  It runs on one thread per CPU, at most one
    per trainable head, and each epoch in two halves (see :func:`_epoch`):
    each thread takes the forward product for a range of instances, then
    the backward product for a group of heads.  Each weight and bias adds
    its terms in the same order at any thread count, so the model is the
    same bit for bit.  The threads run through :func:`_run_together`, so
    an error in one, or Ctrl-C, stops the others at their next half.
    """
    import numpy as np
    from scipy import sparse

    fcfg = feature_config or FeatureConfig()
    tcfg = train_config or TrainConfig()
    Y = _gold_rows(corpus, h, "training").astype(np.float64)
    labels = h.labels
    # A column no document touches starts at 0 and the L2 update keeps it
    # there, so the model is exact on the used columns alone.
    used, *design = _design(corpus, fcfg)

    positives = Y.sum(axis=0)
    trainable = positives > 0
    for lab, ok in zip(labels, trainable):
        if not ok:
            logger.warning("label %r has no positive examples; head is always-negative", lab)

    # Descent runs on the trainable heads alone.
    active = np.flatnonzero(trainable)
    Wa = np.zeros((used.size, active.size), dtype=np.float64)
    Ba = np.zeros(active.size, dtype=np.float64)
    if active.size:
        X = sparse.csr_array(tuple(design), shape=(len(corpus), used.size))
        threads = min(_cpu_count(), active.size)
        heads = [slice(g[0], g[-1] + 1)
                 for g in np.array_split(np.arange(active.size), threads)]
        Ya = Y[:, active]
        E = np.zeros((len(corpus), active.size), dtype=np.float64)
        barrier = threading.Barrier(threads)
        _run_together([partial(_descend, tcfg.epochs, X, rows, Xr, g, Ya, Wa, Ba, E, tcfg, barrier)
                       for (rows, Xr), g in zip(_row_ranges(X, threads), heads)],
                      barrier.abort, "descent")

    W = np.zeros((used.size, len(labels)), dtype=np.float64)
    W[:, active] = Wa
    B = np.full(len(labels), _NEGATIVE_BIAS, dtype=np.float64)
    B[active] = Ba

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


def check_hierarchy(model: HierModel, h: LabelHierarchy):
    """Refuse (ValueError) a model trained against another hierarchy, or
    whose heads are not ``h.labels`` in that order, as ``train`` writes
    them: so head ``j`` closes through row ``j`` of ``h.closure``."""
    if h.fingerprint() != model.hierarchy_fingerprint:
        raise ValueError(
            "hierarchy fingerprint mismatch: the model was trained against a "
            "different hierarchy"
        )
    if model.labels != h.labels:
        raise ValueError(
            "model labels do not match the hierarchy: a model's heads must be the "
            "hierarchy's non-root labels in sorted order"
        )


def _score_matrix(model: HierModel, corpus: Sequence[MemeInstance]) -> np.ndarray:
    """Sigmoid scores, one row per instance and one column per head.

    ``expit(X @ W + b)`` with ``X`` the corpus's design matrix, equal bit
    for bit to scipy's CSR product and ``scipy.special.expit``: each row
    adds its terms one after another in ascending column order, with no
    BLAS call, so the scores do not depend on the CPU's BLAS kernel or on
    how many instances are scored together.  It is computed on the model's
    weight rows alone, which :func:`_design` shows is equal bit for bit,
    over blocks of at most ``_SCORE_BLOCK`` instances.
    """
    import numpy as np

    S = np.empty((len(corpus), len(model.labels)), dtype=np.float64)
    for start in range(0, len(corpus), _SCORE_BLOCK):
        block = corpus[start : start + _SCORE_BLOCK]
        Z = _product(*_design(block, model.feature_config, model.weight_rows)[1:],
                     model.row_weights)
        Z += model.bias
        S[start : start + len(block)] = np.fromiter(
            map(_sigmoid, Z.ravel().tolist()), dtype=np.float64, count=Z.size
        ).reshape(Z.shape)
    return S


def _predicted_sets(
    model: HierModel, h: LabelHierarchy, corpus: Sequence[MemeInstance]
) -> list[frozenset[str]]:
    import numpy as np

    closed = (_score_matrix(model, corpus) > model.thresholds) @ h.closure
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
    one the model was trained against, and a model whose labels are not
    ``h.labels`` in order.
    """
    check_hierarchy(model, h)
    return _predicted_sets(model, h, [inst])[0]


def predict_corpus(
    model: HierModel, h: LabelHierarchy, corpus: Iterable[MemeInstance]
) -> dict[str, frozenset[str]]:
    """:func:`predict` for every instance, keyed by id, scored in one batch."""
    check_hierarchy(model, h)
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
    import numpy as np

    check_hierarchy(model, h)
    G = _gold_rows(dev_corpus, h, "dev")
    S = _score_matrix(model, dev_corpus)
    gold_total = int(G.sum())

    def hf1(thresholds: np.ndarray) -> float:
        P = (S > thresholds) @ h.closure
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

def _canonical(value) -> str:
    return json.dumps(value, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def save_model(model: HierModel) -> bytes:
    """Canonical JSON bytes; float values round-trip exactly.

    The bytes are ``_canonical(payload) + "\\n"``, UTF-8 encoded.  The
    weights' key sorts last, so the rest of the payload is encoded first
    and the weight rows after it, ``_SCORE_BLOCK`` at a time: the file is
    held whole only once, as the bytes returned.
    """
    import numpy as np

    nz = np.flatnonzero(np.any(model.row_weights != 0.0, axis=1))
    head = {
        "kind": _MODEL_KIND,
        "format_version": _FORMAT_VERSION,
        "labels": list(model.labels),
        "feature_config": {
            "dimension": model.feature_config.dimension,
            "word_orders": list(_WORD_ORDERS),
            "char_orders": list(_CHAR_ORDERS),
            "mode": model.feature_config.mode,
        },
        "hierarchy_fingerprint": model.hierarchy_fingerprint,
        "seed": model.seed,
        "bias": [float(v) for v in model.bias],
        "thresholds": [float(v) for v in model.thresholds],
        "weight_rows": model.weight_rows[nz].tolist(),
    }
    out = io.BytesIO()
    out.write(_canonical(head)[:-1].encode("utf-8"))
    out.write(b',"weights":[')
    for start in range(0, nz.size, _SCORE_BLOCK):
        if start:
            out.write(b",")
        block = model.row_weights[nz[start : start + _SCORE_BLOCK]].tolist()
        out.write(_canonical(block)[1:-1].encode("utf-8"))
    out.write(b"]}\n")
    return out.getvalue()


_MODEL_KEYS = ("labels", "feature_config", "hierarchy_fingerprint", "seed",
               "bias", "thresholds", "weight_rows", "weights")
_FEATURE_KEYS = ("dimension", "word_orders", "char_orders", "mode")


def load_model(data: bytes) -> HierModel:
    """Inverse of save_model; validates kind, format version and structure.

    Raises ValueError naming the problem for a file that is not UTF-8
    JSON or not a model, lacks a key, holds a JSON type ``save_model``
    never writes there (a bool, a string or a float for an integer; a bool
    or a string for a number; anything but a string for the hierarchy
    fingerprint), whose weights, bias or thresholds disagree in shape with
    its labels and feature dimension, whose n-gram orders are not the
    fixed ones, whose dimension is not a power of two or is above 2**62,
    whose weights or bias are not finite or whose thresholds are not in
    (0, 1).  The rows may come in any order.
    """
    import numpy as np

    payload = read_json(data, "model file")
    if not isinstance(payload, dict) or payload.get("kind") != _MODEL_KIND:
        raise ValueError("not a model file (bad kind marker)")
    version = read_int(payload.get("format_version"), "malformed model file: format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    missing = [k for k in _MODEL_KEYS if k not in payload]
    fc = payload.get("feature_config", {})
    if not isinstance(fc, dict):
        raise ValueError("model file: feature_config is not an object")
    missing += [f"feature_config.{k}" for k in _FEATURE_KEYS if k not in fc]
    if missing:
        raise ValueError(f"model file is missing {', '.join(missing)}")
    dimension = read_int(fc["dimension"], "malformed model file: feature_config.dimension")
    seed = read_int(payload["seed"], "malformed model file: seed")
    for name, orders in (("word_orders", _WORD_ORDERS), ("char_orders", _CHAR_ORDERS)):
        # As JSON, so that [true, 2] and [1.0, 2.0] differ from [1, 2].
        if json.dumps(fc[name]) != json.dumps(list(orders)):
            raise ValueError(f"model file: feature_config.{name} must be "
                             f"{json.dumps(list(orders))}, not {json.dumps(fc[name])}")
    # Its own message names a bad dimension or mode.
    cfg = FeatureConfig(dimension, fc["mode"])
    fingerprint = payload["hierarchy_fingerprint"]
    if not isinstance(fingerprint, str):
        raise ValueError("malformed model file: hierarchy_fingerprint must be a string, "
                         f"not {json.dumps(fingerprint)}")
    labels = payload["labels"]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ValueError("model file: labels must be a list of strings")
    n = len(labels)
    for name in ("bias", "thresholds"):
        if not isinstance(payload[name], list) or len(payload[name]) != n:
            raise ValueError(f"model file: {name} must hold {n} numbers, one per label")
    bias = [read_number(b, f"malformed model file: the bias of label {label!r}")
            for label, b in zip(labels, payload["bias"])]
    thresholds = [read_number(t, f"malformed model file: the threshold of label {label!r}")
                  for label, t in zip(labels, payload["thresholds"])]
    for label, b, t in zip(labels, bias, thresholds):
        if not math.isfinite(b):
            raise ValueError(
                f"model file: the bias of label {label!r} is {b}, not a finite number")
        if not 0.0 < t < 1.0:
            raise ValueError(f"model file: the threshold of label {label!r} is {t}, not in (0, 1)")
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
    # save_model writes floats only; their types are checked in one pass,
    # and anything else is read one number at a time.
    if not set(map(type, chain.from_iterable(weights))) <= {float}:
        weights = [[read_number(w, f"malformed model file: weight row {i}") for w in row]
                   for i, row in zip(rows, weights)]
    W = np.array(weights, dtype=np.float64).reshape(len(rows), n)
    rows = np.array(rows, dtype=np.int64)
    bad = np.argwhere(~np.isfinite(W))
    if bad.size:
        r, j = bad[0]
        raise ValueError(
            f"model file: weight row {rows[r]} holds {W[r, j]} for label {labels[j]!r}, "
            "not a finite number"
        )
    order = np.argsort(rows)
    return HierModel(
        labels=tuple(labels),
        feature_config=cfg,
        hierarchy_fingerprint=fingerprint,
        seed=seed,
        weight_rows=rows[order],
        row_weights=W[order],
        bias=np.array(bias, dtype=np.float64),
        thresholds=np.array(thresholds, dtype=np.float64),
    )
