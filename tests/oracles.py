"""Brute-force reference implementations used to cross-check the library.

Everything here is deliberately naive and independent of the package
internals: ancestor sets by fixpoint iteration over raw edge lists,
scores by literal formula arithmetic, cycle detection by colored DFS,
LCS by the full quadratic table.  Slow is fine; different is the point.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter

import numpy as np
from scipy.special import expit


# -- hierarchy ---------------------------------------------------------------

def brute_ancestors(edges: list[tuple[str, str]], label: str) -> set[str]:
    """Strict ancestors by repeated parent expansion (root not excluded)."""
    parents: dict[str, set[str]] = {}
    for c, p in edges:
        parents.setdefault(c, set()).add(p)
    anc: set[str] = set()
    frontier = set(parents.get(label, set()))
    while frontier:
        anc |= frontier
        nxt: set[str] = set()
        for n in frontier:
            nxt |= parents.get(n, set())
        frontier = nxt - anc
    return anc


def brute_extend(root: str, edges: list[tuple[str, str]], labels) -> set[str]:
    out: set[str] = set()
    for lab in labels:
        out.add(lab)
        out |= brute_ancestors(edges, lab)
    out.discard(root)
    return out


def brute_has_cycle(edges: list[tuple[str, str]]) -> bool:
    adj: dict[str, list[str]] = {}
    for c, p in edges:
        adj.setdefault(c, []).append(p)
    color: dict[str, int] = {}

    def visit(n: str) -> bool:
        color[n] = 1
        for m in adj.get(n, ()):
            c = color.get(m, 0)
            if c == 1:
                return True
            if c == 0 and visit(m):
                return True
        color[n] = 2
        return False

    return any(color.get(n, 0) == 0 and visit(n) for n in list(adj))


def brute_floating_parents(root: str, edges: list[tuple[str, str]]) -> set[str]:
    """Parents that are never introduced as a child and are not the root."""
    children = {c for c, _ in edges}
    return {p for _, p in edges} - children - {root}


# -- scoring -----------------------------------------------------------------

def brute_fbeta(p: float, r: float, beta: float) -> float:
    denom = beta * beta * p + r
    if denom == 0.0:
        return 0.0
    return (beta * beta + 1.0) * p * r / denom


def brute_hier_score(root, edges, gold: dict, pred: dict, beta: float = 1.0):
    """Literal corpus-sum arithmetic over extended sets.

    Shares the documented zero-denominator convention: empty total on one
    side with a nonempty other side scores 0; both sides empty scores 1.
    """
    inter = predt = goldt = 0
    for iid in gold:
        g = brute_extend(root, edges, gold[iid])
        p = brute_extend(root, edges, pred.get(iid, ()))
        inter += len(g & p)
        predt += len(p)
        goldt += len(g)
    if predt == 0:
        hp = 1.0 if goldt == 0 else 0.0
    else:
        hp = inter / predt
    if goldt == 0:
        hr = 1.0 if predt == 0 else 0.0
    else:
        hr = inter / goldt
    return hp, hr, brute_fbeta(hp, hr, beta)


def brute_flat_micro(gold_sets, pred_sets, labels):
    """Pooled per-label tp/fp/fn micro P/R/F1 over aligned label sets."""
    tp = fp = fn = 0
    for g, p in zip(gold_sets, pred_sets):
        for lab in labels:
            if lab in g and lab in p:
                tp += 1
            elif lab in p:
                fp += 1
            elif lab in g:
                fn += 1
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return prec, rec, f1


def brute_binary_prf(gold: dict, pred: dict):
    """Positive/negative per-class P/R/F1 plus macro, counted longhand."""
    tp = sum(1 for i in gold if gold[i] and pred[i])
    fp = sum(1 for i in gold if not gold[i] and pred[i])
    fn = sum(1 for i in gold if gold[i] and not pred[i])
    tn = sum(1 for i in gold if not gold[i] and not pred[i])

    def prf(a, b, c):
        p = a / (a + b) if a + b else 0.0
        r = a / (a + c) if a + c else 0.0
        return p, r, (2 * p * r / (p + r) if p + r else 0.0)

    pos = prf(tp, fp, fn)
    neg = prf(tn, fn, fp)
    return pos, neg, (pos[2] + neg[2]) / 2.0


def brute_bootstrap(score_fn, gold: dict, pred: dict, resamples, seed, confidence):
    """Second resampler with the same documented stream definition."""
    ids = sorted(gold)
    n = len(ids)
    point = float(score_fn(gold, pred))
    stats = []
    for i in range(resamples):
        rng = np.random.default_rng([seed, i])
        idx = rng.integers(0, n, size=n)
        g = {str(j): gold[ids[k]] for j, k in enumerate(idx)}
        p = {str(j): pred[ids[k]] for j, k in enumerate(idx)}
        stats.append(float(score_fn(g, p)))
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.percentile(stats, [100 * alpha, 100 * (1 - alpha)])
    return point, min(float(lo), point), max(float(hi), point)


# -- training ------------------------------------------------------------------

def dense_descent(X, Y: np.ndarray, epochs: int, learning_rate: float, l2: float,
                  negative_bias: float = -50.0):
    """Reference trainer: full-batch descent over every weight row,
    including the columns no document touches.

    Returns (W, B) with W of shape (X.shape[1], Y.shape[1]).  Heads with
    no positive example get zero weights and ``negative_bias``.
    """
    n, dimension = X.shape
    trainable = Y.sum(axis=0) > 0
    W = np.zeros((dimension, Y.shape[1]), dtype=np.float64)
    B = np.zeros(Y.shape[1], dtype=np.float64)
    B[~trainable] = negative_bias

    active = np.flatnonzero(trainable)
    if active.size:
        Wa = np.zeros((dimension, active.size), dtype=np.float64)
        Ba = np.zeros(active.size, dtype=np.float64)
        Ya = Y[:, active]
        XT = X.T.tocsr()
        for _ in range(epochs):
            P = expit(X @ Wa + Ba)
            E = (P - Ya) / n
            Wa -= learning_rate * (XT @ E + l2 * Wa)
            Ba -= learning_rate * E.sum(axis=0)
        W[:, active] = Wa
        B[active] = Ba
    return W, B


# -- features and scores -------------------------------------------------------

def _reference_hash_feature(feature: str, dim: int) -> tuple[int, float]:
    v = int.from_bytes(hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest(),
                       "little")
    return v % dim, (1.0 if v & (1 << 63) else -1.0)


def _reference_accumulate(vec: dict, text: str, prefix: str, cfg):
    from persuasionkit.textmetrics import tokenize

    tokens = tokenize(text)
    for n in cfg.word_orders:
        for i in range(len(tokens) - n + 1):
            idx, sign = _reference_hash_feature(
                f"{prefix}w{n}:" + " ".join(tokens[i : i + n]), cfg.dimension
            )
            vec[idx] = vec.get(idx, 0.0) + sign
    chars = " ".join(text.lower().split())
    for n in cfg.char_orders:
        for i in range(len(chars) - n + 1):
            idx, sign = _reference_hash_feature(f"{prefix}c{n}:" + chars[i : i + n],
                                                cfg.dimension)
            vec[idx] = vec.get(idx, 0.0) + sign


def reference_featurize(text: str, caption, cfg) -> dict:
    """Reference featurizer: one uncached hash and one ``+= sign`` per
    n-gram occurrence, then the zero buckets dropped and an L2 norm by
    ``np.sqrt``."""
    vec: dict = {}
    _reference_accumulate(vec, text, "", cfg)
    if cfg.mode == "text+caption" and caption is not None:
        _reference_accumulate(vec, caption, "C|", cfg)
    vec = {i: v for i, v in vec.items() if v != 0.0}
    norm = np.sqrt(sum(v * v for v in vec.values()))
    if norm > 0:
        vec = {i: v / norm for i, v in vec.items()}
    return vec


def reference_scores(model, corpus) -> np.ndarray:
    """Scores with no BLAS call: per instance and head, a plain float sum
    of ``x_i * W[i, j]`` from 0.0, left to right in ascending bucket
    order, then ``+ b[j]``, then ``expit``."""
    from persuasionkit.baseline import featurize

    Z = []
    for inst in corpus:
        vec = featurize(inst.text, inst.caption, model.feature_config)
        cols = sorted(vec)
        rows = model.weights[cols].tolist()
        Z.append([])
        for j, b in enumerate(model.bias.tolist()):
            z = 0.0
            for i, w in zip(cols, rows):
                z += vec[i] * w[j]
            Z[-1].append(z + b)
    return expit(np.array(Z, dtype=np.float64).reshape(len(Z), len(model.labels)))


def reference_instance_scores(model, inst) -> np.ndarray:
    """Scores as the package computed them before the batched scorer: one
    instance at a time, ``val @ W[idx]`` in feature-dict order through
    BLAS, so the rounding depends on the BLAS kernel."""
    from persuasionkit.baseline import featurize

    vec = featurize(inst.text, inst.caption, model.feature_config)
    if not vec:
        return expit(model.bias.copy())
    idx = np.fromiter(vec.keys(), dtype=np.int64, count=len(vec))
    val = np.fromiter(vec.values(), dtype=np.float64, count=len(vec))
    return expit(val @ model.weights[idx] + model.bias)


# -- threshold tuning ----------------------------------------------------------

def reference_tune_thresholds(model, dev_corpus, h, max_passes: int = 2):
    """Reference coordinate-ascent tuner: each candidate threshold vector
    re-closes every dev prediction with ``extend`` and rescores the dev
    corpus with ``hierarchical_score`` over id-keyed maps.

    It shares the package's batched scores and its scorer (itself checked
    against ``brute_hier_score``), not its tuning arithmetic.
    """
    from dataclasses import replace

    from persuasionkit.baseline import THRESHOLD_GRID, _check_hierarchy, _score_matrix
    from persuasionkit.metrics import hierarchical_score

    _check_hierarchy(model, h)
    if not dev_corpus:
        raise ValueError("dev corpus is empty")
    for inst in dev_corpus:
        if inst.gold is None:
            raise ValueError(f"dev instance {inst.id!r} has no gold labels")

    S = _score_matrix(model, dev_corpus)
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


# -- text --------------------------------------------------------------------

def brute_lcs(a, b) -> int:
    """Full-table LCS, no rolling-row trick."""
    m, n = len(a), len(b)
    T = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if a[i - 1] == b[j - 1]:
                T[i][j] = T[i - 1][j - 1] + 1
            else:
                T[i][j] = max(T[i - 1][j], T[i][j - 1])
    return T[m][n]


# The rolling-row LCS and per-position n-gram BLEU that textmetrics used
# before its bit-parallel LCS and zip-counted n-grams; the fast kernels
# must return exactly what these return.

def reference_lcs_len(a, b) -> int:
    # Rolling-row LCS; O(len(a) * len(b)) time, O(len(b)) space.
    if len(b) > len(a):
        a, b = b, a
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def _reference_ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def reference_bleu4(candidate, references, max_order: int = 4) -> float:
    refs = [list(r) for r in references]
    if not refs or all(len(r) == 0 for r in refs):
        raise ValueError("at least one nonempty reference is required")
    if not candidate:
        return 0.0

    c = len(candidate)
    r = min((abs(len(ref) - c), len(ref)) for ref in refs)[1]

    log_sum = 0.0
    orders = 0
    for n in range(1, max_order + 1):
        cand_counts = _reference_ngram_counts(candidate, n)
        if not cand_counts:
            continue
        max_ref: Counter = Counter()
        for ref in refs:
            for gram, cnt in _reference_ngram_counts(ref, n).items():
                if cnt > max_ref[gram]:
                    max_ref[gram] = cnt
        clipped = sum(min(cnt, max_ref[gram]) for gram, cnt in cand_counts.items())
        total = sum(cand_counts.values())
        if clipped == 0:
            return 0.0
        log_sum += math.log(clipped / total)
        orders += 1
    if orders == 0:
        return 0.0

    geo = math.exp(log_sum / orders)
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    return bp * geo


# -- random generators ---------------------------------------------------------

def random_hierarchy(rng: random.Random, max_nodes: int = 50):
    """Acyclic by construction: node i picks parents among root and earlier
    nodes.  Returns (root, non_root_names, edges)."""
    n = rng.randint(1, max_nodes - 1)
    root = "root"
    names = [f"L{i:02d}" for i in range(n)]
    edges: list[tuple[str, str]] = []
    for i, name in enumerate(names):
        pool = [root] + names[:i]
        n_parents = 2 if (len(pool) > 1 and rng.random() < 0.25) else 1
        for p in rng.sample(pool, n_parents):
            edges.append((name, p))
    return root, names, edges


def random_label_maps(rng: random.Random, names, n_instances: int, density=0.15):
    gold: dict[str, set[str]] = {}
    pred: dict[str, set[str]] = {}
    for j in range(n_instances):
        iid = f"i{j:03d}"
        gold[iid] = {x for x in names if rng.random() < density}
        pred[iid] = {x for x in names if rng.random() < density}
    return gold, pred


def fd_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences, one coordinate at a time."""
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g
