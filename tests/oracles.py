"""Brute-force reference implementations used to cross-check the library.

Everything here is deliberately naive and independent of the package
internals: ancestor sets by fixpoint iteration over raw edge lists,
scores by literal formula arithmetic, cycle detection by colored DFS,
LCS by the full quadratic table.  Slow is fine; different is the point.
"""

from __future__ import annotations

import random

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
