"""Corpus-level scoring: hierarchical precision/recall/F-beta, flat binary
micro/macro F1, per-class diagnostics and percentile-bootstrap intervals.

Hierarchical scores are ratios of corpus-wide sums over extended label
sets (gold and predicted sets are both closed upward before any set
arithmetic), not averages of per-instance scores.  The virtual root never
enters a label set, so it earns no credit.

Every score is a function of integer totals: per-instance tally rows
(``hierarchical_tallies``, ``binary_tallies``) summed over the corpus.
The bootstrap resamples those rows, so a resample costs one weighted sum.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .hierarchy import HierarchyError, LabelHierarchy

__all__ = [
    "HierarchicalScore",
    "ClassTally",
    "ClassScore",
    "FlatScore",
    "BootstrapInterval",
    "fbeta",
    "hierarchical_tallies",
    "hierarchical_from_totals",
    "hierarchical_score",
    "per_class_hierarchical_diagnostics",
    "binary_tallies",
    "binary_from_totals",
    "flat_binary_score",
    "bootstrap_ci",
    "POSITIVE_CLASS",
    "NEGATIVE_CLASS",
]

POSITIVE_CLASS = "positive"
NEGATIVE_CLASS = "negative"


@dataclass(frozen=True)
class HierarchicalScore:
    hp: float
    hr: float
    hf_beta: float
    beta: float
    overlap_total: int  # sum_i |ext(gold_i) & ext(pred_i)|
    pred_total: int     # sum_i |ext(pred_i)|
    gold_total: int     # sum_i |ext(gold_i)|
    n_instances: int
    missing_pred_ids: tuple[str, ...]


@dataclass(frozen=True)
class ClassTally:
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class ClassScore:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class FlatScore:
    micro_f1: float
    macro_f1: float
    per_class: dict[str, ClassScore]
    n_instances: int


@dataclass(frozen=True)
class BootstrapInterval:
    point: float
    lower: float
    upper: float
    resamples: int
    seed: int
    confidence: float


def fbeta(precision: float, recall: float, beta: float = 1.0) -> float:
    """(beta^2 + 1) * P * R / (beta^2 * P + R), and 0 when that denominator is 0.

    beta < 1 leans toward precision, beta > 1 toward recall; beta = 1 is
    the harmonic mean.  Equal arguments come back up to rounding:
    ``fbeta(0.1, 0.1)`` is 0.10000000000000002.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    denom = beta * beta * precision + recall
    if denom == 0.0:
        return 0.0
    if precision * recall < sys.float_info.min and precision > 0.0 and recall > 0.0:
        # A subnormal product has lost the digits the quotient needs (F0 at
        # P = 0.75, R = 5e-324 would read 1.0); exact rationals round once.
        # Imported here: fractions pulls in decimal, which no CLI run needs.
        from fractions import Fraction

        p, r, b2 = Fraction(precision), Fraction(recall), Fraction(beta) ** 2
        return float((b2 + 1) * p * r / (b2 * p + r))
    return (beta * beta + 1.0) * precision * recall / denom


def _closed_rows(
    h: LabelHierarchy,
    gold: Mapping[str, Iterable[str]],
    pred: Mapping[str, Iterable[str]],
) -> tuple[np.ndarray, np.ndarray]:
    """Closed gold and pred rows, one per gold id in ``gold``'s order.

    Ids missing from ``pred`` close to empty rows.  Sets are closed in the
    order gold[id], pred[id], id by id, and an error is prefixed with the
    name of the first offending set.
    """
    where = ""

    def sets():
        nonlocal where
        for iid in gold:
            where = f"gold[{iid}]"
            yield gold[iid]
            where = f"pred[{iid}]"
            yield pred.get(iid, ())

    try:
        rows = h.closed_rows(sets())
    except (HierarchyError, TypeError) as exc:
        raise type(exc)(f"{where}: {exc}") from None
    return rows[0::2], rows[1::2]


def hierarchical_tallies(
    h: LabelHierarchy,
    gold: Mapping[str, Iterable[str]],
    pred: Mapping[str, Iterable[str]],
) -> np.ndarray:
    """Per-instance ``[overlap, predicted, gold]`` sizes of the closed sets.

    Returns an ``(n, 3)`` int64 array, one row per gold id in sorted id
    order.  Ids missing from ``pred`` count as empty predictions; the
    validation and errors are those of :func:`hierarchical_score`.
    """
    if not gold:
        raise ValueError("empty corpus: no gold instances")
    extra = sorted(set(pred) - set(gold))
    if extra:
        raise ValueError(f"prediction ids not present in gold: {extra[:5]}")
    G, P = _closed_rows(h, gold, pred)
    tallies = np.stack([(G & P).sum(axis=1), P.sum(axis=1), G.sum(axis=1)], axis=1)
    ids = list(gold)
    order = sorted(range(len(ids)), key=ids.__getitem__)
    return tallies[order].astype(np.int64)


def hierarchical_from_totals(totals, beta: float = 1.0) -> tuple[float, float, float]:
    """(HP, HR, HF-beta) from corpus ``[overlap, predicted, gold]`` totals.

    Zero-denominator policy: an empty total on one side with a nonempty
    total on the other scores that component 0; when both totals are
    empty the task is vacuous and HP = HR = HF := 1.
    """
    overlap, pred_total, gold_total = (int(v) for v in totals)
    if pred_total == 0:
        hp = 1.0 if gold_total == 0 else 0.0
    else:
        hp = overlap / pred_total
    if gold_total == 0:
        hr = 1.0 if pred_total == 0 else 0.0
    else:
        hr = overlap / gold_total
    return hp, hr, fbeta(hp, hr, beta)


def hierarchical_score(
    h: LabelHierarchy,
    gold: Mapping[str, Iterable[str]],
    pred: Mapping[str, Iterable[str]],
    beta: float = 1.0,
) -> HierarchicalScore:
    """Hierarchical precision, recall and F-beta over a corpus.

    ``gold`` and ``pred`` map instance id -> label set.  Prediction ids
    must be a subset of gold ids; ids missing from ``pred`` are scored as
    empty predictions and reported in ``missing_pred_ids``.  Both sides
    are extended (ancestor-closed) before the sums are taken; the
    zero-denominator policy is that of :func:`hierarchical_from_totals`.
    """
    totals = tuple(int(v) for v in hierarchical_tallies(h, gold, pred).sum(axis=0))
    overlap, pred_total, gold_total = totals
    hp, hr, hf = hierarchical_from_totals(totals, beta)
    return HierarchicalScore(
        hp=hp,
        hr=hr,
        hf_beta=hf,
        beta=beta,
        overlap_total=overlap,
        pred_total=pred_total,
        gold_total=gold_total,
        n_instances=len(gold),
        missing_pred_ids=tuple(sorted(set(gold) - set(pred))),
    )


def per_class_hierarchical_diagnostics(
    h: LabelHierarchy,
    gold: Mapping[str, Iterable[str]],
    pred: Mapping[str, Iterable[str]],
) -> dict[str, ClassTally]:
    """Per-label tp/fp/fn over extended sets, for every non-root label.

    Labels untouched by both sides get an explicit (0, 0, 0) row.  The tp
    column sums to the overlap total of :func:`hierarchical_score`.
    """
    G, P = _closed_rows(h, gold, pred)
    tp = (G & P).sum(axis=0)
    fp = (P & ~G).sum(axis=0)
    fn = (G & ~P).sum(axis=0)
    return {
        label: ClassTally(int(tp[j]), int(fp[j]), int(fn[j]))
        for j, label in enumerate(h.labels)
    }


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2.0 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def binary_tallies(gold: Mapping[str, bool], pred: Mapping[str, bool]) -> np.ndarray:
    """One-hot ``[tp, fp, fn, tn]`` rows, one per id in sorted id order.

    Gold and pred must cover the same nonempty id set.
    """
    if not gold:
        raise ValueError("empty corpus: no gold instances")
    if set(gold) != set(pred):
        diff = sorted(set(gold) ^ set(pred))
        raise ValueError(f"gold/pred instance ids differ: {diff[:5]}")
    ids = sorted(gold)
    g = np.array([bool(gold[i]) for i in ids], dtype=bool)
    p = np.array([bool(pred[i]) for i in ids], dtype=bool)
    cell = np.where(g, np.where(p, 0, 2), np.where(p, 1, 3))
    return np.eye(4, dtype=np.int64)[cell]


def binary_from_totals(totals) -> FlatScore:
    """Binary micro/macro F1 from corpus ``[tp, fp, fn, tn]`` totals.

    micro_f1 pools the positive class across instances; macro_f1 is the
    unweighted mean of the positive-class and negative-class F1.
    """
    tp, fp, fn, tn = (int(v) for v in totals)
    pos = ClassScore(*_prf(tp, fp, fn), support=tp + fn)
    neg = ClassScore(*_prf(tn, fn, fp), support=tn + fp)
    return FlatScore(
        micro_f1=pos.f1,
        macro_f1=(pos.f1 + neg.f1) / 2.0,
        per_class={POSITIVE_CLASS: pos, NEGATIVE_CLASS: neg},
        n_instances=tp + fp + fn + tn,
    )


def flat_binary_score(
    gold: Mapping[str, bool], pred: Mapping[str, bool]
) -> FlatScore:
    """Binary micro/macro F1 for the propagandistic-or-not task; see
    :func:`binary_from_totals`."""
    return binary_from_totals(binary_tallies(gold, pred).sum(axis=0))


def _percentile(ordered: np.ndarray, q: float) -> float:
    """``np.percentile(ordered, q)`` for sorted, NaN-free ``ordered``.

    numpy's default "linear" method, operation for operation, so the
    result is the same float; computed here because ``np.percentile``
    imports ``numpy.ma`` on first use.
    """
    n = len(ordered)
    virtual = (n - 1) * (q / 100)
    if virtual >= n - 1:
        # numpy takes the last value for both neighbours, as index -1,
        # and measures the weight from that index.
        lo = hi = -1
    else:
        lo = math.floor(virtual)
        hi = lo + 1
    t = virtual - lo
    a, b = float(ordered[lo]), float(ordered[hi])
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def bootstrap_ci(
    statistic: Callable[[np.ndarray], float],
    tallies: np.ndarray,
    resamples: int = 1000,
    seed: int = 0,
    confidence: float = 0.95,
) -> BootstrapInterval:
    """Percentile bootstrap over instance resampling.

    ``tallies`` holds one integer row per instance (as returned by
    :func:`hierarchical_tallies` or :func:`binary_tallies`), and
    ``statistic`` maps a column-sum row to a float; the point estimate is
    the statistic of the full sample's sums.  Resample ``i`` draws its
    indices from ``numpy.random.default_rng([seed, i])`` and scores the
    sums of the drawn rows, so runs are reproducible and resamples are
    order-independent.  The interval is widened, if needed, to contain
    the point estimate.
    """
    tallies = np.asarray(tallies)
    n = len(tallies)
    if n < 2:
        raise ValueError("bootstrap needs at least 2 instances")
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")

    point = float(statistic(tallies.sum(axis=0)))
    stats = np.empty(resamples, dtype=np.float64)
    for i in range(resamples):
        idx = np.random.default_rng([seed, i]).integers(0, n, size=n)
        stats[i] = statistic(np.bincount(idx, minlength=n) @ tallies)

    stats.sort()
    if math.isnan(stats[-1]):  # NaN sorts last
        raise ValueError("score function produced NaN during resampling")
    alpha = (1.0 - confidence) / 2.0
    lower = min(_percentile(stats, 100.0 * alpha), point)
    upper = max(_percentile(stats, 100.0 * (1.0 - alpha)), point)
    return BootstrapInterval(
        point=point,
        lower=lower,
        upper=upper,
        resamples=resamples,
        seed=seed,
        confidence=confidence,
    )
