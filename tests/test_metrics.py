import dataclasses
import math
import os
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from persuasionkit.hierarchy import LabelHierarchy, UnknownLabelError, parse_hierarchy
from persuasionkit.metrics import (
    binary_from_totals,
    bootstrap_ci,
    fbeta,
    flat_binary_score,
    hierarchical_from_totals,
    hierarchical_score,
    per_class_hierarchical_diagnostics,
)
from persuasionkit.metrics import _percentile

from oracles import (
    brute_binary_prf,
    brute_bootstrap,
    brute_hier_score,
    random_hierarchy,
    random_label_maps,
)

WORKED = "persuasion\nEthos\tpersuasion\nNameCalling\tEthos\nPathos\tpersuasion"
MULTI_PARENT = (
    "persuasion\nEthos\tpersuasion\nLogos\tpersuasion\n"
    "Shared\tEthos\nShared\tLogos\nLeaf\tShared"
)
SUBTASK2A = os.path.join(
    os.path.dirname(__file__), "..", "data", "hierarchies", "subtask2a_techniques.txt"
)


@pytest.fixture(scope="module")
def worked():
    return parse_hierarchy(WORKED)


def test_worked_example(worked):
    s = hierarchical_score(worked, {"m1": {"NameCalling"}}, {"m1": {"Ethos"}})
    assert s.hp == pytest.approx(1.0, abs=1e-9)
    assert s.hr == pytest.approx(0.5, abs=1e-9)
    assert s.hf_beta == pytest.approx(0.666667, abs=1e-6)
    assert s.overlap_total == 1 and s.pred_total == 1 and s.gold_total == 2


def test_zero_denominator_policy(worked):
    # empty predictions against nonempty gold
    s = hierarchical_score(worked, {"a": {"Pathos"}}, {"a": set()})
    assert (s.hp, s.hr, s.hf_beta) == (0.0, 0.0, 0.0)
    # both sides empty: vacuously perfect
    s = hierarchical_score(worked, {"a": set()}, {"a": set()})
    assert (s.hp, s.hr, s.hf_beta) == (1.0, 1.0, 1.0)
    # empty gold against nonempty predictions
    s = hierarchical_score(worked, {"a": set()}, {"a": {"Pathos"}})
    assert (s.hp, s.hr, s.hf_beta) == (0.0, 0.0, 0.0)


def test_missing_and_extra_prediction_ids(worked):
    s = hierarchical_score(
        worked, {"a": {"Pathos"}, "b": {"Pathos"}}, {"a": {"Pathos"}}
    )
    assert s.missing_pred_ids == ("b",)
    assert s.hp == 1.0 and s.hr == 0.5
    for score in (hierarchical_score, per_class_hierarchical_diagnostics):
        with pytest.raises(ValueError, match="not present in gold"):
            score(worked, {"a": {"Pathos"}}, {"a": set(), "zz": {"Pathos"}})
        with pytest.raises(ValueError, match="empty corpus"):
            score(worked, {}, {})


def test_sides_are_extended_before_arithmetic(worked):
    # unclosed gold and pred behave exactly like their closures
    a = hierarchical_score(worked, {"x": {"NameCalling"}}, {"x": {"NameCalling"}})
    b = hierarchical_score(
        worked, {"x": {"NameCalling", "Ethos"}}, {"x": {"NameCalling", "Ethos"}}
    )
    assert (a.hp, a.hr, a.hf_beta) == (b.hp, b.hr, b.hf_beta) == (1.0, 1.0, 1.0)


def test_scale_invariance(worked):
    gold = {"a": {"NameCalling"}, "b": {"Pathos"}}
    pred = {"a": {"Ethos"}, "b": {"Pathos"}}
    one = hierarchical_score(worked, gold, pred)
    gold3 = {f"{i}-{k}": v for i in range(3) for k, v in gold.items()}
    pred3 = {f"{i}-{k}": v for i in range(3) for k, v in pred.items()}
    three = hierarchical_score(worked, gold3, pred3)
    assert (one.hp, one.hr, one.hf_beta) == (three.hp, three.hr, three.hf_beta)


def test_adding_correct_label_never_decreases_recall(worked):
    rng = random.Random(7)
    labels = sorted(worked.non_root_labels())
    for _ in range(200):
        gold = {"i": {x for x in labels if rng.random() < 0.5} or {"NameCalling"}}
        pred = {"i": {x for x in labels if rng.random() < 0.3}}
        base = hierarchical_score(worked, gold, pred)
        missing = worked.extend(gold["i"]) - worked.extend(pred["i"]) if pred["i"] else worked.extend(gold["i"])
        if not missing:
            continue
        richer = {"i": pred["i"] | {sorted(missing)[0]}}
        assert hierarchical_score(worked, gold, richer).hr >= base.hr


def test_oracle_equivalence_randomized():
    rng = random.Random(20240818)
    for _ in range(150):
        root, names, edges = random_hierarchy(rng, max_nodes=30)
        h = LabelHierarchy.from_edges(root, edges)
        gold, pred = random_label_maps(rng, names, rng.randint(1, 15))
        beta = rng.choice([0.5, 1.0, 2.0])
        s = hierarchical_score(h, gold, pred, beta=beta)
        hp, hr, hf = brute_hier_score(root, edges, gold, pred, beta)
        assert s.hp == pytest.approx(hp, abs=1e-12)
        assert s.hr == pytest.approx(hr, abs=1e-12)
        assert s.hf_beta == pytest.approx(hf, abs=1e-12)


def test_label_set_errors_name_the_first_offending_set(worked):
    gold = {"b": {"Pathos"}, "a": {"Nope"}}
    with pytest.raises(UnknownLabelError, match=r"^gold\[a\]: unknown label 'Nope'$"):
        hierarchical_score(worked, gold, {})
    # per instance, gold is closed before pred; instances go in gold's order
    with pytest.raises(UnknownLabelError, match=r"^pred\[b\]: "):
        hierarchical_score(worked, gold, {"b": {"Bad"}})
    with pytest.raises(ValueError, match=r"^pred\[b\]: the virtual root"):
        hierarchical_score(worked, {"b": set()}, {"b": {"persuasion"}})


def test_hierarchical_tallies_rows(worked):
    gold = {"b": {"NameCalling"}, "a": {"Pathos"}, "c": set()}
    pred = {"b": {"Ethos"}, "c": {"Pathos"}}
    s = hierarchical_score(worked, gold, pred)
    t = s.tallies
    assert t.dtype == np.int64
    # rows in sorted id order: a (pred missing), b, c
    assert t.tolist() == [[0, 0, 1], [1, 1, 2], [0, 1, 0]]
    assert t.sum(axis=0).tolist() == [s.overlap_total, s.pred_total, s.gold_total]
    assert hierarchical_from_totals(t.sum(axis=0)) == (s.hp, s.hr, s.hf_beta)
    # the rows take no part in equality or repr
    assert dataclasses.replace(s, tallies=t[::-1]) == s
    assert "tallies" not in repr(s)


def test_binary_tallies_rows():
    s = flat_binary_score({"d": False, "a": True, "c": False, "b": True},
                          {"a": True, "b": False, "c": True, "d": False})
    t = s.tallies
    assert t.dtype == np.int64
    assert t.tolist() == [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    from_totals = binary_from_totals(t.sum(axis=0))
    assert from_totals.tallies is None
    assert from_totals == s and from_totals.n_instances == 4
    assert "tallies" not in repr(s)


def test_fbeta_worked_values():
    assert fbeta(1.0, 0.5, 1.0) == pytest.approx(2 / 3, abs=1e-12)
    assert fbeta(0.25, 0.25, 3.7) == 0.25  # equal args are a fixed point
    assert fbeta(0.0, 0.0, 1.0) == 0.0
    for beta in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="beta must be a finite number"):
            fbeta(0.5, 0.5, beta)


@given(
    p=st.floats(0.0, 1.0, allow_nan=False),
    r=st.floats(0.0, 1.0, allow_nan=False),
    beta=st.floats(0.0, 50.0, allow_nan=False),
)
@example(p=0.75, r=5e-324, beta=0.0)  # subnormal P*R: F0 must still be P
def test_fbeta_bounds(p, r, beta):
    f = fbeta(p, r, beta)
    if p + r > 0:
        assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12
    else:
        assert f == 0.0


def test_fbeta_endpoints():
    rng = random.Random(11)
    for _ in range(100):
        p = rng.uniform(0.1, 1.0)
        r = rng.uniform(0.1, 1.0)
        assert abs(fbeta(p, r, 0.01) - p) < 1e-3
        assert abs(fbeta(p, r, 100.0) - r) < 1e-3


def test_per_class_diagnostics(worked):
    diag = per_class_hierarchical_diagnostics(
        worked, {"m1": {"NameCalling"}}, {"m1": {"Ethos"}}
    )
    assert diag["Ethos"].tp == 1 and diag["Ethos"].fp == 0
    assert diag["NameCalling"].fn == 1
    assert (diag["Pathos"].tp, diag["Pathos"].fp, diag["Pathos"].fn) == (0, 0, 0)
    # tp column sums to the overlap total
    rng = random.Random(5)
    labels = sorted(worked.non_root_labels())
    gold, pred = random_label_maps(rng, labels, 20, density=0.4)
    s = hierarchical_score(worked, gold, pred)
    d = per_class_hierarchical_diagnostics(worked, gold, pred)
    assert sum(t.tp for t in d.values()) == s.overlap_total
    assert sum(t.fp for t in d.values()) == s.pred_total - s.overlap_total
    assert sum(t.fn for t in d.values()) == s.gold_total - s.overlap_total


def test_flat_binary_worked_example():
    gold = {"m1": True, "m2": True, "m3": False, "m4": False}
    pred = {"m1": True, "m2": False, "m3": True, "m4": False}
    s = flat_binary_score(gold, pred)
    pos = s.per_class["positive"]
    assert (pos.precision, pos.recall, pos.f1) == (0.5, 0.5, 0.5)
    assert s.per_class["negative"].f1 == 0.5
    assert s.micro_f1 == 0.5 and s.macro_f1 == 0.5
    assert pos.support == 2 and s.per_class["negative"].support == 2
    assert pos.support + s.per_class["negative"].support == s.n_instances


def test_flat_binary_against_oracle():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 30)
        gold = {f"i{j}": rng.random() < 0.5 for j in range(n)}
        pred = {f"i{j}": rng.random() < 0.5 for j in range(n)}
        s = flat_binary_score(gold, pred)
        pos, neg, macro = brute_binary_prf(gold, pred)
        assert s.per_class["positive"].f1 == pytest.approx(pos[2], abs=1e-12)
        assert s.per_class["negative"].f1 == pytest.approx(neg[2], abs=1e-12)
        assert s.micro_f1 == pytest.approx(pos[2], abs=1e-12)
        assert s.macro_f1 == pytest.approx(macro, abs=1e-12)


def test_flat_binary_id_mismatch():
    with pytest.raises(ValueError, match="ids differ"):
        flat_binary_score({"a": True}, {"b": True})
    with pytest.raises(ValueError, match="empty corpus"):
        flat_binary_score({}, {})


def _hf1(h):
    return lambda g, p: hierarchical_score(h, g, p).hf_beta


def _hier_ci(h, gold, pred, **kw):
    return bootstrap_ci(lambda totals: hierarchical_from_totals(totals)[2],
                        hierarchical_score(h, gold, pred).tallies, **kw)


def test_bootstrap_deterministic_and_matches_independent_resampler(worked):
    rng = random.Random(8)
    labels = sorted(worked.non_root_labels())
    gold, pred = random_label_maps(rng, labels, 25, density=0.4)
    a = _hier_ci(worked, gold, pred, resamples=200, seed=13)
    b = _hier_ci(worked, gold, pred, resamples=200, seed=13)
    assert a == b
    point, lo, hi = brute_bootstrap(_hf1(worked), gold, pred, 200, 13, 0.95)
    assert a.point == pytest.approx(point, abs=0)
    assert a.lower == pytest.approx(lo, abs=0)
    assert a.upper == pytest.approx(hi, abs=0)
    assert a.lower <= a.point <= a.upper
    c = _hier_ci(worked, gold, pred, resamples=200, seed=14)
    assert (a.lower, a.upper) != (c.lower, c.upper) or a.point == c.point


def test_bootstrap_perfect_predictions(worked):
    gold = {"a": {"NameCalling"}, "b": {"Pathos"}, "c": {"Ethos"}}
    ci = _hier_ci(worked, gold, dict(gold), resamples=100, seed=1)
    assert ci.point == 1.0 and ci.lower == 1.0 and ci.upper == 1.0


def test_bootstrap_validation(worked):
    gold = {"a": {"Pathos"}, "b": {"Pathos"}}
    with pytest.raises(ValueError, match="at least 2"):
        _hier_ci(worked, {"a": {"Pathos"}}, {"a": {"Pathos"}}, seed=0)
    with pytest.raises(ValueError, match="confidence"):
        _hier_ci(worked, gold, gold, seed=0, confidence=1.5)
    with pytest.raises(ValueError, match="resamples"):
        _hier_ci(worked, gold, gold, seed=0, resamples=0)


def test_bootstrap_interval_brackets_point(worked):
    rng = random.Random(77)
    labels = sorted(worked.non_root_labels())
    for _ in range(10):
        gold, pred = random_label_maps(rng, labels, rng.randint(2, 40), density=0.5)
        ci = _hier_ci(worked, gold, pred, resamples=100, seed=rng.randint(0, 999))
        assert 0.0 <= ci.lower <= ci.point <= ci.upper <= 1.0


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.floats(0.0, 1.0), st.sampled_from((0.0, 0.25, 0.5, 1.0))),
        min_size=1, max_size=200),
    confidence=st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                         st.sampled_from((0.5, 0.9, 0.95, 0.99))),
)
@example(values=[0.5], confidence=0.95)  # one value: both bounds clamp to it
@example(values=[0.0, 1.0], confidence=0.0001)
def test_percentile_equals_numpy(values, confidence):
    # bootstrap_ci's bounds, from the sorted statistics, must be the very
    # floats np.percentile's linear method gives.
    alpha = (1.0 - confidence) / 2.0
    qs = [100.0 * alpha, 100.0 * (1.0 - alpha)]
    ordered = np.sort(np.array(values, dtype=np.float64))
    got = [_percentile(ordered, q) for q in qs]
    assert got == np.percentile(np.array(values, dtype=np.float64), qs).tolist()


def test_bootstrap_nan_statistic_is_refused(worked):
    gold = {"a": {"Pathos"}, "b": {"Ethos"}}
    with pytest.raises(ValueError, match="NaN"):
        bootstrap_ci(lambda totals: float("nan") if totals[0] != 1 else 0.5,
                     hierarchical_score(worked, gold, gold).tallies, resamples=20, seed=0)


def _hierarchies():
    with open(SUBTASK2A, encoding="utf-8") as fh:
        return [parse_hierarchy(WORKED), parse_hierarchy(MULTI_PARENT), parse_hierarchy(fh.read())]


HIERARCHIES = _hierarchies()


@st.composite
def _interval_args(draw):
    return {
        "resamples": draw(st.integers(1, 40)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "confidence": draw(st.sampled_from((0.5, 0.9, 0.95, 0.99))),
    }


@st.composite
def _hier_cases(draw):
    h = draw(st.sampled_from(HIERARCHIES))
    ids = draw(st.permutations([f"i{j:02d}" for j in range(draw(st.integers(2, 12)))]))
    label_sets = st.frozensets(st.sampled_from(h.labels), max_size=3)
    gold = {iid: draw(label_sets) for iid in ids}
    pred = {iid: draw(label_sets) for iid in ids if draw(st.booleans())}
    return h, gold, pred, draw(st.sampled_from((0.5, 1.0, 2.0))), draw(_interval_args())


@settings(max_examples=60, deadline=None)
@given(_hier_cases())
@example((  # n = 2 on the multi-parent DAG: a missing prediction and an empty gold set
    HIERARCHIES[1], {"i01": frozenset(), "i00": frozenset({"Leaf"})},
    {"i01": frozenset({"Shared"})}, 1.0, {"resamples": 25, "seed": 7, "confidence": 0.95},
))
def test_hier_bootstrap_equals_brute_resampler(case):
    h, gold, pred, beta, kw = case
    edges = sorted(h.edges)
    ci = bootstrap_ci(lambda t: hierarchical_from_totals(t, beta)[2],
                      hierarchical_score(h, gold, pred).tallies, **kw)
    # the brute resampler reads pred[id], so missing ids ride along as empty sets
    filled = {iid: pred.get(iid, frozenset()) for iid in gold}
    point, lo, hi = brute_bootstrap(
        lambda g, p: brute_hier_score(h.root, edges, g, p, beta)[2],
        gold, filled, kw["resamples"], kw["seed"], kw["confidence"])
    assert (ci.point, ci.lower, ci.upper) == (point, lo, hi)


@st.composite
def _binary_cases(draw):
    ids = draw(st.permutations([f"i{j:02d}" for j in range(draw(st.integers(2, 12)))]))
    gold = {iid: draw(st.booleans()) for iid in ids}
    pred = {iid: draw(st.booleans()) for iid in ids}
    return gold, pred, draw(_interval_args())


@settings(max_examples=60, deadline=None)
@given(_binary_cases())
@example(({"b": True, "a": False}, {"a": True, "b": True},
          {"resamples": 30, "seed": 3, "confidence": 0.9}))
def test_binary_bootstrap_equals_brute_resampler(case):
    gold, pred, kw = case
    tallies = flat_binary_score(gold, pred).tallies
    macro = bootstrap_ci(lambda t: binary_from_totals(t).macro_f1, tallies, **kw)
    micro = bootstrap_ci(lambda t: binary_from_totals(t).micro_f1, tallies, **kw)
    args = (gold, pred, kw["resamples"], kw["seed"], kw["confidence"])
    assert (macro.point, macro.lower, macro.upper) == brute_bootstrap(
        lambda g, p: brute_binary_prf(g, p)[2], *args)
    assert (micro.point, micro.lower, micro.upper) == brute_bootstrap(
        lambda g, p: brute_binary_prf(g, p)[0][2], *args)
