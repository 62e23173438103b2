"""End-to-end acceptance checks, one test per contract guarantee.

Each test prints a single ``[acceptance] PASS/FAIL`` line (see conftest).
Everything runs offline: remote interactions go through scripted
transports and an outbound socket guard.
"""

import json
import math
import os
import random
import socket
import time

import numpy as np
import pytest

from persuasionkit.baseline import (
    MODE_TEXT,
    MODE_TEXT_CAPTION,
    FeatureConfig,
    load_model,
    loss_and_grad,
    predict_corpus,
    save_model,
    train,
)
from persuasionkit.captioner import (
    FALLBACK_PROMPT,
    PRIMARY_PROMPT,
    STATUS_OK_PROMPT1,
    STATUS_OK_PROMPT2,
    STATUS_REFUSED_BOTH,
    STATUS_TRANSPORT_ERROR,
    ProviderConfig,
    _Clock,
    caption_corpus,
    caption_instance,
    render_prompt,
)
from persuasionkit.cli import main
from persuasionkit.corpus import (
    CAPTION_SOURCES,
    MemeInstance,
    dump_corpus,
    load_binary_predictions,
    load_captions,
    load_corpus,
    load_predictions,
    write_binary_predictions,
    write_captions,
    write_predictions,
)
from persuasionkit.hierarchy import HierarchyError, LabelHierarchy, parse_hierarchy
from persuasionkit.metrics import fbeta, hierarchical_score
from persuasionkit.textmetrics import bleu4, rouge_l, tokenize

from mocks import FakeClock, PerInstanceTransport, ScriptedTransport, ok_response, refusal_response
from oracles import (
    brute_ancestors,
    brute_flat_micro,
    brute_floating_parents,
    brute_has_cycle,
    brute_hier_score,
    fd_gradient,
    random_hierarchy,
    random_label_maps,
)

HERE = os.path.dirname(__file__)
REPO = os.path.dirname(HERE)
FIXTURES = os.path.join(REPO, "data", "fixtures")
SYNTHETIC = os.path.join(REPO, "data", "synthetic")
MALFORMED = os.path.join(HERE, "data", "malformed")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# 1. Hierarchical scores agree with an independent brute-force scorer to
#    1e-12 across 1000 randomized (hierarchy, gold, pred) cases in <10 s.
def test_hierarchical_scores_match_bruteforce():
    rng = random.Random(101)
    start = time.monotonic()
    for case in range(1000):
        root, names, edges = random_hierarchy(rng, max_nodes=25)
        h = LabelHierarchy.from_edges(root, edges)
        gold, pred = random_label_maps(rng, names, rng.randint(1, 20))
        beta = rng.choice([0.25, 0.5, 1.0, 2.0, 4.0])
        got = hierarchical_score(h, gold, pred, beta=beta)
        hp, hr, hf = brute_hier_score(root, edges, gold, pred, beta=beta)
        assert abs(got.hp - hp) <= 1e-12, f"case {case}: HP {got.hp} vs {hp}"
        assert abs(got.hr - hr) <= 1e-12, f"case {case}: HR {got.hr} vs {hr}"
        assert abs(got.hf_beta - hf) <= 1e-12, f"case {case}: HF {got.hf_beta} vs {hf}"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"equivalence sweep took {elapsed:.1f}s"


# 2. On a depth-1 hierarchy the hierarchical scores reduce exactly to
#    pooled flat micro precision/recall/F1.
def test_depth1_reduces_to_flat_micro():
    rng = random.Random(202)
    for case in range(200):
        labels = [f"L{i}" for i in range(rng.randint(1, 8))]
        h = LabelHierarchy.from_edges("root", [(lab, "root") for lab in labels])
        gold, pred = random_label_maps(rng, labels, rng.randint(1, 15), density=0.3)
        if not any(gold.values()) and not any(pred.values()):
            gold[next(iter(gold))] = {labels[0]}
            pred[next(iter(pred))] = {labels[0]}
        ids = sorted(gold)
        prec, rec, f1 = brute_flat_micro(
            [gold[i] for i in ids], [pred[i] for i in ids], labels
        )
        got = hierarchical_score(h, gold, pred)
        assert abs(got.hp - prec) <= 1e-12, f"case {case}"
        assert abs(got.hr - rec) <= 1e-12, f"case {case}"
        assert abs(got.hf_beta - f1) <= 1e-12, f"case {case}"


# 3. The worked single-instance example scores HP=1, HR=0.5, HF1=2/3
#    through the full file-in/file-out command path.
def test_worked_example_through_cli(tmp_path):
    out = str(tmp_path / "report.json")
    rc = main([
        "score", "--task", "hier",
        "--hierarchy", os.path.join(FIXTURES, "worked_hierarchy.txt"),
        "--gold", os.path.join(FIXTURES, "worked_gold.json"),
        "--pred", os.path.join(FIXTURES, "worked_pred.json"),
        "--out", out,
    ])
    assert rc == 0
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    assert abs(report["scores"]["h_precision"] - 1.0) <= 1e-9
    assert abs(report["scores"]["h_recall"] - 0.5) <= 1e-9
    assert abs(report["scores"]["h_f_beta"] - 2.0 / 3.0) <= 1e-9
    assert abs(report["scores_x100"]["h_precision"] - 100.0) <= 1e-6
    assert abs(report["scores_x100"]["h_recall"] - 50.0) <= 1e-6
    assert abs(report["scores_x100"]["h_f_beta"] - 66.666667) <= 1e-6
    assert os.path.exists(out + ".manifest.json")


# 4. F_beta endpoints: beta->0 recovers precision, beta->inf recovers
#    recall, and equal arguments are a fixed point.
def test_fbeta_endpoint_behavior():
    rng = random.Random(404)
    for _ in range(100):
        hp = rng.uniform(0.1, 1.0)
        hr = rng.uniform(0.1, 1.0)
        assert abs(fbeta(hp, hr, beta=0.01) - hp) <= 1e-3
        assert abs(fbeta(hp, hr, beta=100.0) - hr) <= 1e-3
    for _ in range(100):
        x = rng.uniform(0.0, 1.0)
        for beta in (0.5, 1.0, 2.0, 10.0):
            assert abs(fbeta(x, x, beta=beta) - x) <= 1e-12


# 5. Hierarchy validation agrees with brute-force acyclicity and
#    floating-parent checks: exhaustively for every edge subset on <=5
#    nodes, structurally and randomly at 6 nodes, and on 1000 randomized
#    larger graphs (plus mutation counterexamples).  Accepted graphs must
#    also agree on every ancestor set.
def test_hierarchy_validation_agrees_with_bruteforce():
    def build_ok(root, edges):
        try:
            return LabelHierarchy.from_edges(root, edges)
        except HierarchyError:
            return None

    def check_agreement(root, edges, context):
        expected = not brute_floating_parents(root, edges) and not brute_has_cycle(edges)
        h = build_ok(root, edges)
        assert (h is not None) == expected, f"{context}: accept/reject disagreement"
        if h is not None:
            for node in h.nodes:
                want = brute_ancestors(edges, node) - {root}
                assert h.ancestors(node) == want, f"{context}: ancestors({node})"

    # every edge subset over 4 candidate labels (all graphs on <=5 nodes)
    names = ["A", "B", "C", "D"]
    pool = [(c, p) for c in names for p in ["root"] + names if p != c]
    for mask in range(1 << len(pool)):
        edges = [pool[i] for i in range(len(pool)) if mask >> i & 1]
        check_agreement("root", edges, f"subset mask={mask}")

    # 6 nodes: every single-parent assignment (5^5 graphs, cyclic included)
    names6 = ["A", "B", "C", "D", "E"]
    for assignment in range(5**5):
        a, edges = assignment, []
        for child in names6:
            choice = a % 5
            a //= 5
            parent = "root" if choice == 0 else names6[choice - 1]
            if parent == child:
                parent = "root"
            edges.append((child, parent))
        check_agreement("root", edges, f"assignment {assignment}")

    # 6 nodes: 2000 random multi-parent edge subsets
    rng = random.Random(505)
    pool6 = [(c, p) for c in names6 for p in ["root"] + names6 if p != c]
    for trial in range(2000):
        edges = [e for e in pool6 if rng.random() < 0.18]
        check_agreement("root", edges, f"random6 trial {trial}")

    # larger graphs: valid by construction, then broken two ways
    for trial in range(1000):
        root, names, edges = random_hierarchy(rng, max_nodes=40)
        h = build_ok(root, edges)
        assert h is not None, f"large trial {trial}: rejected a valid DAG"
        for node in h.nodes:
            assert h.ancestors(node) == brute_ancestors(edges, node) - {root}
        if trial % 3 == 0:  # dangling parent reference
            broken = edges + [(names[0], "GHOST")]
            assert brute_floating_parents(root, broken)
            assert build_ok(root, broken) is None
        if trial % 3 == 1 and any(p != root for _, p in edges):  # back edge
            c, p = rng.choice([e for e in edges if e[1] != root])
            broken = edges + [(p, c)]
            assert brute_has_cycle(broken)
            assert build_ok(root, broken) is None
        if trial % 3 == 2:  # duplicate edge
            assert build_ok(root, edges + [edges[0]]) is None


# 6. The shipped synthetic corpus meets the training bars: <60 s to fit,
#    bit-identical refits, hierarchy-consistent predictions, held-out
#    HF1 >= 0.85, and captions strictly improve the text-blind ablation.
def test_baseline_bars_on_shipped_corpus():
    h = parse_hierarchy(_read(os.path.join(SYNTHETIC, "hierarchy.txt")))
    train_set = load_corpus(_read(os.path.join(SYNTHETIC, "train.json")), hierarchy=h)
    heldout = load_corpus(_read(os.path.join(SYNTHETIC, "heldout.json")), hierarchy=h)
    fcfg = FeatureConfig(dimension=2**16)

    start = time.monotonic()
    model = train(train_set, h, fcfg, seed=0)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"training took {elapsed:.1f}s"

    assert save_model(model) == save_model(train(train_set, h, fcfg, seed=0))

    preds = predict_corpus(model, h, heldout)
    assert all(h.is_consistent(p) for p in preds.values())
    gold = {inst.id: inst.gold for inst in heldout}
    hf1 = hierarchical_score(h, gold, preds).hf_beta
    assert hf1 >= 0.85, f"held-out HF1 {hf1:.4f} below bar"

    abl_train = load_corpus(
        _read(os.path.join(SYNTHETIC, "ablation_train.json")), hierarchy=h
    )
    abl_held = load_corpus(
        _read(os.path.join(SYNTHETIC, "ablation_heldout.json")), hierarchy=h
    )
    abl_gold = {inst.id: inst.gold for inst in abl_held}
    scores = {}
    for mode in (MODE_TEXT, MODE_TEXT_CAPTION):
        cfg = FeatureConfig(dimension=2**16, mode=mode)
        m = train(abl_train, h, cfg, seed=0)
        scores[mode] = hierarchical_score(
            h, abl_gold, predict_corpus(m, h, abl_held)
        ).hf_beta
    assert scores[MODE_TEXT_CAPTION] > scores[MODE_TEXT], (
        f"caption features did not help: {scores}"
    )


# 7. The training objective's analytic gradients match central finite
#    differences to 1e-5 relative error on 50 randomized problems.
def test_training_gradients_match_finite_differences():
    rng = np.random.default_rng(707)
    for case in range(50):
        n = int(rng.integers(3, 12))
        d = int(rng.integers(2, 9))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(np.float64)
        w = rng.normal(scale=0.7, size=d)
        b = float(rng.normal(scale=0.7))
        l2 = float(rng.choice([0.0, 1e-4, 1e-2]))
        _, gw, gb = loss_and_grad(X, y, w, b, l2)
        packed = np.concatenate([w, [b]])
        num = fd_gradient(
            lambda v: loss_and_grad(X, y, v[:-1], float(v[-1]), l2)[0], packed
        )
        got = np.concatenate([gw, [gb]])
        rel = np.linalg.norm(got - num) / max(1.0, np.linalg.norm(num))
        assert rel < 1e-5, f"case {case}: relative gradient error {rel:.2e}"


# 8. The two-prompt caption protocol: byte-exact wire prompts, correct
#    terminal statuses and attempt counts, resume touches only incomplete
#    ids, and nothing ever opens a network socket.
def test_caption_protocol_and_wire_bytes(tmp_path, monkeypatch):
    def no_network(*args, **kwargs):
        raise AssertionError("acceptance tests must not open sockets")

    monkeypatch.setattr(socket, "socket", no_network)

    cfg = ProviderConfig(endpoint="https://example.test/v1")
    clock = FakeClock()
    ticker = _Clock(clock.monotonic, clock.sleep)

    def mk(iid):
        return MemeInstance(id=iid, text="HELLO", image=f"https://img.test/{iid}.png")

    # byte-exact prompts on both protocol legs
    t = ScriptedTransport([refusal_response("pattern"), ok_response("fine")])
    out = caption_instance(mk("x"), cfg, t, clock=ticker)
    sent = [p.encode("utf-8") for p in t.prompt_texts()]
    with open(os.path.join(HERE, "data", "prompt_primary_HELLO.txt"), "rb") as fh:
        assert sent[0] == fh.read()
    with open(os.path.join(HERE, "data", "prompt_fallback.txt"), "rb") as fh:
        assert sent[1] == fh.read()
    assert render_prompt(PRIMARY_PROMPT, "HELLO").encode() == sent[0]
    assert render_prompt(FALLBACK_PROMPT, "HELLO").encode() == sent[1]
    assert out.status == STATUS_OK_PROMPT2 and out.attempts == 2

    # terminal statuses and attempt counts
    ok1 = caption_instance(mk("a"), cfg, ScriptedTransport([ok_response("c")]), clock=ticker)
    assert ok1.status == STATUS_OK_PROMPT1 and ok1.attempts == 1
    ref = caption_instance(
        mk("b"), cfg, ScriptedTransport([refusal_response(), refusal_response("empty")]),
        clock=ticker,
    )
    assert ref.status == STATUS_REFUSED_BOTH and ref.attempts == 2 and ref.caption is None
    dead = caption_instance(
        mk("c"), cfg, ScriptedTransport(["error"] * 4), clock=ticker
    )
    assert dead.status == STATUS_TRANSPORT_ERROR and dead.attempts == 4

    # resume: terminal ids never go back on the wire
    corpus = [mk(i) for i in ("p", "q", "r")]
    ck = str(tmp_path / "ck.jsonl")
    t1 = PerInstanceTransport({"https://img.test/q.png": ["error"] * 4})
    first = caption_corpus(corpus, cfg, t1, checkpoint_path=ck, clock=ticker)
    assert first["p"].status == STATUS_OK_PROMPT1
    assert first["q"].status == STATUS_TRANSPORT_ERROR
    t2 = PerInstanceTransport({})
    second = caption_corpus(corpus, cfg, t2, checkpoint_path=ck, clock=ticker)
    wired = [r["messages"][0]["content"][1]["image_url"]["url"] for r in t2.requests]
    assert wired == ["https://img.test/q.png"]
    assert second["q"].status == STATUS_OK_PROMPT1
    assert second["p"].caption == first["p"].caption


# 9. Text metrics: identity scores 1, the worked fixtures reproduce to
#    1e-6, and both metrics stay inside [0, 1] on 10,000 random pairs.
def test_text_metric_fixtures_and_bounds():
    ident = tokenize("a small example caption")
    r = rouge_l(ident, ident)
    assert r.precision == r.recall == r.f1 == 1.0
    assert bleu4(ident, [ident]) == pytest.approx(1.0, abs=1e-12)

    fx = rouge_l(tokenize("the cat sat"), tokenize("the cat was sat"))
    assert abs(fx.f1 - 0.857143) <= 1e-6
    assert abs(bleu4(tokenize("a b"), [tokenize("a b c d")]) - 0.367879) <= 1e-6
    assert abs(bleu4(tokenize("a b"), [tokenize("a b c d")]) - math.exp(-1.0)) <= 1e-9

    rng = random.Random(909)
    vocab = list("abcdefg")
    for _ in range(10_000):
        cand = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
        s = rouge_l(cand, ref)
        assert 0.0 <= s.precision <= 1.0
        assert 0.0 <= s.recall <= 1.0
        assert 0.0 <= s.f1 <= 1.0
        assert 0.0 <= bleu4(cand, [ref]) <= 1.0


# 10. Every file format round-trips exactly on randomized content, and
#     the validate command maps malformed inputs to the right exit codes.
def test_serialization_round_trips_and_validate_exit_codes(tmp_path):
    rng = random.Random(1010)
    words = ["meme", "Überzeugung", "текст", "🔥", "plain", "données", "«quoted»"]

    def txt(k=4):
        return " ".join(rng.choice(words) for _ in range(rng.randint(1, k)))

    instances = []
    for i in range(100):
        has_image = rng.random() < 0.7
        has_caption = rng.random() < 0.5
        instances.append(MemeInstance(
            id=f"inst{i:03d}",
            text=txt() if (rng.random() < 0.9 or not has_image) else "",
            image=f"images/{i}.png" if has_image else None,
            gold=frozenset(rng.sample(["A", "B", "C", "D"], rng.randint(0, 3)))
            if rng.random() < 0.8 else None,
            caption=txt(8) if has_caption else None,
            caption_source=rng.choice(CAPTION_SOURCES) if has_caption else None,
            lang=rng.choice(["en", "bg", "ar", None]),
        ))
    blob = dump_corpus(instances)
    assert load_corpus(blob) == instances
    assert dump_corpus(load_corpus(blob)) == blob

    preds = {f"p{i}": frozenset(rng.sample(["A", "B", "C"], rng.randint(0, 3)))
             for i in range(100)}
    blob = write_predictions(preds)
    assert load_predictions(blob) == preds
    assert write_predictions(load_predictions(blob)) == blob

    binary = {f"b{i}": rng.random() < 0.5 for i in range(100)}
    blob = write_binary_predictions(binary)
    assert load_binary_predictions(blob) == binary
    assert write_binary_predictions(load_binary_predictions(blob)) == blob

    captions = {f"c{i}": (txt(8), rng.choice(CAPTION_SOURCES)) for i in range(100)}
    blob = write_captions(captions)
    assert load_captions(blob) == captions
    assert write_captions(load_captions(blob)) == blob

    # trained models round-trip exactly as well
    h = LabelHierarchy.from_edges("root", [("A", "root"), ("B", "root"), ("C", "A")])
    docs = [MemeInstance(id=f"d{i}", text=txt(6), gold=frozenset(
        rng.sample(["A", "B", "C"], rng.randint(0, 2))), image=None)
        for i in range(20)]
    docs = [MemeInstance(id=d.id, text=d.text or "x", image=None,
                         gold=h.extend(d.gold)) for d in docs]
    model = train(docs, h, FeatureConfig(dimension=2**10), seed=3)
    assert save_model(load_model(save_model(model))) == save_model(model)

    worked_h = os.path.join(FIXTURES, "worked_hierarchy.txt")
    for name in os.listdir(MALFORMED):
        path = os.path.join(MALFORMED, name)
        if name.startswith("hierarchy_"):
            rc = main(["validate", "--hierarchy", path])
        elif name.startswith("corpus_"):
            rc = main(["validate", "--hierarchy", worked_h, "--corpus", path])
        else:
            continue  # binary fixture is exercised through score
        assert rc == 1, f"{name}: expected exit 1, got {rc}"
    assert main(["score", "--task", "binary",
                 "--gold", os.path.join(MALFORMED, "binary_bad_label.json"),
                 "--pred", os.path.join(MALFORMED, "binary_bad_label.json")]) == 1
    assert main(["validate", "--hierarchy", worked_h]) == 0
    assert main(["validate", "--hierarchy", str(tmp_path / "missing.txt")]) == 2
