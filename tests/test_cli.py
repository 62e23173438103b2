import fcntl
import hashlib
import json
import os
import random
import select
import signal
import stat
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from persuasionkit import cli, textmetrics
from persuasionkit.baseline import FeatureConfig, TrainConfig
from persuasionkit.cli import build_parser, main
from persuasionkit.corpus import load_captions, load_predictions, write_captions

from mocks import ScriptedTransport, ok_response, refusal_response
from oracles import reference_bleu4, reference_lcs_len

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "..", "data", "fixtures")
MALFORMED = os.path.join(HERE, "data", "malformed")
SYNTHETIC = os.path.join(HERE, "..", "data", "synthetic")
SYNTHETIC_H = os.path.join(SYNTHETIC, "hierarchy.txt")
PROMPT_PRIMARY = os.path.join(HERE, "data", "prompt_primary_HELLO.txt")
PROMPT_FALLBACK = os.path.join(HERE, "data", "prompt_fallback.txt")

WORKED_H = os.path.join(FIXTURES, "worked_hierarchy.txt")
WORKED_GOLD = os.path.join(FIXTURES, "worked_gold.json")
WORKED_PRED = os.path.join(FIXTURES, "worked_pred.json")
BIN_GOLD = os.path.join(FIXTURES, "binary_gold.json")
BIN_PRED = os.path.join(FIXTURES, "binary_pred.json")

MEM_CORPUS = [
    {"id": "d1", "text": "buy buy buy bargain bargain", "labels": ["NameCalling", "Ethos"]},
    {"id": "d2", "text": "fear fear dread dread panic", "labels": ["Pathos"]},
    {"id": "d3", "text": "trust trust honor honor duty", "labels": ["Ethos"]},
    {"id": "d4", "text": "calm calm plain plain prose", "labels": []},
]


def read_text(path):
    return Path(path).read_text(encoding="utf-8")


def read_json(path):
    return json.loads(read_text(path))


def write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


# -- validate ------------------------------------------------------------------

def test_validate_ok(capsys):
    rc = main(["validate", "--hierarchy", WORKED_H,
               "--gold", WORKED_GOLD, "--pred", WORKED_PRED])
    out = capsys.readouterr().out
    assert rc == 0
    assert "validation ok" in out
    assert "hierarchy: ok (3 labels, 2 leaves)" in out


@pytest.mark.parametrize("name", [
    "corpus_bad_syntax.json",
    "corpus_duplicate_id.json",
    "corpus_missing_id.json",
    "corpus_unknown_label.json",
    "corpus_root_label.json",
    "corpus_caption_no_source.json",
    "corpus_empty_no_image.json",
])
def test_validate_rejects_bad_corpora(name, capsys):
    rc = main(["validate", "--hierarchy", WORKED_H,
               "--corpus", os.path.join(MALFORMED, name)])
    assert rc == 1
    assert "ERROR: corpus:" in capsys.readouterr().out


@pytest.mark.parametrize("name", [
    "hierarchy_cycle.txt",
    "hierarchy_dup_edge.txt",
    "hierarchy_multi_root.txt",
    "hierarchy_unknown_parent.txt",
    "hierarchy_empty.txt",
])
def test_validate_rejects_bad_hierarchies(name, capsys):
    rc = main(["validate", "--hierarchy", os.path.join(MALFORMED, name)])
    assert rc == 1
    assert "ERROR: hierarchy:" in capsys.readouterr().out


def test_validate_names_the_first_unknown_label_in_file_order(tmp_path):
    # Under two string-hash seeds, so that an error naming a label in set
    # order would differ between the runs (or name another label).
    labels = ["Ethos", "Zeta", "Alpha", "Mu", "Omega", "Beta", "Kappa", "Rho"]
    corpus = write(tmp_path / "c.json", json.dumps(
        [{"id": "m1", "text": "t", "labels": ["Ethos"]},
         {"id": "m2", "text": "t", "labels": labels}]))
    preds = write(tmp_path / "p.json", json.dumps([{"id": "m2", "labels": labels}]))
    src = os.path.join(HERE, "..", "src")
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "persuasionkit", "validate", "--hierarchy", WORKED_H,
             "--corpus", corpus, "--pred", preds],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[1:] == [
        f"ERROR: corpus: --corpus {corpus}: corpus: record 1 (m2): unknown label 'Zeta'",
        f"ERROR: pred: --pred {preds}: predictions: record 0 (m2): unknown label 'Zeta'",
    ]


def test_validate_pred_id_mismatches(tmp_path, capsys):
    gold = write(tmp_path / "g.json", json.dumps(
        [{"id": "m1", "labels": ["Ethos"]}, {"id": "m2", "labels": ["Pathos"]}]))
    extra = write(tmp_path / "extra.json", json.dumps(
        [{"id": "m1", "labels": []}, {"id": "m9", "labels": []}]))
    rc = main(["validate", "--hierarchy", WORKED_H, "--gold", gold, "--pred", extra])
    assert rc == 1
    assert "pred ids not present in gold" in capsys.readouterr().out

    # a prediction file may be a subset: warn but accept
    subset = write(tmp_path / "subset.json", json.dumps([{"id": "m1", "labels": []}]))
    rc = main(["validate", "--hierarchy", WORKED_H, "--gold", gold, "--pred", subset])
    out = capsys.readouterr().out
    assert rc == 0
    assert "warning: 1 gold ids have no prediction" in out


def test_missing_file_is_io_error(capsys):
    assert main(["validate", "--hierarchy", "/nonexistent/h.txt"]) == 2
    assert main(["score", "--task", "hier", "--hierarchy", WORKED_H,
                 "--gold", "/nonexistent/g.json", "--pred", WORKED_PRED]) == 2
    err = capsys.readouterr().err
    assert "i/o error" in err


# -- score ---------------------------------------------------------------------

def test_score_hier_worked_example(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    rc = main(["score", "--task", "hier", "--hierarchy", WORKED_H,
               "--gold", WORKED_GOLD, "--pred", WORKED_PRED, "--out", out])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "H-F1" in printed and "66.666667" in printed
    report = read_json(out)
    assert report["scores"]["h_precision"] == pytest.approx(1.0, abs=1e-9)
    assert report["scores"]["h_recall"] == pytest.approx(0.5, abs=1e-9)
    assert report["scores"]["h_f_beta"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert report["scores_x100"]["h_f_beta"] == pytest.approx(66.666667, abs=1e-4)
    assert report["totals"] == {"overlap": 1, "predicted": 1, "gold": 2}
    manifest = read_json(out + ".manifest.json")
    assert manifest["command"] == "score"
    assert set(manifest["inputs"]) == {WORKED_GOLD, WORKED_PRED, WORKED_H}
    assert all(v.startswith("sha256:") for v in manifest["inputs"].values())
    assert out in manifest["outputs"]
    assert "timestamp" not in json.dumps(manifest).lower()


def test_score_hier_requires_hierarchy(capsys):
    rc = main(["score", "--task", "hier", "--gold", WORKED_GOLD, "--pred", WORKED_PRED])
    assert rc == 1
    assert "--hierarchy is required" in capsys.readouterr().err


@pytest.mark.parametrize("beta", ["nan", "inf"])
def test_score_refuses_a_beta_that_is_not_finite(tmp_path, capsys, beta):
    out = str(tmp_path / "report.json")
    rc = main(["score", "--task", "hier", "--hierarchy", WORKED_H, "--beta", beta,
               "--gold", WORKED_GOLD, "--pred", WORKED_PRED, "--out", out])
    assert rc == 1
    err = capsys.readouterr().err
    assert "beta must be a finite number" in err and "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("flag", [["--beta", "2"], ["--hierarchy", "/nonexistent.txt"]],
                         ids=["beta", "hierarchy"])
def test_score_binary_refuses_hier_flags_before_reading(tmp_path, capsys, flag):
    # --beta had no effect but was recorded in the manifest; --hierarchy
    # wrote the report, then failed hashing a file it never read.  The
    # missing gold file shows that nothing is read first.
    out = str(tmp_path / "report.json")
    rc = main(["score", "--task", "binary", "--gold", str(tmp_path / "missing.json"),
               "--pred", BIN_PRED, "--out", out, *flag])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {flag[0]} applies only to --task hier\n"
    assert os.listdir(tmp_path) == []


def test_score_binary_fixture(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    rc = main(["score", "--task", "binary",
               "--gold", BIN_GOLD, "--pred", BIN_PRED, "--out", out])
    assert rc == 0
    report = read_json(out)
    assert report["scores"]["macro_f1"] == pytest.approx(0.5, abs=1e-9)
    assert report["scores"]["micro_f1"] == pytest.approx(0.5, abs=1e-9)
    assert report["per_class"]["positive"]["support"] == 2
    assert main(["score", "--task", "binary",
                 "--gold", os.path.join(MALFORMED, "binary_bad_label.json"),
                 "--pred", BIN_PRED]) == 1


def _boot_files(tmp_path):
    gold = write(tmp_path / "bg.json", json.dumps([
        {"id": "m1", "labels": ["NameCalling"]},
        {"id": "m2", "labels": ["Pathos"]},
        {"id": "m3", "labels": ["Ethos"]},
        {"id": "m4", "labels": []},
    ]))
    pred = write(tmp_path / "bp.json", json.dumps([
        {"id": "m1", "labels": ["Ethos"]},
        {"id": "m2", "labels": ["Pathos"]},
        {"id": "m3", "labels": []},
        {"id": "m4", "labels": ["Pathos"]},
    ]))
    return gold, pred


def test_score_bootstrap_block(tmp_path):
    gold, pred = _boot_files(tmp_path)
    out = str(tmp_path / "report.json")
    rc = main(["score", "--task", "hier", "--hierarchy", WORKED_H,
               "--gold", gold, "--pred", pred,
               "--bootstrap", "50", "--seed", "7", "--out", out])
    assert rc == 0
    ci = read_json(out)["bootstrap"]["h_f_beta"]
    assert ci["resamples"] == 50 and ci["seed"] == 7
    assert ci["lower"] <= ci["point"] <= ci["upper"]


def test_score_bootstrap_closes_each_label_set_twice(tmp_path, monkeypatch):
    # Once for the score, whose tallies the bootstrap resamples, and once
    # for the per-class table; each call closes every gold and pred set.
    from persuasionkit.hierarchy import LabelHierarchy

    gold, pred = _boot_files(tmp_path)
    calls = []
    closed_rows = LabelHierarchy.closed_rows

    def counted(self, label_sets):
        calls.append(1)
        return closed_rows(self, label_sets)

    monkeypatch.setattr(LabelHierarchy, "closed_rows", counted)
    assert main(["score", "--task", "hier", "--hierarchy", WORKED_H, "--gold", gold,
                 "--pred", pred, "--bootstrap", "5", "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 2


def test_seed_precedence(tmp_path, monkeypatch):
    gold, pred = _boot_files(tmp_path)

    def run(extra, env_seed=None, cfg=None):
        if env_seed is not None:
            monkeypatch.setenv("PERSUASIONKIT_SEED", str(env_seed))
        else:
            monkeypatch.delenv("PERSUASIONKIT_SEED", raising=False)
        out = str(tmp_path / "r.json")
        argv = []
        if cfg is not None:
            argv += ["--config", write(tmp_path / "cfg.json", json.dumps(cfg))]
        argv += ["score", "--task", "hier", "--hierarchy", WORKED_H,
                 "--gold", gold, "--pred", pred,
                 "--bootstrap", "10", "--out", out] + extra
        assert main(argv) == 0
        return read_json(out)["bootstrap"]["h_f_beta"]["seed"]

    assert run([]) == 0                                     # built-in default
    assert run([], env_seed=13) == 13                       # env beats default
    assert run([], env_seed=13, cfg={"seed": 5}) == 5       # config beats env
    assert run(["--seed", "3"], env_seed=13, cfg={"seed": 5}) == 3  # flag wins


# -- train / predict -----------------------------------------------------------

def _write_mem_corpus(tmp_path):
    return write(tmp_path / "corpus.json", json.dumps(MEM_CORPUS))


def test_train_predict_score_end_to_end(tmp_path, capsys):
    corpus = _write_mem_corpus(tmp_path)
    model = str(tmp_path / "model.json")
    rc = main(["train", "--hierarchy", WORKED_H, "--corpus", corpus,
               "--dim", "1024", "--epochs", "500", "--out", model])
    assert rc == 0
    assert "trained 3 label heads" in capsys.readouterr().out
    tm = read_json(model + ".manifest.json")
    assert tm["command"] == "train" and tm["config"]["dim"] == 1024

    preds_path = str(tmp_path / "preds.json")
    rc = main(["predict", "--model", model, "--hierarchy", WORKED_H,
               "--corpus", corpus, "--out", preds_path])
    assert rc == 0
    preds = load_predictions(read_text(preds_path))
    assert preds["d1"] == frozenset({"NameCalling", "Ethos"})
    assert preds["d4"] == frozenset()

    out = str(tmp_path / "report.json")
    rc = main(["score", "--task", "hier", "--hierarchy", WORKED_H,
               "--gold", corpus, "--pred", preds_path, "--out", out])
    assert rc == 0
    assert read_json(out)["scores"]["h_f_beta"] == 1.0


def test_train_is_deterministic_across_runs(tmp_path):
    corpus = _write_mem_corpus(tmp_path)
    blobs = []
    for name in ("m1.json", "m2.json"):
        model = str(tmp_path / name)
        assert main(["train", "--hierarchy", WORKED_H, "--corpus", corpus,
                     "--dim", "1024", "--seed", "42", "--out", model]) == 0
        blobs.append(Path(model).read_bytes())
    assert blobs[0] == blobs[1]
    m1 = read_json(str(tmp_path / "m1.json") + ".manifest.json")
    m2 = read_json(str(tmp_path / "m2.json") + ".manifest.json")
    assert list(m1["outputs"].values()) == list(m2["outputs"].values())


def test_train_with_tuning_and_caption_mode(tmp_path):
    corpus = _write_mem_corpus(tmp_path)
    model = str(tmp_path / "model.json")
    rc = main(["train", "--hierarchy", WORKED_H, "--corpus", corpus,
               "--mode", "text+caption", "--dim", "1024", "--epochs", "300",
               "--tune-dev", corpus, "--out", model])
    assert rc == 0
    config = read_json(model + ".manifest.json")["config"]
    assert config["tuned"] is True
    # no instance has a caption: four in --corpus and four in --tune-dev
    assert config["degraded_to_text_only"] == 8

    preds_path = str(tmp_path / "preds.json")
    assert main(["predict", "--model", model, "--hierarchy", WORKED_H,
                 "--corpus", corpus, "--out", preds_path]) == 0
    pm = read_json(preds_path + ".manifest.json")
    # no instance has a caption, so every one degrades to text features
    assert pm["config"]["degraded_to_text_only"] == 4


def test_predict_wrong_hierarchy_is_validation_error(tmp_path, capsys):
    corpus = _write_mem_corpus(tmp_path)
    model = str(tmp_path / "model.json")
    assert main(["train", "--hierarchy", WORKED_H, "--corpus", corpus,
                 "--dim", "1024", "--out", model]) == 0
    other = write(tmp_path / "other.txt",
                  "persuasion\nEthos\tpersuasion\nPathos\tpersuasion\n")
    corpus2 = write(tmp_path / "c2.json", json.dumps(
        [{"id": "d1", "text": "buy buy", "labels": ["Ethos"]}]))
    rc = main(["predict", "--model", model, "--hierarchy", other,
               "--corpus", corpus2, "--out", str(tmp_path / "p.json")])
    assert rc == 1
    assert "fingerprint" in capsys.readouterr().err


def test_predict_incomplete_model_file_is_validation_error(tmp_path, capsys):
    corpus = _write_mem_corpus(tmp_path)
    model = write(tmp_path / "model.json",
                  '{"kind":"persuasionkit-linear-hier","format_version":1}')
    out = str(tmp_path / "p.json")
    rc = main(["predict", "--model", model, "--hierarchy", WORKED_H,
               "--corpus", corpus, "--out", out])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --model {model}: model file is missing labels, feature_config")
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("saved")
    corpus, model = _write_mem_corpus(tmp), str(tmp / "model.json")
    assert main(["train", "--hierarchy", WORKED_H, "--corpus", corpus,
                 "--dim", "1024", "--epochs", "5", "--out", model]) == 0
    return corpus, read_text(model)


_NOT_FINITE = [float("nan"), float("inf"), -float("inf")]


@pytest.mark.parametrize("key,value", [
    *[("thresholds", v) for v in _NOT_FINITE + [0.0, 1.0, 1.5]],
    *[("bias", v) for v in _NOT_FINITE],
    *[("weights", v) for v in _NOT_FINITE],
])
def test_predict_refuses_a_model_number_out_of_range(tmp_path, capsys, saved_model, key, value):
    # A NaN threshold used to load, and predict then gave every instance
    # no label with status 0.
    corpus, text = saved_model
    payload = json.loads(text)
    if key == "weights":
        payload["weights"][-1][-1] = value
        named = f"weight row {payload['weight_rows'][-1]}"
    else:
        payload[key][-1] = value
        named = f"label {payload['labels'][-1]!r}"
    model = write(tmp_path / "bad.json", json.dumps(payload))
    out = str(tmp_path / "p.json")
    rc = main(["predict", "--model", model, "--hierarchy", WORKED_H,
               "--corpus", corpus, "--out", out])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --model {model}: model file: ") and named in err, err
    assert "Traceback" not in err
    assert not os.path.exists(out)


_INTEGER, _NUMBER = "must be an integer, not ", "must be a number, not "


@pytest.mark.parametrize("key,value,problem", [
    *[("seed", v, "seed " + _INTEGER) for v in (1.9, True, "7", 1.0, None)],
    *[("dimension", v, "feature_config.dimension " + _INTEGER) for v in (1024.9, "1024")],
    ("format_version", True, "format_version " + _INTEGER),
    *[("bias", v, "the bias of label 'Pathos' " + _NUMBER) for v in ("7", True, None)],
    pytest.param("bias", -10**400, "the bias of label 'Pathos' is -inf, not a finite number",
                 id="bias-huge-int"),
    *[("thresholds", v, "the threshold of label 'Pathos' " + _NUMBER) for v in ("0.3", False)],
    *[("weights", v, "weight row {row} " + _NUMBER) for v in ("2", False, [2.0])],
])
def test_predict_refuses_a_model_number_of_the_wrong_type(tmp_path, capsys, saved_model,
                                                           key, value, problem):
    # Each of these used to load: int() read 1.9, true and "7" as seeds,
    # 1024.9 as a dimension, and numpy read "7" and true as a bias.
    corpus, text = saved_model
    payload = json.loads(text)
    if key == "dimension":
        payload["feature_config"][key] = value
    elif key == "weights":
        payload[key][-1][-1] = value
    elif key in ("bias", "thresholds"):
        payload[key][-1] = value
    else:
        payload[key] = value
    model = write(tmp_path / "bad.json", json.dumps(payload))
    out = str(tmp_path / "p.json")
    rc = main(["predict", "--model", model, "--hierarchy", WORKED_H,
               "--corpus", corpus, "--out", out])
    assert rc == 1
    err = capsys.readouterr().err
    assert problem.format(row=payload["weight_rows"][-1]) in err.splitlines()[-1], err
    assert "Traceback" not in err
    assert not os.path.exists(out)


# Every model file records the fixed orders [1, 2] and [3, 4, 5]; any
# other value, of another JSON type too, is refused.
_BAD_ORDERS = [
    *[("word_orders", [1, 2], v) for v in (
        [], [1], [2, 1], [1, 2, 3], [1.0, 2.0], [True, 2], "12", None, ["x"], [0], [True])],
    *[("char_orders", [3, 4, 5], v) for v in (
        [], [3], [5, 4, 3], [3, 4, 5, 6], [3.0, 4.0, 5.0], "345", None, "34", [1.5], [-2])],
]


@pytest.mark.parametrize("orders,problem", [
    *[pytest.param({key: value},
                   f"model file: feature_config.{key} must be {json.dumps(want)}, "
                   f"not {json.dumps(value)}", id=f"{key}={json.dumps(value)}")
      for key, want, value in _BAD_ORDERS],
    (None, "model labels do not match the hierarchy"),
])
def test_predict_refuses_a_model_it_cannot_score(tmp_path, capsys, saved_model, orders, problem):
    # [1.0, 2.0] and [true, 2] equal [1, 2] in Python, but save_model never
    # writes them.  With no orders given, the labels are reversed: head j
    # closes through row j of the hierarchy's closure, so a reordered model
    # would close the wrong sets.
    corpus, text = saved_model
    payload = json.loads(text)
    if orders is None:
        payload["labels"].reverse()
    else:
        payload["feature_config"].update(orders)
    model = write(tmp_path / "bad.json", json.dumps(payload))
    out = str(tmp_path / "p.json")
    rc = main(["predict", "--model", model, "--hierarchy", WORKED_H,
               "--corpus", corpus, "--out", out])
    assert rc == 1
    err = capsys.readouterr().err
    # A bad file names it; a model that does not fit the hierarchy names both.
    named = f"--model {model} and --hierarchy {WORKED_H}: " if orders is None else f"--model {model}: "
    assert err.startswith(f"error: {named}{problem}"), err
    assert "Traceback" not in err
    assert not os.path.exists(out)


HUGE_DIM = 2**63  # a power of two whose bucket indices overflow int64


def test_predict_huge_model_dimension_is_validation_error(tmp_path, capsys):
    corpus = _write_mem_corpus(tmp_path)
    model = str(tmp_path / "model.json")
    assert main(["train", "--hierarchy", WORKED_H, "--corpus", corpus,
                 "--dim", "1024", "--epochs", "5", "--out", model]) == 0
    payload = read_json(model)
    payload["feature_config"]["dimension"] = HUGE_DIM
    huge = write(tmp_path / "huge.json", json.dumps(payload))
    out = str(tmp_path / "p.json")
    capsys.readouterr()
    rc = main(["predict", "--model", huge, "--hierarchy", WORKED_H,
               "--corpus", corpus, "--out", out])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --model {huge}: feature dimension {HUGE_DIM} is too large")
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_train_huge_dimension_is_validation_error(tmp_path, capsys):
    corpus = _write_mem_corpus(tmp_path)
    out = str(tmp_path / "model.json")
    rc = main(["train", "--hierarchy", WORKED_H, "--corpus", corpus,
               "--dim", str(HUGE_DIM), "--out", out])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --dim: feature dimension {HUGE_DIM} is too large")
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("flag, value, name", [
    ("--lr", "nan", "learning rate"), ("--lr", "inf", "learning rate"),
    ("--l2", "nan", "l2"), ("--l2", "inf", "l2"),
])
def test_train_refuses_a_hyperparameter_that_is_not_finite(tmp_path, capsys, flag, value, name):
    corpus = _write_mem_corpus(tmp_path)
    out = str(tmp_path / "model.json")
    rc = main(["train", "--hierarchy", WORKED_H, "--corpus", corpus,
               "--dim", "1024", flag, value, "--out", out])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: {name} must be a finite number") and value in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_train_and_predict_at_a_dimension_of_2_to_the_50(tmp_path):
    # The model holds only its used rows, so a dimension far beyond what a
    # dense weight matrix could use trains and predicts.
    corpus = _write_mem_corpus(tmp_path)
    model = str(tmp_path / "model.json")
    assert main(["train", "--hierarchy", WORKED_H, "--corpus", corpus,
                 "--dim", str(2**50), "--epochs", "500", "--out", model]) == 0
    assert read_json(model)["feature_config"]["dimension"] == 2**50
    preds_path = str(tmp_path / "preds.json")
    assert main(["predict", "--model", model, "--hierarchy", WORKED_H,
                 "--corpus", corpus, "--out", preds_path]) == 0
    preds = load_predictions(read_text(preds_path))
    assert preds["d1"] == frozenset({"NameCalling", "Ethos"})
    assert preds["d4"] == frozenset()


@pytest.mark.parametrize("dim,tuned,sha256", [
    (2**16, False, "25a7308561448d7ce93e9e2c6f9df3897748018210632eb74bf79bf2a70412c1"),
    (2**18, False, "9873b7d8af10fbc56527efc1b8c41362f3df9c47379234203ab33f381e74e3a3"),
    (2**16, True, "c7bb85e32af53d97e4e4b2c735986ef75cf35dcc3c1ccd0bcc64aea4ead0e834"),
    (2**18, True, "047fdc6c93b79f4ffdba3e4e3e37661ce500456623b6c9448e1dab78f640cb2f"),
    # Above max(non-zeros, 2**20): renumbered by binary search, not a map.
    (2**24, False, "4f756231eedca5ebb73939421931f3e34e85040013f3eb028b06ba38bfecbf0c"),
    (2**24, True, "130786ff4d72931e98f7a3315053f859360d91ac82a006f4fae68702f565bac3"),
])
def test_shipped_corpus_model_bytes_are_pinned(tmp_path, dim, tuned, sha256):
    model = str(tmp_path / "model.json")
    tune = ["--tune-dev", os.path.join(SYNTHETIC, "heldout.json")] if tuned else []
    assert main(["train", "--hierarchy", SYNTHETIC_H,
                 "--corpus", os.path.join(SYNTHETIC, "train.json"), "--seed", "0",
                 "--dim", str(dim), *tune, "--out", model]) == 0
    assert hashlib.sha256(Path(model).read_bytes()).hexdigest() == sha256


_MAXRSS_SCRIPT = """
import resource, sys
from persuasionkit.cli import main
rc = main(sys.argv[1:])
print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_train_memory_does_not_grow_with_dimension(tmp_path):
    # Peak resident memory of a fresh train process on the shipped corpus:
    # a 2^30-bucket feature space costs what a 2^16 one does.
    src = os.path.join(HERE, "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    peaks = {}
    for dim in (2**16, 2**30):
        argv = ["train", "--hierarchy", SYNTHETIC_H,
                "--corpus", os.path.join(SYNTHETIC, "train.json"),
                "--dim", str(dim), "--out", str(tmp_path / f"model{dim}.json")]
        proc = subprocess.run([sys.executable, "-c", _MAXRSS_SCRIPT, *argv],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        rc, peaks[dim] = map(int, proc.stdout.split()[-2:])
        assert rc == 0, proc.stderr
    assert abs(peaks[2**30] - peaks[2**16]) <= 0.1 * peaks[2**16], peaks


# Descends on two threads whatever the machine, and announces on stdout
# once both have begun an epoch; then runs the CLI.
# Each child script below installs Python's own SIGINT handler first: a
# child of a pytest run in the background inherits SIGINT ignored, and
# would then descend on after the signal.
_DESCENT_SCRIPT = """
import signal, sys, threading
from persuasionkit import baseline
from persuasionkit.cli import main
signal.signal(signal.SIGINT, signal.default_int_handler)
epoch, threads, lock = baseline._epoch, set(), threading.Lock()
def announce(*args):
    with lock:
        if len(threads) < 2:
            threads.add(threading.get_ident())
            if len(threads) == 2:
                print("descending", flush=True)
    return epoch(*args)
baseline._epoch = announce
baseline._cpu_count = lambda: 2
sys.exit(main(sys.argv[1:]))
"""


def test_interrupted_train_stops_promptly_and_writes_nothing(tmp_path):
    # 10^6 epochs would take many minutes: SIGINT once both head groups
    # descend must stop each at its next epoch, and no model file may
    # appear.
    src = os.path.join(HERE, "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    model = tmp_path / "model.json"
    argv = ["train", "--hierarchy", SYNTHETIC_H,
            "--corpus", os.path.join(SYNTHETIC, "train.json"),
            "--epochs", str(10**6), "--out", str(model)]
    proc = subprocess.Popen([sys.executable, "-c", _DESCENT_SCRIPT, *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env)
    try:
        assert select.select([proc.stdout], [], [], 60)[0], "no two descent threads"
        assert proc.stdout.readline() == "descending\n"
        proc.send_signal(signal.SIGINT)
        start = time.monotonic()
        _, stderr = proc.communicate(timeout=60)
        elapsed = time.monotonic() - start
    finally:
        proc.kill()
        proc.communicate()
    assert proc.returncode == -signal.SIGINT, stderr
    assert "KeyboardInterrupt" in stderr
    assert elapsed < 5.0
    assert list(tmp_path.iterdir()) == []


# Runs the CLI as ``python -m persuasionkit`` does, descending on two
# threads whatever the machine, and prints the descent threads still
# alive on stderr once main returns or raises.  A head sets up when to
# print "stepped" on stdout.
_RUN_CLI = """
import signal
from persuasionkit import baseline, cli
signal.signal(signal.SIGINT, signal.default_int_handler)
main = cli.main
def checked(argv=None):
    try:
        return main(argv)
    finally:
        alive = [t.name for t in threading.enumerate() if t.name.startswith("descent")]
        print(f"descent threads alive: {alive}", file=sys.stderr, flush=True)
baseline._cpu_count, cli.main = lambda: 2, checked
runpy.run_module("persuasionkit", run_name="__main__", alter_sys=True)
"""

# "stepped" once any thread has finished an epoch.
_AFTER_FIRST_STEP = """
import runpy, sys, threading
from persuasionkit import baseline
epoch, lock, steps = baseline._epoch, threading.Lock(), []
def announce(*args):
    out = epoch(*args)
    with lock:
        if not steps:
            steps.append(None)
            print("stepped", flush=True)
    return out
baseline._epoch = announce
""" + _RUN_CLI

# "stepped" from inside the start of the second descent thread, once it
# runs, and a second's wait there: a KeyboardInterrupt raised in that
# wait would leave the thread outside the pool, unjoined.  Its epochs
# take a second each, so it would still be descending after train.
_INSIDE_THREAD_START = """
import runpy, sys, threading, time
from persuasionkit import baseline
start, started, epoch = threading.Thread.start, [], baseline._epoch
def slow_start(self):
    # Listed before it runs, so its first epoch finds it in started.
    descent = self.name.startswith("descent")
    if descent:
        started.append(self)
    start(self)
    if descent and len(started) == 2:
        print("stepped", flush=True)
        time.sleep(1.0)
def slow_epoch(*args):
    if threading.current_thread() is started[-1]:
        time.sleep(1.0)
    return epoch(*args)
threading.Thread.start, baseline._epoch = slow_start, slow_epoch
""" + _RUN_CLI


def _interrupt_train(out_dirs, script, *flags):
    """SIGINT to one 10^6-epoch ``persuasionkit train`` per directory, run
    side by side under ``script``, as soon as each prints "stepped";
    returns (status, stderr, seconds to exit, files in its directory) per
    run."""
    src = os.path.join(HERE, "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    procs = [subprocess.Popen(
        [sys.executable, *flags, "-c", script, "train", "--hierarchy", SYNTHETIC_H,
         "--corpus", os.path.join(SYNTHETIC, "train.json"), "--epochs", str(10**6),
         "--out", str(out_dir / "model.json")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    ) for out_dir in out_dirs]
    results, waiting, signalled = [], {proc.stdout: proc for proc in procs}, {}
    try:
        while waiting:
            ready = select.select(list(waiting), [], [], 60)[0]
            assert ready, "no gradient step"
            for stdout in ready:
                assert stdout.readline() == "stepped\n"
                waiting.pop(stdout).send_signal(signal.SIGINT)
                signalled[stdout] = time.monotonic()
        for proc, out_dir in zip(procs, out_dirs):
            _, stderr = proc.communicate(timeout=60)
            elapsed = time.monotonic() - signalled[proc.stdout]
            results.append((proc.returncode, stderr, elapsed, list(out_dir.iterdir())))
    finally:
        for proc in procs:
            proc.kill()
            proc.communicate()
    return results


def test_ctrl_c_in_train_prints_one_line_and_dies_by_sigint(tmp_path):
    [(status, stderr, elapsed, files)] = _interrupt_train([tmp_path], _AFTER_FIRST_STEP)
    assert status == -signal.SIGINT, stderr
    assert "Traceback" not in stderr
    assert stderr.endswith("descent threads alive: []\ninterrupted\n"), stderr
    assert elapsed < 5.0
    assert files == []


def test_no_descent_thread_outlives_an_interrupted_train(tmp_path):
    # A SIGINT right after the first gradient step of any thread can land
    # while the other group's thread is being started.  20 runs, two at a
    # time.
    for pair in range(10):
        out_dirs = [tmp_path / f"{pair}-{k}" for k in range(2)]
        for out_dir in out_dirs:
            out_dir.mkdir()
        for status, stderr, elapsed, files in _interrupt_train(
                out_dirs, _AFTER_FIRST_STEP, "-X", "dev"):
            assert status == -signal.SIGINT, stderr
            assert "Traceback" not in stderr
            assert "descent threads alive: []\n" in stderr
            assert elapsed < 5.0
            assert files == []
    # The same signal, sent while a descent thread is being started.
    (tmp_path / "starting").mkdir()
    [(status, stderr, elapsed, files)] = _interrupt_train(
        [tmp_path / "starting"], _INSIDE_THREAD_START, "-X", "dev")
    assert status == -signal.SIGINT, stderr
    assert stderr.endswith("descent threads alive: []\ninterrupted\n"), stderr
    assert elapsed < 5.0
    assert files == []


def test_predict_counts_caption_less_instances(tmp_path, caplog):
    labeled = [dict(rec, caption=f"caption {rec['id']}", caption_source="manual")
               for rec in MEM_CORPUS]
    corpus = write(tmp_path / "captioned.json", json.dumps(labeled))
    mixed = write(tmp_path / "mixed.json", json.dumps(
        labeled[:1] + MEM_CORPUS[1:3] + labeled[3:]))  # d2, d3 lack captions
    for mode, degraded in (("text+caption", 2), ("text", 0)):
        model = str(tmp_path / f"{mode}.model.json")
        assert main(["train", "--hierarchy", WORKED_H, "--corpus", corpus, "--mode", mode,
                     "--dim", "1024", "--epochs", "50", "--out", model]) == 0
        preds = str(tmp_path / f"{mode}.preds.json")
        caplog.clear()
        assert main(["predict", "--model", model, "--hierarchy", WORKED_H,
                     "--corpus", mixed, "--out", preds]) == 0
        config = read_json(preds + ".manifest.json")["config"]
        assert config == {"mode": mode, "degraded_to_text_only": degraded}
        warned = "2 instance(s) lacked a caption" in caplog.text
        assert warned == bool(degraded)


def test_train_counts_caption_less_instances(tmp_path, caplog):
    # A text+caption model trains a caption-less instance on its text alone;
    # train says so, as predict does, and still exits 0.
    labeled = [dict(rec, caption=f"caption {rec['id']}", caption_source="manual")
               for rec in MEM_CORPUS]
    mixed = write(tmp_path / "mixed.json", json.dumps(
        labeled[:1] + MEM_CORPUS[1:3] + labeled[3:]))  # d2, d3 lack captions
    dev = _write_mem_corpus(tmp_path)  # no captions at all
    for mode, degraded in (("text+caption", 6), ("text", 0)):
        model = str(tmp_path / f"{mode}.model.json")
        caplog.clear()
        assert main(["train", "--hierarchy", WORKED_H, "--corpus", mixed, "--tune-dev", dev,
                     "--mode", mode, "--dim", "1024", "--epochs", "20", "--out", model]) == 0
        config = read_json(model + ".manifest.json")["config"]
        assert config["mode"] == mode and config["degraded_to_text_only"] == degraded
        warned = "6 instance(s) lacked a caption; trained on text features only" in caplog.text
        assert warned == bool(degraded)


# -- caption -------------------------------------------------------------------

CAPTION_CORPUS = [
    {"id": "a", "text": "text a", "image": "https://img.test/a.png"},
    {"id": "b", "text": "text b", "image": "https://img.test/b.png"},
]


def test_caption_command_with_injected_transport(tmp_path, capsys):
    corpus = write(tmp_path / "c.json", json.dumps(CAPTION_CORPUS))
    ck = str(tmp_path / "ck.jsonl")
    caps = str(tmp_path / "captions.json")
    transport = ScriptedTransport(
        [refusal_response("pattern"), ok_response("try two"), ok_response("one shot")]
    )
    rc = main(["caption", "--corpus", corpus, "--out", ck,
               "--captions-out", caps, "--seed", "1"], transport=transport)
    out = capsys.readouterr().out
    assert rc == 0
    assert "ok_prompt1: 1" in out and "ok_prompt2: 1" in out
    parsed = load_captions(read_text(caps))
    assert set(parsed) == {"a", "b"}
    assert parsed["a"] == ("try two", "external-zero-shot")
    manifest = read_json(ck + ".manifest.json")
    assert manifest["config"]["credential_env"] == "PERSUASIONKIT_API_KEY"
    blob = read_text(ck) + json.dumps(manifest)
    assert "PERSUASIONKIT_API_KEY" not in read_text(ck)  # env name only in manifest
    assert "Bearer" not in blob


def test_caption_transport_failure_exit_code(tmp_path, capsys):
    corpus = write(tmp_path / "c.json", json.dumps(CAPTION_CORPUS[:1]))
    # a structurally bad response is terminal for the instance, no retries
    transport = ScriptedTransport(default={"unexpected": "shape"})
    rc = main(["caption", "--corpus", corpus, "--out", str(tmp_path / "ck.jsonl")],
              transport=transport)
    assert rc == 3
    assert "failed on transport" in capsys.readouterr().err


def test_caption_malformed_choice_exit_code(tmp_path, capsys):
    corpus = write(tmp_path / "c.json", json.dumps(CAPTION_CORPUS))
    transport = ScriptedTransport([{"choices": [None]}, {"choices": [{"message": "hi"}]}])
    rc = main(["caption", "--corpus", corpus, "--out", str(tmp_path / "ck.jsonl")],
              transport=transport)
    assert rc == 3
    assert "2 instance(s) failed on transport" in capsys.readouterr().err


def test_caption_with_a_lone_surrogate_ends_its_meme_as_transport_error(
        tmp_path, capsys, caplog):
    # Valid JSON, but no UTF-8 checkpoint line can hold it: the run used
    # to exit 1 at that meme, and again on every rerun.
    corpus = write(tmp_path / "c.json", json.dumps(CAPTION_CORPUS))
    ck, caps = str(tmp_path / "ck.jsonl"), str(tmp_path / "captions.json")
    transport = ScriptedTransport([ok_response("bad \ud800 caption")])
    rc = main(["caption", "--corpus", corpus, "--out", ck, "--captions-out", caps],
              transport=transport)
    assert rc == 3
    assert "1 instance(s) failed on transport" in capsys.readouterr().err
    assert "instance a: malformed provider response: content holds a lone surrogate" \
        in caplog.text
    assert len(transport.requests) == 2  # not retried
    assert [(rec["id"], rec["status"]) for rec in map(json.loads, read_text(ck).splitlines())] \
        == [("a", "transport_error"), ("b", "ok_prompt1")]
    assert load_captions(read_text(caps)) == {"b": ("a caption", "external-zero-shot")}


def test_caption_bad_checkpoint_record_is_validation_error(tmp_path, capsys):
    corpus = write(tmp_path / "c.json", json.dumps(CAPTION_CORPUS))
    ck = write(tmp_path / "ck.jsonl", json.dumps({"status": "ok_prompt1", "caption": "x"}) + "\n")
    rc = main(["caption", "--corpus", corpus, "--out", ck], transport=ScriptedTransport())
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: checkpoint line 1: record lacks a string 'id'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("attempts", ["3", True, 1.9, None])
def test_caption_refuses_checkpoint_attempts_of_the_wrong_type(tmp_path, capsys, attempts):
    # int() used to read "3", true and 1.9 as 3, 1 and 1.
    corpus = write(tmp_path / "c.json", json.dumps(CAPTION_CORPUS))
    record = {"id": "a", "status": "transport_error", "caption": None, "attempts": attempts}
    ck = write(tmp_path / "ck.jsonl", json.dumps(record) + "\n")
    transport = ScriptedTransport()
    rc = main(["caption", "--corpus", corpus, "--out", ck], transport=transport)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        f"error: checkpoint line 1: attempts must be an integer, not {json.dumps(attempts)}")
    assert transport.requests == []


@pytest.mark.parametrize("record, problem", [
    ({"id": "a", "status": "ok_prompt1", "caption": 5},
     "caption must be a string or null, not 5"),
    ({"id": "a", "status": "refused_both", "caption": ["x"]},
     'caption must be a string or null, not ["x"]'),
    ({"id": "a", "status": "ok_prompt1", "caption": None},
     "an ok_prompt1 record must hold a string caption"),
    ({"id": "a", "status": "ok_prompt2"}, "an ok_prompt2 record must hold a string caption"),
    ({"id": "a", "status": "ok_prompt1", "caption": "x", "model": 7},
     "model must be a string, not 7"),
    ({"id": "a", "status": "ok", "caption": "x"}, 'unknown status "ok"'),
])
def test_caption_refuses_checkpoint_fields_the_writer_never_writes(
        tmp_path, capsys, record, problem):
    corpus = write(tmp_path / "c.json", json.dumps(CAPTION_CORPUS))
    good = json.dumps({"id": "b", "status": "ok_prompt1", "caption": "y", "model": "m"})
    ck = write(tmp_path / "ck.jsonl", good + "\n" + json.dumps(record) + "\n")
    caps = tmp_path / "captions.json"
    transport = ScriptedTransport()
    rc = main(["caption", "--corpus", corpus, "--out", ck, "--captions-out", str(caps)],
              transport=transport)
    assert rc == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: checkpoint line 2: {problem}"]
    assert transport.requests == []
    assert not caps.exists()


TORN_CORPUS = [
    {"id": f"t{k}", "text": f"text {k}", "image": f"https://img.test/t{k}.png"}
    for k in range(4)
]


@settings(max_examples=40)
@given(data=st.data())
def test_caption_resumes_from_torn_checkpoint(data):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = write(os.path.join(tmp, "c.json"), json.dumps(TORN_CORPUS))
        ck = os.path.join(tmp, "ck.jsonl")
        # Non-ASCII captions, so a cut can split a UTF-8 sequence.
        assert main(["caption", "--corpus", corpus, "--out", ck],
                    transport=ScriptedTransport(default=ok_response("légende ✓"))) == 0
        lines = Path(ck).read_bytes().splitlines(keepends=True)
        last = data.draw(st.integers(0, len(lines) - 1), label="last record")
        cut = data.draw(st.integers(0, len(lines[last]) - 1), label="byte offset")
        Path(ck).write_bytes(b"".join(lines[:last]) + lines[last][:cut])

        transport = ScriptedTransport()
        assert main(["caption", "--corpus", corpus, "--out", ck], transport=transport) == 0
        records = [json.loads(line) for line in read_text(ck).splitlines()]
        assert {r["id"] for r in records} == {r["id"] for r in TORN_CORPUS}
        finished = {json.loads(line)["id"] for line in lines[:last]}
        sent = [req["messages"][0]["content"][1]["image_url"]["url"]
                for req in transport.requests]
        assert sent == [r["image"] for r in TORN_CORPUS if r["id"] not in finished]


def test_caption_bad_middle_checkpoint_line_names_it(tmp_path, capsys):
    corpus = write(tmp_path / "c.json", json.dumps(CAPTION_CORPUS))
    good = json.dumps({"id": "a", "status": "ok_prompt1", "caption": "x"})
    ck = write(tmp_path / "ck.jsonl", good + "\n" + good[:9] + "\n" + good + "\n")
    rc = main(["caption", "--corpus", corpus, "--out", ck], transport=ScriptedTransport())
    assert rc == 1
    assert "error: checkpoint line 2: invalid JSON" in capsys.readouterr().err


def test_caption_torn_tail_is_cut_with_a_warning(tmp_path, caplog):
    corpus = write(tmp_path / "c.json", json.dumps(CAPTION_CORPUS))
    good = json.dumps({"id": "a", "status": "ok_prompt1", "caption": "x"})
    ck = write(tmp_path / "ck.jsonl", good + "\n" + good[:9])
    transport = ScriptedTransport()
    assert main(["caption", "--corpus", corpus, "--out", ck], transport=transport) == 0
    assert "dropping an unterminated last line (9 bytes)" in caplog.text
    assert len(transport.requests) == 1  # b only; a was finished
    assert read_text(ck).startswith(good + "\n" + "{")


def _finished_checkpoint(path, captions: dict) -> list[dict]:
    """Write a checkpoint in which each id of ``captions`` is finished: ok
    with its caption, or refused on both prompts where it maps to None.
    Returns the corpus of those ids."""
    with open(path, "w", encoding="utf-8") as fh:
        for iid, cap in captions.items():
            fh.write(json.dumps({"id": iid, "caption": cap, "source": "external-zero-shot",
                                 "status": "refused_both" if cap is None else "ok_prompt1",
                                 "attempts": 1, "model": "m"}) + "\n")
    return [{"id": iid, "text": "t", "image": "https://img.test/x.png"} for iid in captions]


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)))
# Captions with quotes, backslashes, control and non-ASCII characters; some
# longer than one piece of the streamed file.
_CAPTION = _TEXT | _TEXT.filter(bool).map(lambda t: t * (cli._BLOCK // len(t) + 1))


@settings(max_examples=40, deadline=None)
@given(captions=st.dictionaries(_TEXT.filter(bool), st.none() | _CAPTION, max_size=6))
@example(captions={})
@example(captions={"a": None})
@example(captions={"é\\\"": "\u2028\t\"✓\"" * 30000, "b": ""})
def test_streamed_captions_file_is_write_captions_and_its_manifest_hash(captions):
    with tempfile.TemporaryDirectory() as tmp:
        ck, caps = os.path.join(tmp, "ck.jsonl"), os.path.join(tmp, "captions.json")
        corpus = write(os.path.join(tmp, "c.json"),
                       json.dumps(_finished_checkpoint(ck, captions)))
        transport = ScriptedTransport()
        assert main(["caption", "--corpus", corpus, "--out", ck, "--captions-out", caps],
                    transport=transport) == 0
        assert transport.requests == []
        data = Path(caps).read_bytes()
        want = {iid: (cap, "external-zero-shot") for iid, cap in captions.items()
                if cap is not None}
        assert data == write_captions(want).encode("utf-8")
        outputs = read_json(caps + ".manifest.json")["outputs"]
        assert outputs == {caps: "sha256:" + hashlib.sha256(data).hexdigest()}
        outputs = read_json(ck + ".manifest.json")["outputs"]
        assert outputs == {ck: "sha256:" + hashlib.sha256(Path(ck).read_bytes()).hexdigest()}


def _traced_peak(argv) -> int:
    """The tracemalloc peak, in bytes, of ``main(argv)``."""
    tracemalloc.start()
    try:
        assert main(argv, transport=ScriptedTransport()) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_caption_streams_the_captions_file_instead_of_holding_it(tmp_path):
    # 2 000 scripted captions of 150 long words, about 7 MB of captions
    # file.  Building the file whole held it about three times over (the
    # encoder's pieces, their join, and its UTF-8 bytes); streamed, writing
    # it costs the caption records and one block.
    n = 2000
    corpus = write(tmp_path / "c.json", json.dumps(
        [{"id": f"m{k:05d}", "text": f"text {k}", "image": f"https://img.test/{k}.png"}
         for k in range(n)]))
    script = [ok_response(" ".join(f"w{k:05d}-{j:03d}-persuasion" for j in range(150)))
              for k in range(n)]
    ck, caps = str(tmp_path / "ck.jsonl"), str(tmp_path / "captions.json")
    assert main(["caption", "--corpus", corpus, "--out", ck],
                transport=ScriptedTransport(script)) == 0
    # Resumed runs send nothing: they differ only in writing the captions.
    without = _traced_peak(["caption", "--corpus", corpus, "--out", ck])
    with_captions = _traced_peak(["caption", "--corpus", corpus, "--out", ck,
                                  "--captions-out", caps])
    size = os.path.getsize(caps)
    assert size > 6_000_000
    assert with_captions - without < size / 4, (with_captions - without, size)


def test_caption_output_that_cannot_be_encoded_leaves_no_file(tmp_path, capsys, monkeypatch):
    # No reader lets a lone surrogate in, so one is put into the captions
    # after the checkpoint is read.  It comes after more than one block of
    # text, so the temp file already holds a block when the encoding fails.
    ck, caps = str(tmp_path / "ck.jsonl"), str(tmp_path / "captions.json")
    corpus = write(tmp_path / "c.json", json.dumps(_finished_checkpoint(
        ck, {"a": "x" * (2 * cli._BLOCK), "b": "fine"})))
    real = cli.checkpoint_to_captions
    monkeypatch.setattr(cli, "checkpoint_to_captions", lambda outcomes: {
        **real(outcomes), "b": ("bad \ud800 caption", "external-zero-shot")})
    rc = main(["caption", "--corpus", corpus, "--out", ck, "--captions-out", caps],
              transport=ScriptedTransport())
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 'utf-8' codec can't encode character '\\ud800'"), err
    assert sorted(os.listdir(tmp_path)) == ["c.json", "ck.jsonl"]


def test_caption_refuses_a_checkpoint_another_run_holds(tmp_path, capsys):
    # While another process holds the lock, no request is sent and the
    # checkpoint, torn tail included, is left as it is.
    corpus = write(tmp_path / "c.json", json.dumps(CAPTION_CORPUS))
    good = json.dumps({"id": "a", "status": "ok_prompt1", "caption": "x"})
    ck = write(tmp_path / "ck.jsonl", good + "\n" + good[:9])
    before = Path(ck).read_bytes()
    transport = ScriptedTransport()
    with open(ck, "ab") as held:
        fcntl.flock(held.fileno(), fcntl.LOCK_EX)
        rc = main(["caption", "--corpus", corpus, "--out", ck], transport=transport)
    assert rc == 1
    assert capsys.readouterr().err == f"error: checkpoint {ck} is locked by another caption run\n"
    assert transport.requests == []
    assert Path(ck).read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["c.json", "ck.jsonl"]
    # Once the lock is released the same run resumes.
    assert main(["caption", "--corpus", corpus, "--out", ck], transport=transport) == 0
    assert len(transport.requests) == 1


def test_caption_requires_endpoint(tmp_path, capsys):
    corpus = write(tmp_path / "c.json", json.dumps(CAPTION_CORPUS))
    rc = main(["caption", "--corpus", corpus, "--out", str(tmp_path / "ck.jsonl")])
    assert rc == 1
    assert "--endpoint is required" in capsys.readouterr().err


@pytest.mark.parametrize("option, value, problem", [
    ("--rate-limit", "0", "positive and finite"),
    ("--rate-limit", "-1", "positive and finite"),
    ("--rate-limit", "nan", "positive and finite"),
    ("--rate-limit", "inf", "positive and finite"),
    ("--jobs", "0", "at least 1"),
    ("--jobs", "-2", "at least 1"),
])
def test_caption_rejects_bad_rate_or_jobs_before_any_request(tmp_path, capsys, monkeypatch,
                                                              option, value, problem):
    # Both as a flag and from the environment.  A rate of 0, NaN or
    # infinity must fail, not turn rate limiting off.
    corpus = write(tmp_path / "c.json", json.dumps(CAPTION_CORPUS))
    env = "PERSUASIONKIT_" + option[2:].upper().replace("-", "_")
    for argv, environ in (([option, value], {}), ([], {env: value})):
        ck = tmp_path / "ck.jsonl"
        transport = ScriptedTransport()
        with monkeypatch.context() as m:
            for key, val in environ.items():
                m.setenv(key, val)
            rc = main(["caption", "--corpus", corpus, "--out", str(ck)] + argv,
                      transport=transport)
        assert rc == 1
        assert problem in capsys.readouterr().err
        assert transport.requests == []
        assert not ck.exists()


@pytest.mark.parametrize("argv, config, environ, source", [
    (["train", "--dim", "3"], None, {}, "--dim: "),
    (["train", "--epochs", "0"], None, {}, "--epochs: "),
    (["train", "--lr", "nan"], None, {}, "--lr: "),
    (["train", "--l2", "-1"], None, {}, "--l2: "),
    (["caption", "--jobs", "0"], None, {}, "--jobs must be at least 1"),
    (["caption"], {"jobs": 0}, {}, "--config {cfg}: config key 'jobs' must be at least 1"),
    (["caption"], None, {"PERSUASIONKIT_JOBS": "0"},
     "environment variable PERSUASIONKIT_JOBS must be at least 1"),
    (["caption", "--rate-limit", "nan"], None, {}, "--rate-limit must be positive"),
    (["caption"], {"rate_limit": 0}, {},
     "--config {cfg}: config key 'rate_limit' must be positive"),
    (["caption"], None, {"PERSUASIONKIT_RATE_LIMIT": "inf"},
     "environment variable PERSUASIONKIT_RATE_LIMIT must be positive"),
    (["score", "--task", "hier", "--beta", "nan"], None, {}, "--beta must be a finite number"),
], ids=["dim", "epochs", "lr", "l2", "jobs", "config-jobs", "env-jobs", "rate-limit",
        "config-rate-limit", "env-rate-limit", "beta"])
def test_bad_numeric_option_is_named_before_any_input_is_read(tmp_path, capsys, monkeypatch,
                                                              argv, config, environ, source):
    # Every input path is missing, so reading one first would exit 2.
    missing = str(tmp_path / "missing.json")
    inputs = {"train": ["--hierarchy", missing, "--corpus", missing,
                        "--out", str(tmp_path / "model.json")],
              "caption": ["--corpus", missing, "--out", str(tmp_path / "ck.jsonl")],
              "score": ["--hierarchy", missing, "--gold", missing, "--pred", missing]}
    cfg = write(tmp_path / "cfg.json", json.dumps(config)) if config is not None else None
    for key, val in environ.items():
        monkeypatch.setenv(key, val)
    rc = main((["--config", cfg] if cfg else []) + argv + inputs[argv[0]],
              transport=ScriptedTransport())
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + source.format(cfg=cfg)), err
    assert err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == (["cfg.json"] if cfg else [])


# -- caption-eval ----------------------------------------------------------------

# Runs caption (the arguments after the first two) against a transport
# that answers the first four requests in 10 ms and each later one in
# SLOW seconds, prints "sent" on stderr for every request, and announces
# "captioning" on stdout at request ANNOUNCE, so every worker is inside a meme when
# SIGINT comes.  SIGINT raises KeyboardInterrupt even where the test run
# ignores it, as a shell's background job does.
_CAPTION_SCRIPT = """
import signal, sys, threading, time
from persuasionkit.cli import main
signal.signal(signal.SIGINT, signal.default_int_handler)
announce, slow = int(sys.argv[1]), float(sys.argv[2])
class Transport:
    def __init__(self):
        self.sent, self.lock = 0, threading.Lock()
    def send(self, body):
        with self.lock:
            self.sent += 1
            sent = self.sent
            print("sent", file=sys.stderr, flush=True)
            if sent == announce:
                print("captioning", flush=True)
        time.sleep(0.01 if sent <= 4 else slow)
        return {"choices": [{"finish_reason": "stop", "message": {"content": "a caption"}}]}
sys.exit(main(sys.argv[3:], transport=Transport()))
"""


def _interrupt_caption(tmp_path, jobs, announce, slow, intervals):
    """Run ``_CAPTION_SCRIPT`` on 1 000 memes with ``--jobs jobs``, send
    SIGINT once it announces and again after each of ``intervals``
    seconds; returns (status, stderr, seconds from the first SIGINT to the
    exit, requests sent, checkpoint text)."""
    src = os.path.join(HERE, "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    memes = [{"id": f"m{k}", "text": f"text {k}", "image": f"https://img.test/{k}.png"}
             for k in range(1000)]
    corpus = write(tmp_path / "c.json", json.dumps(memes))
    ck = tmp_path / "ck.jsonl"
    argv = ["caption", "--corpus", corpus, "--out", str(ck), "--jobs", str(jobs)]
    proc = subprocess.Popen([sys.executable, "-c", _CAPTION_SCRIPT, str(announce), str(slow),
                             *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env)
    try:
        assert select.select([proc.stdout], [], [], 60)[0], "no announcement"
        assert proc.stdout.readline() == "captioning\n"
        proc.send_signal(signal.SIGINT)
        start = time.monotonic()
        for interval in intervals:
            time.sleep(interval)
            proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=60)
        elapsed = time.monotonic() - start
    finally:
        proc.kill()
        proc.communicate()
    return proc.returncode, stderr, elapsed, stderr.count("sent\n"), read_text(ck)


@pytest.mark.parametrize("jobs", [1, 2])
def test_interrupted_caption_starts_no_new_meme(tmp_path, jobs):
    # SIGINT lets each worker finish the meme it holds; none starts
    # another, and the checkpoint holds whole lines only.
    status, stderr, elapsed, sent, text = _interrupt_caption(tmp_path, jobs, 4, 0.5, [])
    assert status == -signal.SIGINT, stderr
    assert "KeyboardInterrupt" in stderr
    assert elapsed < 5.0
    assert text == "".join(line + "\n" for line in text.splitlines())
    # Four requests announce; then each worker finishes at most one meme.
    assert len(text.splitlines()) <= 4 + jobs - 1


def test_second_interrupt_keeps_the_captions_in_flight(tmp_path):
    # Both workers hold a 1.5 s request when the first SIGINT comes; a
    # second one 0.3 s later used to close the checkpoint under them, so
    # their two lines were lost (4 lines, against 6 after one SIGINT).
    status, stderr, elapsed, sent, text = _interrupt_caption(tmp_path, 2, 6, 1.5, [0.3])
    assert status == -signal.SIGINT, stderr
    assert "KeyboardInterrupt" in stderr
    assert elapsed < 5.0
    assert sent == 6
    assert text == "".join(line + "\n" for line in text.splitlines())
    assert sorted(json.loads(line)["id"] for line in text.splitlines()) == [
        f"m{k}" for k in range(6)]


def test_caption_eval(tmp_path, capsys):
    cand = write(tmp_path / "cand.txt", "the cat sat\n")
    ref = write(tmp_path / "ref.txt", "the cat was sat\n")
    out = str(tmp_path / "report.json")
    rc = main(["caption-eval", "--candidates", cand, "--references", ref, "--out", out])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "ROUGE-L-F1" in printed and "BLEU-4" in printed
    report = read_json(out)
    assert report["rouge_l"]["f1"] == pytest.approx(0.857143, abs=1e-6)
    assert report["bleu_4"] == 0.0  # the candidate trigram never matches
    assert report["n_pairs"] == 1
    assert os.path.exists(out + ".manifest.json")


def test_caption_eval_misaligned_files(tmp_path, capsys):
    cand = write(tmp_path / "cand.txt", "one\ntwo\n")
    ref = write(tmp_path / "ref.txt", "one\n")
    rc = main(["caption-eval", "--candidates", cand, "--references", ref])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                 "\u2029"], ids=lambda c: f"U+{ord(c):04X}")
def test_caption_eval_splits_lines_at_newlines_only(tmp_path, capsys, sep):
    # str.splitlines also breaks at these: three candidates against two
    # references exited 1, and a separator in both files scored 3 pairs.
    cands, refs = [f"the cat{sep}sat", "a red dog"], ["the cat sat", f"a red{sep}dog"]
    cand = write(tmp_path / "cand.txt", "\n".join(cands) + "\n")
    ref = write(tmp_path / "ref.txt", "\n".join(refs) + "\n")
    out = str(tmp_path / "report.json")
    assert main(["caption-eval", "--candidates", cand, "--references", ref, "--out", out]) == 0
    want = textmetrics.score_caption_pairs(cands, refs)
    assert read_json(out)["n_pairs"] == 2
    assert read_json(out)["rouge_l"]["f1"] == want.rouge_l_f1
    assert read_json(out)["bleu_4"] == want.bleu_4


def test_caption_eval_final_newline_adds_no_pair_and_empty_files_fail(tmp_path, capsys):
    for name, text in (("one.txt", "a b\n"), ("bare.txt", "a b"), ("empty.txt", "")):
        write(tmp_path / name, text)
    out = str(tmp_path / "report.json")
    assert main(["caption-eval", "--candidates", str(tmp_path / "one.txt"),
                 "--references", str(tmp_path / "bare.txt"), "--out", out]) == 0
    assert read_json(out)["n_pairs"] == 1
    empty = str(tmp_path / "empty.txt")
    assert main(["caption-eval", "--candidates", empty, "--references", empty]) == 1
    assert capsys.readouterr().err.endswith("error: no caption pairs to score\n")


def _caption_pairs(path, seed=7, pairs=40):
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(60)] + [",", ".", "!"]
    cands, refs = [], []
    for _ in range(pairs):
        ref = rng.choices(vocab, k=rng.randint(1, 200))
        cand = [rng.choice(vocab) if rng.random() < 0.3 else w for w in ref
                if rng.random() > 0.05]
        refs.append(" ".join(ref))
        cands.append(" ".join(cand))
    return (write(path / "cand.txt", "\n".join(cands) + "\n"),
            write(path / "ref.txt", "\n".join(refs) + "\n"))


@pytest.mark.parametrize("inputs", ["generated", "shipped"])
def test_caption_eval_report_equals_reference_kernels(tmp_path, capsys, monkeypatch, inputs):
    # The bit-parallel LCS and zip-counted BLEU must give the very bytes
    # the quadratic reference functions give.
    if inputs == "generated":
        cand, ref = _caption_pairs(tmp_path)
    else:
        cand, ref = PROMPT_PRIMARY, PROMPT_FALLBACK
    fast = str(tmp_path / "fast.json")
    assert main(["caption-eval", "--candidates", cand, "--references", ref, "--out", fast]) == 0
    fast_table = capsys.readouterr().out

    calls = []

    def lcs(a, b):
        calls.append("lcs")
        return reference_lcs_len(a, b)

    def bleu(candidate, references):
        calls.append("bleu")
        return reference_bleu4(candidate, references)

    monkeypatch.setattr(textmetrics, "_lcs_len", lcs)
    monkeypatch.setattr(textmetrics, "bleu4", bleu)
    slow = str(tmp_path / "slow.json")
    assert main(["caption-eval", "--candidates", cand, "--references", ref, "--out", slow]) == 0
    n_pairs = read_json(slow)["n_pairs"]
    assert calls.count("bleu") == n_pairs and calls.count("lcs") >= 1
    assert capsys.readouterr().out == fast_table
    assert Path(fast).read_bytes() == Path(slow).read_bytes()


# The libraries each command may load, by the top-level package name in
# sys.modules: numpy only where arrays are computed, scipy only in train,
# and requests (with urllib3 under it) only for a caption run against a
# real endpoint, which these runs replace by a scripted transport.
_HEAVY = ("numpy", "scipy", "requests", "urllib3")
_LOADS = {
    "validate": [], "caption": [], "caption-eval": [], "version": [],
    "score-hier": ["numpy"], "score-binary": ["numpy"], "predict": ["numpy"],
    "train": ["numpy", "scipy"],
}


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    model = str(tmp_path_factory.mktemp("model") / "model.json")
    assert main(["train", "--hierarchy", SYNTHETIC_H, "--corpus",
                 os.path.join(SYNTHETIC, "train.json"), "--dim", "1024",
                 "--epochs", "5", "--out", model]) == 0
    return model


@pytest.mark.parametrize("command", list(_LOADS))
def test_each_command_imports_only_the_libraries_it_uses(tmp_path, command, trained_model):
    gold = os.path.join(SYNTHETIC, "heldout.json")
    pred = write(tmp_path / "pred.json", json.dumps(
        [{"id": r["id"], "labels": r["labels"][:1]} for r in read_json(gold)]))
    memes = write(tmp_path / "memes.json", json.dumps(CAPTION_CORPUS))
    out = str(tmp_path / "out.json")
    argv = {
        "validate": ["validate", "--hierarchy", SYNTHETIC_H,
                     "--corpus", os.path.join(SYNTHETIC, "train.json"),
                     "--gold", gold, "--pred", pred],
        "score-hier": ["score", "--task", "hier", "--hierarchy", SYNTHETIC_H, "--gold", gold,
                       "--pred", pred, "--bootstrap", "5", "--seed", "0", "--out", out],
        "score-binary": ["score", "--task", "binary", "--gold", BIN_GOLD, "--pred", BIN_PRED,
                         "--bootstrap", "5", "--out", out],
        "caption": ["caption", "--corpus", memes, "--out", str(tmp_path / "ck.jsonl"),
                    "--captions-out", out],
        "caption-eval": ["caption-eval", "--candidates", PROMPT_PRIMARY,
                         "--references", PROMPT_FALLBACK, "--out", out],
        "version": ["--version"],
        "train": ["train", "--hierarchy", SYNTHETIC_H, "--corpus",
                  os.path.join(SYNTHETIC, "train.json"), "--tune-dev", gold,
                  "--dim", "1024", "--epochs", "5", "--out", out],
        "predict": ["predict", "--model", trained_model, "--hierarchy", SYNTHETIC_H,
                    "--corpus", gold, "--out", out],
    }[command]
    script = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[2])\n"
        "from mocks import ScriptedTransport\n"
        "from persuasionkit.cli import main\n"
        "argv = json.loads(sys.argv[1])\n"
        "try:\n"
        "    rc = main(argv, transport=ScriptedTransport())\n"
        "except SystemExit as exc:\n"
        "    rc = exc.code\n"
        f"heavy = {_HEAVY!r}\n"
        "loaded = sorted({m.split('.')[0] for m in sys.modules} & set(heavy))\n"
        "print(json.dumps({'rc': rc, 'loaded': loaded}))\n"
    )
    src = os.path.join(HERE, "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv), HERE],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"rc": 0, "loaded": _LOADS[command]}


def test_bootstrap_never_loads_numpy_ma(tmp_path):
    # The interval's percentiles come from the sorted statistics, so
    # score --bootstrap does not pay for importing numpy.ma (np.percentile
    # would import it); numpy.random, which draws the resamples, stays.
    gold = os.path.join(SYNTHETIC, "heldout.json")
    pred = write(tmp_path / "pred.json", json.dumps(
        [{"id": r["id"], "labels": r["labels"][:1]} for r in read_json(gold)]))
    argv = ["score", "--task", "hier", "--hierarchy", SYNTHETIC_H, "--gold", gold,
            "--pred", pred, "--bootstrap", "5", "--seed", "0",
            "--out", str(tmp_path / "hier.json")]
    script = (
        "import json, sys\n"
        "from persuasionkit.cli import main\n"
        "rc = main(json.loads(sys.argv[1]))\n"
        "print(json.dumps({'rc': rc, 'ma': 'numpy.ma' in sys.modules,\n"
        "                  'random': 'numpy.random' in sys.modules}))\n"
    )
    src = os.path.join(HERE, "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"rc": 0, "ma": False, "random": True}
    assert set(read_json(str(tmp_path / "hier.json"))["bootstrap"]) == {"h_f_beta"}


# -- misc ------------------------------------------------------------------------

def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_config_must_be_object(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", "[1, 2]")
    rc = main(["--config", cfg, "validate", "--hierarchy", WORKED_H])
    assert rc == 1
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("data,problem", [
    (b'{"seed": 1,}', "Expecting property name"),
    (b'{"seed": "\xff"}', "'utf-8' codec can't decode"),
], ids=["bad-json", "bad-utf8"])
def test_unreadable_config_is_named(tmp_path, capsys, data, problem):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(data)
    rc = main(["--config", str(cfg), "validate", "--hierarchy", WORKED_H])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --config {cfg}: config: invalid JSON: {problem}"), err
    assert err.count("\n") == 1


DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("reader", ["config", "corpus", "model", "checkpoint"])
def test_deeply_nested_json_is_an_error_not_a_traceback(tmp_path, capsys, reader):
    deep = write(tmp_path / "deep.json", DEEP_JSON + ("\n" if reader == "checkpoint" else ""))
    out = str(tmp_path / "out.json")
    corpus = write(tmp_path / "c.json", json.dumps(CAPTION_CORPUS))
    argv, problem = {
        "config": (["--config", deep, "validate", "--hierarchy", WORKED_H],
                   f"--config {deep}: config: invalid JSON: "),
        "corpus": (["train", "--hierarchy", WORKED_H, "--corpus", deep, "--out", out],
                   f"--corpus {deep}: corpus: invalid JSON: "),
        "model": (["predict", "--model", deep, "--hierarchy", WORKED_H, "--corpus", corpus,
                   "--out", out], f"--model {deep}: model file: invalid JSON: "),
        "checkpoint": (["caption", "--corpus", corpus, "--out", deep],
                       "checkpoint line 1: invalid JSON: "),
    }[reader]
    transport = ScriptedTransport()
    assert main(argv, transport=transport) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {problem}maximum recursion depth exceeded"), err
    assert err.count("\n") == 1
    assert transport.requests == []
    assert sorted(os.listdir(tmp_path)) == ["c.json", "deep.json"]


# A lone surrogate, spelled as a JSON escape, in a file no writer could
# have written: each reader refuses it by name before any work.
_CHECKPOINT_OK = ('{"id": "a", "caption": "fine", "source": "external-zero-shot", '
                  '"status": "ok_prompt1", "attempts": 1, "model": "m"}\n')


@pytest.mark.parametrize("case", ["checkpoint", "corpus-text"])
def test_a_lone_surrogate_escape_is_refused_by_name(tmp_path, capsys, case):
    out = str(tmp_path / "out.json")
    if case == "checkpoint":
        corpus = write(tmp_path / "c.json", json.dumps(CAPTION_CORPUS))
        ck = write(tmp_path / "ck.jsonl", _CHECKPOINT_OK + _CHECKPOINT_OK.replace(
            '"a"', '"b"').replace("fine", "bad \\ud800"))
        argv = ["caption", "--corpus", corpus, "--out", ck, "--captions-out", out]
        named, code = "checkpoint line 2", "U+D800"
    else:
        corpus = write(tmp_path / "c.json",
                       '[{"id": "d1", "text": "bad \\uDBFF", "labels": ["Ethos"]}]')
        argv = ["train", "--hierarchy", WORKED_H, "--corpus", corpus, "--out", out]
        named, code = f"--corpus {corpus}: corpus", "U+DBFF"
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    transport = ScriptedTransport()
    assert main(argv, transport=transport) == 1
    assert capsys.readouterr().err == (
        f"error: {named}: invalid JSON: string holds a lone surrogate {code}\n")
    assert transport.requests == []
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before


def test_validate_refuses_an_id_holding_a_lone_surrogate(tmp_path, capsys):
    corpus = write(tmp_path / "c.json", '[{"id": "\\uDC00x", "text": "t", "labels": []}]')
    rc = main(["validate", "--hierarchy", WORKED_H, "--corpus", corpus])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ("hierarchy: ok (3 labels, 2 leaves)\n"
                            f"ERROR: corpus: --corpus {corpus}: corpus: invalid JSON: "
                            "string holds a lone surrogate U+DC00\n")
    assert captured.err == "validation failed with 1 error(s)\n"
    assert sorted(os.listdir(tmp_path)) == ["c.json"]


@pytest.mark.parametrize("task", ["hier", "binary"])
@pytest.mark.parametrize("flag,cfg,env,source", [
    (["--seed", "-1"], None, None, "--seed"),
    ([], {"seed": -2}, None, "--config {config}: config key 'seed'"),
    ([], None, "-4", "environment variable PERSUASIONKIT_SEED"),
], ids=["flag", "config", "env"])
def test_a_negative_bootstrap_seed_is_refused_by_source(
        tmp_path, capsys, monkeypatch, task, flag, cfg, env, source):
    gold, pred = _boot_files(tmp_path) if task == "hier" else (BIN_GOLD, BIN_PRED)
    if env is None:
        monkeypatch.delenv("PERSUASIONKIT_SEED", raising=False)
    else:
        monkeypatch.setenv("PERSUASIONKIT_SEED", env)
    config = write(tmp_path / "cfg.json", json.dumps(cfg or {}))
    out = str(tmp_path / "r.json")
    hier = ["--hierarchy", WORKED_H] if task == "hier" else []
    rc = main(["--config", config, "score", "--task", task, *hier, "--gold", gold,
               "--pred", pred, "--bootstrap", "5", *flag, "--out", out])
    assert rc == 1
    seed = flag[-1] if flag else cfg["seed"] if cfg else env
    assert capsys.readouterr().err == (
        f"error: {source.format(config=config)} must be a non-negative integer with "
        f"--bootstrap, not {seed}\n")
    assert not os.path.exists(out)
    # Without --bootstrap the seed is unused, and a negative one scores.
    assert main(["--config", config, "score", "--task", task, *hier, "--gold", gold,
                 "--pred", pred, *flag, "--out", out]) == 0


@pytest.mark.parametrize("task", ["hier", "binary"])
@pytest.mark.parametrize("flags,message", [
    (["--bootstrap", "-1"], "--bootstrap must be a number of resamples >= 0 (0 = off), not -1"),
    (["--bootstrap", "5", "--confidence", "1.5"], "--confidence must be in (0, 1), not 1.5"),
    (["--bootstrap", "5", "--confidence", "0"], "--confidence must be in (0, 1), not 0.0"),
    (["--bootstrap", "5", "--confidence", "nan"], "--confidence must be in (0, 1), not nan"),
], ids=["negative-bootstrap", "confidence-above-1", "confidence-0", "confidence-nan"])
def test_bad_bootstrap_flags_are_refused_before_any_input_is_read(
        tmp_path, capsys, task, flags, message):
    # The gold file does not exist: reading it would exit 2 with an i/o error.
    missing = str(tmp_path / "no-such-gold.json")
    out = str(tmp_path / "r.json")
    hier = ["--hierarchy", WORKED_H] if task == "hier" else []
    rc = main(["score", "--task", task, *hier, "--gold", missing, "--pred", BIN_PRED,
               *flags, "--out", out])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == []


def test_confidence_is_unused_without_bootstrap(tmp_path):
    assert main(["score", "--task", "binary", "--gold", BIN_GOLD, "--pred", BIN_PRED,
                 "--confidence", "1.5", "--out", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("cfg,env,message", [
    ({"seed": None}, None, "config key 'seed' must be an integer, not null"),
    ({"seed": [1]}, None, "config key 'seed' must be an integer, not [1]"),
    ({"seed": True}, None, "config key 'seed' must be an integer, not true"),
    ({"seed": 1.5}, None, "config key 'seed' must be an integer, not 1.5"),
    ({"seed": "x1"}, None, 'config key \'seed\' must be an integer, not "x1"'),
    ({}, "x1", 'environment variable PERSUASIONKIT_SEED must be an integer, not "x1"'),
])
def test_wrongly_typed_config_or_environment_value_is_validation_error(
        tmp_path, capsys, monkeypatch, cfg, env, message):
    gold, pred = _boot_files(tmp_path)
    if env is None:
        monkeypatch.delenv("PERSUASIONKIT_SEED", raising=False)
    else:
        monkeypatch.setenv("PERSUASIONKIT_SEED", env)
    out = str(tmp_path / "r.json")
    config = write(tmp_path / "cfg.json", json.dumps(cfg))
    rc = main(["--config", config,
               "score", "--task", "hier", "--hierarchy", WORKED_H,
               "--gold", gold, "--pred", pred, "--bootstrap", "10", "--out", out])
    assert rc == 1
    err = capsys.readouterr().err
    named = "" if env is not None else f"--config {config}: "  # a config value names its file
    assert err == f"error: {named}{message}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("cfg,message", [
    ({"endpoint": 5}, "config key 'endpoint' must be a string, not 5"),
    ({"rate_limit": None}, "config key 'rate_limit' must be a number, not null"),
    ({"rate_limit": 10**400}, f"config key 'rate_limit' must be a number, not {10**400}"),
    ({"jobs": [2]}, "config key 'jobs' must be an integer, not [2]"),
])
def test_caption_refuses_a_wrongly_typed_config_value_before_any_request(
        tmp_path, capsys, cfg, message):
    corpus = write(tmp_path / "c.json", json.dumps(CAPTION_CORPUS))
    transport = ScriptedTransport()
    config = write(tmp_path / "cfg.json", json.dumps(cfg))
    rc = main(["--config", config,
               "caption", "--corpus", corpus, "--out", str(tmp_path / "ck.jsonl")],
              transport=transport)
    assert rc == 1
    assert capsys.readouterr().err == f"error: --config {config}: {message}\n"
    assert transport.requests == []


# Each layered option: its flag, its environment variable, the manifest
# field that records it, its default, and a value for the flag, the config
# file and the environment.
LAYERED = [
    ("endpoint", "--endpoint", "PERSUASIONKIT_ENDPOINT", "endpoint", "",
     ("https://flag.test", "https://config.test", "https://env.test")),
    ("model_name", "--model-name", "PERSUASIONKIT_MODEL", "model", "gpt-4-vision-preview",
     ("model-flag", "model-config", "model-env")),
    ("credential_env", "--credential-env", "PERSUASIONKIT_CREDENTIAL_ENV", "credential_env",
     "PERSUASIONKIT_API_KEY", ("KEY_FLAG", "KEY_CONFIG", "KEY_ENV")),
    ("rate_limit", "--rate-limit", "PERSUASIONKIT_RATE_LIMIT", "rate_limit", None,
     (6e6, 7e6, 8e6)),
    ("jobs", "--jobs", "PERSUASIONKIT_JOBS", "jobs", 1, (2, 3, 4)),
    ("seed", "--seed", "PERSUASIONKIT_SEED", "seed", 0, (3, 5, 7)),
]


@pytest.mark.parametrize("key, flag, var, field, default, values", LAYERED,
                         ids=[row[0] for row in LAYERED])
def test_layered_option_precedence(tmp_path, monkeypatch, key, flag, var, field, default,
                                   values):
    # flag > config > environment > default, read back from the manifest
    # of every command that records the option.
    flag_value, config_value, env_value = values
    captioned = write(tmp_path / "captioned.json", json.dumps(CAPTION_CORPUS))
    corpus = _write_mem_corpus(tmp_path)
    runs = iter(range(100))

    def run(command, layers):
        n = next(runs)
        for row in LAYERED:
            monkeypatch.delenv(row[2], raising=False)
        if "env" in layers:
            monkeypatch.setenv(var, str(env_value))
        out = str(tmp_path / f"out{n}")
        argv = []
        if "config" in layers:
            argv += ["--config", write(tmp_path / f"cfg{n}.json", json.dumps({key: config_value}))]
        argv += {
            "caption": ["caption", "--corpus", captioned, "--out", out],
            "train": ["train", "--hierarchy", WORKED_H, "--corpus", corpus,
                      "--dim", "1024", "--epochs", "1", "--out", out],
        }[command]
        if "flag" in layers:
            argv += [flag, str(flag_value)]
        assert main(argv, transport=ScriptedTransport()) == 0
        return read_json(out + ".manifest.json")["config"][field]

    for command in ["caption"] + (["train"] if key == "seed" else []):
        assert run(command, set()) == default
        assert run(command, {"env"}) == env_value
        assert run(command, {"env", "config"}) == config_value
        assert run(command, {"env", "config", "flag"}) == flag_value


@pytest.mark.parametrize("command", ["validate", "score", "train", "caption"])
@pytest.mark.parametrize("cfg, named", [
    ({"epochs": 1}, "'epochs'"),
    ({"sed": 3}, "'sed'"),
    ({"seed": 3, "dim": 1024, "epochs": 1}, "'dim', 'epochs'"),
])
def test_unknown_config_key_is_refused_before_anything_runs(
        tmp_path, capsys, command, cfg, named):
    out = tmp_path / "out.json"
    corpus = _write_mem_corpus(tmp_path)
    argv = {
        "validate": ["validate", "--hierarchy", WORKED_H, "--corpus", corpus],
        "score": ["score", "--task", "binary", "--gold", BIN_GOLD, "--pred", BIN_PRED,
                  "--out", str(out)],
        "train": ["train", "--hierarchy", WORKED_H, "--corpus", corpus, "--out", str(out)],
        "caption": ["caption", "--corpus", write(tmp_path / "c.json", json.dumps(CAPTION_CORPUS)),
                    "--out", str(out)],
    }[command]
    before = set(os.listdir(tmp_path))
    transport = ScriptedTransport()
    path = write(tmp_path / "cfg.json", json.dumps(cfg))
    rc = main(["--config", path] + argv, transport=transport)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --config {path}: unknown config key {named}; a --config "
                            "file may set only "
                            "endpoint, model_name, credential_env, rate_limit, jobs, seed\n")
    assert set(os.listdir(tmp_path)) == before | {"cfg.json"}
    assert transport.requests == []


def test_a_known_config_key_the_command_does_not_take_is_ignored(tmp_path):
    out = str(tmp_path / "r.json")
    rc = main(["--config", write(tmp_path / "cfg.json", json.dumps({"endpoint": 5})),
               "score", "--task", "binary", "--gold", BIN_GOLD, "--pred", BIN_PRED,
               "--out", out])
    assert rc == 0
    assert read_json(out)["task"] == "binary"


def test_train_flag_defaults_are_the_library_defaults():
    args = build_parser().parse_args(["train", "--hierarchy", "h", "--corpus", "c",
                                      "--out", "m"])
    assert FeatureConfig(dimension=args.dim, mode=args.mode) == FeatureConfig()
    assert TrainConfig(epochs=args.epochs, learning_rate=args.lr, l2=args.l2) == TrainConfig()


def test_module_entry_exits_with_the_command_status(tmp_path):
    # python -m persuasionkit runs entrypoint, which turns main's status
    # into the process's exit status.
    src = os.path.join(HERE, "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    cfg = write(tmp_path / "cfg.json", json.dumps({"sed": 3}))
    proc = subprocess.run(
        [sys.executable, "-m", "persuasionkit", "--config", cfg, "validate",
         "--hierarchy", WORKED_H],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: --config {cfg}: unknown config key 'sed'; ")
    assert "Traceback" not in proc.stderr


def test_report_and_manifest_key_sets(tmp_path):
    gold, pred = _boot_files(tmp_path)
    manifest_keys = {"tool", "version", "command", "config", "inputs", "outputs"}
    ci_keys = {"point", "lower", "upper", "resamples", "seed", "confidence"}
    score_config = {"task", "beta", "bootstrap", "seed", "confidence"}

    def run(argv, out):
        assert main(argv + ["--out", out]) == 0
        manifest = read_json(out + ".manifest.json")
        assert set(manifest) == manifest_keys
        return read_json(out), manifest

    for boot in ([], ["--bootstrap", "20"]):
        out = str(tmp_path / f"hier{len(boot)}.json")
        rep, man = run(["score", "--task", "hier", "--hierarchy", WORKED_H,
                        "--gold", gold, "--pred", pred] + boot, out)
        assert set(rep) == {"task", "beta", "n_instances", "scores", "scores_x100", "totals",
                              "missing_prediction_ids", "per_class"} | ({"bootstrap"} if boot else set())
        assert set(rep["scores"]) == set(rep["scores_x100"]) == {
            "h_precision", "h_recall", "h_f_beta"}
        assert set(rep["totals"]) == {"overlap", "predicted", "gold"}
        assert all(set(v) == {"tp", "fp", "fn"} for v in rep["per_class"].values())
        if boot:
            assert set(rep["bootstrap"]) == {"h_f_beta"}
            assert set(rep["bootstrap"]["h_f_beta"]) == ci_keys
        assert set(man["config"]) == score_config

        out = str(tmp_path / f"bin{len(boot)}.json")
        rep, man = run(["score", "--task", "binary", "--gold", BIN_GOLD, "--pred", BIN_PRED]
                       + boot, out)
        assert set(rep) == {"task", "n_instances", "scores", "scores_x100",
                              "per_class"} | ({"bootstrap"} if boot else set())
        assert set(rep["scores"]) == set(rep["scores_x100"]) == {"macro_f1", "micro_f1"}
        assert all(set(v) == {"precision", "recall", "f1", "support"}
                   for v in rep["per_class"].values())
        if boot:
            assert set(rep["bootstrap"]) == {"macro_f1", "micro_f1"}
            assert all(set(v) == ci_keys for v in rep["bootstrap"].values())
        assert set(man["config"]) == score_config

    corpus = _write_mem_corpus(tmp_path)
    model = str(tmp_path / "model.json")
    assert main(["train", "--hierarchy", WORKED_H, "--corpus", corpus,
                 "--dim", "1024", "--epochs", "20", "--out", model]) == 0
    man = read_json(model + ".manifest.json")
    assert set(man) == manifest_keys
    assert set(man["config"]) == {"mode", "dim", "epochs", "lr", "l2", "seed", "tuned",
                                  "degraded_to_text_only"}

    preds = str(tmp_path / "preds.json")
    assert main(["predict", "--model", model, "--hierarchy", WORKED_H,
                 "--corpus", corpus, "--out", preds]) == 0
    man = read_json(preds + ".manifest.json")
    assert set(man) == manifest_keys
    assert set(man["config"]) == {"mode", "degraded_to_text_only"}

    cand = write(tmp_path / "cand.txt", "the cat sat\n")
    ref = write(tmp_path / "ref.txt", "the cat was sat\n")
    rep, man = run(["caption-eval", "--candidates", cand, "--references", ref],
                   str(tmp_path / "eval.json"))
    assert set(rep) == {"n_pairs", "rouge_l", "bleu_4"}
    assert set(rep["rouge_l"]) == {"precision", "recall", "f1"}
    assert man["config"] == {}

    captioned = write(tmp_path / "captioned.json", json.dumps(CAPTION_CORPUS))
    ck, caps = str(tmp_path / "ck.jsonl"), str(tmp_path / "captions.json")
    transport = ScriptedTransport([ok_response("one"), ok_response("two")])
    assert main(["caption", "--corpus", captioned, "--out", ck, "--captions-out", caps],
                transport=transport) == 0
    caption_config = {"endpoint", "model", "credential_env", "rate_limit", "jobs", "seed",
                      "force"}
    for out in (ck, caps):
        man = read_json(out + ".manifest.json")
        assert set(man) == manifest_keys
        assert set(man["config"]) == caption_config
        assert man["inputs"] == {captioned: "sha256:" + hashlib.sha256(
            Path(captioned).read_bytes()).hexdigest()}
        assert man["outputs"] == {out: "sha256:" + hashlib.sha256(
            Path(out).read_bytes()).hexdigest()}


@pytest.mark.parametrize("command", ["score", "train"])
def test_failed_replace_keeps_old_output_and_leaves_no_temp(tmp_path, monkeypatch,
                                                            capsys, command):
    out = write(tmp_path / "out.json", "old bytes")
    corpus = _write_mem_corpus(tmp_path)
    argv = {
        "score": ["score", "--task", "binary", "--gold", BIN_GOLD, "--pred", BIN_PRED],
        "train": ["train", "--hierarchy", WORKED_H, "--corpus", corpus, "--dim", "1024",
                  "--epochs", "5"],
    }[command] + ["--out", out]
    before = set(os.listdir(tmp_path))

    def refuse(src, dst):
        raise OSError(f"cannot replace {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(argv) == 2
    assert "i/o error: cannot replace" in capsys.readouterr().err
    assert read_text(out) == "old bytes"
    assert set(os.listdir(tmp_path)) == before
    monkeypatch.undo()

    assert main(argv) == 0
    assert read_text(out) != "old bytes"
    assert set(os.listdir(tmp_path)) == before | {"out.json.manifest.json"}


def _recording_syncs(monkeypatch) -> list[tuple]:
    """Patch ``os.fsync`` and ``os.replace`` to record each call, in
    order, as ``("fsync", inode)``, ``("fsync dir", inode)`` or
    ``("replace", inode, target name)``, and then make it."""
    calls, fsync, replace = [], os.fsync, os.replace

    def recording_fsync(fd):
        st = os.fstat(fd)
        calls.append(("fsync dir" if stat.S_ISDIR(st.st_mode) else "fsync", st.st_ino))
        fsync(fd)

    def recording_replace(src, dst):
        calls.append(("replace", os.stat(src).st_ino, os.path.basename(dst)))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    return calls


def test_outputs_are_synced_before_and_after_their_rename(tmp_path, monkeypatch):
    # A power loss itself cannot be simulated here; the order of the calls
    # is what makes a renamed output survive one: the temp file's data
    # reaches the disk before the rename, and the rename before _write
    # returns.
    out = str(tmp_path / "report.json")
    calls = _recording_syncs(monkeypatch)
    assert main(["score", "--task", "binary", "--gold", BIN_GOLD, "--pred", BIN_PRED,
                 "--out", out]) == 0
    directory = os.stat(tmp_path).st_ino
    want = []
    for name in ("report.json", "report.json.manifest.json"):
        inode = os.stat(tmp_path / name).st_ino
        want += [("fsync", inode), ("replace", inode, name), ("fsync dir", directory)]
    assert calls == want


def test_caption_checkpoint_is_synced_before_it_is_closed(tmp_path, monkeypatch):
    corpus = write(tmp_path / "c.json", json.dumps(CAPTION_CORPUS))
    ck = tmp_path / "ck.jsonl"
    calls = _recording_syncs(monkeypatch)
    assert main(["caption", "--corpus", corpus, "--out", str(ck)],
                transport=ScriptedTransport()) == 0
    # The checkpoint, whole, then its manifest through _write.
    assert calls[0] == ("fsync", ck.stat().st_ino)
    assert [c[0] for c in calls[1:]] == ["fsync", "replace", "fsync dir"]
    assert len(read_text(ck).splitlines()) == len(CAPTION_CORPUS)


# -- outputs that name an input ----------------------------------------------------

def test_caption_refuses_an_out_that_is_its_corpus(tmp_path, capsys):
    # A one-line corpus with no final newline read as a checkpoint would
    # lose that line as a torn tail, then take every meme's outcome.
    corpus = write(tmp_path / "c.json", json.dumps(CAPTION_CORPUS))
    before = Path(corpus).read_bytes()
    transport = ScriptedTransport()
    assert main(["caption", "--corpus", corpus, "--out", corpus], transport=transport) == 1
    err = capsys.readouterr().err
    assert f"--out {corpus} is the same file as --corpus {corpus}" in err, err
    assert transport.requests == []
    assert Path(corpus).read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["c.json"]


def test_caption_refuses_a_captions_out_that_is_its_checkpoint(tmp_path, capsys):
    # The captions array would replace the checkpoint, and with it the
    # refused_both outcome, leaving a file no later run could resume from.
    ck = str(tmp_path / "ck.jsonl")
    corpus = write(tmp_path / "c.json", json.dumps(_finished_checkpoint(ck, {"a": None})))
    before = Path(ck).read_bytes()
    transport = ScriptedTransport()
    assert main(["caption", "--corpus", corpus, "--out", ck, "--captions-out", ck],
                transport=transport) == 1
    err = capsys.readouterr().err
    assert f"--captions-out {ck} is the same file as --out {ck}" in err, err
    assert transport.requests == []
    assert Path(ck).read_bytes() == before


def _overlapping_runs(tmp_path, model_text):
    """(argv, input flag, its path) for each command whose --out names
    one of its own inputs, each input a fresh copy in ``tmp_path``."""
    def copy(src, name):
        return write(tmp_path / name, read_text(src))

    corpus = _write_mem_corpus(tmp_path)
    model = write(tmp_path / "model.json", model_text)
    gold, pred = copy(BIN_GOLD, "gold.json"), copy(BIN_PRED, "pred.json")
    cands = write(tmp_path / "cands.txt", "a cat on a mat\n")
    refs = write(tmp_path / "refs.txt", "the cat sat on the mat\n")
    return {
        "train": (["train", "--hierarchy", WORKED_H, "--corpus", corpus, "--dim", "1024",
                   "--epochs", "5", "--out", corpus], "--corpus", corpus),
        "predict": (["predict", "--model", model, "--hierarchy", WORKED_H, "--corpus", corpus,
                     "--out", model], "--model", model),
        "score": (["score", "--task", "binary", "--gold", gold, "--pred", pred,
                   "--out", gold], "--gold", gold),
        "caption-eval": (["caption-eval", "--candidates", cands, "--references", refs,
                          "--out", refs], "--references", refs),
    }


@pytest.mark.parametrize("command", ["train", "predict", "score", "caption-eval"])
def test_an_out_that_names_an_input_is_refused(tmp_path, capsys, saved_model, command):
    argv, flag, path = _overlapping_runs(tmp_path, saved_model[1])[command]
    before = Path(path).read_bytes()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"--out {path} is the same file as {flag} {path}" in err, err
    assert Path(path).read_bytes() == before
    assert not any(name.endswith(".manifest.json") for name in os.listdir(tmp_path))


def test_an_out_whose_manifest_or_link_names_an_input_is_refused(tmp_path, capsys):
    gold = write(tmp_path / "gold.json", read_text(BIN_GOLD))
    pred = write(tmp_path / "report.json.manifest.json", read_text(BIN_PRED))
    link = tmp_path / "link.json"
    link.symlink_to(gold)
    for out, want in ((str(tmp_path / "report.json"),
                       f"the --out manifest {pred} is the same file as --pred {pred}"),
                      (str(link), f"--out {link} is the same file as --gold {gold}")):
        assert main(["score", "--task", "binary", "--gold", gold, "--pred", pred,
                     "--out", out]) == 1
        assert want in capsys.readouterr().err
    assert read_text(gold) == read_text(BIN_GOLD) and read_text(pred) == read_text(BIN_PRED)
