import hashlib
import json
import os
import random
import select
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from persuasionkit import textmetrics
from persuasionkit.cli import main
from persuasionkit.corpus import load_captions, load_predictions

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
    assert read_json(model + ".manifest.json")["config"]["tuned"] is True

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
    assert err.startswith("error: model file is missing labels, feature_config")
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
    assert err.startswith(f"error: feature dimension {HUGE_DIM} is too large")
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_train_huge_dimension_is_validation_error(tmp_path, capsys):
    corpus = _write_mem_corpus(tmp_path)
    out = str(tmp_path / "model.json")
    rc = main(["train", "--hierarchy", WORKED_H, "--corpus", corpus,
               "--dim", str(HUGE_DIM), "--out", out])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: feature dimension {HUGE_DIM} is too large")
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
# once both have taken a gradient step; then runs the CLI.
_DESCENT_SCRIPT = """
import sys, threading
from persuasionkit import baseline
from persuasionkit.cli import main
gradient, threads, lock = baseline._gradient, set(), threading.Lock()
def announce(*args):
    with lock:
        if len(threads) < 2:
            threads.add(threading.get_ident())
            if len(threads) == 2:
                print("descending", flush=True)
    return gradient(*args)
baseline._gradient = announce
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


def test_caption_bad_checkpoint_record_is_validation_error(tmp_path, capsys):
    corpus = write(tmp_path / "c.json", json.dumps(CAPTION_CORPUS))
    ck = write(tmp_path / "ck.jsonl", json.dumps({"status": "ok_prompt1", "caption": "x"}) + "\n")
    rc = main(["caption", "--corpus", corpus, "--out", ck], transport=ScriptedTransport())
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: checkpoint line 1: record lacks a string 'id'" in err
    assert "Traceback" not in err


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


# -- caption-eval ----------------------------------------------------------------

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


def test_commands_that_do_not_train_never_load_scipy(tmp_path):
    # Only train and predict need scipy, and only a caption run against a
    # real endpoint needs requests (and urllib3 under it); every other
    # command must run without importing them.
    gold = os.path.join(SYNTHETIC, "heldout.json")
    pred = write(tmp_path / "pred.json", json.dumps(
        [{"id": r["id"], "labels": r["labels"][:1]} for r in read_json(gold)]))
    commands = [
        ["validate", "--hierarchy", WORKED_H, "--gold", WORKED_GOLD, "--pred", WORKED_PRED],
        ["score", "--task", "hier", "--hierarchy", SYNTHETIC_H, "--gold", gold,
         "--pred", pred, "--bootstrap", "5", "--seed", "0",
         "--out", str(tmp_path / "hier.json")],
        ["score", "--task", "binary", "--gold", BIN_GOLD, "--pred", BIN_PRED,
         "--out", str(tmp_path / "binary.json")],
        ["caption-eval", "--candidates", PROMPT_PRIMARY, "--references", PROMPT_FALLBACK,
         "--out", str(tmp_path / "eval.json")],
    ]
    script = (
        "import json, sys\n"
        "from persuasionkit.cli import main\n"
        "rcs = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "heavy = ('scipy', 'requests', 'urllib3')\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] in heavy)\n"
        "print(json.dumps({'rcs': rcs, 'loaded': loaded}))\n"
    )
    src = os.path.join(HERE, "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"rcs": [0] * len(commands), "loaded": []}


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
    assert set(man["config"]) == {"mode", "dim", "epochs", "lr", "l2", "seed", "tuned"}

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
