import json
import os

import pytest

from persuasionkit.cli import main
from persuasionkit.corpus import load_captions, load_predictions

from mocks import ScriptedTransport, ok_response, refusal_response

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "..", "data", "fixtures")
MALFORMED = os.path.join(HERE, "data", "malformed")

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
    report = json.load(open(out))
    assert report["scores"]["h_precision"] == pytest.approx(1.0, abs=1e-9)
    assert report["scores"]["h_recall"] == pytest.approx(0.5, abs=1e-9)
    assert report["scores"]["h_f_beta"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert report["scores_x100"]["h_f_beta"] == pytest.approx(66.666667, abs=1e-4)
    assert report["totals"] == {"overlap": 1, "predicted": 1, "gold": 2}
    manifest = json.load(open(out + ".manifest.json"))
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
    report = json.load(open(out))
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
    ci = json.load(open(out))["bootstrap"]["h_f_beta"]
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
        return json.load(open(out))["bootstrap"]["h_f_beta"]["seed"]

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
    tm = json.load(open(model + ".manifest.json"))
    assert tm["command"] == "train" and tm["config"]["dim"] == 1024

    preds_path = str(tmp_path / "preds.json")
    rc = main(["predict", "--model", model, "--hierarchy", WORKED_H,
               "--corpus", corpus, "--out", preds_path])
    assert rc == 0
    preds = load_predictions(open(preds_path).read())
    assert preds["d1"] == frozenset({"NameCalling", "Ethos"})
    assert preds["d4"] == frozenset()

    out = str(tmp_path / "report.json")
    rc = main(["score", "--task", "hier", "--hierarchy", WORKED_H,
               "--gold", corpus, "--pred", preds_path, "--out", out])
    assert rc == 0
    assert json.load(open(out))["scores"]["h_f_beta"] == 1.0


def test_train_is_deterministic_across_runs(tmp_path):
    corpus = _write_mem_corpus(tmp_path)
    blobs = []
    for name in ("m1.json", "m2.json"):
        model = str(tmp_path / name)
        assert main(["train", "--hierarchy", WORKED_H, "--corpus", corpus,
                     "--dim", "1024", "--seed", "42", "--out", model]) == 0
        blobs.append(open(model, "rb").read())
    assert blobs[0] == blobs[1]
    m1 = json.load(open(str(tmp_path / "m1.json") + ".manifest.json"))
    m2 = json.load(open(str(tmp_path / "m2.json") + ".manifest.json"))
    assert list(m1["outputs"].values()) == list(m2["outputs"].values())


def test_train_with_tuning_and_caption_mode(tmp_path):
    corpus = _write_mem_corpus(tmp_path)
    model = str(tmp_path / "model.json")
    rc = main(["train", "--hierarchy", WORKED_H, "--corpus", corpus,
               "--mode", "text+caption", "--dim", "1024", "--epochs", "300",
               "--tune-dev", corpus, "--out", model])
    assert rc == 0
    assert json.load(open(model + ".manifest.json"))["config"]["tuned"] is True

    preds_path = str(tmp_path / "preds.json")
    assert main(["predict", "--model", model, "--hierarchy", WORKED_H,
                 "--corpus", corpus, "--out", preds_path]) == 0
    pm = json.load(open(preds_path + ".manifest.json"))
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
    parsed = load_captions(open(caps).read())
    assert set(parsed) == {"a", "b"}
    assert parsed["a"] == ("try two", "external-zero-shot")
    manifest = json.load(open(ck + ".manifest.json"))
    assert manifest["config"]["credential_env"] == "PERSUASIONKIT_API_KEY"
    blob = open(ck).read() + json.dumps(manifest)
    assert "PERSUASIONKIT_API_KEY" not in open(ck).read()  # env name only in manifest
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


def test_caption_requires_endpoint(tmp_path, capsys):
    corpus = write(tmp_path / "c.json", json.dumps(CAPTION_CORPUS))
    rc = main(["caption", "--corpus", corpus, "--out", str(tmp_path / "ck.jsonl")])
    assert rc == 1
    assert "--endpoint is required" in capsys.readouterr().err


# -- caption-eval ----------------------------------------------------------------

def test_caption_eval(tmp_path, capsys):
    cand = write(tmp_path / "cand.txt", "the cat sat\n")
    ref = write(tmp_path / "ref.txt", "the cat was sat\n")
    out = str(tmp_path / "report.json")
    rc = main(["caption-eval", "--candidates", cand, "--references", ref, "--out", out])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "ROUGE-L-F1" in printed and "BLEU-4" in printed
    report = json.load(open(out))
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
