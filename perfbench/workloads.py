"""The three workloads: seeded inputs, one pass of CLI commands, output checks.

Each workload names three commands, reported as ``cmd1_s``, ``cmd2_s`` and
``cmd3_s``:

=========  =========================  ==========================  ==================
workload   cmd1                       cmd2                        cmd3
=========  =========================  ==========================  ==================
fit        train --tune-dev           predict                     score --task hier
evaluate   score --task hier -b N     score --task binary -b N    validate
caption    caption --jobs <nproc>     caption, resumed from a     caption-eval
                                      half-length checkpoint
=========  =========================  ==========================  ==================

A workload runs at ``full`` scale when it is the one being measured and at
``small`` scale as a companion in a traced run (so that every layer reports
on every workload).
"""

from __future__ import annotations

import base64
import json
import os
import random
import re
import sys

from common import (
    CHILD, NPROC, ROOT, CmdResult, child_argv, child_env, cli_argv, fresh_dir,
    read_json, reference_sample, run_child, sha256_file, write_json,
)

SUBTASK2A = os.path.join(ROOT, "data", "hierarchies", "subtask2a_techniques.txt")
GENERATOR = os.path.join(ROOT, "scripts", "make_synthetic_corpora.py")
HF1_BAR = 0.85


def _oracles():
    sys.path.insert(0, ROOT)
    from tests import oracles

    return oracles


class Runner:
    """Runs program commands for one benchmark run, traced or not.

    While ``reference`` is a list, a reference sample (``common.py``) is
    taken before each command and appended to it.
    """

    def __init__(self, log_dir: str, run_id: str, trace: bool):
        self.log_dir = log_dir
        self.run_id = run_id
        self.trace = trace
        self.traced: list[dict] = []
        self.all: list[CmdResult] = []
        self.reference: list[float] | None = None
        self._n = 0

    def __call__(self, args: list[str], *, workload: "Workload", metric: str,
                 provider: str | None = None, env: dict | None = None,
                 traced: bool | None = None) -> CmdResult:
        self._n += 1
        base = os.path.join(self.log_dir, f"{self._n:04d}-{workload.name}-{metric}")
        traced = self.trace if traced is None else traced
        stats = base + ".provider.json" if provider else None
        spans = base + ".spans.json" if traced else None
        if provider or traced:
            argv = child_argv(args, provider=provider, provider_stats=stats,
                               trace=spans, run_id=f"{self.run_id}/{self._n}")
        else:
            argv = cli_argv(args)
        if self.reference is not None:
            self.reference.append(reference_sample())
        res = run_child(argv, base, child_env(env))
        if stats and os.path.exists(stats):
            res.provider = read_json(stats)
        if spans and os.path.exists(spans):
            rec = read_json(spans)
            rec.update(workload=workload.name, scale=workload.scale, metric=metric,
                       wall_s=res.wall_s, provider=res.provider)
            self.traced.append(rec)
        self.all.append(res)
        return res


class Workload:
    name = ""
    commands: dict[str, str] = {}
    sizes: dict[str, dict] = {}
    # Passes a timed run makes at least, whatever --seconds says; two let
    # the run compare outputs across repeats of its seed.
    min_passes = 2

    def __init__(self, seed: int, scale: str, runner: Runner, work: str):
        self.seed = seed
        self.scale = scale
        self.size = self.sizes[scale]
        self.run = runner
        self.dir = os.path.join(work, self.name if scale == "full" else f"{self.name}-small")
        self.inputs: list[str] = []

    def path(self, *parts: str) -> str:
        return os.path.join(self.dir, *parts)

    def cmd(self, metric: str, args: list[str], **kw) -> CmdResult:
        res = self.run(args, workload=self, metric=metric, **kw)
        if res.rc != 0:
            res.errors.append(f"{self.name} {self.commands.get(metric, metric)}: "
                              f"exit {res.rc}: {res.stderr.strip()[-300:]}")
        return res

    def input_digests(self) -> dict[str, str]:
        return {os.path.relpath(p, ROOT): sha256_file(p) for p in self.inputs}

    def setup(self):
        raise NotImplementedError

    def prepare(self):
        """One-off work after set-up and outside every timed region."""

    def run_pass(self) -> dict:
        """Run each command once (short ones more often); returns
        {"cmd1": [CmdResult, ...], ..., "outputs": {name: digest}}."""
        raise NotImplementedError

    def check_repeat(self, first: dict, later: dict):
        """Attach an error to ``later``'s commands for every output that
        differs from ``first``'s."""
        for name, digest in later["outputs"].items():
            if first["outputs"].get(name) != digest:
                metric = later["owners"][name]
                later[metric][0].errors.append(
                    f"{self.name}: {name} differs between repeats of seed {self.seed}")


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def _require(res: CmdResult, cond: bool, msg: str):
    if not cond:
        res.errors.append(msg)


# -- fit -----------------------------------------------------------------------

class Fit(Workload):
    name = "fit"
    commands = {"cmd1": "train --tune-dev", "cmd2": "predict", "cmd3": "score --task hier"}
    sizes = {
        "full": {"train": 5000, "dev": 300, "test": 2000, "dim": 2**18, "predict_reps": 3,
                 "score_reps": 2},
        "small": {"train": 300, "dev": 100, "test": 200, "dim": 2**16, "predict_reps": 1,
                  "score_reps": 1},
    }
    # One pass already outlasts a run's time share (training alone takes
    # 15-25 s).  Repeat-determinism of the model, predictions and manifests
    # is checked by every traced run, which makes an untraced and a traced
    # pass, and by timed runs given enough --seconds for a second pass.
    min_passes = 1

    def setup(self):
        s = self.size
        gen = fresh_dir(self.path("gen"))
        res = run_child(
            [sys.executable, GENERATOR, "--out", gen, "--seed", str(self.seed),
             "--train", str(s["train"]), "--heldout", str(s["dev"] + s["test"]),
             "--ablation-train", "0", "--ablation-heldout", "0"],
            self.path("generate"), {"PATH": os.environ.get("PATH", "")})
        if res.rc != 0:
            raise RuntimeError(f"corpus generator failed: {res.stderr[-300:]}")
        with open(os.path.join(gen, "heldout.json"), encoding="utf-8") as fh:
            heldout = json.load(fh)
        write_json(self.path("dev.json"), heldout[: s["dev"]], indent=2)
        write_json(self.path("test.json"), heldout[s["dev"]:], indent=2)
        self.hier = os.path.join(gen, "hierarchy.txt")
        self.train = os.path.join(gen, "train.json")
        self.inputs = [self.hier, self.train, self.path("dev.json"), self.path("test.json")]

    def prepare(self):
        oracles = _oracles()
        from persuasionkit.hierarchy import parse_hierarchy

        with open(self.hier, encoding="utf-8") as fh:
            h = parse_hierarchy(fh.read())
        self.root = h.root
        self.edges = sorted(h.edges)
        self.brute_extend = oracles.brute_extend

    def run_pass(self) -> dict:
        s = self.size
        model, pred = self.path("model.json"), self.path("pred.json")
        report = self.path("report.json")
        test = self.path("test.json")
        out = {"outputs": {}, "owners": {}}

        train = self.cmd("cmd1", ["train", "--hierarchy", self.hier, "--corpus", self.train,
                                  "--tune-dev", self.path("dev.json"), "--dim", str(s["dim"]),
                                  "--seed", str(self.seed), "--out", model])
        out["cmd1"] = [train]
        if train.rc == 0:
            self._digest(out, "cmd1", model, model + ".manifest.json")

        # The short commands alternate, so their samples spread over the pass
        # instead of bunching at one moment of the machine's load.
        out["cmd2"], out["cmd3"] = [], []
        for i in range(max(s["predict_reps"], s["score_reps"])):
            if i < s["predict_reps"]:
                predict = self.cmd("cmd2", ["predict", "--model", model, "--hierarchy",
                                            self.hier, "--corpus", test, "--out", pred])
                out["cmd2"].append(predict)
                if predict.rc == 0:
                    self._check_consistent(predict, pred)
            if i < s["score_reps"]:
                score = self.cmd("cmd3", ["score", "--task", "hier", "--hierarchy", self.hier,
                                          "--gold", test, "--pred", pred, "--out", report])
                out["cmd3"].append(score)
                if score.rc == 0 and self.scale == "full":
                    hf1 = read_json(report)["scores"]["h_f_beta"]
                    _require(score, hf1 >= HF1_BAR,
                             f"fit: held-out HF1 {hf1:.4f} is below the {HF1_BAR} bar")
        if out["cmd2"][-1].rc == 0:
            self._digest(out, "cmd2", pred, pred + ".manifest.json")
        if out["cmd3"][-1].rc == 0:
            self._digest(out, "cmd3", report, report + ".manifest.json")
        return out

    def _digest(self, out: dict, metric: str, *paths: str):
        for p in paths:
            out["outputs"][os.path.basename(p)] = sha256_file(p)
            out["owners"][os.path.basename(p)] = metric

    def _check_consistent(self, res: CmdResult, pred_path: str):
        preds = read_json(pred_path)
        _require(res, len(preds) == self.size["test"],
                 f"fit: {len(preds)} predictions for {self.size['test']} test docs")
        bad = [r["id"] for r in preds
               if self.brute_extend(self.root, self.edges, r["labels"]) != set(r["labels"])]
        _require(res, not bad, f"fit: predictions not hierarchy-consistent: {bad[:5]}")


# -- evaluate ------------------------------------------------------------------

class Evaluate(Workload):
    name = "evaluate"
    commands = {"cmd1": "score --task hier --bootstrap N",
                "cmd2": "score --task binary --bootstrap N", "cmd3": "validate"}
    sizes = {
        # A binary resample costs about a tenth of a hierarchical one; more
        # of them give cmd2 enough work that start-up is not most of what
        # it times.
        "full": {"n": 5000, "bootstrap": 50, "binary_bootstrap": 150},
        "small": {"n": 500, "bootstrap": 20, "binary_bootstrap": 20},
    }

    def setup(self):
        from persuasionkit.corpus import write_binary_predictions, write_predictions
        from persuasionkit.hierarchy import parse_hierarchy

        fresh_dir(self.dir)
        with open(SUBTASK2A, encoding="utf-8") as fh:
            h = parse_hierarchy(fh.read())
        leaves = sorted(h.leaves())
        labels = sorted(h.non_root_labels())
        rng = random.Random(f"evaluate:{self.seed}")
        # The label-count and perturbation rates are unverified assumptions
        # (README, "Assumed traffic").
        gold, pred, bgold, bpred = {}, {}, {}, {}
        for i in range(self.size["n"]):
            iid = f"ev-{i:05d}"
            g = [] if rng.random() < 0.15 else rng.sample(leaves, rng.choice((1, 1, 2, 2, 3, 4)))
            p = {lab for lab in g if rng.random() > 0.25}
            p.update(rng.choice(labels) for _ in range(rng.choice((0, 0, 1, 1, 2))))
            gold[iid], pred[iid] = g, sorted(p)
            bgold[iid] = bool(g)
            bpred[iid] = bool(p) != (rng.random() < 0.1)
        files = {"gold.json": write_predictions(gold), "pred.json": write_predictions(pred),
                 "binary_gold.json": write_binary_predictions(bgold),
                 "binary_pred.json": write_binary_predictions(bpred)}
        for name, text in files.items():
            with open(self.path(name), "w", encoding="utf-8") as fh:
                fh.write(text)
        self.inputs = [SUBTASK2A] + [self.path(n) for n in files]

    def prepare(self):
        """Reference scores from tests/oracles.py, computed once."""
        oracles = _oracles()
        from persuasionkit.hierarchy import parse_hierarchy

        with open(SUBTASK2A, encoding="utf-8") as fh:
            h = parse_hierarchy(fh.read())
        edges = sorted(h.edges)
        gold = {r["id"]: r["labels"] for r in read_json(self.path("gold.json"))}
        pred = {r["id"]: r["labels"] for r in read_json(self.path("pred.json"))}
        totals = [0, 0, 0]
        for iid in gold:
            g = oracles.brute_extend(h.root, edges, gold[iid])
            p = oracles.brute_extend(h.root, edges, pred.get(iid, ()))
            totals[0] += len(g & p)
            totals[1] += len(p)
            totals[2] += len(g)
        hp, hr, hf = oracles.brute_hier_score(h.root, edges, gold, pred)
        self.hier_oracle = {"totals": {"overlap": totals[0], "predicted": totals[1],
                                       "gold": totals[2]},
                            "scores": {"h_precision": hp, "h_recall": hr, "h_f_beta": hf}}
        positive = "propagandistic"
        bgold = {r["id"]: r["label"] == positive for r in read_json(self.path("binary_gold.json"))}
        bpred = {r["id"]: r["label"] == positive for r in read_json(self.path("binary_pred.json"))}
        pos, neg, macro = oracles.brute_binary_prf(bgold, bpred)
        self.binary_oracle = {"macro_f1": macro, "micro_f1": pos[2]}

    def run_pass(self) -> dict:
        s = self.size
        out = {"outputs": {}, "owners": {}}
        gold, pred = self.path("gold.json"), self.path("pred.json")

        res = self.cmd("cmd3", ["validate", "--hierarchy", SUBTASK2A,
                                "--gold", gold, "--pred", pred])
        out["cmd3"] = [res]
        if res.rc == 0:
            _require(res, "validation ok" in res.stdout, "evaluate: validate did not pass")

        hier_out = self.path("hier_report.json")
        res = self.cmd("cmd1", ["score", "--task", "hier", "--hierarchy", SUBTASK2A,
                                "--gold", gold, "--pred", pred, "--bootstrap", str(s["bootstrap"]),
                                "--seed", str(self.seed), "--out", hier_out])
        out["cmd1"] = [res]
        if res.rc == 0:
            rep = read_json(hier_out)
            want = self.hier_oracle
            _require(res, rep["totals"] == want["totals"],
                     f"evaluate: totals {rep['totals']} != oracle {want['totals']}")
            for k, v in want["scores"].items():
                _require(res, abs(rep["scores"][k] - v) <= 1e-12,
                         f"evaluate: {k} {rep['scores'][k]} != oracle {v}")
            _require(res, rep["scores"]["h_f_beta"] < 0.95,
                     "evaluate: predictions are too close to gold to exercise scoring")
            out["outputs"]["hier bootstrap interval"] = json.dumps(rep["bootstrap"], sort_keys=True)
            out["owners"]["hier bootstrap interval"] = "cmd1"

        bin_out = self.path("binary_report.json")
        res = self.cmd("cmd2", ["score", "--task", "binary",
                                "--gold", self.path("binary_gold.json"),
                                "--pred", self.path("binary_pred.json"),
                                "--bootstrap", str(s["binary_bootstrap"]), "--seed", str(self.seed),
                                "--out", bin_out])
        out["cmd2"] = [res]
        if res.rc == 0:
            rep = read_json(bin_out)
            for k, v in self.binary_oracle.items():
                _require(res, abs(rep["scores"][k] - v) <= 1e-12,
                         f"evaluate: binary {k} {rep['scores'][k]} != oracle {v}")
            key = "binary bootstrap intervals"
            out["outputs"][key] = json.dumps(rep["bootstrap"], sort_keys=True)
            out["owners"][key] = "cmd2"
        return out


# -- caption -------------------------------------------------------------------

CREDENTIAL_ENV = "PERSUASIONKIT_BENCH_KEY"
STATUS_OF_PLAN = {"ok": "ok_prompt1", "fallback": "ok_prompt2", "refused": "refused_both",
                  "5xx": "ok_prompt1", "timeout": "ok_prompt1", "401": "transport_error"}
REQUESTS_OF_PLAN = {"ok": 1, "fallback": 2, "refused": 2}
# Each image template serves this many memes.  This value and the reply
# and size proportions in Caption.setup are unverified assumptions; the
# README lists them with the metrics they drive.
TEMPLATE_USES = 5


def _vocabulary(rng: random.Random, n: int) -> list[str]:
    syll = ["ka", "lo", "mi", "ne", "ru", "ta", "vo", "shi", "pe", "da", "zu", "gri", "fen", "tor"]
    words = set()
    while len(words) < n:
        words.add("".join(rng.choice(syll) for _ in range(rng.randint(1, 4))))
    return sorted(words)


def _words(rng: random.Random, vocab: list[str], lo: int, hi: int) -> list[str]:
    return rng.choices(vocab, k=rng.randint(lo, hi))


def _perturb(rng: random.Random, words: list[str], vocab: list[str]) -> list[str]:
    out = []
    for w in words:
        r = rng.random()
        if r < 0.05:
            continue
        out.append(rng.choice(vocab) if r < 0.30 else w)
        if rng.random() < 0.05:
            out.append(rng.choice(vocab))
    return out


class Caption(Workload):
    name = "caption"
    commands = {"cmd1": "caption --jobs <nproc>", "cmd2": "caption (resume)",
                "cmd3": "caption-eval"}
    sizes = {
        "full": {"n": 5000, "pairs": 500, "sim": 200, "image_kb": (8, 32)},
        "small": {"n": 200, "pairs": 50, "sim": 100, "image_kb": (8, 32)},
    }

    def setup(self):
        s = self.size
        fresh_dir(self.dir)
        img_dir = fresh_dir(self.path("img"))
        rng = random.Random(f"caption:{self.seed}")
        vocab = _vocabulary(rng, 1500)
        self.sentinel = f"sk-bench-{rng.getrandbits(64):016x}"

        templates, images = {}, []
        for t in range(-(-s["n"] // TEMPLATE_USES)):
            image = rng.randbytes(1024 * rng.randint(*s["image_kb"]))
            rel = os.path.relpath(os.path.join(img_dir, f"{t:04d}.jpg"), ROOT)
            with open(os.path.join(ROOT, rel), "wb") as fh:
                fh.write(image)
            key = base64.b64encode(image[:24]).decode("ascii")
            if key in templates:
                raise RuntimeError("two generated images share a reply key")
            templates[key] = {"fallback": "ok" if rng.random() < 2 / 3 else "refuse",
                              "refusal": rng.choice(("filter", "pattern")),
                              "caption": " ".join(_words(rng, vocab, 40, 120))}
            images.append((rel, key))

        records, instances, sim = [], {}, {}
        texts = set()
        for i in range(s["n"]):
            iid = f"cap-{i:05d}"
            rel, key = images[i // TEMPLATE_USES]
            text = " ".join(_words(rng, vocab, 4, 14))
            if text in texts:
                raise RuntimeError("two generated memes share a text")
            texts.add(text)
            records.append({"id": iid, "text": text, "image": rel})
            inst = {"text": text, "image": key, "refusal": rng.choice(("filter", "pattern")),
                    "primary": "refuse" if rng.random() < 0.3 else "ok",
                    "caption": " ".join(_words(rng, vocab, 40, 120))}
            instances[iid] = inst
            if i < s["sim"]:
                r = rng.random()
                fault = inst["primary"] if r < 0.65 else "5xx" if r < 0.8 else (
                    "timeout" if r < 0.9 else "401")
                sim[iid] = dict(inst, primary=fault)
        self.plan_of = {iid: self._plan(inst, templates) for iid, inst in instances.items()}
        self.sim_plan_of = {iid: self._plan(inst, templates) for iid, inst in sim.items()}

        write_json(self.path("corpus.json"), records, indent=2)
        write_json(self.path("sim_corpus.json"), records[: s["sim"]], indent=2)
        common = {"endpoint": "fake://provider/v1/chat/completions",
                  "credential_env": CREDENTIAL_ENV, "templates": templates}
        write_json(self.path("provider.json"), dict(common, instances=instances))
        write_json(self.path("sim_provider.json"),
                   dict(common, instances=sim, rate_per_minute=600.0, seed=self.seed))
        with open(self.path("references.txt"), "w", encoding="utf-8") as ref, \
                open(self.path("candidates.txt"), "w", encoding="utf-8") as cand:
            for _ in range(s["pairs"]):
                words = _words(rng, vocab, 80, 200)
                ref.write(" ".join(words) + ".\n")
                cand.write(" ".join(_perturb(rng, words, vocab)) + ".\n")
        self.inputs = [self.path(n) for n in ("corpus.json", "sim_corpus.json", "provider.json",
                                              "sim_provider.json", "references.txt",
                                              "candidates.txt")]
        self.inputs += [os.path.join(ROOT, rel) for rel, _ in images]

    @staticmethod
    def _plan(inst: dict, templates: dict) -> str:
        """The scripted outcome: a key of STATUS_OF_PLAN."""
        if inst["primary"] != "refuse":
            return inst["primary"]
        return "fallback" if templates[inst["image"]]["fallback"] == "ok" else "refused"

    def _caption(self, metric: str, checkpoint: str, jobs: int = NPROC, **kw) -> CmdResult:
        return self.cmd(metric, [
            "caption", "--corpus", self.path("corpus.json"), "--out", checkpoint,
            "--captions-out", checkpoint + ".captions.json", "--jobs", str(jobs),
            "--endpoint", "fake://provider/v1/chat/completions",
            "--credential-env", CREDENTIAL_ENV, "--seed", str(self.seed),
        ], provider=self.path("provider.json"), env={CREDENTIAL_ENV: self.sentinel}, **kw)

    def _check_caption(self, res: CmdResult, checkpoint: str, resumed: set[str]):
        """Statuses match the script; only unfinished ids went on the wire."""
        if res.rc != 0:
            return
        want: dict[str, int] = {}
        for plan in self.plan_of.values():
            want[STATUS_OF_PLAN[plan]] = want.get(STATUS_OF_PLAN[plan], 0) + 1
        got = dict((k, int(v)) for k, v in re.findall(r"^(\w+): (\d+)$", res.stdout, re.M))
        _require(res, got == want, f"caption: status counts {got} != script {want}")
        final: dict[str, str] = {}
        with open(checkpoint, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                final[rec["id"]] = rec["status"]
        wrong = [i for i, p in self.plan_of.items() if final.get(i) != STATUS_OF_PLAN[p]]
        _require(res, not wrong, f"caption: checkpoint statuses differ from script: {wrong[:5]}")
        st = res.provider or {}
        expected = sum(REQUESTS_OF_PLAN[p] for i, p in self.plan_of.items() if i not in resumed)
        _require(res, st.get("wire_requests") == expected,
                 f"caption: {st.get('wire_requests')} wire requests, expected {expected}")
        for k in ("primary_mismatch", "image_mismatch", "auth_mismatch", "unknown_image"):
            _require(res, st.get(k) == 0, f"caption: provider saw {st.get(k)} {k}")
        self._check_secret(res, [checkpoint, checkpoint + ".captions.json",
                                 checkpoint + ".manifest.json"])

    def _check_secret(self, res: CmdResult, paths: list[str], texts: tuple[str, ...] = ()):
        leaks = [os.path.basename(p) for p in paths
                 if os.path.exists(p) and self.sentinel in _read_text(p)]
        if self.sentinel in res.stdout + res.stderr or any(self.sentinel in t for t in texts):
            leaks.append("captured output")
        _require(res, not leaks, f"caption: credential value found in {leaks}")

    def _half_checkpoint(self, checkpoint: str, dest: str, torn: bool = False) -> set[str]:
        """The first half of the checkpoint (ordered by id), cut at a line
        boundary -- or, with ``torn``, in the middle of the next line."""
        with open(checkpoint, encoding="utf-8") as fh:
            lines = sorted(fh, key=lambda line: json.loads(line)["id"])
        half = lines[: len(lines) // 2]
        with open(dest, "w", encoding="utf-8") as fh:
            fh.writelines(half)
            if torn:
                nxt = lines[len(half)]
                fh.write(nxt[: len(nxt) // 2])
        return {json.loads(line)["id"] for line in half}

    def run_pass(self) -> dict:
        out = {"outputs": {}, "owners": {}}
        ckpt = self.path("checkpoint.jsonl")
        for p in (ckpt, self.path("resume.jsonl")):
            if os.path.exists(p):
                os.remove(p)
        res = self._caption("cmd1", ckpt)
        self._check_caption(res, ckpt, set())
        out["cmd1"] = [res]
        if res.rc == 0:
            out["outputs"]["captions.json"] = sha256_file(ckpt + ".captions.json")
            out["owners"]["captions.json"] = "cmd1"

        resume = self.path("resume.jsonl")
        done = self._half_checkpoint(ckpt, resume) if res.rc == 0 else set()
        self.checkpoint_bytes = os.path.getsize(resume) if res.rc == 0 else 0
        res = self._caption("cmd2", resume)
        self._check_caption(res, resume, done)
        out["cmd2"] = [res]

        report = self.path("eval.json")
        res = self.cmd("cmd3", ["caption-eval", "--candidates", self.path("candidates.txt"),
                                "--references", self.path("references.txt"), "--out", report])
        out["cmd3"] = [res]
        if res.rc == 0:
            rep = read_json(report)
            _require(res, rep["n_pairs"] == self.size["pairs"],
                     f"caption-eval: {rep['n_pairs']} pairs, expected {self.size['pairs']}")
            values = [rep["rouge_l"][k] for k in ("precision", "recall", "f1")] + [rep["bleu_4"]]
            _require(res, all(0.0 < v < 1.0 for v in values),
                     f"caption-eval: scores {values} outside (0, 1)")
            out["outputs"]["eval.json"] = sha256_file(report)
            out["owners"]["eval.json"] = "cmd3"
        return out

    def trace_extras(self) -> dict:
        """Traced-run only: single-thread captioning, the fake-clock fault
        simulation, and the torn-checkpoint resume probe."""
        ckpt = self.path("jobs1.jsonl")
        if os.path.exists(ckpt):
            os.remove(ckpt)
        jobs1 = self._caption("jobs1", ckpt, jobs=1)
        self._check_caption(jobs1, ckpt, set())

        sim_out = self.path("sim_result.json")
        sim_ckpt = self.path("sim.jsonl")
        if os.path.exists(sim_ckpt):
            os.remove(sim_ckpt)
        sim = run_child(
            [sys.executable, CHILD, "--fault-sim", self.path("sim_provider.json"), "--corpus",
             self.path("sim_corpus.json"), "--checkpoint", sim_ckpt, "--out", sim_out],
            self.path("sim"), child_env({CREDENTIAL_ENV: self.sentinel}))
        self.run.all.append(sim)
        facts = {}
        if sim.rc != 0:
            sim.errors.append(f"caption: fault simulation exited {sim.rc}: {sim.stderr[-300:]}")
        else:
            facts = read_json(sim_out)
            wrong = [i for i, p in self.sim_plan_of.items()
                     if facts["outcomes"][i][0] != STATUS_OF_PLAN[p]
                     or (p in ("5xx", "timeout") and facts["outcomes"][i][1] != 2)]
            _require(sim, not wrong, f"caption: fault simulation outcomes differ: {wrong[:5]}")
            self._check_secret(sim, [sim_ckpt], (facts.pop("log"),))

        # Known fault probe: resume from a checkpoint whose last line is torn,
        # as a crash leaves it.  Reported, not counted as a benchmark failure.
        torn = self.path("torn.jsonl")
        done = self._half_checkpoint(self.path("checkpoint.jsonl"), torn, torn=True)
        probe = self._caption("torn_resume", torn, traced=False)
        self.run.all.pop()  # a probe of a known defect, reported separately
        self._check_caption(probe, torn, done)
        return {"sim": facts, "torn_resume": {"rc": probe.rc, "errors": probe.errors,
                                              "ok": probe.ok}}
