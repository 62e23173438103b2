"""Single command-line entry point.

Subcommands: validate, score, caption, train, predict, caption-eval.
Exit codes: 0 success, 1 validation failure, 2 I/O failure, 3 remote
provider failure.  Every run that writes an output also writes a
``<out>.manifest.json`` sidecar with content hashes of its inputs and
outputs, the resolved configuration and the toolkit version, so a run can
be reproduced from the manifest alone.  Outputs and manifests are written
atomically (temp file, then rename); the caption checkpoint is appended to.

Option precedence: command-line flags, then a ``--config`` JSON file,
then ``PERSUASIONKIT_*`` environment variables, then built-in defaults.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import os
import sys
from collections import Counter
from dataclasses import asdict

from . import __version__
from .baseline import (
    MODE_TEXT,
    MODE_TEXT_CAPTION,
    FeatureConfig,
    TrainConfig,
    load_model,
    predict_corpus,
    save_model,
    train,
    tune_thresholds,
)
from .captioner import (
    STATUS_TRANSPORT_ERROR,
    HttpTransport,
    ProviderConfig,
    TransportError,
    caption_corpus,
    checkpoint_to_captions,
)
from .corpus import (
    CorpusError,
    load_binary_predictions,
    load_corpus,
    load_predictions,
    write_captions,
    write_predictions,
)
from .hierarchy import HierarchyError, parse_hierarchy
from .metrics import (
    binary_from_totals,
    binary_tallies,
    bootstrap_ci,
    flat_binary_score,
    hierarchical_from_totals,
    hierarchical_score,
    hierarchical_tallies,
    per_class_hierarchical_diagnostics,
)
from .textmetrics import score_caption_pairs

logger = logging.getLogger(__name__)

_ENV_PREFIX = "PERSUASIONKIT_"
_ENV_KEYS = {
    "endpoint": "ENDPOINT",
    "model_name": "MODEL",
    "credential_env": "CREDENTIAL_ENV",
    "jobs": "JOBS",
    "seed": "SEED",
    "rate_limit": "RATE_LIMIT",
}


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _sha256(path: str) -> str:
    return "sha256:" + hashlib.sha256(_read_bytes(path)).hexdigest()


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(path: str, data: str | bytes):
    """Write ``data`` whole or not at all: a temp file in the output's
    directory, then ``os.replace`` over ``path``.  Text is UTF-8."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _write_manifest(out_path: str, command: str, config: dict, inputs: list[str]):
    manifest = {
        "tool": "persuasionkit",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": {p: _sha256(p) for p in inputs},
        "outputs": {out_path: _sha256(out_path)},
    }
    _write(out_path + ".manifest.json", _json(manifest))


def _emit(out_path: str, data: str | bytes, command: str, config: dict, inputs: list[str]):
    """Write one output, then its manifest."""
    _write(out_path, data)
    _write_manifest(out_path, command, config, inputs)


def _resolve(args: argparse.Namespace, key: str, default, cast=None):
    """flags > config file > environment > default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    cfg = getattr(args, "_config_data", None) or {}
    if key in cfg:
        return cast(cfg[key]) if cast else cfg[key]
    env = _ENV_KEYS.get(key)
    if env and _ENV_PREFIX + env in os.environ:
        raw = os.environ[_ENV_PREFIX + env]
        return cast(raw) if cast else raw
    return default


def _print_table(rows: list[tuple[str, float]], out=None):
    out = out or sys.stdout
    width = max(len(name) for name, _ in rows)
    print(f"{'metric'.ljust(width)}     score        x100", file=out)
    for name, val in rows:
        print(f"{name.ljust(width)}  {val:>8.6f}  {100.0 * val:>10.6f}", file=out)


# -- validate ----------------------------------------------------------------

def cmd_validate(args: argparse.Namespace) -> int:
    diagnostics: list[str] = []
    violations = 0

    def flag(msg: str):
        nonlocal violations
        violations += 1
        diagnostics.append("ERROR: " + msg)

    h = None
    try:
        h = parse_hierarchy(_read_text(args.hierarchy))
        diagnostics.append(
            f"hierarchy: ok ({len(h.nodes) - 1} labels, {len(h.leaves())} leaves)"
        )
    except HierarchyError as exc:
        flag(f"hierarchy: {exc}")

    loaded = {}
    for name, load, describe in (
        ("corpus", load_corpus,
         lambda c: f"{len(c)} instances, {sum(i.gold is not None for i in c)} labeled"),
        ("gold", load_predictions, lambda m: f"{len(m)} instances"),
        ("pred", load_predictions, lambda m: f"{len(m)} instances"),
    ):
        path = getattr(args, name)
        if not path:
            continue
        try:
            loaded[name] = load(_read_text(path), hierarchy=h)
            diagnostics.append(f"{name}: ok ({describe(loaded[name])})")
        except CorpusError as exc:
            flag(f"{name}: {exc}")

    gold, pred = loaded.get("gold"), loaded.get("pred")
    if gold is not None and pred is not None:
        extra = sorted(set(pred) - set(gold))
        if extra:
            flag(f"pred ids not present in gold: {extra[:10]}")
        missing = sorted(set(gold) - set(pred))
        if missing:
            # Allowed at scoring time (treated as empty), but worth surfacing.
            diagnostics.append(
                f"warning: {len(missing)} gold ids have no prediction "
                f"(scored as empty): {missing[:10]}"
            )

    for line in diagnostics:
        print(line)
    if violations:
        print(f"validation failed with {violations} error(s)", file=sys.stderr)
        return 1
    print("validation ok")
    return 0


# -- score -------------------------------------------------------------------

def _bootstrap(args: argparse.Namespace, seed: int, statistic, tallies) -> dict:
    return asdict(bootstrap_ci(
        statistic, tallies, resamples=args.bootstrap, seed=seed, confidence=args.confidence
    ))


def _score_hier(args: argparse.Namespace, seed: int) -> dict:
    if not args.hierarchy:
        raise ValueError("--hierarchy is required for --task hier")
    h = parse_hierarchy(_read_text(args.hierarchy))
    gold = load_predictions(_read_text(args.gold), hierarchy=h)
    pred = load_predictions(_read_text(args.pred), hierarchy=h)
    beta = args.beta if args.beta is not None else 1.0
    score = hierarchical_score(h, gold, pred, beta=beta)
    if score.missing_pred_ids:
        logger.warning(
            "%d gold ids had no prediction and were scored as empty: %s",
            len(score.missing_pred_ids),
            list(score.missing_pred_ids[:10]),
        )
    diag = per_class_hierarchical_diagnostics(h, gold, pred)
    report = {
        "task": "hier",
        "beta": beta,
        "n_instances": score.n_instances,
        "scores": {
            "h_precision": score.hp,
            "h_recall": score.hr,
            "h_f_beta": score.hf_beta,
        },
        "totals": {
            "overlap": score.overlap_total,
            "predicted": score.pred_total,
            "gold": score.gold_total,
        },
        "missing_prediction_ids": list(score.missing_pred_ids),
        "per_class": {lab: asdict(t) for lab, t in diag.items()},
    }
    if args.bootstrap:
        report["bootstrap"] = {"h_f_beta": _bootstrap(
            args, seed, lambda totals: hierarchical_from_totals(totals, beta)[2],
            hierarchical_tallies(h, gold, pred),
        )}
    rows = [
        ("H-F%g" % beta if beta != 1.0 else "H-F1", score.hf_beta),
        ("H-Precision", score.hp),
        ("H-Recall", score.hr),
    ]
    _print_table(rows)
    return report


def _score_binary(args: argparse.Namespace, seed: int) -> dict:
    gold = load_binary_predictions(_read_text(args.gold))
    pred = load_binary_predictions(_read_text(args.pred))
    score = flat_binary_score(gold, pred)
    report = {
        "task": "binary",
        "n_instances": score.n_instances,
        "scores": {"macro_f1": score.macro_f1, "micro_f1": score.micro_f1},
        "per_class": {name: asdict(cs) for name, cs in score.per_class.items()},
    }
    if args.bootstrap:
        tallies = binary_tallies(gold, pred)
        report["bootstrap"] = {
            key: _bootstrap(
                args, seed, lambda totals, key=key: getattr(binary_from_totals(totals), key),
                tallies,
            )
            for key in ("macro_f1", "micro_f1")
        }
    _print_table([("Macro-F1", score.macro_f1), ("Micro-F1", score.micro_f1)])
    return report


def cmd_score(args: argparse.Namespace) -> int:
    seed = _resolve(args, "seed", 0, int)
    report = (_score_hier if args.task == "hier" else _score_binary)(args, seed)
    report["scores_x100"] = {k: 100.0 * v for k, v in report["scores"].items()}
    if args.out:
        inputs = [args.gold, args.pred] + ([args.hierarchy] if args.hierarchy else [])
        config = {"task": args.task, "beta": args.beta, "bootstrap": args.bootstrap,
                  "seed": seed, "confidence": args.confidence}
        _emit(args.out, _json(report), "score", config, inputs)
    return 0


# -- caption -----------------------------------------------------------------

def cmd_caption(args: argparse.Namespace, transport=None) -> int:
    corpus = load_corpus(_read_text(args.corpus))
    endpoint = _resolve(args, "endpoint", "")
    if transport is None and not endpoint:
        raise ValueError("--endpoint is required (or PERSUASIONKIT_ENDPOINT)")
    cfg = ProviderConfig(
        endpoint=endpoint,
        model=_resolve(args, "model_name", "gpt-4-vision-preview"),
        credential_env=_resolve(args, "credential_env", "PERSUASIONKIT_API_KEY"),
    )
    if transport is None:
        transport = HttpTransport(cfg)
    rate = _resolve(args, "rate_limit", None, float)
    jobs = _resolve(args, "jobs", 1, int)
    seed = _resolve(args, "seed", 0, int)
    outcomes = caption_corpus(
        corpus,
        cfg,
        transport,
        checkpoint_path=args.out,
        concurrency=jobs,
        rate_per_minute=rate,
        force=args.force,
        seed=seed,
    )
    counts = Counter(o.status for o in outcomes.values())
    for status in sorted(counts):
        print(f"{status}: {counts[status]}")
    config = {
        "endpoint": endpoint,
        "model": cfg.model,
        "credential_env": cfg.credential_env,  # the variable name, never its value
        "rate_limit": rate,
        "jobs": jobs,
        "seed": seed,
        "force": args.force,
    }
    if args.captions_out:
        _emit(args.captions_out, write_captions(checkpoint_to_captions(outcomes)),
              "caption", config, [args.corpus])
    # The checkpoint is appended to as outcomes arrive; only its manifest
    # is written here.
    _write_manifest(args.out, "caption", config, [args.corpus])
    if counts[STATUS_TRANSPORT_ERROR]:
        print(
            f"{counts[STATUS_TRANSPORT_ERROR]} instance(s) failed on transport",
            file=sys.stderr,
        )
        return 3
    return 0


# -- train / predict ---------------------------------------------------------

def cmd_train(args: argparse.Namespace) -> int:
    h = parse_hierarchy(_read_text(args.hierarchy))
    corpus = load_corpus(_read_text(args.corpus), hierarchy=h)
    seed = _resolve(args, "seed", 0, int)
    fcfg = FeatureConfig(dimension=args.dim, mode=args.mode)
    tcfg = TrainConfig(epochs=args.epochs, learning_rate=args.lr, l2=args.l2)
    model = train(corpus, h, fcfg, tcfg, seed=seed)
    if args.tune_dev:
        dev = load_corpus(_read_text(args.tune_dev), hierarchy=h)
        model = tune_thresholds(model, dev, h)
    inputs = [args.hierarchy, args.corpus] + ([args.tune_dev] if args.tune_dev else [])
    config = {"mode": args.mode, "dim": args.dim, "epochs": args.epochs, "lr": args.lr,
              "l2": args.l2, "seed": seed, "tuned": bool(args.tune_dev)}
    _emit(args.out, save_model(model), "train", config, inputs)
    print(f"trained {len(model.labels)} label heads -> {args.out}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(_read_bytes(args.model))
    h = parse_hierarchy(_read_text(args.hierarchy))
    corpus = load_corpus(_read_text(args.corpus), hierarchy=h)
    preds = predict_corpus(model, h, corpus)
    # A text+caption model scores a caption-less instance on its text alone.
    degraded = 0
    if model.feature_config.mode == MODE_TEXT_CAPTION:
        degraded = sum(inst.caption is None for inst in corpus)
    if degraded:
        logger.warning(
            "%d instance(s) lacked a caption; scored on text features only", degraded
        )
    config = {"mode": model.feature_config.mode, "degraded_to_text_only": degraded}
    _emit(args.out, write_predictions(preds), "predict", config,
          [args.model, args.hierarchy, args.corpus])
    print(f"predicted {len(preds)} instances -> {args.out}")
    return 0


# -- caption-eval ------------------------------------------------------------

def cmd_caption_eval(args: argparse.Namespace) -> int:
    cands = _read_text(args.candidates).splitlines()
    refs = _read_text(args.references).splitlines()
    report_obj = score_caption_pairs(cands, refs)
    report = {
        "n_pairs": report_obj.n_pairs,
        "rouge_l": {
            "precision": report_obj.rouge_l_precision,
            "recall": report_obj.rouge_l_recall,
            "f1": report_obj.rouge_l_f1,
        },
        "bleu_4": report_obj.bleu_4,
    }
    _print_table(
        [
            ("ROUGE-L-F1", report_obj.rouge_l_f1),
            ("ROUGE-L-Precision", report_obj.rouge_l_precision),
            ("ROUGE-L-Recall", report_obj.rouge_l_recall),
            ("BLEU-4", report_obj.bleu_4),
        ]
    )
    if args.out:
        _emit(args.out, _json(report), "caption-eval", {},
              [args.candidates, args.references])
    return 0


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="persuasionkit",
        description="Hierarchical persuasion-technique classification toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="count", default=0)
    parser.add_argument("--config", help="JSON file of option defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check hierarchy/corpus/prediction files")
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--corpus")
    p.add_argument("--gold")
    p.add_argument("--pred")

    p = sub.add_parser("score", help="score predictions against gold")
    p.add_argument("--task", choices=["hier", "binary"], required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--hierarchy")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--bootstrap", type=int, default=0, metavar="N",
                   help="bootstrap resamples (0 = off)")
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")

    p = sub.add_parser("caption", help="fetch captions from a remote provider")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="checkpoint file (JSONL, resumable)")
    p.add_argument("--captions-out", help="also write a clean captions file")
    p.add_argument("--endpoint")
    p.add_argument("--model-name", dest="model_name")
    p.add_argument("--credential-env", dest="credential_env",
                   help="name of the env var holding the API key")
    p.add_argument("--rate-limit", dest="rate_limit", type=float,
                   help="requests per minute")
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--force", action="store_true",
                   help="recaption instances that already have captions")

    p = sub.add_parser("train", help="train the hierarchical baseline")
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--mode", choices=[MODE_TEXT, MODE_TEXT_CAPTION], default=MODE_TEXT)
    p.add_argument("--dim", type=int, default=2**18)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--l2", type=float, default=1e-4)
    p.add_argument("--tune-dev", dest="tune_dev",
                   help="labeled dev corpus for threshold tuning")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("predict", help="predict label sets with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("caption-eval", help="ROUGE-L / BLEU-4 over caption files")
    p.add_argument("--candidates", required=True, help="one caption per line")
    p.add_argument("--references", required=True, help="one caption per line")
    p.add_argument("--out")

    return parser


COMMANDS = {
    "validate": cmd_validate,
    "score": cmd_score,
    "caption": cmd_caption,
    "train": cmd_train,
    "predict": cmd_predict,
    "caption-eval": cmd_caption_eval,
}


def main(argv: list[str] | None = None, transport=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose > 1 else
        logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    args._config_data = {}
    try:
        if args.config:
            args._config_data = json.loads(_read_text(args.config))
            if not isinstance(args._config_data, dict):
                raise ValueError("--config must contain a JSON object")
        # caption alone takes the injectable transport (tests, benchmarks).
        extra = {"transport": transport} if args.command == "caption" else {}
        return COMMANDS[args.command](args, **extra)
    except TransportError as exc:
        print(f"remote error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (CorpusError, HierarchyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
