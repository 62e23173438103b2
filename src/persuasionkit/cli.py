"""Single command-line entry point.

Subcommands: validate, score, caption, train, predict, caption-eval.
Exit codes: 0 success, 1 validation failure, 2 I/O failure, 3 remote
provider failure.  Every run that writes an output also writes a
``<out>.manifest.json`` sidecar with content hashes of its inputs (of the
bytes parsed: each is read once) and outputs, the resolved configuration
and the toolkit version, so a run can be reproduced from the manifest
alone.  An input that cannot be parsed is named as ``--FLAG PATH``.
Outputs and manifests are written atomically and durably (temp file,
fsync, rename, fsync of the directory), and are encoded, hashed and
written a piece at a time, so the captions file is never held whole in
memory; the caption checkpoint is appended to, and synced when it is
closed.

Option precedence: command-line flags, then a ``--config`` JSON file,
then ``PERSUASIONKIT_*`` environment variables, then built-in defaults.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import math
import os
import signal
import sys
from collections import Counter
from collections.abc import Iterable
from dataclasses import asdict, replace

from . import __version__
from .baseline import (
    MODE_TEXT,
    MODE_TEXT_CAPTION,
    FeatureConfig,
    TrainConfig,
    check_hierarchy,
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
    caption_pieces,
    load_binary_predictions,
    load_corpus,
    load_predictions,
    read_json,
    write_captions,  # not called here: the benchmark's tracer looks it up in this module
    write_predictions,
)
from .hierarchy import parse_hierarchy
from .metrics import (
    binary_from_totals,
    bootstrap_ci,
    flat_binary_score,
    hierarchical_from_totals,
    hierarchical_score,
    per_class_hierarchical_diagnostics,
)
from .textmetrics import score_caption_pairs

logger = logging.getLogger(__name__)

_ENV_PREFIX = "PERSUASIONKIT_"
# The options a flag, a --config key or a PERSUASIONKIT_* variable may set:
# key -> (variable suffix, type, default).
_LAYERED = {
    "endpoint": ("ENDPOINT", str, ""),
    "model_name": ("MODEL", str, ProviderConfig.model),
    "credential_env": ("CREDENTIAL_ENV", str, ProviderConfig.credential_env),
    "rate_limit": ("RATE_LIMIT", float, None),
    "jobs": ("JOBS", int, 1),
    "seed": ("SEED", int, 0),
}


class _Inputs:
    """The input files of one command, each opened once by ``read``.
    ``hashes`` maps each path read to the sha256 of the bytes parsed."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.hashes: dict[str, str] = {}

    def read(self, dest: str, parse):
        """``parse`` of the bytes of the file option ``dest`` names.  A
        ValueError it raises is raised again with ``--flag path: `` in front."""
        path = getattr(self.args, dest)
        with open(path, "rb") as fh:
            data = fh.read()
        self.hashes[path] = "sha256:" + hashlib.sha256(data).hexdigest()
        try:
            return parse(data)
        except ValueError as exc:
            raise ValueError(f"--{dest.replace('_', '-')} {path}: {exc}") from None


def _hierarchy(data: bytes):
    return parse_hierarchy(data.decode("utf-8"))


def _lines(data: bytes) -> list[str]:
    """The lines of UTF-8 ``data``, split at newlines alone: a form feed or
    U+2028 inside a line stays in it.  A final newline ends the last line."""
    lines = data.decode("utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# How many bytes ``_sha256_file`` reads at a time.
_BLOCK = 1 << 16


def _write(path: str, data: str | bytes | Iterable[str]) -> str:
    """Write ``data`` whole or not at all: a temp file in the output's
    directory, synced to disk, then ``os.replace`` over ``path`` and the
    directory synced, so the rename outlives a power loss too.

    ``data`` is bytes, text, or text in pieces (a str or bytes is one
    piece).  Text is UTF-8.  Each piece is encoded, hashed and written in
    turn, so an output in pieces is never held whole; one that fails to
    encode part way leaves no output and no temp file.  Returns the sha256
    hex digest of the bytes written."""
    if isinstance(data, (str, bytes)):
        data = (data,)
    digest = hashlib.sha256()
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for piece in data:
                if isinstance(piece, str):
                    piece = piece.encode("utf-8")
                digest.update(piece)
                fh.write(piece)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    fd = os.open(head or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    return digest.hexdigest()


def _sha256_file(path: str) -> str:
    """The sha256 hex digest of the file at ``path``, read ``_BLOCK`` bytes
    at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(_BLOCK), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out_path: str, digest: str, command: str, config: dict, inputs: _Inputs):
    """Write the manifest of the output at ``out_path``, whose bytes have
    the sha256 hex digest ``digest``."""
    manifest = {
        "tool": "persuasionkit",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": inputs.hashes,
        "outputs": {out_path: "sha256:" + digest},
    }
    _write(out_path + ".manifest.json", _json(manifest))


def _emit(out_path: str, data: str | bytes | Iterable[str], command: str, config: dict,
          inputs: _Inputs):
    """Write one output, then its manifest."""
    _write_manifest(out_path, _write(out_path, data), command, config, inputs)


def _config(data: bytes) -> dict:
    config = read_json(data, "config")
    if not isinstance(config, dict):
        raise ValueError("config: must contain a JSON object")
    return config


def _checked(source: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with ``source: `` in front of a ValueError
    it raises, so the message names where the bad value came from."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def _labeled(corpus: list) -> list:
    """``corpus``, refused unless it holds instances, each with gold labels."""
    if not corpus:
        raise ValueError("corpus: no records to learn from")
    for idx, inst in enumerate(corpus):
        if inst.gold is None:
            raise ValueError(f"corpus: record {idx} ({inst.id}): no 'labels' to learn from")
    return corpus


def _resolve(args: argparse.Namespace, config: dict):
    """Set each layered option the command takes and no flag set: from
    ``config`` (the ``--config`` object), else the environment, else the
    default.

    A config or environment value must be of the option's type (a string,
    an integer, or a number; an integer or number may come as a string of
    one).  One of the wrong JSON type (null, a list, a bool, a number for
    a string, a float for an integer), a string the type refuses, or a
    config key outside ``_LAYERED`` raises ValueError naming the key (and,
    for a config key or value, ``--config PATH``).  ``args.origin`` maps
    each option set to where its value came from, in the same words.
    """
    unknown = sorted(set(config) - set(_LAYERED))
    if unknown:
        raise ValueError(f"--config {args.config}: unknown config key "
                         f"{', '.join(map(repr, unknown))}; "
                         f"a --config file may set only {', '.join(_LAYERED)}")
    given = vars(args)
    given["origin"] = origin = {}
    for key, (suffix, cast, default) in _LAYERED.items():
        if key not in given:
            continue
        if given[key] is not None:
            origin[key] = "--" + key.replace("_", "-")
            continue
        env = _ENV_PREFIX + suffix
        if key in config:
            val, source = config[key], f"--config {args.config}: config key {key!r}"
        elif env in os.environ:
            val, source = os.environ[env], f"environment variable {env}"
        else:
            given[key], origin[key] = default, f"the default {key}"
            continue
        accepted, what = {str: ((str,), "a string"), int: ((str, int), "an integer"),
                          float: ((str, int, float), "a number")}[cast]
        try:
            if type(val) in accepted:
                given[key], origin[key] = cast(val), source
                continue
        except (ValueError, OverflowError):  # OverflowError: float() of a huge int
            pass
        raise ValueError(f"{source} must be {what}, not {json.dumps(val)}")


# The options that name a file some command reads.
_INPUT_FLAGS = ("config", "hierarchy", "corpus", "tune_dev", "gold", "pred", "model",
                "candidates", "references")


def _check_outputs(args: argparse.Namespace):
    """Refuse (ValueError naming both flags) an output, or its manifest,
    that is the same path as an input or another output once links are
    resolved: writing it would replace the file the run reads or writes."""
    seen: dict[str, str] = {}
    for dest in _INPUT_FLAGS:
        path = getattr(args, dest, None)
        if path:
            seen.setdefault(os.path.realpath(path), f"--{dest.replace('_', '-')} {path}")
    for dest in ("out", "captions_out"):
        path = getattr(args, dest, None)
        if not path:
            continue
        flag = "--" + dest.replace("_", "-")
        for name, out in ((f"{flag} {path}", path),
                          (f"the {flag} manifest {path}.manifest.json", path + ".manifest.json")):
            other = seen.setdefault(os.path.realpath(out), name)
            if other != name:
                raise ValueError(f"{name} is the same file as {other}: an output may "
                                 f"not replace an input or another output")


def _print_table(rows: list[tuple[str, float]], out=None):
    out = out or sys.stdout
    width = max(len(name) for name, _ in rows)
    print(f"{'metric'.ljust(width)}     score        x100", file=out)
    for name, val in rows:
        print(f"{name.ljust(width)}  {val:>8.6f}  {100.0 * val:>10.6f}", file=out)


# -- validate ----------------------------------------------------------------

def cmd_validate(args: argparse.Namespace, inputs: _Inputs) -> int:
    """Check each given file on its own: one that cannot be decoded or
    parsed gets its own ``ERROR:`` line, and the others are still checked."""
    diagnostics: list[str] = []
    loaded: dict = {}
    h = None
    for name, load, describe in (
        ("hierarchy", _hierarchy,
         lambda hier: f"{len(hier.nodes) - 1} labels, {len(hier.leaves())} leaves"),
        ("corpus", lambda data: load_corpus(data, hierarchy=h),
         lambda c: f"{len(c)} instances, {sum(i.gold is not None for i in c)} labeled"),
        ("gold", lambda data: load_predictions(data, hierarchy=h),
         lambda m: f"{len(m)} instances"),
        ("pred", lambda data: load_predictions(data, hierarchy=h),
         lambda m: f"{len(m)} instances"),
    ):
        if getattr(args, name):
            try:
                loaded[name] = inputs.read(name, load)
                diagnostics.append(f"{name}: ok ({describe(loaded[name])})")
            except ValueError as exc:
                diagnostics.append(f"ERROR: {name}: {exc}")
        h = loaded.get("hierarchy")

    gold, pred = loaded.get("gold"), loaded.get("pred")
    if gold is not None and pred is not None:
        extra = sorted(set(pred) - set(gold))
        if extra:
            diagnostics.append(f"ERROR: pred ids not present in gold: {extra[:10]}")
        missing = sorted(set(gold) - set(pred))
        if missing:
            # Allowed at scoring time (treated as empty), but worth surfacing.
            diagnostics.append(
                f"warning: {len(missing)} gold ids have no prediction "
                f"(scored as empty): {missing[:10]}"
            )

    for line in diagnostics:
        print(line)
    violations = sum(line.startswith("ERROR: ") for line in diagnostics)
    if violations:
        print(f"validation failed with {violations} error(s)", file=sys.stderr)
        return 1
    print("validation ok")
    return 0


# -- score -------------------------------------------------------------------

def _bootstrap(args: argparse.Namespace, statistic, tallies) -> dict:
    return asdict(bootstrap_ci(
        statistic, tallies, resamples=args.bootstrap, seed=args.seed, confidence=args.confidence
    ))


def _score_hier(args: argparse.Namespace, inputs: _Inputs) -> dict:
    if not args.hierarchy:
        raise ValueError("--hierarchy is required for --task hier")
    h = inputs.read("hierarchy", _hierarchy)
    gold, pred = (inputs.read(name, lambda data: load_predictions(data, hierarchy=h))
                  for name in ("gold", "pred"))
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
            args, lambda totals: hierarchical_from_totals(totals, beta)[2], score.tallies)}
    _print_table([("H-F%g" % beta if beta != 1.0 else "H-F1", score.hf_beta),
                  ("H-Precision", score.hp), ("H-Recall", score.hr)])
    return report


def _score_binary(args: argparse.Namespace, inputs: _Inputs) -> dict:
    for flag, value in (("--beta", args.beta), ("--hierarchy", args.hierarchy)):
        if value is not None:
            raise ValueError(f"{flag} applies only to --task hier")
    gold, pred = (inputs.read(name, load_binary_predictions) for name in ("gold", "pred"))
    score = flat_binary_score(gold, pred)
    report = {
        "task": "binary",
        "n_instances": score.n_instances,
        "scores": {"macro_f1": score.macro_f1, "micro_f1": score.micro_f1},
        "per_class": {name: asdict(cs) for name, cs in score.per_class.items()},
    }
    if args.bootstrap:
        report["bootstrap"] = {
            key: _bootstrap(
                args, lambda totals, key=key: getattr(binary_from_totals(totals), key),
                score.tallies,
            )
            for key in ("macro_f1", "micro_f1")
        }
    _print_table([("Macro-F1", score.macro_f1), ("Micro-F1", score.micro_f1)])
    return report


def cmd_score(args: argparse.Namespace, inputs: _Inputs) -> int:
    if args.beta is not None and not 0 <= args.beta < math.inf:
        raise ValueError(f"--beta must be a finite number >= 0, not {args.beta}")
    if args.bootstrap < 0:
        raise ValueError(f"--bootstrap must be a number of resamples >= 0 (0 = off), "
                         f"not {args.bootstrap}")
    if args.bootstrap and not 0.0 < args.confidence < 1.0:
        raise ValueError(f"--confidence must be in (0, 1), not {args.confidence}")
    if args.bootstrap and args.seed < 0:  # numpy seeds only from non-negative integers
        raise ValueError(f"{args.origin['seed']} must be a non-negative integer with "
                         f"--bootstrap, not {args.seed}")
    report = (_score_hier if args.task == "hier" else _score_binary)(args, inputs)
    report["scores_x100"] = {k: 100.0 * v for k, v in report["scores"].items()}
    if args.out:
        config = {"task": args.task, "beta": args.beta, "bootstrap": args.bootstrap,
                  "seed": args.seed, "confidence": args.confidence}
        _emit(args.out, _json(report), "score", config, inputs)
    return 0


# -- caption -----------------------------------------------------------------

def cmd_caption(args: argparse.Namespace, inputs: _Inputs, transport=None) -> int:
    # Checked before any input is read, each named where its value came from.
    if args.jobs < 1:
        raise ValueError(f"{args.origin['jobs']} must be at least 1, not {args.jobs}")
    if args.rate_limit is not None and not 0 < args.rate_limit < math.inf:
        raise ValueError(f"{args.origin['rate_limit']} must be positive and finite, "
                         f"not {args.rate_limit}")
    corpus = inputs.read("corpus", load_corpus)
    if transport is None and not args.endpoint:
        raise ValueError("--endpoint is required (or PERSUASIONKIT_ENDPOINT)")
    cfg = ProviderConfig(args.endpoint, args.model_name, args.credential_env)
    if transport is None:
        transport = HttpTransport(cfg)
    outcomes = caption_corpus(corpus, cfg, transport, checkpoint_path=args.out,
                              concurrency=args.jobs, rate_per_minute=args.rate_limit,
                              force=args.force, seed=args.seed)
    counts = Counter(o.status for o in outcomes.values())
    for status in sorted(counts):
        print(f"{status}: {counts[status]}")
    config = {
        "endpoint": args.endpoint,
        "model": args.model_name,
        "credential_env": args.credential_env,  # the variable name, never its value
        "rate_limit": args.rate_limit,
        "jobs": args.jobs,
        "seed": args.seed,
        "force": args.force,
    }
    if args.captions_out:
        _emit(args.captions_out, caption_pieces(checkpoint_to_captions(outcomes)),
              "caption", config, inputs)
    # The checkpoint is appended to as outcomes arrive; only its manifest
    # is written here, from the bytes on disk.
    _write_manifest(args.out, _sha256_file(args.out), "caption", config, inputs)
    if counts[STATUS_TRANSPORT_ERROR]:
        print(f"{counts[STATUS_TRANSPORT_ERROR]} instance(s) failed on transport",
              file=sys.stderr)
        return 3
    return 0


# -- train / predict ---------------------------------------------------------

def _degraded(mode: str, *corpora) -> int:
    """How many instances a ``text+caption`` run featurizes on their text
    alone, for want of a caption; 0 in ``text`` mode."""
    if mode != MODE_TEXT_CAPTION:
        return 0
    return sum(inst.caption is None for corpus in corpora for inst in corpus)


def cmd_train(args: argparse.Namespace, inputs: _Inputs) -> int:
    # Checked before any input is read, each under its flag.
    fcfg = _checked("--dim", FeatureConfig, dimension=args.dim, mode=args.mode)
    tcfg = TrainConfig()
    for flag, key in (("--epochs", "epochs"), ("--lr", "learning_rate"), ("--l2", "l2")):
        tcfg = _checked(flag, replace, tcfg, **{key: getattr(args, flag[2:])})
    h = inputs.read("hierarchy", _hierarchy)

    def labeled(data: bytes) -> list:
        return _labeled(load_corpus(data, hierarchy=h))

    corpus = inputs.read("corpus", labeled)
    # Read before descent, so a bad dev file fails at once.
    dev = inputs.read("tune_dev", labeled) if args.tune_dev else None
    degraded = _degraded(args.mode, corpus, dev or ())
    if degraded:
        logger.warning("%d instance(s) lacked a caption; trained on text features only",
                       degraded)
    model = train(corpus, h, fcfg, tcfg, seed=args.seed)
    if dev is not None:
        model = tune_thresholds(model, dev, h)
    config = {"mode": args.mode, "dim": args.dim, "epochs": args.epochs, "lr": args.lr,
              "l2": args.l2, "seed": args.seed, "tuned": bool(args.tune_dev),
              "degraded_to_text_only": degraded}
    _emit(args.out, save_model(model), "train", config, inputs)
    print(f"trained {len(model.labels)} label heads -> {args.out}")
    return 0


def cmd_predict(args: argparse.Namespace, inputs: _Inputs) -> int:
    model = inputs.read("model", load_model)
    h = inputs.read("hierarchy", _hierarchy)
    try:
        check_hierarchy(model, h)
    except ValueError as exc:
        raise ValueError(f"--model {args.model} and --hierarchy {args.hierarchy}: {exc}") from None
    corpus = inputs.read("corpus", lambda data: load_corpus(data, hierarchy=h))
    preds = predict_corpus(model, h, corpus)
    degraded = _degraded(model.feature_config.mode, corpus)
    if degraded:
        logger.warning("%d instance(s) lacked a caption; scored on text features only", degraded)
    config = {"mode": model.feature_config.mode, "degraded_to_text_only": degraded}
    _emit(args.out, write_predictions(preds), "predict", config, inputs)
    print(f"predicted {len(preds)} instances -> {args.out}")
    return 0


# -- caption-eval ------------------------------------------------------------

def cmd_caption_eval(args: argparse.Namespace, inputs: _Inputs) -> int:
    cands, refs = inputs.read("candidates", _lines), inputs.read("references", _lines)
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
        _emit(args.out, _json(report), "caption-eval", {}, inputs)
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
    p.add_argument("--mode", choices=[MODE_TEXT, MODE_TEXT_CAPTION], default=FeatureConfig.mode)
    p.add_argument("--dim", type=int, default=FeatureConfig.dimension)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--l2", type=float, default=TrainConfig.l2)
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
    try:
        config = _Inputs(args).read("config", _config) if args.config else {}
        _resolve(args, config)
        _check_outputs(args)
        # caption alone takes the injectable transport (tests, benchmarks).
        extra = {"transport": transport} if args.command == "caption" else {}
        return COMMANDS[args.command](args, _Inputs(args), **extra)
    except TransportError as exc:
        print(f"remote error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # CorpusError and HierarchyError too
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    """The console script: ``main``'s status as the exit status.

    Ctrl-C prints one line instead of a traceback, then the process dies
    by SIGINT as an uncaught KeyboardInterrupt makes it die (status 130
    in a shell), so a calling shell or script sees the interrupt.
    """
    try:
        status = main()
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr, flush=True)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
        status = 128 + signal.SIGINT  # where the signal does not end the process
    raise SystemExit(status)


if __name__ == "__main__":
    entrypoint()
