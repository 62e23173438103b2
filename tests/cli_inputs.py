"""A small valid file of every kind the CLI reads, and command lines that
read them.

``write_inputs(dirpath)`` writes each file and returns its path by key;
``command_line(name, paths)`` fills one of ``COMMANDS`` in, with the
output at ``paths["out"]``.  The caption checkpoint is both read and
appended to; every other key but ``out`` is an input only.
"""

from __future__ import annotations

import functools
import json
import os

from persuasionkit.baseline import FeatureConfig, TrainConfig, save_model, train
from persuasionkit.corpus import load_corpus
from persuasionkit.hierarchy import parse_hierarchy

HIERARCHY = "persuasion\nEthos\tpersuasion\nNameCalling\tEthos\nPathos\tpersuasion\n"

CORPUS = [
    {"id": "d1", "text": "buy buy bargain bargain", "labels": ["NameCalling", "Ethos"]},
    {"id": "d2", "text": "fear dread panic", "labels": ["Pathos"], "lang": "en"},
    {"id": "d3", "text": "trust honor duty", "labels": ["Ethos"],
     "caption": "a solemn oath", "caption_source": "manual"},
    {"id": "d4", "text": "", "image": "d4.png", "labels": []},
]

LABEL_SETS = [
    {"id": "d1", "labels": ["NameCalling"]},
    {"id": "d2", "labels": ["Pathos", "Ethos"]},
    {"id": "d3", "labels": []},
]

BINARY = [
    {"id": "d1", "label": "propagandistic"},
    {"id": "d2", "label": "not_propagandistic"},
    {"id": "d3", "label": "propagandistic"},
]

MEMES = [
    {"id": "a", "text": "text a", "image": "https://img.test/a.png"},
    {"id": "b", "text": "text b", "image": "https://img.test/b.png", "lang": "en"},
    {"id": "c", "text": "text c", "image": "https://img.test/c.png",
     "caption": "old", "caption_source": "manual"},
]

CHECKPOINT = [
    {"id": "a", "caption": "a caption", "source": "external-zero-shot",
     "status": "ok_prompt1", "attempts": 1, "model": "m"},
    {"id": "b", "caption": None, "source": "external-zero-shot",
     "status": "transport_error", "attempts": 4, "model": "m"},
]

CONFIG = {"seed": 3, "jobs": 1}

# Each command line, with a {key} for each file it names.  train also
# reads --config, which main reads before any command.
COMMANDS = {
    "validate": ["validate", "--hierarchy", "{hierarchy}", "--corpus", "{corpus}",
                 "--gold", "{gold}", "--pred", "{pred}"],
    "score-hier": ["score", "--task", "hier", "--hierarchy", "{hierarchy}",
                   "--gold", "{gold}", "--pred", "{pred}", "--out", "{out}"],
    "score-binary": ["score", "--task", "binary", "--gold", "{bin_gold}",
                     "--pred", "{bin_pred}", "--out", "{out}"],
    "train": ["--config", "{config}", "train", "--hierarchy", "{hierarchy}",
              "--corpus", "{corpus}", "--tune-dev", "{dev}", "--dim", "1024",
              "--epochs", "5", "--out", "{out}"],
    "predict": ["predict", "--model", "{model}", "--hierarchy", "{hierarchy}",
                "--corpus", "{corpus}", "--out", "{out}"],
    "caption": ["caption", "--corpus", "{memes}", "--out", "{checkpoint}",
                "--captions-out", "{out}"],
    "caption-eval": ["caption-eval", "--candidates", "{candidates}",
                     "--references", "{references}", "--out", "{out}"],
}


def _json(obj) -> bytes:
    return (json.dumps(obj, ensure_ascii=False, indent=2) + "\n").encode("utf-8")


@functools.cache
def _model() -> bytes:
    h = parse_hierarchy(HIERARCHY)
    corpus = load_corpus(json.dumps(CORPUS), hierarchy=h)
    return save_model(train(corpus, h, FeatureConfig(dimension=2**10), TrainConfig(epochs=5)))


def input_bytes() -> dict[str, bytes]:
    """The bytes of each input file, by key."""
    return {
        "hierarchy": HIERARCHY.encode("utf-8"),
        "corpus": _json(CORPUS),
        "dev": _json(CORPUS[:3]),
        "gold": _json(LABEL_SETS),
        "pred": _json(LABEL_SETS[::-1]),
        "bin_gold": _json(BINARY),
        "bin_pred": _json(BINARY[::-1]),
        "model": _model(),
        "memes": _json(MEMES),
        "checkpoint": b"".join(json.dumps(r).encode("utf-8") + b"\n" for r in CHECKPOINT),
        "config": _json(CONFIG),
        "candidates": "a cat on a mat\nthe dog runs\n".encode("utf-8"),
        "references": "a cat sits on the mat\na dog is running\n".encode("utf-8"),
    }


_SUFFIX = {"hierarchy": ".txt", "checkpoint": ".jsonl", "candidates": ".txt",
           "references": ".txt"}


def write_inputs(dirpath: str, replace: dict[str, bytes] | None = None) -> dict[str, str]:
    """Write every input file into ``dirpath``, with ``replace``'s bytes
    for its keys; returns each path by key, and the output's as ``out``."""
    paths = {"out": os.path.join(dirpath, "out.json")}
    for key, data in {**input_bytes(), **(replace or {})}.items():
        paths[key] = os.path.join(dirpath, key + _SUFFIX.get(key, ".json"))
        with open(paths[key], "wb") as fh:
            fh.write(data)
    return paths


def command_line(name: str, paths: dict[str, str]) -> list[str]:
    return [arg.format(**paths) for arg in COMMANDS[name]]


def flag_of(name: str, key: str) -> str:
    """The flag that names file ``key`` in command ``name``."""
    argv = COMMANDS[name]
    return argv[argv.index("{" + key + "}") - 1]
