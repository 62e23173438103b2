"""The names the benchmark's tracer wraps, and how often the program calls them.

``perfbench/tracer.py`` replaces module attributes with timing wrappers and
derives per-item rates from their call counts, so the program must look
these names up in their modules at call time, once per item.  A change that
stops calling one of them, or calls it some other way, leaves a traced run
with no data for its metric; these tests catch that in seconds.
"""

import os
import threading

import pytest

from persuasionkit import baseline, captioner, cli
from persuasionkit.baseline import FeatureConfig, TrainConfig, predict_corpus, train
from persuasionkit.captioner import ProviderConfig, _Clock, caption_corpus
from persuasionkit.corpus import MemeInstance, load_corpus
from persuasionkit.hierarchy import LabelHierarchy, parse_hierarchy

from cli_inputs import command_line, write_inputs
from mocks import PerInstanceTransport, ScriptedTransport, ok_response, refusal_response

SYNTHETIC = os.path.join(os.path.dirname(__file__), "..", "data", "synthetic")


def _counted(monkeypatch, module, name) -> list[int]:
    """Wrap ``module.name`` so each call appends 1 to the returned list."""
    calls, lock, real = [], threading.Lock(), getattr(module, name)

    def counting(*args, **kwargs):
        with lock:
            calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _read(name: str) -> str:
    with open(os.path.join(SYNTHETIC, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("mode", ["text", "text+caption"])
def test_train_and_predict_featurize_once_per_document(monkeypatch, mode):
    h = parse_hierarchy(_read("hierarchy.txt"))
    corpus = load_corpus(_read("train.json"), hierarchy=h)[:60]
    heldout = load_corpus(_read("heldout.json"), hierarchy=h)[:40]
    calls = _counted(monkeypatch, baseline, "featurize")
    model = train(corpus, h, FeatureConfig(dimension=2**12, mode=mode), TrainConfig(epochs=2))
    assert len(calls) == len(corpus)
    predict_corpus(model, h, heldout)
    assert len(calls) == len(corpus) + len(heldout)


@pytest.mark.parametrize("jobs", [1, 3])
def test_caption_corpus_calls_each_traced_name_once_per_item(monkeypatch, jobs):
    memes = [MemeInstance(id=f"m{k}", text=f"text {k}", image=f"https://img.test/{k}.png")
             for k in range(12)]
    # Two refused primary prompts add two fallback requests.  A transport
    # retry resends the body it has, so none is scripted here.
    transport = PerInstanceTransport({
        "https://img.test/2.png": [refusal_response(), ok_response("second")],
        "https://img.test/7.png": [refusal_response(), refusal_response()],
    })
    instances = _counted(monkeypatch, captioner, "caption_instance")
    requests = _counted(monkeypatch, captioner, "build_request")
    out = caption_corpus(memes, ProviderConfig("https://example.test"), transport,
                         concurrency=jobs, clock=_Clock(lambda: 0.0, lambda s: None))
    assert len(out) == len(instances) == len(memes)
    assert len(transport.requests) == len(requests) == len(memes) + 2


# The loaders perfbench/tracer.py wraps where the commands look them up.
_TRACED_LOADERS = [(cli, "parse_hierarchy"), (cli, "load_corpus"), (cli, "load_predictions"),
                   (cli, "load_binary_predictions"), (cli, "load_model"),
                   (captioner, "load_checkpoint"), (LabelHierarchy, "extend")]


@pytest.mark.parametrize("command,calls,labeled", [
    ("validate", {"parse_hierarchy": 1, "load_corpus": 1, "load_predictions": 2}, 4 + 3 + 3),
    ("score-hier", {"parse_hierarchy": 1, "load_predictions": 2}, 3 + 3),
    ("score-binary", {"load_binary_predictions": 2}, 0),
    ("train", {"parse_hierarchy": 1, "load_corpus": 2}, 4 + 3),
    ("predict", {"load_model": 1, "parse_hierarchy": 1, "load_corpus": 1}, 4),
    ("caption", {"load_corpus": 1, "load_checkpoint": 1}, 0),
])
def test_each_command_calls_the_traced_loaders_by_their_module_names(
        monkeypatch, tmp_path, command, calls, labeled):
    # A loader bound before the command runs (as a default argument, say)
    # would escape the tracer's wrapper, and these counts would read 0.
    counts = {name: _counted(monkeypatch, module, name) for module, name in _TRACED_LOADERS}
    paths = write_inputs(str(tmp_path))
    assert cli.main(command_line(command, paths), transport=ScriptedTransport()) == 0
    extend = counts.pop("extend")
    assert {name: len(c) for name, c in counts.items() if c} == calls
    # extend closes each labeled record the loaders read with a hierarchy.
    assert len(extend) >= labeled
