"""In-memory spans around the program's public functions.

The benchmark never edits the program.  Instead, a traced child process
replaces the names that ``persuasionkit.cli`` and ``persuasionkit.baseline``
import (and a few module-level helpers the layers call per item) with
timing wrappers before it calls ``cli.main``.

* A *span* is recorded once per call: name, layer, start, end, parent span
  and run id, plus a few facts read off the call's result.
* Calls made once per item (``featurize``, ``extend``, ``tokenize``, ...)
  are *aggregated*: a count, a total time and a self time per
  (function, enclosing span).

Self time is a call's duration minus the time of the wrapped calls made
inside it on the same thread.  Calls made on worker threads are recorded,
with parent ``-``, but not subtracted from the span that waits for them;
that span's self time already holds their wall time.  Everything stays in
memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections.abc import Callable


class _Frame:
    __slots__ = ("id", "name", "child", "span_id", "span_name")

    def __init__(self, id_, name, span_id, span_name):
        self.id = id_
        self.name = name
        self.child = 0.0
        self.span_id = span_id
        self.span_name = span_name


class Tracer:
    def __init__(self, run_id: str, command: list[str]):
        self.run_id = run_id
        self.command = command
        self.spans: list[dict] = []
        self.aggs: dict[tuple[str, str, str], list] = {}
        self.facts: dict = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._t0 = time.perf_counter()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def span(self, layer: str, name: str, fn: Callable,
             attrs: Callable | None = None) -> Callable:
        """Wrap ``fn`` so that every call records one span."""

        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            frame = _Frame(span_id, name, span_id, name)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(frame, parent, layer, start, {"error": type(exc).__name__})
                raise
            end = time.perf_counter()
            facts = attrs(result, args, kwargs) if attrs else None
            self._close(frame, parent, layer, start, facts, end)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, frame, parent, layer, start, facts, end=None):
        now = time.perf_counter()
        end = now if end is None else end
        self._stack().pop()
        if parent is not None:
            # Time spent reading facts off the result is the tracer's own,
            # so the parent does not count it as its self time either.
            parent.child += now - start
        rec = {
            "id": frame.id,
            "name": frame.name,
            "layer": layer,
            "start": start - self._t0,
            "end": end - self._t0,
            "parent": parent.span_id if parent else None,
            "run_id": self.run_id,
            "self_s": (end - start) - frame.child,
        }
        if facts:
            rec["attrs"] = facts
        self.spans.append(rec)

    def aggregate(self, layer: str, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so that calls are counted and timed, not spanned."""
        aggs = self.aggs
        lock = self._lock
        ids = self._ids

        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            frame = _Frame(next(ids), name, parent.span_id if parent else None,
                           parent.span_name if parent else "-")
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent.child += dur
                key = (layer, name, frame.span_name)
                with lock:
                    slot = aggs.get(key)
                    if slot is None:
                        slot = aggs[key] = [0, 0.0, 0.0]
                    slot[0] += 1
                    slot[1] += dur
                    slot[2] += dur - frame.child

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path: str):
        payload = {
            "run_id": self.run_id,
            "command": self.command,
            "facts": self.facts,
            "spans": self.spans,
            "aggregates": [
                {"layer": layer, "name": name, "parent": parent,
                 "count": c, "total_s": t, "self_s": s}
                for (layer, name, parent), (c, t, s) in sorted(self.aggs.items())
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _records(result, args, kwargs):
    return {"records": len(result)}


def _model_facts(model, args, kwargs):
    import numpy as np

    used = int(np.count_nonzero(np.any(model.weights != 0.0, axis=1)))
    return {"used_columns": used, "dimension": int(model.weights.shape[0]),
            "docs": len(args[0])}


def install(tracer: Tracer):
    """Wrap the program's public functions where its layers look them up."""
    from persuasionkit import baseline, captioner, cli, hierarchy, textmetrics

    spans = [
        ("hierarchy", "parse_hierarchy", None),
        ("corpus", "load_corpus", _records),
        ("corpus", "load_predictions", _records),
        ("corpus", "load_binary_predictions", _records),
        ("corpus", "write_predictions", None),
        ("corpus", "write_captions", None),
        ("baseline", "train", _model_facts),
        ("baseline", "tune_thresholds", lambda r, a, k: {"docs": len(a[1])}),
        ("baseline", "predict_corpus", _records),
        ("baseline", "save_model", lambda r, a, k: {"bytes": len(r)}),
        ("baseline", "load_model", None),
        ("metrics", "hierarchical_score", None),
        ("metrics", "per_class_hierarchical_diagnostics", None),
        ("metrics", "bootstrap_ci", lambda r, a, k: {"resamples": r.resamples}),
        ("metrics", "flat_binary_score", None),
        ("textmetrics", "score_caption_pairs", lambda r, a, k: {"pairs": r.n_pairs}),
        ("captioner", "caption_corpus",
         lambda r, a, k: {"items": len(r), "concurrency": k.get("concurrency", 1)}),
        ("captioner", "checkpoint_to_captions", None),
    ]
    for layer, name, facts in spans:
        setattr(cli, name, tracer.span(layer, f"{layer}.{name}", getattr(cli, name), facts))

    # Names baseline imports from other layers: tuning's scoring calls and
    # the shared tokenizer.
    baseline.hierarchical_score = tracer.span(
        "metrics", "metrics.hierarchical_score", baseline.hierarchical_score,
        lambda r, a, k: {"caller": "baseline"})
    baseline.tokenize = tracer.aggregate("textmetrics", "textmetrics.tokenize", baseline.tokenize)
    baseline.featurize = tracer.aggregate("baseline", "baseline.featurize", baseline.featurize)

    for name in ("tokenize", "rouge_l", "bleu4"):
        setattr(textmetrics, name,
                tracer.aggregate("textmetrics", f"textmetrics.{name}", getattr(textmetrics, name)))

    captioner.build_request = tracer.aggregate(
        "captioner", "captioner.build_request", captioner.build_request)
    captioner.caption_instance = tracer.aggregate(
        "captioner", "captioner.caption_instance", captioner.caption_instance)
    captioner.load_checkpoint = tracer.span(
        "captioner", "captioner.load_checkpoint", captioner.load_checkpoint)

    hierarchy.LabelHierarchy.extend = tracer.aggregate(
        "hierarchy", "hierarchy.extend", hierarchy.LabelHierarchy.extend)
