"""Per-layer metrics of a traced run, computed from the spans the traced
commands wrote.

Each metric is read from the measured workload's own traced commands.  A
layer that the workload leaves idle is read from the small companion passes
instead, so every metric is reported on every workload; the benchmark's
README lists which source each workload uses.
"""

from __future__ import annotations

import statistics

LAYERS = ("hierarchy", "corpus", "baseline", "metrics", "textmetrics", "captioner", "cli")

# name -> unit, in report order
PER_LAYER = {
    "hierarchy.parse_s": "s",
    "hierarchy.extend_per_s": "calls/s",
    "corpus.load_records_per_s": "rec/s",
    "corpus.write_predictions_s": "s",
    "baseline.featurize_docs_per_s": "docs/s",
    "baseline.train_s": "s",
    "baseline.descent_s": "s",
    "baseline.used_columns": "count",
    "baseline.used_column_share": "ratio",
    "baseline.tune_s": "s",
    "baseline.tune_score_calls": "count",
    "baseline.predict_corpus_docs_per_s": "docs/s",
    "baseline.save_model_s": "s",
    "baseline.load_model_s": "s",
    "baseline.model_bytes": "B",
    "metrics.hierarchical_score_s": "s",
    "metrics.per_class_s": "s",
    "metrics.bootstrap_hier_resamples_per_s": "resamples/s",
    "metrics.bootstrap_binary_resamples_per_s": "resamples/s",
    "metrics.flat_binary_score_s": "s",
    "textmetrics.tokenize_per_s": "texts/s",
    "textmetrics.rouge_l_pairs_per_s": "pairs/s",
    "textmetrics.bleu4_pairs_per_s": "pairs/s",
    "captioner.items_per_s": "items/s",
    "captioner.items_per_s_jobs1": "items/s",
    "captioner.build_request_s": "s",
    "captioner.wire_requests": "count",
    "captioner.wire_bytes": "B",
    "captioner.refusals": "count",
    "captioner.retries": "count",
    "captioner.useful_request_share": "ratio",
    "captioner.checkpoint_load_s": "s",
    "captioner.checkpoint_bytes": "B",
    "captioner.backoff_sim_s": "s",
    "captioner.bucket_wait_sim_s": "s",
    "captioner.fault_probes_failed": "count",
    "cli.import_s": "s",
    "cli.overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cmd1_s": "s",
    "cmd2_s": "s",
    "cmd3_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.traced_pass_s": "s",
    "trace.overhead_share": "ratio",
}

TERMINAL = ("ok_prompt1", "ok_prompt2", "refused_both")


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _spans(cmds, name, where=lambda cmd, span: True):
    return [s for c in cmds for s in c["spans"] if s["name"] == name and where(c, s)]


def _mean_dur(spans):
    return statistics.fmean(_dur(s) for s in spans) if spans else None


def _agg(cmds, name):
    rows = [a for c in cmds for a in c["aggregates"] if a["name"] == name]
    if not rows:
        return None
    return sum(a["count"] for a in rows), sum(a["total_s"] for a in rows)


def _rate(pair):
    return pair[0] / pair[1] if pair and pair[1] > 0 else None


def _per_span_rate(spans, key):
    total = sum(_dur(s) for s in spans)
    return sum(s["attrs"][key] for s in spans) / total if spans and total > 0 else None


def _first(values):
    return next((v for v in values if v is not None), None)


def _caption_cmd(cmds, metric):
    return [c for c in cmds if c["workload"] == "caption" and c["metric"] == metric]


def _descent(cmds):
    """train() minus featurizing the same docs, per train call."""
    vals = []
    for c in cmds:
        for s in c["spans"]:
            if s["name"] == "baseline.train":
                feat = sum(a["total_s"] for a in c["aggregates"]
                           if a["name"] == "baseline.featurize" and a["parent"] == "baseline.train")
                vals.append(_dur(s) - feat)
    return statistics.fmean(vals) if vals else None


def _train_fact(cmds, key):
    spans = _spans(cmds, "baseline.train")
    if not spans:
        return None
    a = spans[0]["attrs"]
    return a["used_columns"] / a["dimension"] if key == "share" else a["used_columns"]


def _tune_calls(cmds):
    tunes = _spans(cmds, "baseline.tune_thresholds")
    if not tunes:
        return None
    calls = _spans(cmds, "metrics.hierarchical_score",
                   lambda c, s: s.get("attrs", {}).get("caller") == "baseline")
    return len(calls) / len(tunes)


def _bootstrap_rate(cmds, binary: bool):
    spans = _spans(cmds, "metrics.bootstrap_ci",
                   lambda c, s: ("binary" in c["command"]) == binary)
    return _per_span_rate(spans, "resamples")


def _self_time(cmds, layer):
    """Summed self time of the layer's spans and per-item calls.

    Per-item calls on worker threads run under no span of their own thread
    (parent ``-``).  The span that waits for them, ``caption_corpus``,
    already counts that wall time as its self time, so they are left out,
    and a layer's self time never exceeds the command's wall time.
    """
    total = sum(s["self_s"] for c in cmds for s in c["spans"] if s["layer"] == layer)
    total += sum(a["self_s"] for c in cmds for a in c["aggregates"]
                 if a["layer"] == layer and a["parent"] != "-")
    return total if total > 0 else None


def _provider(cmds, key):
    stats = [c["provider"][key] for c in _caption_cmd(cmds, "cmd1") if c.get("provider")]
    return stats[0] if stats else None


def _items_rate(cmds, metric):
    spans = [s for c in _caption_cmd(cmds, metric) for s in c["spans"]
             if s["name"] == "captioner.caption_corpus"]
    return _per_span_rate(spans, "items")


def _checkpoint_load(cmds):
    return _mean_dur([s for c in _caption_cmd(cmds, "cmd2") for s in c["spans"]
                      if s["name"] == "captioner.load_checkpoint"])


def _cli_overhead(cmds):
    """Command time outside every wrapped layer call: argument parsing,
    manifest hashing, report writing."""
    spans = _spans(cmds, "cli.main")
    return statistics.fmean(s["self_s"] for s in spans) if spans else None


def _build_request(cmds):
    pair = _agg(_caption_cmd(cmds, "cmd1"), "captioner.build_request")
    return pair[1] / pair[0] if pair else None


FROM_SPANS = {
    "hierarchy.parse_s": lambda c: _mean_dur(_spans(c, "hierarchy.parse_hierarchy")),
    "hierarchy.extend_per_s": lambda c: _rate(_agg(c, "hierarchy.extend")),
    "corpus.load_records_per_s": lambda c: _per_span_rate(
        [s for n in ("load_corpus", "load_predictions", "load_binary_predictions")
         for s in _spans(c, f"corpus.{n}")], "records"),
    "corpus.write_predictions_s": lambda c: _mean_dur(_spans(c, "corpus.write_predictions")),
    "baseline.featurize_docs_per_s": lambda c: _rate(_agg(c, "baseline.featurize")),
    "baseline.train_s": lambda c: _mean_dur(_spans(c, "baseline.train")),
    "baseline.descent_s": _descent,
    "baseline.used_columns": lambda c: _train_fact(c, "used"),
    "baseline.used_column_share": lambda c: _train_fact(c, "share"),
    "baseline.tune_s": lambda c: _mean_dur(_spans(c, "baseline.tune_thresholds")),
    "baseline.tune_score_calls": _tune_calls,
    "baseline.predict_corpus_docs_per_s": lambda c: _per_span_rate(
        _spans(c, "baseline.predict_corpus"), "records"),
    "baseline.save_model_s": lambda c: _mean_dur(_spans(c, "baseline.save_model")),
    "baseline.load_model_s": lambda c: _mean_dur(_spans(c, "baseline.load_model")),
    "baseline.model_bytes": lambda c: _first(s["attrs"]["bytes"]
                                             for s in _spans(c, "baseline.save_model")),
    "metrics.hierarchical_score_s": lambda c: _mean_dur(_spans(
        c, "metrics.hierarchical_score", lambda cmd, s: "attrs" not in s)),
    "metrics.per_class_s": lambda c: _mean_dur(
        _spans(c, "metrics.per_class_hierarchical_diagnostics")),
    "metrics.bootstrap_hier_resamples_per_s": lambda c: _bootstrap_rate(c, False),
    "metrics.bootstrap_binary_resamples_per_s": lambda c: _bootstrap_rate(c, True),
    "metrics.flat_binary_score_s": lambda c: _mean_dur(_spans(c, "metrics.flat_binary_score")),
    "textmetrics.tokenize_per_s": lambda c: _rate(_agg(c, "textmetrics.tokenize")),
    "textmetrics.rouge_l_pairs_per_s": lambda c: _rate(_agg(c, "textmetrics.rouge_l")),
    "textmetrics.bleu4_pairs_per_s": lambda c: _rate(_agg(c, "textmetrics.bleu4")),
    "captioner.items_per_s": lambda c: _items_rate(c, "cmd1"),
    "captioner.items_per_s_jobs1": lambda c: _items_rate(c, "jobs1"),
    "captioner.build_request_s": _build_request,
    "captioner.wire_requests": lambda c: _provider(c, "wire_requests"),
    "captioner.wire_bytes": lambda c: _provider(c, "wire_bytes"),
    "captioner.refusals": lambda c: _provider(c, "refusals"),
    "captioner.checkpoint_load_s": _checkpoint_load,
    "cli.import_s": lambda c: statistics.median([x["facts"]["import_s"] for x in c]) if c else None,
    "cli.overhead_s": _cli_overhead,
    **{f"{layer}.self_s": (lambda c, layer=layer: _self_time(c, layer)) for layer in LAYERS},
}


def compute(traced: list[dict], own: str, caption_facts: dict, passes: dict) -> dict:
    """All per-layer metrics as {name: {"value": v, "unit": u}}.

    ``caption_facts`` holds the fault simulation, the torn-resume probe and
    the half checkpoint's size; ``passes`` the untraced and traced wall
    times of the measured workload's pass and, under ``commands``, the
    untraced pass's mean wall time of each command.
    """
    own_cmds = [c for c in traced if c["workload"] == own and c["scale"] == "full"]
    companions = [c for c in traced if not (c["workload"] == own and c["scale"] == "full")]
    values: dict[str, float] = {}
    for name, fn in FROM_SPANS.items():
        v = fn(own_cmds)
        values[name] = fn(companions) if v is None else v

    sim = caption_facts.get("sim") or {}
    stats = sim.get("stats", {})
    terminal = sum(1 for status, _ in sim.get("outcomes", {}).values() if status in TERMINAL)
    if stats.get("wire_requests"):
        values["captioner.retries"] = stats["retries"]
        values["captioner.useful_request_share"] = terminal / stats["wire_requests"]
        values["captioner.bucket_wait_sim_s"] = sim["bucket_wait_sim_s"]
        values["captioner.backoff_sim_s"] = sim["sim_s"] - sim["bucket_wait_sim_s"]
    values["captioner.checkpoint_bytes"] = caption_facts.get("checkpoint_bytes")
    probe = caption_facts.get("torn_resume")
    values["captioner.fault_probes_failed"] = None if probe is None else int(not probe["ok"])

    values.update(passes["commands"])
    values["trace.untraced_pass_s"] = passes["untraced"]
    values["trace.traced_pass_s"] = passes["traced"]
    values["trace.overhead_share"] = passes["traced"] / passes["untraced"] - 1.0

    missing = [n for n in PER_LAYER if values.get(n) is None]
    if missing:
        raise RuntimeError(f"traced run produced no data for {missing}")
    return {n: {"value": float(values[n]) if isinstance(values[n], float) else values[n],
                "unit": u} for n, u in PER_LAYER.items()}
