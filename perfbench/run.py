"""persuasionkit benchmark.

One run:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 25 --trace 0

sets up the workload's inputs from the seed (several times; the median is
``setup_s``), then repeats a pass of the workload's CLI commands, each in
its own child process, for about ``--seconds`` (at least two passes where
a pass is short enough, so outputs can be compared across repeats), and
checks every output.  ``pipeline_s`` is the mean wall time of each
command, summed over the pass's commands.  A reference sample
(``common.py``) runs before every set-up and every command, and timed
metrics are reported at nominal machine speed: wall time times the run's
``speed_factor``.
With ``--trace 1`` it instead runs one untraced and one traced pass, plus
small traced companion passes of the other workloads, and reports the
per-layer metrics.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A full record (inputs'
sha256, machine facts, every command's time and RSS, check failures) is
written to ``.bench_work/results/``.

Every workload, timed and traced, with a summary:

    python3 perfbench/run.py --all --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from common import (
    ROOT, SRC, WORK, environment_facts, fresh_dir, missing_files, reference_sample, speed_factor,
    stop_spawner, write_json,
)

SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 7
SETUP_MIN_SECONDS = 2.0
# Start no further pass after this much of the run, so a run ends well
# inside its time limit.
PASS_BUDGET_S = 120.0

# The machine's speed drifts by 20-25% over seconds to minutes, so a time
# averaged over a few seconds of one command spreads from run to run by
# more than its bound.  pipeline_s averages the whole run, at nominal
# speed; each command's own time is printed and recorded, and is a
# per-layer metric of the traced run.
E2E_UNITS = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}
CMDS = ("cmd1", "cmd2", "cmd3")


def _workloads():
    from workloads import Caption, Evaluate, Fit

    return {"fit": Fit, "evaluate": Evaluate, "caption": Caption}


def _aliases(wl, v: dict) -> dict:
    """The same numbers under the names of the commands they time."""
    s = wl.size
    if wl.name == "fit":
        named = {"train_s": v["cmd1_s"], "predict_docs_per_s": s["test"] / v["cmd2_s"],
                 "fit_score_s": v["cmd3_s"]}
    elif wl.name == "evaluate":
        named = {"score_hier_s": v["cmd1_s"], "score_binary_s": v["cmd2_s"],
                 "validate_s": v["cmd3_s"]}
    else:
        named = {"caption_items_per_s": s["n"] / v["cmd1_s"], "caption_resume_s": v["cmd2_s"],
                 "caption_eval_pairs_per_s": s["pairs"] / v["cmd3_s"]}
    return {k: v[k] for k in ("cmd1_s", "cmd2_s", "cmd3_s")} | named


def _setup(wl, reference: list[float]) -> list[float]:
    times: list[float] = []
    while len(times) < SETUP_MAX_REPEATS and (
            len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS):
        reference.append(reference_sample())
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return times


def _pass_time(p: dict) -> float:
    return sum(r.wall_s for k in CMDS for r in p[k])


def _command_means(passes: list[dict]) -> dict:
    """Mean wall time of each command over the passes, and their sum."""
    means = {f"{k}_s": statistics.fmean(r.wall_s for p in passes for r in p[k]) for k in CMDS}
    return means | {"pipeline_s": sum(means.values())}


def _timed(wl, seconds: float, started: float) -> tuple[dict, list[dict]]:
    """Passes until about ``seconds`` have gone: no pass starts that would
    end more than half a pass past them.  Returns wall-time means: a run
    holds few executions of each command, and their mean spreads less from
    run to run than their median does."""
    passes: list[dict] = []
    t0 = time.perf_counter()
    while True:
        passes.append(wl.run_pass())
        if len(passes) > 1:
            wl.check_repeat(passes[0], passes[-1])
        now = time.perf_counter()
        per_pass = (now - t0) / len(passes)
        if len(passes) >= wl.min_passes:
            if now - t0 + per_pass / 2 >= seconds:
                break
            if now - started + per_pass > PASS_BUDGET_S:
                break
    values = _command_means(passes)
    values["peak_rss_mb"] = max(r.rss_mb for p in passes for k in CMDS for r in p[k])
    return values, passes


def _traced(name: str, wl, runner, seed: int, work: str) -> tuple[dict, dict]:
    import layers

    untraced = wl.run_pass()
    runner.trace = True
    traced = wl.run_pass()
    wl.check_repeat(untraced, traced)
    caption_facts = {}
    for other, cls in _workloads().items():
        part = wl
        if other != name:
            part = cls(seed, "small", runner, work)
            part.setup()
            part.prepare()
            part.run_pass()
        if other == "caption":
            caption_facts = part.trace_extras()
            caption_facts["checkpoint_bytes"] = part.checkpoint_bytes
    passes = {"untraced": _pass_time(untraced), "traced": _pass_time(traced),
              "commands": _command_means([untraced])}
    metrics = layers.compute(runner.traced, name, caption_facts, passes)
    return metrics, {"passes": passes, "caption_facts": caption_facts,
                     "per_pass": [_describe_pass(untraced), _describe_pass(traced)]}


def _describe_pass(p: dict) -> dict:
    return {k: [{"wall_s": r.wall_s, "rss_mb": r.rss_mb, "rc": r.rc, "errors": r.errors}
                for r in p[k]] for k in CMDS}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import Runner

    started = time.perf_counter()
    # Byte-compile the checkout once so no command pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC], check=True,
                   stdout=subprocess.DEVNULL)
    work = fresh_dir(os.path.join(WORK, f"{name}-{seed}"))
    runner = Runner(fresh_dir(os.path.join(work, "logs")), f"{name}-{seed}-t{int(trace)}", False)
    wl = _workloads()[name](seed, "full", runner, work)

    reference: list[float] = []
    setup_times = _setup(wl, reference)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment_facts(), "inputs_sha256": wl.input_digests(),
              "setup_times_s": setup_times, "commands": wl.commands}
    wl.prepare()

    if trace:
        metrics, detail = _traced(name, wl, runner, seed, work)
        record.update(detail)
    else:
        runner.reference = reference
        wall, passes = _timed(wl, seconds, started)
        reference.append(reference_sample())  # after the last command
        factor = speed_factor(reference)
        wall["setup_s"] = statistics.median(setup_times)
        values = {k: v * factor for k, v in wall.items()}
        values["peak_rss_mb"] = wall.pop("peak_rss_mb")
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
        record.update(speed_factor=factor, reference_s=reference, wall_s=wall)
        record["aliases"] = _aliases(wl, values)
        record["per_pass"] = [_describe_pass(p) for p in passes]

    ops = runner.all
    failed = [r for r in ops if not r.ok]
    record.update(metrics=metrics, attempted=len(ops), failed=len(failed),
                  errors=[e for r in failed for e in r.errors or [f"exit {r.rc}"]])
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    write_json(os.path.join(results, f"{name}-{seed}-t{int(trace)}.json"), record, indent=2)
    if not failed:
        shutil.rmtree(work, ignore_errors=True)

    _print_record(record)
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics}


def _print_record(record: dict):
    env = record["environment"]
    print(f"# {record['workload']} seed={record['seed']} trace={int(record['trace'])} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} git={env['git_sha']} source={env['source_sha256'][:12]}")
    for metric, label in record["commands"].items():
        print(f"#   {metric}: {label}")
    for name, m in record["metrics"].items():
        print(f"{name:42s} {m['value']:>16.6f} {m['unit']}")
    for name, v in record.get("aliases", {}).items():
        print(f"  = {name:38s} {v:>16.6f}")
    if "speed_factor" in record:
        print(f"# speed factor {record['speed_factor']:.4f} from "
              f"{len(record['reference_s'])} reference samples; wall seconds: "
              + ", ".join(f"{k} {v:.4f}" for k, v in record["wall_s"].items()))
    if record.get("caption_facts", {}).get("torn_resume"):
        probe = record["caption_facts"]["torn_resume"]
        print(f"# fault probe, torn-checkpoint resume: {'ok' if probe['ok'] else 'FAILED'} "
              f"(exit {probe['rc']})")
    print(f"# operations: attempted {record['attempted']}, failed {record['failed']}")
    for err in record["errors"]:
        print(f"# FAILED: {err}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload, timed then traced, in child runs of this script."""
    failed = 0
    probes: set[str] = set()
    for name in _workloads():
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            print(proc.stdout, end="", flush=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 else {"correct": False}
            failed += not result["correct"]
            probes.update(line for line in lines if line.startswith("# fault probe"))
    print(f"# all workloads: {'correct' if not failed else f'{failed} run(s) not correct'}")
    for line in sorted(probes):
        print(line)
    return 1 if failed else 0


def main() -> int:
    ap = argparse.ArgumentParser(description="persuasionkit benchmark")
    ap.add_argument("--workload", choices=["fit", "evaluate", "caption"])
    ap.add_argument("--all", action="store_true", help="run every workload, timed and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    missing = missing_files()
    if missing:
        print(f"error: the checkout lacks {missing}; run from the root of a full "
              "persuasionkit checkout", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    if not args.workload:
        ap.error("--workload or --all is required")
    sys.path.insert(0, SRC)
    try:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_spawner()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
