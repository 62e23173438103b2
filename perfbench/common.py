"""Shared plumbing for the benchmark: checkout paths, child processes,
the reference sample that timed metrics are scaled by, hashing and the
facts recorded with every result.

Every program step runs in its own child process with the checkout's
``src`` on ``PYTHONPATH``, so the benchmark measures the code in the
checkout it was started from and nothing installed elsewhere.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(HERE, "child.py")

# The program, its corpus generator and its test oracles; the benchmark
# cannot run without them.
REQUIRED = (
    "src/persuasionkit/cli.py",
    "scripts/make_synthetic_corpora.py",
    "tests/oracles.py",
    "data/hierarchies/subtask2a_techniques.txt",
)

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# A child that runs longer than this is killed and counted as failed, so a
# run always ends well inside its time limit.
CHILD_TIMEOUT_S = 120.0


# One reference sample's wall time at the speed that timed metrics are
# reported at (see ``speed_factor``).
REFERENCE_NOMINAL_S = 0.3


def reference_sample() -> float:
    """Wall time of one fixed piece of work that runs none of the program's
    code: dict, set and string work, a JSON round trip, and numpy passes and
    gathers over a 2^18 x 11 float64 array (the shape of the baseline's
    weights).  Interpreter work and memory traffic are what the commands
    spend their time on.

    On a shared virtual machine the speed of a vCPU drifts by 20-25% over
    seconds to minutes, and one vCPU's drift says little about another's,
    so samples run in the benchmark's own process, in the gaps between the
    commands, not alongside them.
    """
    import numpy as np

    t0 = time.perf_counter()
    counts: dict[str, int] = {}
    for i in range(100_000):
        w = f"w{i * 7919 % 4093}"
        counts[w] = counts.get(w, 0) + 1
    seen = set()
    for i in range(100_000):
        seen.add((i * 31) % 65_521)
    json.loads(json.dumps([{"id": k, "n": v} for k, v in counts.items()] * 8))
    w = np.full((1 << 18, 11), 0.5)
    g = np.ones_like(w)
    for _ in range(6):
        w -= 0.5 * (g + 1e-4 * w)
    idx = np.arange(1 << 20, dtype=np.int64) * 2_654_435_761 % w.size
    for _ in range(4):
        np.take(w, idx).sum()
    return time.perf_counter() - t0


def speed_factor(samples: list[float]) -> float:
    """What a run's wall times are multiplied by to report them at nominal
    speed: the nominal sample time over the mean of the run's samples."""
    return REFERENCE_NOMINAL_S / (sum(samples) / len(samples))


def missing_files() -> list[str]:
    return [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]


def child_env(extra: dict | None = None) -> dict:
    """Environment for program children: checkout sources, capped threads."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PERSUASIONKIT_")}
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = str(NPROC)
    env.update(extra or {})
    return env


@dataclass
class CmdResult:
    argv: list[str]
    rc: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str
    errors: list[str] = field(default_factory=list)  # failed output checks
    provider: dict | None = None  # the fake provider's counters, if one ran

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.errors


_spawner: subprocess.Popen | None = None


def _spawner_proc() -> subprocess.Popen:
    """The running ``spawner.py``, started on first use."""
    global _spawner
    if _spawner is None:
        _spawner = subprocess.Popen([sys.executable, os.path.join(HERE, "spawner.py")],
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        atexit.register(stop_spawner)
    return _spawner


def stop_spawner():
    """Close the spawner's input and wait for it to exit."""
    global _spawner
    if _spawner is not None:
        _spawner.stdin.close()
        _spawner.wait()
        _spawner = None


def run_child(argv: list[str], log_path: str, env: dict) -> CmdResult:
    """Run one child to completion; wall time and peak RSS are its own.

    The child is started by ``spawner.py``, whose docstring says why.
    stdout and stderr go to ``log_path + '.out'`` / ``'.err'`` and are read
    back afterwards.
    """
    out_path, err_path = log_path + ".out", log_path + ".err"
    spawner = _spawner_proc()
    spawner.stdin.write(json.dumps({"argv": argv, "cwd": ROOT, "env": env, "out": out_path,
                                    "err": err_path, "timeout": CHILD_TIMEOUT_S}) + "\n")
    spawner.stdin.flush()
    reply = spawner.stdout.readline()
    if not reply:
        raise RuntimeError(f"the spawner exited with code {spawner.wait()}")
    res = json.loads(reply)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    # ru_maxrss is in KiB on Linux.
    return CmdResult(argv, res["rc"], res["wall_s"], res["maxrss_kb"] / 1024.0, stdout, stderr)


def cli_argv(args: list[str]) -> list[str]:
    """The user-facing command: ``python -m persuasionkit <args>``."""
    return [sys.executable, "-m", "persuasionkit", *args]


def child_argv(args: list[str], *, provider: str | None = None,
                provider_stats: str | None = None, trace: str | None = None,
                run_id: str = "") -> list[str]:
    """The same command through ``child.py`` (fake provider, optional
    tracing)."""
    argv = [sys.executable, CHILD]
    if provider:
        argv += ["--provider", provider, "--provider-stats", provider_stats]
    if trace:
        argv += ["--trace", trace, "--run-id", run_id]
    return argv + ["--", *args]


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_tree(paths: list[str]) -> str:
    """One digest over many files, in the given order."""
    h = hashlib.sha256()
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        h.update(sha256_file(p).encode())
    return h.hexdigest()


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path: str, obj, indent: int | None = None):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, ensure_ascii=False, indent=indent)
        fh.write("\n")


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def environment_facts() -> dict:
    """Machine and toolchain facts recorded with every result."""
    import numpy
    import scipy

    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "source_sha256": sha256_tree(sorted(
            os.path.join(d, f)
            for d, _, files in os.walk(os.path.join(SRC, "persuasionkit"))
            for f in files if f.endswith(".py")
        )),
    }


def git_sha() -> str | None:
    """HEAD of the checkout; None when the checkout is not itself the top
    of a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]
