"""Starts the benchmark's child processes and reports each one's wall time,
exit code and peak RSS.

    python3 perfbench/spawner.py

reads one JSON request per stdin line, ``{"argv", "cwd", "env", "out",
"err", "timeout"}``, runs it to completion, and answers with one line,
``{"rc", "wall_s", "maxrss_kb"}``.  It exits when stdin closes.

Why a process of its own: on Linux, ``exec`` carries the parent's peak
RSS into the child's ``ru_maxrss`` (the child starts on the parent's
memory map, which ``exec`` then drops).  A child of the benchmark process,
which holds numpy, the oracles and their inputs, would report the
benchmark's own peak whenever that is the larger.  This process imports
nothing large, so a child's ``ru_maxrss`` is its own.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killer = threading.Timer(req["timeout"], proc.kill)
        killer.start()
        try:
            # wait4 reaps this child alone, so the usage is not mixed with
            # any other child's.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
