"""Child-process entry point: runs one ``persuasionkit`` command the way
the benchmark needs it.

    python3 perfbench/child.py [--provider SCRIPT --provider-stats OUT]
                               [--trace SPANS --run-id ID] -- <cli args>
    python3 perfbench/child.py --fault-sim SCRIPT --corpus CORPUS --out OUT

The first form calls ``persuasionkit.cli.main(argv, transport=...)``:
with ``--provider`` the transport is the program's HttpTransport over the
fake session in ``provider.py``; with ``--trace`` the program's public
functions are wrapped by ``tracer.py`` and the spans are written to SPANS
when the command ends.  The exit code is the command's.

The second form runs ``caption_corpus`` on the fake clock from
``tests/mocks.py`` with a token bucket and scripted 5xx, timeout and 401
replies, and writes what the fake provider and clock saw to OUT.
"""

from __future__ import annotations

import argparse
import io
import logging
import os
import sys
import time

from common import ROOT, read_json, write_json


def run_command(args, argv: list[str]) -> int:
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(args.run_id, argv)
    t0 = time.perf_counter()
    from persuasionkit import cli

    import_s = time.perf_counter() - t0

    transport = session = None
    if args.provider:
        import provider

        script = read_json(args.provider)
        transport, session = provider.make_transport(
            script, os.environ.get(script["credential_env"], ""))

    main = cli.main
    if tracer is not None:
        tracing.install(tracer)
        tracer.facts["import_s"] = import_s
        main = tracer.span("cli", "cli.main", main)
    try:
        rc = main(argv, transport=transport)
    finally:
        if session is not None:
            write_json(args.provider_stats, dict(session.stats, retries=session.retries()))
        if tracer is not None:
            tracer.dump(args.trace)
    return rc


def run_fault_sim(args) -> int:
    """caption_corpus on a fake clock, rate-limited, with faulty replies."""
    sys.path.insert(0, ROOT)
    import provider
    from persuasionkit import captioner
    from persuasionkit.corpus import load_corpus
    from tests.mocks import FakeClock

    script = read_json(args.fault_sim)
    with open(args.corpus, encoding="utf-8") as fh:
        corpus = load_corpus(fh.read())
    class Clock(FakeClock):
        """FakeClock whose sleep always moves time forward, as a real one's
        does.  Exact addition can leave a large fake time unchanged by a
        sub-ulp wait, and TokenBucket.acquire would then spin forever."""

        def sleep(self, dt: float):
            super().sleep(max(dt, 1e-6))

    clock = Clock()

    # Split fake-clock time between the token bucket and retry backoff.
    bucket_wait = [0.0]
    acquire = captioner.TokenBucket.acquire

    def timed_acquire(self):
        before = clock.monotonic()
        acquire(self)
        bucket_wait[0] += clock.monotonic() - before

    captioner.TokenBucket.acquire = timed_acquire

    # Debug logging is where a credential would leak; capture all of it.
    log = io.StringIO()
    handler = logging.StreamHandler(log)
    root = logging.getLogger()
    root.addHandler(handler)
    root.setLevel(logging.DEBUG)

    transport, session = provider.make_transport(
        script, os.environ.get(script["credential_env"], ""))
    cfg = transport.cfg
    outcomes = captioner.caption_corpus(
        corpus, cfg, transport, checkpoint_path=args.checkpoint, concurrency=1,
        rate_per_minute=script["rate_per_minute"], clock=clock, seed=script["seed"])
    root.removeHandler(handler)
    write_json(args.out, {
        "outcomes": {iid: [o.status, o.attempts] for iid, o in outcomes.items()},
        "stats": dict(session.stats, retries=session.retries()),
        "sim_s": clock.monotonic(),
        "bucket_wait_sim_s": bucket_wait[0],
        "log": log.getvalue(),
    })
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--provider", help="fake provider script (JSON)")
    ap.add_argument("--provider-stats", help="where to write the provider's counters")
    ap.add_argument("--trace", help="write spans of this command here")
    ap.add_argument("--run-id", default="")
    ap.add_argument("--fault-sim", help="run the fake-clock fault simulation")
    ap.add_argument("--corpus")
    ap.add_argument("--checkpoint")
    ap.add_argument("--out")
    ap.add_argument("argv", nargs="*")
    args = ap.parse_args()
    if args.fault_sim:
        return run_fault_sim(args)
    return run_command(args, args.argv)


if __name__ == "__main__":
    sys.exit(main())
