"""Run one workload in a fresh interpreter, traced or plain, for run.py.

    python3 bench/child.py --workload W --seed S --out RESULT.json [--trace TRACE.json]
    python3 bench/child.py --workload products-n10 --seed S --memory

The workload runs in-process through ``blobalg.cli.main``.  A fresh
interpreter keeps the package's lru caches cold, so the plain and the
traced run do the same work and their wall times give the tracing
overhead.  With ``--trace`` the wrappers from tracing.py are installed
first, removed before the correctness check, and the whole trace is
written to TRACE.json at the end.

``--memory`` serves a fixed number of product requests and keeps no record
of them; run.py reads the peak RSS of that process from ``os.wait4``.  It
exits 1 if the warm-up digest or any request fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    N_STRANDS, PRODUCTS, VERIFY, WORKLOADS, product_failures, reference_check, serve_for_memory,
    serve_products, verify_failures)

TRACE_REQUESTS = 500  # a fixed count, so traced counters repeat exactly


def run(workload: str, seed: int, tracer: Tracer | None) -> dict:
    import blobalg.cli as cli

    # the reference stream is also the warm-up
    warm_why = reference_check(cli.main, N_STRANDS) if workload == PRODUCTS else ""
    if tracer is not None:
        tracer.install()
    if workload in VERIFY:
        spec = VERIFY[workload]
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                code = (tracer.span("request", cli.main, spec.argv(seed)) if tracer
                        else cli.main(spec.argv(seed)))
            except Exception as exc:  # counted as a failed run
                code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        failed, why = verify_failures(spec, seed, code, buf.getvalue().encode())
        attempted = spec.checks
    else:
        main = (lambda argv: tracer.span("request", cli.main, argv)) if tracer else cli.main
        served = serve_products(main, seed, requests=TRACE_REQUESTS)
        wall = served.wall_s
        if tracer is not None:
            tracer.uninstall()
        failed, why = product_failures(cli.main, served)
        attempted = len(served.latencies)
        if warm_why:
            failed, why = attempted, warm_why
    return {"workload": workload, "seed": seed, "wall_s": wall,
            "attempted": attempted, "failed": failed, "why": why}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out")
    parser.add_argument("--trace", default=None)
    parser.add_argument("--memory", action="store_true")
    args = parser.parse_args()
    if args.memory:
        import blobalg.cli as cli

        if args.workload != PRODUCTS:
            parser.error("--memory is for products-n10")
        why = reference_check(cli.main, N_STRANDS)
        if why:
            print(why, file=sys.stderr)
            return 1
        return 1 if serve_for_memory(cli.main, args.seed) else 0
    if args.out is None:
        parser.error("--out is required")
    tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}") if args.trace else None
    record = run(args.workload, args.seed, tracer)
    if tracer is not None:
        Path(args.trace).write_text(json.dumps(tracer.to_dict()))
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
