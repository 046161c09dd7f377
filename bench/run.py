"""The blobalg benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1

Run it from anywhere inside a checkout; it builds nothing and imports the
package from the checkout's ``src/``.  ``--trace 0`` measures the
end-to-end metrics with no tracing; ``--trace 1`` runs the workload twice
in fresh interpreters, plain and traced, and reports the per-layer
metrics.  Every run checks the program's output (see workloads.py); a
wrong output makes ``correct`` false and the exit code 1.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``.  The lines before it print every metric by name and unit,
the error rate, and the environment stamp.  A full record also goes to
``.bench_out/`` in the checkout, where summarize.py reads it.  See
NOTES.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# modlin.mulmod runs through float64 BLAS; one thread keeps runs comparable
# on any host (it is at most nproc everywhere).
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:  # before numpy is imported in this process
    os.environ[_var] = str(BLAS_THREADS)

from hostspeed import REF_SERIAL_S, serial_factor, snippet  # noqa: E402
from tracing import PER_LAYER, check_trace, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    N_STRANDS,
    PRODUCTS,
    VERIFY,
    WORKLOADS,
    block_seconds,
    product_failures,
    reference_check,
    serve_products,
    verify_failures,
)

SETUP_REPEATS = 11  # fresh-interpreter imports per run; setup_s is their median
CHILD_LIMIT_S = 170  # a child still running after this is killed

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
    ("p50_ms", "ms"), ("p99_ms", "ms"), ("req_per_s", "1/s"),
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: List[str], label: str) -> Tuple[float, int, bytes, resource.struct_rusage]:
    """Run argv to completion: (wall s, exit code, stdout, rusage).

    The rusage is this child's own, from wait4; RUSAGE_CHILDREN would keep
    the largest peak RSS of any child of the whole benchmark process.
    """
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{label}.stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=err)
        killer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, out, usage


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def measure_setup() -> Tuple[float, float]:
    """Median time of a fresh interpreter running ``import blobalg``:
    (host-scaled, raw).  Each import is scaled by snippets run just before it."""
    scaled, raw = [], []
    for i in range(SETUP_REPEATS):
        factor = serial_factor()
        wall, code, _, _ = run_child([sys.executable, "-c", "import blobalg"], f"setup-{i}")
        if code != 0:
            raise BenchError(f"'import blobalg' exited {code}; see {OUT}/setup-{i}.stderr")
        scaled.append(wall * factor)
        raw.append(wall)
    return statistics.median(scaled), statistics.median(raw)


def latency_metrics(latencies: List[float], busy_s: float) -> Dict[str, float]:
    return {
        "p50_ms": percentile(latencies, 50) * 1000,
        "p99_ms": percentile(latencies, 99) * 1000,
        "req_per_s": len(latencies) / busy_s,
    }


def measure_verify(workload: str, seed: int, seconds: float) -> dict:
    """Fresh verify runs (timed_verify.py) until ``seconds`` have passed,
    at least one; each run is one request.  Timings are scaled by the
    host-speed factor sampled during that run."""
    spec = VERIFY[workload]
    walls, raw_walls, factors, rss, failed, why = [], [], [], [], 0, ""
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        label = f"{workload}-seed{seed}-{len(walls)}"
        out_path = OUT / f"{label}.json"
        out_path.unlink(missing_ok=True)
        wall, code, out, usage = run_child([sys.executable, str(BENCH / "timed_verify.py"),
                                            str(out_path), *spec.argv(seed)], label)
        if code == 0 and out_path.exists():
            rec = json.loads(out_path.read_text())
            code = rec["exit_code"]
        else:  # verify_failures counts every check of the run as failed
            rec = {"wall_s": wall, "host_factor": 1.0}
        f, reason = verify_failures(spec, seed, code, out)
        raw_walls.append(rec["wall_s"])
        factors.append(rec["host_factor"])
        walls.append(rec["wall_s"] * rec["host_factor"])
        rss.append(usage.ru_maxrss / 1024)
        failed += f
        why = why or reason
    import blobalg.cli as cli

    # the suites work on n and n + 1 strands
    ref_why = reference_check(cli.main, spec.n) or reference_check(cli.main, spec.n + 1)
    if ref_why:  # a wrong reference answer fails the whole run
        failed, why = spec.checks * len(walls), ref_why
    metrics = {"wall_s": statistics.median(walls), "peak_rss_mb": max(rss),
               **latency_metrics(walls, sum(walls))}
    raw = {"wall_s": statistics.median(raw_walls), **latency_metrics(raw_walls, sum(raw_walls))}
    return {"attempted": spec.checks * len(walls), "failed": failed, "why": why,
            "metrics": metrics, "raw": raw, "host_factors": factors, "requests": len(walls)}


def products_peak_rss(seed: int) -> Tuple[float, str]:
    """Peak RSS in MB of a fresh process serving a fixed number of requests
    (child.py --memory), so it does not grow with the host's speed; and why
    that process failed, or ""."""
    label = f"memory-{PRODUCTS}-seed{seed}"
    _, code, _, usage = run_child([sys.executable, str(BENCH / "child.py"), "--workload",
                                   PRODUCTS, "--seed", str(seed), "--memory"], label)
    why = f"memory run exited {code}; see {OUT}/{label}.stderr" if code else ""
    return usage.ru_maxrss / 1024, why


def measure_products(seed: int, seconds: float) -> dict:
    """The closed request loop, in this process; peak RSS from a child."""
    import blobalg.cli as cli

    peak, memory_why = products_peak_rss(seed)
    warm_why = reference_check(cli.main, N_STRANDS) or memory_why  # also the warm-up
    served = serve_products(cli.main, seed, seconds=seconds, calibrate=snippet)
    failed, why = product_failures(cli.main, served)
    if warm_why:  # a wrong reference answer fails the whole run
        failed, why = len(served.latencies), warm_why
    # Each latency is scaled by the snippet timed right after it, so a burst
    # of host slowness is taken out of the tail too (NOTES.md, "Host-speed
    # scaling").
    factors = [REF_SERIAL_S / cal for cal in served.calibration]
    scaled = [lat * f for lat, f in zip(served.latencies, factors)]
    metrics = {"wall_s": statistics.median(block_seconds(scaled)), "peak_rss_mb": peak,
               **latency_metrics(scaled, sum(scaled))}
    raw = {"wall_s": statistics.median(block_seconds(served.latencies)),
           **latency_metrics(served.latencies, served.wall_s)}
    factor = statistics.median(factors)
    return {"attempted": len(served.latencies), "failed": failed, "why": why,
            "metrics": metrics, "raw": raw, "host_factors": [factor],
            "requests": len(served.latencies)}


def measure_traced(workload: str, seed: int) -> dict:
    """Plain and traced runs in fresh interpreters; per-layer metrics."""
    records = {}
    trace_path = OUT / f"trace-{workload}-seed{seed}.json"
    for mode in ("plain", "traced"):
        out_path = OUT / f"child-{mode}-{workload}-seed{seed}.json"
        argv = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
                "--seed", str(seed), "--out", str(out_path)]
        if mode == "traced":
            argv += ["--trace", str(trace_path)]
        label = f"child-{mode}-{workload}-seed{seed}"
        _, code, _, _ = run_child(argv, label)
        if code != 0:
            tail = (OUT / f"{label}.stderr").read_text(errors="replace").strip().splitlines()[-5:]
            raise BenchError(f"{mode} run exited {code}: " + " | ".join(tail))
        records[mode] = json.loads(out_path.read_text())
    trace = json.loads(trace_path.read_text())
    metrics = layer_metrics(trace, records["traced"]["wall_s"] / records["plain"]["wall_s"])
    problems = check_trace(workload, trace, metrics)
    if problems:
        raise BenchError("traced run is incomplete: " + "; ".join(problems))
    return {"attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "why": records["plain"]["why"] or records["traced"]["why"],
            "metrics": metrics, "trace_file": str(trace_path.relative_to(ROOT)),
            "sites": trace["sites"]}


def environment(seed: int) -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "seed": seed, "blas_threads": BLAS_THREADS}


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "blobalg" / "__init__.py").is_file():
        print(f"error: no blobalg package under {SRC}", file=sys.stderr)
        return 2
    # One core for the benchmark, its children and its host-speed samples
    # (hostspeed.py); the other cores stay free for everything else.
    stamp = environment(args.seed)
    stamp["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {stamp["pinned_cpu"]})
    sys.path.insert(0, str(SRC))
    import blobalg

    if not Path(blobalg.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported blobalg from {blobalg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            result = measure_traced(args.workload, args.seed)
            units = dict(PER_LAYER)
        else:
            setup, setup_raw = measure_setup()
            if args.workload == PRODUCTS:
                result = measure_products(args.seed, args.seconds)
            else:
                result = measure_verify(args.workload, args.seed, args.seconds)
            result["metrics"]["setup_s"] = setup
            result["raw"]["setup_s"] = setup_raw
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    error_rate = result["failed"] / result["attempted"]
    final = {"correct": result["failed"] == 0, "attempted": result["attempted"],
             "failed": result["failed"], "metrics": metrics}
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "env": stamp, "error_rate": error_rate, "why": result["why"],
              **{k: v for k, v in result.items()
                 if k in ("raw", "host_factors", "requests", "trace_file", "sites")},
              "result": final}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"env {json.dumps(stamp)}")
    raw = result.get("raw", {})
    for name, m in metrics.items():
        note = f" (raw {raw[name]:.6g})" if name in raw else ""
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}{note}")
    print(f"{args.workload} error_rate {error_rate:.6g} failed/attempted "
          f"({result['failed']}/{result['attempted']})")
    if result["why"]:
        print(f"incorrect: {result['why']}", file=sys.stderr)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
