"""Summarize benchmark records: median, quartiles and spread per metric.

    python3 bench/summarize.py [--out BENCH.json] [RECORD.json ...]

With no files it reads every ``.bench_out/result-*.json`` that run.py
wrote.  Records are grouped by workload and trace mode.  The spread is
(Q3 - Q1) / median with quartiles from ``statistics.quantiles(values,
n=4)``, the figure a metric's bound in BENCHMARK.json is compared with.
``raw.<metric>`` rows are the unscaled timings (see hostspeed.py).
``--out`` writes the summary with the environment stamps of its runs, the
form of the data points kept under bench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(records: list) -> dict:
    groups = defaultdict(list)
    for rec in records:
        groups[(rec["workload"], rec["trace"])].append(rec)
    out = {}
    for (workload, trace), recs in sorted(groups.items()):
        values = defaultdict(list)
        for rec in recs:
            measured = rec["result"]["metrics"]
            for name, m in measured.items():
                values[name].append((m["value"], m["unit"]))
            for name, value in rec.get("raw", {}).items():
                values[f"raw.{name}"].append((value, measured[name]["unit"]))
        metrics = {}
        for name, pairs in values.items():
            vals = [v for v, _ in pairs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            metrics[name] = {"unit": pairs[0][1], "median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0, "values": vals}
        out[f"{workload}/trace{trace}"] = {
            "runs": len(recs),
            "seeds": sorted(rec["env"]["seed"] for rec in recs),
            "failed": sum(rec["result"]["failed"] for rec in recs),
            "attempted": sum(rec["result"]["attempted"] for rec in recs),
            "env": {k: v for k, v in recs[0]["env"].items() if k != "seed"},
            "metrics": metrics,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="*")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    paths = [Path(p) for p in args.records] or sorted((ROOT / ".bench_out").glob("result-*.json"))
    if not paths:
        print("error: no records", file=sys.stderr)
        return 2
    summary = summarize([json.loads(p.read_text()) for p in paths])
    for group, data in summary.items():
        print(f"{group}: {data['runs']} runs, failed {data['failed']}/{data['attempted']}")
        for name, m in data["metrics"].items():
            print(f"  {name:42s} median {m['median']:12.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:12.6g} q3 {m['q3']:12.6g} spread {m['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
