"""Run ``blobalg verify`` in this interpreter with a host-speed sampler.

    python3 bench/timed_verify.py RECORD.json verify --suite S --n N --seed S

The report goes to stdout for run.py to check, and RECORD.json gets the
exit code, the wall time of ``blobalg.cli.main`` and the host-speed factor
sampled during it (hostspeed.Sampler).  It imports nothing else of the
benchmark, and holds no copy of the report, so the peak RSS that run.py
reads from ``os.wait4`` is the package's own.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hostspeed import Sampler  # noqa: E402


def main() -> int:
    import blobalg.cli as cli

    record_path, argv = sys.argv[1], sys.argv[2:]
    with Sampler() as sampler:
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
    sys.stdout.flush()
    Path(record_path).write_text(json.dumps({
        "exit_code": code, "wall_s": wall,
        "host_factor": sampler.factor(), "samples": len(sampler.samples)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
