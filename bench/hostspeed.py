"""Host-speed calibration for CPU-bound timings.

The shared 2-core hosts this benchmark was written on change speed by
about ±25% within seconds and drift by as much again over minutes: a fixed
pure-Python loop took 0.24-0.40 s from one second to the next, and the
median product latency of one process moved from 3.8 to 6.4 ms between
10-second windows.  User CPU time moves with wall time, so this is the
host, not scheduling.

A run times a fixed pure-Python snippet on the same core as its work
(run.py pins itself and its children to one CPU) and scales a timing to a
reference host on which the snippet takes REF_SERIAL_S:

    reported = raw * REF_SERIAL_S / (snippet time next to the work)

The snippet runs after each product request (snippet) and before each
set-up import (serial_factor); during a long verify run a Sampler thread
takes it every 0.1 s, with its own reference REF_SAMPLED_S.  The snippet
uses no blobalg code, so a change to the package cannot move it.  Both
references are medians on the host the benchmark was written on, so
scaled times read close to raw ones there.  NOTES.md has the
measurements; records keep the raw values and the factors.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List

REF_SERIAL_S = 0.00055
# Median snippet time when a Sampler thread takes it in the middle of other
# work in the same process; the caches are colder then than between requests.
REF_SAMPLED_S = 0.0007


def snippet() -> float:
    """Seconds taken by a fixed dict-and-sort workload (about 0.5 ms)."""
    t0 = time.perf_counter()
    table = {}
    for i in range(1500):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
    sorted(table.items())
    return time.perf_counter() - t0


def serial_factor(repeats: int = 5) -> float:
    """Scale factor from snippets run here and now."""
    return REF_SERIAL_S / statistics.median(snippet() for _ in range(repeats))


class Sampler:
    """Times the snippet every ``period`` seconds from a thread of this
    process while the main thread works.

    For a run too long to stop for calibration (a verify run takes 15-30 s
    and the host's speed changes within it), this follows the host through
    the run.  Each sample holds the GIL for its half millisecond, about 1%
    of the run.  Use as a context manager; ``factor()`` afterwards.
    """

    def __init__(self, period: float = 0.1):
        self.period = period
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.period):
            self.samples.append(snippet())

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self) -> float:
        """Scale factor to the reference host; 1.0 if the run was too short
        for a sample."""
        if not self.samples:
            return 1.0
        return REF_SAMPLED_S / statistics.median(self.samples)
