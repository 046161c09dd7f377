"""The three workloads: their inputs and their correctness gates.

* ``verify-all-n6`` and ``redux-n7`` run ``blobalg verify`` with the seed.
  Every verify line except the final ``suite=... seed=...`` one does not
  depend on the seed, so the gate compares its SHA-256 with the digest
  recorded here and requires ``passed=true`` on the final line.
* ``products-n10`` is a closed loop with one client: each request is
  ``blobalg.cli.main(["mul", "--n", "10", ...])`` on seeded random words.
  A request fails if it raises, exits nonzero, or differs from
  ``phi`` of the concatenated word; that check runs after the timed loop.
* Both gates compare the package with itself, through the same compose
  and evaluate_word.  So every workload also serves a fixed stream of
  products, the same for every seed, whose responses must match the
  SHA-256 recorded here (reference_check); on a mismatch every request
  or check of the run counts as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple


@dataclass(frozen=True)
class VerifySpec:
    suite: str
    n: int
    digest: str  # SHA-256 of stdout without its final line
    checks: int  # [PASS]/[FAIL] lines in that stdout

    def argv(self, seed: int) -> List[str]:
        return ["verify", "--suite", self.suite, "--n", str(self.n), "--seed", str(seed)]


VERIFY = {
    "verify-all-n6": VerifySpec(
        "all", 6, "9b8cd6d9b786efdb760f85063ceedb8d90aec3f7958c341da1b34ebf9fd925b9", 2434),
    "redux-n7": VerifySpec(
        "redux", 7, "f9735e8b9e8a27a67f770247fa92785e61c0846b4b523249e3b7bb1eb399b015", 11082),
}
PRODUCTS = "products-n10"
WORKLOADS = (*VERIFY, PRODUCTS)

PRIME = 2147483647  # blobalg's default prime, printed on the final verify line


def verify_failures(spec: VerifySpec, seed: int, returncode: int, stdout: bytes) -> Tuple[int, str]:
    """Failed checks of one verify run, and why; all of them on any mismatch."""
    if returncode != 0:
        return spec.checks, f"exit code {returncode}"
    cut = stdout.rstrip(b"\n").rfind(b"\n") + 1
    body, last = stdout[:cut], stdout[cut:].strip().decode(errors="replace")
    want = f"suite={spec.suite} n={spec.n} seed={seed} prime={PRIME} passed=true"
    if last != want:
        return spec.checks, f"final line {last!r}, expected {want!r}"
    digest = hashlib.sha256(body).hexdigest()
    if digest != spec.digest:
        return spec.checks, f"report digest {digest} differs from the recorded {spec.digest}"
    return 0, ""


# -- products-n10 ---------------------------------------------------------------

N_STRANDS = 10
WORD_LETTERS = 24
CHAIN_SHARE = 0.25  # share of requests whose left operand is an earlier result
CHAIN_POOL = 16  # how many recent results a chained request chooses from
REFERENCE_REQUESTS = 20
REFERENCE_SEED = 0  # the reference stream is the same for every run
# SHA-256 of the reference stream's exit codes and stdout at each strand
# count, at the commit that added the benchmark.
REFERENCE_DIGESTS = {
    6: "eee1adb6c3cd7e5121d6a4aa87019624696f0a4703709a352042abb9bb6a0cf8",
    7: "296f7c1cdb15a580a96e5a8e9aa500a57e8e48cf4b1c8f020a9e2741b406c7ea",
    8: "234895691118e1f1b39965d5d3b4b50217ec3fd04c2da166abb2c5a833d2ca72",
    10: "43d723620f09f950d6a0d4dfa0b589a063ea0ebd9d2306fa4ef4a4fcaf33ebd3",
}
MEMORY_REQUESTS = 500  # peak_rss_mb on this workload is read after this many
BLOCK = 100  # wall_s on this workload is the time to serve this many requests


@dataclass(frozen=True)
class Request:
    n: int
    left: str
    right: str
    word: Tuple[int, ...]  # letters whose phi the product must equal
    chained: bool

    def argv(self) -> List[str]:
        return ["mul", "--n", str(self.n), "--left", self.left, "--right", self.right]


def _word_text(letters: Tuple[int, ...]) -> str:
    return " ".join("e" if x == 0 else f"U{x}" for x in letters)


class RequestStream:
    """Seeded product requests; a chained request reuses a recent result.

    Only plain results enter the pool, so a chained check word has at most
    three times WORD_LETTERS letters.  The random draws never depend on
    the results, so a seed fixes the inputs.
    """

    def __init__(self, seed: int, salt: str = "timed", n: int = N_STRANDS):
        self.rng = random.Random(f"blobalg-bench-products-{salt}-{seed}")
        self.n = n
        self.pool: deque = deque(maxlen=CHAIN_POOL)

    def _letters(self) -> Tuple[int, ...]:
        return tuple(self.rng.randrange(self.n) for _ in range(WORD_LETTERS))

    def next(self) -> Request:
        right = self._letters()
        if self.pool and self.rng.random() < CHAIN_SHARE:
            left_json, left_word = self.pool[self.rng.randrange(len(self.pool))]
            return Request(self.n, left_json, _word_text(right), left_word + right, True)
        left = self._letters()
        return Request(self.n, _word_text(left), _word_text(right), left + right, False)

    def record(self, req: Request, output: str) -> None:
        if not req.chained and output:
            self.pool.append((output.strip(), req.word))


def call_cli(main: Callable, argv: List[str]) -> Tuple[int, str]:
    """Run the CLI entry point in-process, returning (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@dataclass
class ProductRun:
    latencies: List[float]  # seconds per request, in order
    results: List[Tuple[Request, Optional[int], str]]
    wall_s: float  # time spent in requests
    calibration: List[float]  # calibrate() after each request, untimed


def reference_check(main: Callable, n: int) -> str:
    """Serve a fixed stream of products on n strands, the same for every
    run, and compare its responses with REFERENCE_DIGESTS[n].

    The mul == phi check and the verify suites compare the package with
    itself; this catches a compose that is wrong in a consistent way.  On
    N_STRANDS it is also the untimed warm-up of the product loop.
    Returns why the responses differ, or "".
    """
    stream = RequestStream(REFERENCE_SEED, salt="warmup", n=n)
    digest = hashlib.sha256()
    for _ in range(REFERENCE_REQUESTS):
        req = stream.next()
        try:
            code, out = call_cli(main, req.argv())
        except (Exception, SystemExit) as exc:
            return f"reference request on {n} strands raised {type(exc).__name__}: {exc}"
        digest.update(f"{code}\n{out}".encode())
        stream.record(req, out)
    want = REFERENCE_DIGESTS.get(n)
    if digest.hexdigest() != want:
        return f"reference digest on {n} strands {digest.hexdigest()} differs from the recorded {want}"
    return ""


def serve_products(main: Callable, seed: int, seconds: Optional[float] = None,
                   requests: Optional[int] = None,
                   calibrate: Optional[Callable[[], float]] = None) -> ProductRun:
    """Closed loop, one client: send the next request when the last returns.

    Stops after ``requests`` requests or once ``seconds`` have elapsed.
    ``calibrate()``, when given, runs after each request outside its
    latency (see hostspeed.py).
    """
    stream = RequestStream(seed)
    latencies: List[float] = []
    results: List[Tuple[Request, Optional[int], str]] = []
    calibration: List[float] = []
    clock = time.perf_counter
    start = clock()
    while True:
        req = stream.next()
        t0 = clock()
        try:
            code, out = call_cli(main, req.argv())
        except Exception as exc:  # a failed request is counted, not fatal
            code, out = None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        latencies.append(t1 - t0)
        results.append((req, code, out))
        if code == 0:
            stream.record(req, out)
        if calibrate is not None:
            calibration.append(calibrate())
        done = len(latencies)
        if (requests is not None and done >= requests) or \
                (seconds is not None and clock() - start >= seconds):
            return ProductRun(latencies, results, sum(latencies), calibration)


def serve_for_memory(main: Callable, seed: int) -> int:
    """The first MEMORY_REQUESTS requests of the timed stream, keeping no
    record of them, so the peak RSS is the program's for a fixed amount of
    work.  Returns how many failed to exit 0 (their outputs are checked
    in the timed run, which serves the same requests first)."""
    stream = RequestStream(seed)
    failed = 0
    for _ in range(MEMORY_REQUESTS):
        req = stream.next()
        code, out = call_cli(main, req.argv())
        if code == 0:
            stream.record(req, out)
        else:
            failed += 1
    return failed


def product_failures(main: Callable, run: ProductRun) -> Tuple[int, str]:
    """Failed requests: raised, exited nonzero, or mul(a, b) != phi(a b)."""
    failed, first = 0, ""
    for req, code, out in run.results:
        why = ""
        if code != 0:
            why = f"exit code {code}: {out.strip()[:200]}"
        else:
            want_code, want = call_cli(main, ["phi", "--n", str(req.n), "--word", _word_text(req.word)])
            if want_code != 0 or json.loads(out) != json.loads(want):
                why = f"mul({req.left[:60]}, {req.right[:60]}) != phi of the concatenation"
        if why:
            failed += 1
            first = first or why
    return failed, first


def block_seconds(latencies: List[float]) -> List[float]:
    """Time spent serving each full block of BLOCK consecutive requests."""
    full = len(latencies) // BLOCK
    if not full:
        return [sum(latencies) * BLOCK / len(latencies)]
    return [sum(latencies[i * BLOCK:(i + 1) * BLOCK]) for i in range(full)]
