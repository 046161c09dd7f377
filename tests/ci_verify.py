"""Run one ``blobalg verify`` suite in a child process and gate it.

    python tests/ci_verify.py SUITE N --peak-mb X [--sha256 H]

The child's stdout is streamed into a SHA-256, and its peak RSS is read
from ``os.wait4``; this parent stays small, so that peak is the child's
own.  The run passes when the child exits 0, its last line ends in
``passed=true``, its peak RSS is below X MB and, when H is given, its
stdout digest is H.  Run it with ``src`` on ``PYTHONPATH``.
"""

import argparse
import hashlib
import os
import subprocess
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("suite")
    parser.add_argument("n")
    parser.add_argument("--peak-mb", type=float, required=True)
    parser.add_argument("--sha256")
    args = parser.parse_args()
    child = subprocess.Popen([sys.executable, "-m", "blobalg.cli", "verify", "--suite", args.suite,
                              "--n", args.n], stdout=subprocess.PIPE)
    digest, tail = hashlib.sha256(), b""
    for chunk in iter(lambda: child.stdout.read(1 << 16), b""):
        digest.update(chunk)
        tail = (tail + chunk)[-200:]
    _, status, usage = os.wait4(child.pid, 0)
    peak = usage.ru_maxrss / 1024
    print(f"{args.suite} --n {args.n}: exit status {status}, peak RSS {peak:.0f} MB, "
          f"stdout sha256 {digest.hexdigest()}")
    failures = [why for ok, why in [
        (status == 0, f"exit status {status}"),
        (tail.endswith(b"passed=true\n"), f"the last line does not end in passed=true: {tail!r}"),
        (peak < args.peak_mb, f"peak RSS {peak:.0f} MB is not below {args.peak_mb:g} MB"),
        (args.sha256 in (None, digest.hexdigest()), f"stdout sha256 is not {args.sha256}"),
    ] if not ok]
    if failures:
        sys.exit("; ".join(failures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
