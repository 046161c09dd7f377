"""Batch command line front end.

Subcommands: walks, word, phi, mul, basis, dims, verify.  Exit status is
0 on success, 1 when a verification suite fails, 2 on usage errors, 3
on an internal error (an unexpected exception, reported as one
``error: internal: <Type>: <message>`` line on stderr) and 141
(128 + SIGPIPE) when the reader closes stdout early, as in
``blobalg verify ... | head -1``; nothing more is printed then.  The
default verification seed and prime can be set through the BLOBALG_SEED
and BLOBALG_PRIME environment variables; identical seed and flags produce
byte-identical output.

verify streams: it writes each check's line once the check is decided,
in blocks of a few hundred lines, and each report's summary line once the
report returns, holding no more than the failed checks.  A run stopped
by an internal error has written the lines of the checks decided before
it, which are complete lines but no summary.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from math import comb
from typing import Callable, Dict, List, NoReturn, Optional, Tuple

# towers (and with it numpy) loads here on purpose, not on first use: the
# benchmark times `main` after importing this module, and a verify run that
# loaded numpy inside `main` would count that import in its wall time.  It
# comes first: with modlin loaded before it, this import peaked about 1.5 MB
# higher (measured on CPython 3.11, numpy 2.4).
from .towers import (
    check_ideal_inclusions,
    check_quotient_dims,
    check_span_closure,
    check_standard_modules,
    check_tower,
    check_word_basis,
)
from .diagrams import all_diagrams, compose_scaled, diagram_from_dict, scaled_to_dict, ScaledDiagram
from .modlin import DEFAULT_PRIME, check_prime, draw_points
from .presentation import (
    check_defining_relations,
    check_reduction_stability,
    check_run_identities,
    evaluate_word,
)
from .reports import Report, streaming
from .ring import parse_scalar
from .diamond import check_diamond_walks, check_envelope_words
from .walks import (
    all_walks,
    check_diamond_moves,
    check_walk_suite,
    parse_walk,
    path_word,
    regular_basis,
    squared_basis,
    walk_words,
)
from .words import Word, parse_word


# Every suite, in the order "all" runs them: its smallest strand count and
# one function of (n, points, seed) per report, called in order.  The
# lambdas look the check functions up when called, so a wrapper installed
# on this module's attribute is the one that runs.  "all" needs n >= 1 and
# skips the suites that need more than it is given.
_SUITES: Dict[str, Tuple[int, Tuple[Callable[..., Report], ...]]] = {
    "relations": (0, (lambda n, points, seed: check_defining_relations(n),)),
    "identities": (0, (lambda n, points, seed: check_run_identities(n),)),
    "redux": (3, (lambda n, points, seed: check_reduction_stability(n),)),
    "diamond": (0, (lambda n, points, seed: check_diamond_moves(n),)),
    "walks": (0, (lambda n, points, seed: check_walk_suite(n),)),
    "ideals": (1, (lambda n, points, seed: check_ideal_inclusions(n, points, seed),
                   lambda n, points, seed: check_span_closure(n, points, seed))),
    "tower": (2, (lambda n, points, seed: check_tower(n, points, seed),
                  lambda n, points, seed: check_quotient_dims(n, points, seed))),
    "bases": (1, (lambda n, points, seed: check_word_basis(n, points, seed),
                  lambda n, points, seed: check_standard_modules(n, points, seed))),
    "appendix": (0, (lambda n, points, seed: check_diamond_walks(n),
                     lambda n, points, seed: check_envelope_words(n))),
}

# Lines per write to stdout: one write per few hundred lines costs less than
# a write per line when a reader on the same core drains the pipe, and the
# pending block stays a few tens of kB.
_BLOCK = 256


def _ascii_int(text: str) -> int:
    """An integer written in ASCII, sign and surrounding spaces allowed, as
    ``int`` reads it; ``int`` on a str would also take other scripts' digits."""
    try:
        return int(text.encode("ascii"))
    except ValueError:  # UnicodeEncodeError included
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections raise ValueError, so ``main``
    reports them in one ``error:`` line and exit 2 like its other usage
    errors, instead of argparse's usage text and ``SystemExit``."""

    commands: Dict[str, "_Parser"]  # the top-level parser's: each subcommand's parser

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    parser = _Parser(prog="blobalg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("walks", help="enumerate Pascal-triangle walks")
    p.add_argument("--n", type=_ascii_int, required=True)
    p.add_argument("--m", type=_ascii_int, default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("word", help="the word of a walk")
    p.add_argument("--path", required=True, help="comma separated weights, e.g. 0,-1,0,1")
    p.add_argument("--variant", action="store_true")

    p = sub.add_parser("phi", help="evaluate a word to a scaled diagram")
    p.add_argument("--n", type=_ascii_int, required=True)
    p.add_argument("--word", required=True)

    p = sub.add_parser("mul", help="multiply two words or diagrams")
    p.add_argument("--n", type=_ascii_int, required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = sub.add_parser("basis", help="word bases")
    p.add_argument("--n", type=_ascii_int, required=True)
    p.add_argument("--m", type=_ascii_int, default=None)
    p.add_argument("--squared", action="store_true")
    p.add_argument("--format", choices=["text", "json", "latex"], default="text")

    p = sub.add_parser("dims", help="walk counts against diagram counts")
    p.add_argument("--n-max", type=_ascii_int, required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=[*_SUITES, "all"])
    p.add_argument("--n", type=_ascii_int, required=True)
    p.add_argument("--seed", type=_ascii_int, default=None)
    p.add_argument("--prime", type=_ascii_int, default=None)
    parser.commands = sub.choices
    return parser


def _parse_side(text: str, n: int) -> ScaledDiagram:
    text = text.strip()
    if not text.startswith("{"):
        return evaluate_word(parse_word(text, n))
    data = json.loads(text)
    if "pairs" not in data:
        raise ValueError("diagram JSON has no field 'pairs'")
    coeff = data.get("coeff", "1")
    if type(coeff) is not str:
        raise ValueError(f'diagram JSON field "coeff" must be a string, not {json.dumps(coeff)}')
    for field in ("pairs", "blobs"):
        arcs = data.get(field, [])
        if type(arcs) is not list or any(type(arc) is not list for arc in arcs):
            raise ValueError(f'diagram JSON field "{field}" must be a list of [i, j] lists, '
                             f"not {json.dumps(arcs)}")
    if type(data.get("n")) is int and data["n"] != n:  # other types fail in make_diagram
        raise ValueError("diagram strand count disagrees with --n")
    return ScaledDiagram(parse_scalar(coeff), diagram_from_dict({"n": n, **data}))


def _latex_word(w: Word) -> str:
    if not w.letters:
        return "1"
    return " ".join("e" if x == 0 else f"U_{{{x}}}" for x in w.letters)


def cmd_walks(args) -> int:
    if args.n < 0:
        raise ValueError("--n must be nonnegative")
    walks = all_walks(args.n, args.m)
    if args.format == "json":
        print(json.dumps([{"sigma": list(w.sigma)} for w in walks]))
    else:
        for w in walks:
            print(w)
    return 0


def cmd_word(args) -> int:
    print(path_word(parse_walk(args.path), variant=args.variant))
    return 0


def cmd_phi(args) -> int:
    print(json.dumps(scaled_to_dict(evaluate_word(parse_word(args.word, args.n)))))
    return 0


def cmd_mul(args) -> int:
    left = _parse_side(args.left, args.n)
    right = _parse_side(args.right, args.n)
    print(json.dumps(scaled_to_dict(compose_scaled(left, right))))
    return 0


def cmd_basis(args) -> int:
    if args.n < 0:
        raise ValueError("--n must be nonnegative")
    if args.m is not None and args.squared:
        words: List[Word] = list(squared_basis(args.n, args.m).words)
    elif args.m is not None:
        words = walk_words(args.n, args.m)
    else:
        words = list(regular_basis(args.n))
    if args.format == "json":
        print(json.dumps([str(w) for w in words]))
    elif args.format == "latex":
        if args.m is not None and args.squared:
            grid = squared_basis(args.n, args.m).grid()
            cols = "c" * len(grid)
            print(r"\begin{array}{%s}" % cols)
            for row in grid:
                print(" " + " & ".join(_latex_word(w) for w in row) + r" \\")
            print(r"\end{array}")
        else:
            print(r"\{ " + ",\\; ".join(_latex_word(w) for w in words) + r" \}")
    else:
        for w in words:
            print(w)
    return 0


def cmd_dims(args) -> int:
    if args.n_max < 0:
        raise ValueError("--n-max must be nonnegative")
    print("n |S_n| sum|S_(n,m)|^2 C(2n,n) |B_n| ok")
    status = 0
    for n in range(1, args.n_max + 1):
        walks = all_walks(n)
        per_m = dict.fromkeys(range(-n, n + 1, 2), 0)
        for p in walks:
            per_m[p.weight] += 1
        walks_total = len(walks)
        squares = sum(k ** 2 for k in per_m.values())
        central = comb(2 * n, n)
        bn = len(all_diagrams(n)) if n <= 7 else central
        ok = (walks_total == 2 ** n and squares == central == bn
              and all(per_m[m] == comb(n, (n + m) // 2) for m in per_m))
        status |= 0 if ok else 1
        shown = str(bn) if n <= 7 else "-"
        print(f"{n} {walks_total} {squares} {central} {shown} {'yes' if ok else 'NO'}")
        print("  " + " ".join(f"|S_({n},{m})|={per_m[m]}" for m in sorted(per_m)))
    return status


def run_suite(suite: str, n: int, seed: int, prime: int) -> List[Report]:
    """The reports of `suite` ("all": of every suite it runs) at n.  A
    report that streams gets its summary line written to its sink as soon
    as it returns, after its check lines."""
    if suite != "all":
        points = draw_points(seed, 3, prime)
        reports = []
        for check in _SUITES[suite][1]:
            rep = check(n, points, seed)
            if rep.sink is not None:
                rep.sink(rep.summary())
            reports.append(rep)
        return reports
    out: List[Report] = []
    for name, (min_n, _) in _SUITES.items():
        if n >= min_n:
            out.extend(run_suite(name, n, seed, prime))
    return out


class _Blocks:
    """A sink that writes lines to stdout in blocks of `_BLOCK`.  It looks
    ``sys.stdout`` up at each write, since callers may swap it."""

    def __init__(self) -> None:
        self.pending: List[str] = []

    def __call__(self, line: str) -> None:
        self.pending.append(line)
        if len(self.pending) >= _BLOCK:
            self.flush()

    def flush(self) -> None:
        if self.pending:
            text = "\n".join(self.pending) + "\n"
            self.pending.clear()
            sys.stdout.write(text)


def _env_int(name: str, default: int) -> int:
    """The integer value of environment variable `name`, or `default`."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return _ascii_int(raw)
    except argparse.ArgumentTypeError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def cmd_verify(args) -> int:
    seed = _env_int("BLOBALG_SEED", 0) if args.seed is None else args.seed
    prime = _env_int("BLOBALG_PRIME", DEFAULT_PRIME) if args.prime is None else args.prime
    check_prime(prime)
    min_n = 1 if args.suite == "all" else _SUITES[args.suite][0]
    if args.n < min_n:
        raise ValueError(f"suite {args.suite} needs n >= {min_n}")
    out = _Blocks()
    try:
        with streaming(out):
            reports = run_suite(args.suite, args.n, seed, prime)
        passed = all(rep.passed for rep in reports)
        out(f"suite={args.suite} n={args.n} seed={seed} prime={prime} "
            f"passed={'true' if passed else 'false'}")
    finally:  # on an error too, so the checks decided before it are shown
        out.flush()
    return 0 if passed else 1


def _stdout_to_devnull() -> None:
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # not backed by a file descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    # A known command goes straight to its own parser: the same namespace
    # and messages as the full parse, at about half its cost per request.
    command = parser.commands.get(argv[0]) if argv else None
    try:
        if command is None:  # no command, -h or an unknown one
            args = parser.parse_args(argv)
        else:
            args = command.parse_args(argv[1:])
            args.command = argv[0]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    handlers = {
        "walks": cmd_walks,
        "word": cmd_word,
        "phi": cmd_phi,
        "mul": cmd_mul,
        "basis": cmd_basis,
        "dims": cmd_dims,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # The reader closed stdout (e.g. `blobalg ... | head`).  Point stdout
        # at devnull so the interpreter's final flush cannot fail again, and
        # exit like a process killed by SIGPIPE.
        _stdout_to_devnull()
        return 141
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
