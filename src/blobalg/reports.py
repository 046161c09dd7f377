"""Verification reports: lists of named checks with pass/fail state.

Every verifier in the package returns a :class:`Report`.  Checks carry the
instance label plus printable left/right sides so a failing run shows what
was compared; reports carry the metadata needed to reproduce them (seed,
prime, specialization points) whenever randomness was involved.

A report may stream instead: given a sink (a callable taking one line),
``add`` passes each check's ``[PASS]``/``[FAIL]`` line to it as soon as the
check is decided and keeps only the failed checks and a count of the passed
ones, so its memory does not grow with the number of checks.  The check
functions build their own reports, so a report created inside
``with streaming(sink):`` takes that sink; ``blobalg verify`` runs the
suites inside one.  Any other report keeps every check, which for a large
check is large: ``check_reduction_stability(11)`` keeps 2.2M of them, about
1.3 GB.  A caller that needs only the verdict and the failed checks runs
the check inside ``with streaming(lambda line: None):``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

Sink = Callable[[str], None]

_sink: Optional[Sink] = None  # the sink that new reports take, set by `streaming`


@contextmanager
def streaming(sink: Sink) -> Iterator[None]:
    """Reports created inside the block stream their check lines to `sink`."""
    global _sink
    outer, _sink = _sink, sink
    try:
        yield
    finally:
        _sink = outer


@dataclass
class Check:
    instance: str
    lhs: str
    rhs: str
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        out = {"instance": self.instance, "lhs": self.lhs, "rhs": self.rhs, "pass": self.passed}
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class Report:
    """A titled list of checks.  With a `sink`, `checks` holds only the
    failed checks and `streamed` counts the passed ones, whose lines went
    to the sink with the rest; `passed` and `summary` read both."""

    title: str
    checks: List[Check] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)
    sink: Optional[Sink] = field(default_factory=lambda: _sink, init=False, repr=False, compare=False)
    streamed: int = field(default=0, init=False, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, instance: str, lhs: object, rhs: object, passed: bool, note: str = "") -> Check:
        check = Check(instance, str(lhs), str(rhs), bool(passed), note)
        if self.sink is not None:
            self.sink(self._line(check))
            if check.passed:
                self.streamed += 1
                return check
        self.checks.append(check)
        return check

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "pass": self.passed,
            "meta": self.meta,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def _line(self, c: Check) -> str:
        line = f"[{'PASS' if c.passed else 'FAIL'}] {self.title}/{c.instance}: {c.lhs} == {c.rhs}"
        return f"{line}  ({c.note})" if c.note else line

    def summary(self) -> str:
        """The closing ``== title: ok|FAILED (k/N checks)`` line."""
        ok = sum(c.passed for c in self.checks) + self.streamed
        return (f"== {self.title}: {'ok' if self.passed else 'FAILED'} "
                f"({ok}/{len(self.checks) + self.streamed} checks)")

    def lines(self) -> List[str]:
        """The line of every kept check, then the summary."""
        return [*map(self._line, self.checks), self.summary()]
