"""Outside-in tracing of the blobalg layers.

The tracer wraps public functions of the installed ``blobalg`` modules from
the benchmark's own code; no file of the package changes.  Every binding
site of a wrapped function is replaced: ``towers``, ``presentation``,
``cli`` and the package namespace import ``compose``, ``evaluate_word`` and
the ``check_*`` functions by name, so patching only the defining module
would miss most calls.  After installing, the tracer scans every loaded
``blobalg`` module and refuses to run if any of them still holds an
original function.

Two kinds of record are kept, both in memory until ``to_dict``:

* coarse boundaries (requests, ``run_suite``, each ``check_*``,
  ``diagram_space``, ``ideal_span``, ``standard_module``) become spans with
  an id, a parent id and the shared run id;
* hot functions (``compose``, ``make_diagram``, ``RingElem.__mul__``,
  ``specialize``, ``absorb``, ``reduce``, ``express``, ``mulmod``, ...) are
  aggregated: call count, inclusive seconds and self seconds.

Self time is a call's duration minus the time spent in wrapped calls it
made.  Inclusive time of a function that re-enters itself counts only the
outermost call.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, metric prefix, kind).  kind "span" records one span per
# call; "hot" only aggregates.
FUNCTIONS: Tuple[Tuple[str, str, str, str], ...] = (
    ("blobalg.cli", "run_suite", "cli.run_suite", "span"),
    ("blobalg.presentation", "check_defining_relations", "presentation.check_defining_relations", "span"),
    ("blobalg.presentation", "check_run_identities", "presentation.check_run_identities", "span"),
    ("blobalg.presentation", "check_reduction_stability", "presentation.check_reduction_stability", "span"),
    ("blobalg.walks", "check_walk_suite", "walks.check_walk_suite", "span"),
    ("blobalg.walks", "check_diamond_moves", "walks.check_diamond_moves", "span"),
    ("blobalg.diamond", "check_diamond_walks", "diamond.check_diamond_walks", "span"),
    ("blobalg.diamond", "check_envelope_words", "diamond.check_envelope_words", "span"),
    ("blobalg.towers", "check_tower", "towers.check_tower", "span"),
    ("blobalg.towers", "check_quotient_dims", "towers.check_quotient_dims", "span"),
    ("blobalg.towers", "check_word_basis", "towers.check_word_basis", "span"),
    ("blobalg.towers", "check_standard_modules", "towers.check_standard_modules", "span"),
    ("blobalg.towers", "check_ideal_inclusions", "towers.check_ideal_inclusions", "span"),
    ("blobalg.towers", "check_span_closure", "towers.check_span_closure", "span"),
    ("blobalg.towers", "diagram_space", "towers.diagram_space", "span"),
    ("blobalg.towers", "ideal_span", "towers.ideal_span", "span"),
    ("blobalg.towers", "standard_module", "towers.standard_module", "span"),
    ("blobalg.diagrams", "compose", "diagrams.compose", "hot"),
    ("blobalg.diagrams", "compose_scaled", "diagrams.compose_scaled", "hot"),
    ("blobalg.diagrams", "make_diagram", "diagrams.make_diagram", "hot"),
    ("blobalg.diagrams", "all_diagrams", "diagrams.all_diagrams", "hot"),
    ("blobalg.presentation", "evaluate_word", "presentation.evaluate_word", "hot"),
    ("blobalg.modlin", "mulmod", "modlin.mulmod", "hot"),
)

# (module, class, method, metric prefix); methods are patched on the class.
METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("blobalg.ring", "RingElem", "__mul__", "ring.mul"),
    ("blobalg.ring", "RingElem", "specialize", "ring.specialize"),
    ("blobalg.modlin", "RowSpan", "absorb", "modlin.absorb"),
    ("blobalg.modlin", "RowSpan", "reduce", "modlin.reduce"),
    ("blobalg.modlin", "CoordSolver", "express", "modlin.express"),
)

# Modules that must hold a wrapped binding of each function: the defining
# module plus every module that imports the name.  A missing site means the
# package moved an import and the traced counts would undercount.
REQUIRED_SITES: Dict[str, Tuple[str, ...]] = {
    "diagrams.compose": ("blobalg.diagrams", "blobalg.presentation", "blobalg.towers"),
    "diagrams.compose_scaled": ("blobalg.diagrams", "blobalg.towers", "blobalg.cli"),
    "presentation.evaluate_word": ("blobalg.presentation", "blobalg.towers", "blobalg.cli"),
    "towers.check_tower": ("blobalg.towers", "blobalg.cli"),
    "presentation.check_reduction_stability": ("blobalg.presentation", "blobalg.cli"),
    "modlin.mulmod": ("blobalg.modlin", "blobalg.towers"),
}

# lru_cache'd functions: the wrapper's call count must equal the cache's own
# hits + misses delta, which proves no caller bypassed the wrapper.
CACHED = ("presentation.evaluate_word", "towers.diagram_space", "diagrams.all_diagrams")


class CoverageError(RuntimeError):
    """The tracer could not see every call it is meant to count."""


class Tracer:
    """Installs wrappers, keeps spans and aggregates, restores on uninstall."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.spans: List[dict] = []
        self.stats: Dict[str, List[float]] = {}  # prefix -> [calls, incl_s, self_s]
        self.absorb = {"rows_in": 0, "bytes_in": 0, "rank_added": 0}
        self.compose_pairs: set = set()
        self.sites: Dict[str, List[str]] = {}
        self._frames: List[List[float]] = []  # child seconds of each active call
        self._span_ids: List[int] = []
        self._next_id = 1
        self._patches: List[Tuple[object, str, object]] = []
        self._cache_start: Dict[str, Tuple[int, int]] = {}
        self._cached: Dict[str, Callable] = {}

    # -- recording ---------------------------------------------------------

    def _timed(self, prefix: str, fn: Callable, span: bool,
               after: Optional[Callable] = None, label: Optional[Callable] = None) -> Callable:
        stats = self.stats.setdefault(prefix, [0, 0.0, 0.0])
        frames = self._frames
        clock = self.clock
        live = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            live[0] += 1
            if span:
                span_id = self._open()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                live[0] -= 1
                if frames:
                    frames[-1][0] += dt
                stats[0] += 1
                stats[2] += dt - frame[0]
                if not live[0]:
                    stats[1] += dt
                if span:
                    attrs = label(args) if label else {}
                    self._close(span_id, prefix, t0, dt, attrs)
            if after is not None:
                # bookkeeping runs inside the caller's interval; book it as
                # child time so it is no layer's self time
                ta = clock()
                after(args, result)
                if frames:
                    frames[-1][0] += clock() - ta
            return result

        return wrapper

    def _open(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        self._span_ids.append(span_id)
        return span_id

    def _close(self, span_id: int, name: str, t0: float, dt: float, attrs: dict) -> None:
        self._span_ids.pop()
        self.spans.append({
            "id": span_id,
            "parent": self._span_ids[-1] if self._span_ids else None,
            "run": self.run_id,
            "name": name,
            "start_s": t0 - self.origin,
            "end_s": t0 + dt - self.origin,
            **({"attrs": attrs} if attrs else {}),
        })

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span (used for the request boundary)."""
        return self._timed(name, fn, span=True)(*args, **kwargs)

    def _after_compose(self, args, result) -> None:
        self.compose_pairs.add(hash((args[0], args[1])))

    def _after_absorb(self, args, result) -> None:
        vecs = args[1]
        self.absorb["rows_in"] += vecs.shape[0] if vecs.ndim == 2 else 1
        self.absorb["bytes_in"] += vecs.size * vecs.itemsize
        self.absorb["rank_added"] += result.shape[0]

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import blobalg.cli  # noqa: F401  (loads every blobalg module)

        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "blobalg" or name.startswith("blobalg.")}
        originals = []
        for mod_name, attr, prefix, kind in FUNCTIONS:
            original = getattr(modules[mod_name], attr)
            after = self._after_compose if prefix == "diagrams.compose" else None
            wrapper = self._timed(prefix, original, span=kind == "span", after=after,
                                  label=self._labeller(prefix, original))
            if hasattr(original, "cache_info"):
                self._cached[prefix] = original
            sites = []
            for name, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
                        sites.append(name)
            self.sites[prefix] = sorted(sites)
            originals.append((prefix, original))
        for mod_name, cls_name, meth, prefix in METHODS:
            cls = getattr(modules[mod_name], cls_name)
            original = vars(cls)[meth]
            after = self._after_absorb if prefix == "modlin.absorb" else None
            self._patch(cls, meth, self._timed(prefix, original, span=False, after=after))
            self.sites[prefix] = [f"{mod_name}.{cls_name}"]
        self._check_coverage(modules, originals)
        self._cache_start = {p: _cache_calls(f) for p, f in self._cached.items()}

    @staticmethod
    def _labeller(prefix: str, original: Callable) -> Optional[Callable]:
        """Span attributes: the suite of a run_suite call, and whether a
        diagram_space call missed its cache (the call never nests, so a
        miss since the previous call is this call's build)."""
        if prefix == "cli.run_suite":
            return lambda args: {"suite": args[0]}
        if prefix == "towers.diagram_space":
            seen = [original.cache_info().misses]

            def label(args):
                misses = original.cache_info().misses
                built, seen[0] = misses > seen[0], misses
                return {"n": args[0], "built": built}

            return label
        return None

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _check_coverage(self, modules: dict, originals: list) -> None:
        for prefix, original in originals:
            for name, mod in modules.items():
                for key, value in vars(mod).items():
                    if value is original:
                        raise CoverageError(f"{name}.{key} still binds the unwrapped {prefix}")
        for prefix, required in REQUIRED_SITES.items():
            missing = sorted(set(required) - set(self.sites[prefix]))
            if missing:
                raise CoverageError(f"{prefix} is not bound in {', '.join(missing)}")

    def uninstall(self) -> None:
        """Restore every patched binding; later calls are not recorded."""
        self._cache_end = {p: _cache_calls(f) for p, f in self._cached.items()}
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def to_dict(self) -> dict:
        caches = {}
        for prefix, (hits0, misses0) in self._cache_start.items():
            hits1, misses1 = self._cache_end[prefix]
            caches[prefix] = {"hits": hits1 - hits0, "misses": misses1 - misses0}
        return {
            "run": self.run_id,
            "sites": self.sites,
            "stats": {k: {"calls": int(v[0]), "s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.stats.items())},
            "caches": caches,
            "absorb": dict(self.absorb),
            "compose_distinct_pairs": len(self.compose_pairs),
            "spans": self.spans,
        }


def _cache_calls(fn) -> Tuple[int, int]:
    info = fn.cache_info()
    return info.hits, info.misses


# -- per-layer metrics ----------------------------------------------------------

SUITES = ("relations", "identities", "redux", "diamond", "walks",
          "ideals", "tower", "bases", "appendix", "all")

_CHECKS = (
    "presentation.check_defining_relations", "presentation.check_run_identities",
    "presentation.check_reduction_stability", "walks.check_walk_suite",
    "walks.check_diamond_moves", "diamond.check_diamond_walks", "diamond.check_envelope_words",
    "towers.check_tower", "towers.check_quotient_dims", "towers.check_word_basis",
    "towers.check_standard_modules", "towers.check_ideal_inclusions", "towers.check_span_closure",
)

# Every per-layer metric, in output order, with its unit.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("ring.mul.calls", "count"), ("ring.mul.s", "s"),
    ("ring.specialize.calls", "count"), ("ring.specialize.s", "s"),
    ("diagrams.compose.calls", "count"), ("diagrams.compose.self_s", "s"),
    ("diagrams.compose.distinct_ratio", "ratio"),
    ("diagrams.compose_scaled.calls", "count"),
    ("diagrams.make_diagram.calls", "count"), ("diagrams.make_diagram.s", "s"),
    ("diagrams.all_diagrams.s", "s"),
    ("presentation.evaluate_word.calls", "count"), ("presentation.evaluate_word.hits", "count"),
    ("presentation.evaluate_word.hit_ratio", "ratio"), ("presentation.evaluate_word.self_s", "s"),
    ("towers.diagram_space.build_s", "s"),
    ("towers.ideal_span.calls", "count"), ("towers.ideal_span.s", "s"),
    ("towers.standard_module.calls", "count"), ("towers.standard_module.s", "s"),
    *((f"{c}.s", "s") for c in _CHECKS),
    ("modlin.absorb.calls", "count"), ("modlin.absorb.rows_in", "count"),
    ("modlin.absorb.bytes_in", "B"), ("modlin.absorb.useful_ratio", "ratio"),
    ("modlin.absorb.s", "s"),
    ("modlin.reduce.calls", "count"), ("modlin.reduce.s", "s"),
    ("modlin.express.calls", "count"), ("modlin.express.s", "s"),
    ("modlin.mulmod.calls", "count"), ("modlin.mulmod.s", "s"),
    *((f"cli.run_suite.{s}.s", "s") for s in SUITES),
    ("trace.overhead_ratio", "ratio"),
)

_COMMON_NONZERO = ("diagrams.compose.calls", "diagrams.make_diagram.calls",
                   "ring.mul.calls", "presentation.evaluate_word.calls")

# Counters that must be nonzero after a traced run of each workload; a zero
# means a wrapper missed its layer, not that the layer got faster.
EXPECTED_NONZERO: Dict[str, Tuple[str, ...]] = {
    "verify-all-n6": _COMMON_NONZERO + (
        "ring.specialize.calls", "diagrams.compose_scaled.calls", "diagrams.all_diagrams.s",
        "presentation.evaluate_word.hits", "towers.diagram_space.build_s",
        "towers.ideal_span.calls", "towers.standard_module.calls",
        "modlin.absorb.calls", "modlin.reduce.calls", "modlin.express.calls",
        "modlin.mulmod.calls", *(f"{c}.s" for c in _CHECKS),
        *(f"cli.run_suite.{s}.s" for s in SUITES)),
    "redux-n7": _COMMON_NONZERO + (
        "presentation.evaluate_word.hits", "presentation.check_reduction_stability.s",
        "cli.run_suite.redux.s"),
    "products-n10": _COMMON_NONZERO + ("diagrams.compose_scaled.calls",),
}


def layer_metrics(trace: dict, overhead_ratio: float) -> Dict[str, float]:
    """Derive every PER_LAYER metric from a Tracer.to_dict() record."""
    stats = trace["stats"]

    def stat(prefix: str, field: str) -> float:
        return stats.get(prefix, {}).get(field, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, float] = {}
    for prefix in ("ring.mul", "ring.specialize", "diagrams.make_diagram", "towers.ideal_span",
                   "towers.standard_module", "modlin.absorb", "modlin.reduce",
                   "modlin.express", "modlin.mulmod"):
        out[f"{prefix}.calls"] = stat(prefix, "calls")
        out[f"{prefix}.s"] = stat(prefix, "s")
    compose_calls = stat("diagrams.compose", "calls")
    out["diagrams.compose.calls"] = compose_calls
    out["diagrams.compose.self_s"] = stat("diagrams.compose", "self_s")
    out["diagrams.compose.distinct_ratio"] = ratio(trace["compose_distinct_pairs"], compose_calls)
    out["diagrams.compose_scaled.calls"] = stat("diagrams.compose_scaled", "calls")
    out["diagrams.all_diagrams.s"] = stat("diagrams.all_diagrams", "s")
    ev_calls = stat("presentation.evaluate_word", "calls")
    ev_hits = trace["caches"]["presentation.evaluate_word"]["hits"]
    out["presentation.evaluate_word.calls"] = ev_calls
    out["presentation.evaluate_word.hits"] = ev_hits
    out["presentation.evaluate_word.hit_ratio"] = ratio(ev_hits, ev_calls)
    out["presentation.evaluate_word.self_s"] = stat("presentation.evaluate_word", "self_s")
    out["towers.diagram_space.build_s"] = sum(
        s["end_s"] - s["start_s"] for s in trace["spans"]
        if s["name"] == "towers.diagram_space" and s["attrs"]["built"])
    for check in _CHECKS:
        out[f"{check}.s"] = stat(check, "s")
    absorb = trace["absorb"]
    out["modlin.absorb.rows_in"] = absorb["rows_in"]
    out["modlin.absorb.bytes_in"] = absorb["bytes_in"]
    out["modlin.absorb.useful_ratio"] = ratio(absorb["rank_added"], absorb["rows_in"])
    for suite in SUITES:
        out[f"cli.run_suite.{suite}.s"] = sum(
            s["end_s"] - s["start_s"] for s in trace["spans"]
            if s["name"] == "cli.run_suite" and s["attrs"]["suite"] == suite)
    out["trace.overhead_ratio"] = overhead_ratio
    return {name: out[name] for name, _ in PER_LAYER}


def check_trace(workload: str, trace: dict, metrics: Dict[str, float]) -> List[str]:
    """Problems that make a traced run untrustworthy (empty when sound)."""
    problems = [f"{name} stayed at zero" for name in EXPECTED_NONZERO[workload]
                if not metrics[name]]
    for prefix in CACHED:
        seen = trace["caches"][prefix]
        calls = trace["stats"][prefix]["calls"]
        if seen["hits"] + seen["misses"] != calls:
            problems.append(f"{prefix}: cache saw {seen['hits'] + seen['misses']} calls, "
                            f"wrapper saw {calls}; a caller bypassed the wrapper")
    return problems
