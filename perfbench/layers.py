"""Per-layer spans recorded from outside the program.

A layer is one module of ``pareto_kit``.  ``Tracer.install`` wraps, in
every ``pareto_kit`` namespace that binds them, the module's public
functions and the private ones another module imports by name.  Modules
bind imported functions by name (``from .numerics import lp_solve``), so
a wrapper on ``pareto_kit.numerics.lp_solve`` alone would see nothing:
each binding is replaced where it lives (``pareto_kit.hulls.lp_solve``,
``pareto_kit.polyhedra.lp_solve_batch``, ...).

The rational helpers of ``numerics.rational`` (``dot``, ``as_point``,
``as_matrix``, parsing and formatting) are not wrapped: each call costs
about a microsecond and happens millions of times, so their time counts
to the layer that calls them.

Every wrapped call records one span: its id, the id of the span that
caused it, the instance it belongs to, its layer and function, start and
end, and for the LP entry points the number of programs it solved.
Spans stay in memory; ``summarize`` turns one pass of them into the
per-layer metrics.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "numerics",
    "dominance",
    "stability",
    "reducibility",
    "hulls",
    "cones",
    "polyhedra",
    "cli",
    "io",
)

# module name -> layer; modules not listed here are not wrapped
_MODULES = {
    "pareto_kit.numerics.linprog": "numerics",
    "pareto_kit.dominance": "dominance",
    "pareto_kit.stability": "stability",
    "pareto_kit.reducibility": "reducibility",
    "pareto_kit.hulls": "hulls",
    "pareto_kit.cones": "cones",
    "pareto_kit.polyhedra": "polyhedra",
    "pareto_kit.cli": "cli",
    "pareto_kit.io": "io",
}

# lru caches whose hits and misses are reported, per layer
CACHED = {
    "polyhedra": ("feasible_point", "negative_recession_direction"),
    "cones": ("is_pointed", "is_proper", "strictly_positive_direction"),
}

# functions whose own call count is reported, beside their layer's
COUNTED = (
    ("stability", "find_dominator"),
    ("dominance", "_checked"),
    ("dominance", "_unique_groups"),
    ("dominance", "_dominated_flags"),
)



def _per_layer():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
    out += [(f"{layer}.{name}.calls", "count", "lower") for layer, name in COUNTED]
    out += [(f"{layer}.lp.calls", "count", "lower") for layer in ("hulls", "cones", "polyhedra")]
    out += [
        ("numerics.lp_solve.calls", "count", "lower"),
        ("numerics.lp_solve.s", "s", "lower"),
        ("numerics.lp_solve.infeasible", "count", "lower"),
        ("numerics.lp_solve_batch.calls", "count", "lower"),
        ("numerics.lp_solve_batch.objectives", "count", "lower"),
        ("numerics.lp_solve_batch.s", "s", "lower"),
        ("numerics.lp_per_s", "1/s", "higher"),
        ("io.s", "s", "lower"),
        ("io.bytes_out", "bytes", "lower"),
        ("polyhedra.samples", "count", "lower"),
    ]
    for layer in CACHED:
        out.append((f"{layer}.cache_hit_ratio", "ratio", "higher"))
        out.append((f"{layer}.cache_lookups", "count", "lower"))
    out += [
        ("polyhedra.cache_entries", "count", "lower"),
        ("trace.pass_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.untraced_pass_s", "s", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]
    return out


PER_LAYER = _per_layer()

# span fields
_ID, _PARENT, _INSTANCE, _LAYER, _NAME, _START, _END, _LPS = range(8)


def caches():
    """The lru caches of ``CACHED`` as (layer, cache object) pairs.

    Read through ``importlib`` so that a wrapper installed later does
    not hide the cache object behind it.
    """
    out = []
    for layer, names in CACHED.items():
        module = importlib.import_module(f"pareto_kit.{layer}")
        for name in names:
            fn = getattr(module, name)
            fn = getattr(fn, "__traced__", fn)
            out.append((layer, fn))
    return out


def clear_caches() -> None:
    for _, cache in caches():
        cache.cache_clear()


def cache_stats() -> dict[str, tuple[int, int, int]]:
    """(hits, lookups, entries) per cached layer since the last clear."""
    totals: dict[str, list[int]] = {layer: [0, 0, 0] for layer in CACHED}
    for layer, cache in caches():
        info = cache.cache_info()
        totals[layer][0] += info.hits
        totals[layer][1] += info.hits + info.misses
        totals[layer][2] += info.currsize
    return {layer: tuple(values) for layer, values in totals.items()}


class Tracer:
    """Records spans while installed; ``instance`` tags the spans of one
    instance, and ``take`` hands over the spans recorded so far."""

    def __init__(self):
        self.spans: list[list] = []
        self.instance = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []
        self.samples = 0
        self.bytes_out = 0
        self.infeasible = 0

    def _wrap(self, fn, layer: str, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self
        counts_lps = name in ("lp_solve", "lp_solve_batch")
        infeasible = importlib.import_module("pareto_kit.numerics.linprog").INFEASIBLE

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            lps = 0
            if counts_lps:
                if name == "lp_solve":
                    lps = 1
                    if result.status == infeasible:
                        tracer.infeasible += 1
                else:
                    lps = len(result)
            elif name == "frontier_sample_connected":
                tracer.samples += len(result.samples)
            elif layer == "io" and isinstance(result, str):
                tracer.bytes_out += len(result.encode("utf-8"))
            spans.append([span_id, parent, tracer.instance, layer, name, start, end, lps])
            return result

        traced.__traced__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every layer function at every binding site."""
        namespaces = [
            module
            for module_name, module in sorted(sys.modules.items())
            if module_name == "pareto_kit" or module_name.startswith("pareto_kit.")
        ]
        for module_name, layer in _MODULES.items():
            module = importlib.import_module(module_name)
            for name, fn in list(vars(module).items()):
                if not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != module_name:
                    continue
                sites = [
                    ns for ns in namespaces if vars(ns).get(name) is fn
                ]
                if name.startswith("_") and not any(ns is not module for ns in sites):
                    continue
                traced = self._wrap(fn, layer, name)
                for ns in sites:
                    setattr(ns, name, traced)
                    self._installed.append((ns, name, fn))

    def uninstall(self) -> None:
        for ns, name, fn in reversed(self._installed):
            setattr(ns, name, fn)
        self._installed.clear()

    def take(self) -> tuple[list[list], dict[str, int]]:
        """The spans and counters recorded since the last call, then reset."""
        spans = self.spans[:]
        counters = {
            "samples": self.samples,
            "bytes_out": self.bytes_out,
            "infeasible": self.infeasible,
        }
        self.spans.clear()
        self.samples = self.bytes_out = self.infeasible = 0
        return spans, counters


def summarize(spans, counters, cache, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one pass.

    A span's self time is its duration minus the durations of the spans
    it caused; the unattributed time is the pass's wall time minus every
    span's self time, so the layer self times and it add up to the wall
    time.  LPs are counted on behalf of the nearest enclosing span that
    is not in ``numerics``.
    """
    by_id = {span[_ID]: span for span in spans}
    child_s: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[_PARENT] >= 0:
            child_s[span[_PARENT]] += span[_END] - span[_START]

    calls: Counter = Counter()
    entered_s: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    fn_calls: Counter = Counter()
    fn_s: dict[str, float] = defaultdict(float)
    fn_lps: Counter = Counter()
    lp_on_behalf: Counter = Counter()
    for span in spans:
        layer = span[_LAYER]
        duration = span[_END] - span[_START]
        self_s[layer] += duration - child_s[span[_ID]]
        parent = by_id.get(span[_PARENT])
        if parent is None or parent[_LAYER] != layer:
            calls[layer] += 1
            entered_s[layer] += duration
        key = f"{layer}.{span[_NAME]}"
        fn_calls[key] += 1
        fn_s[key] += duration
        fn_lps[key] += span[_LPS]
        if span[_LPS]:
            owner = parent
            while owner is not None and owner[_LAYER] == "numerics":
                owner = by_id.get(owner[_PARENT])
            lp_on_behalf["benchmark" if owner is None else owner[_LAYER]] += span[_LPS]

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    for layer, name in COUNTED:
        out[f"{layer}.{name}.calls"] = fn_calls[f"{layer}.{name}"]
    for layer in ("hulls", "cones", "polyhedra"):
        out[f"{layer}.lp.calls"] = lp_on_behalf[layer]

    lp_calls = fn_calls["numerics.lp_solve"]
    objectives = fn_lps["numerics.lp_solve_batch"]
    solved_s = fn_s["numerics.lp_solve"] + fn_s["numerics.lp_solve_batch"]
    out["numerics.lp_solve.calls"] = lp_calls
    out["numerics.lp_solve.s"] = fn_s["numerics.lp_solve"]
    out["numerics.lp_solve.infeasible"] = counters["infeasible"]
    out["numerics.lp_solve_batch.calls"] = fn_calls["numerics.lp_solve_batch"]
    out["numerics.lp_solve_batch.objectives"] = objectives
    out["numerics.lp_solve_batch.s"] = fn_s["numerics.lp_solve_batch"]
    out["numerics.lp_per_s"] = (lp_calls + objectives) / solved_s if solved_s else 0.0
    out["io.s"] = entered_s["io"]
    out["io.bytes_out"] = counters["bytes_out"]
    out["polyhedra.samples"] = counters["samples"]

    for layer, (hits, lookups, _) in cache.items():
        out[f"{layer}.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        out[f"{layer}.cache_lookups"] = lookups
    out["polyhedra.cache_entries"] = cache["polyhedra"][2]

    out["trace.pass_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - sum(self_s.values())
    out["trace.spans"] = len(spans)
    return out
