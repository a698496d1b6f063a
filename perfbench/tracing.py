"""Spans around the program's public functions, recorded from outside it.

A Tracer replaces each traced function wherever a losstomo module looks it
up (its defining module and every module that imported the name), so calls
between modules and within a module are both seen.  GeneralNetwork is
traced through its __init__.  Spans are kept in memory as
[name, start, end, parent index] and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _ok_links(result) -> int:
    return sum(1 for f in result.flags.values() if f == "ok")


def _views_work(args, kwargs, out):
    patterns, net = args[0], args[1]
    pats = sum(len(t) for t in patterns.counts.values())
    work = sum(len(t) * len(net.tree_by_id[k].links) for k, t in patterns.counts.items())
    return {"patterns": pats, "pattern_links": work}


# (module, attribute, counters computed from (args, kwargs, result))
TARGETS = (
    ("cli", "main", None),
    ("bench", "run_grid", None),
    ("topology", "parse_topology", None),
    ("topology", "GeneralNetwork", None),
    ("statistics", "parse_data", lambda a, k, out: {"bytes": len(a[0])}),
    ("statistics", "serialize_data", None),
    ("statistics", "internal_views", _views_work),
    ("statistics", "regularity_report", None),
    ("simulator", "sample_theta", None),
    ("simulator", "simulate", lambda a, k, out: {
        "probes": a[0].probes, "patterns": sum(len(t) for t in out.counts.values())}),
    ("estimators", "le_xi", lambda a, k, out: {
        "solver_iterations": out.iterations, "ok_links": _ok_links(out)}),
    ("estimators", "pcem", lambda a, k, out: {
        "sweeps": out.iterations, "ok_links": _ok_links(out)}),
    ("estimators", "mvwa", lambda a, k, out: {"ok_links": _ok_links(out)}),
    ("likelihood", "observed_information", None),
    ("likelihood", "loglik_theta", None),
    ("params", "theta_to_xi", None),
)

# per-layer metrics printed for every workload, per traced pass
LAYER_METRICS = (
    "statistics.internal_views.self", "statistics.internal_views.calls",
    "statistics.internal_views.patterns", "statistics.internal_views.pattern_links",
    "simulator.simulate.self", "simulator.simulate.calls",
    "simulator.simulate.probes", "simulator.simulate.patterns",
    "simulator.sample_theta.self",
    "likelihood.observed_information.self", "likelihood.observed_information.total",
    "likelihood.observed_information.calls",
    "likelihood.loglik_theta.self", "likelihood.loglik_theta.calls",
    "params.theta_to_xi.self", "params.theta_to_xi.calls",
    "estimators.mvwa.self", "estimators.mvwa.calls", "estimators.mvwa.ok_links",
    "topology.GeneralNetwork.self", "topology.GeneralNetwork.calls",
    "estimators.pcem.self", "estimators.pcem.calls", "estimators.pcem.sweeps",
    "estimators.pcem.ok_links",
    "estimators.le_xi.self", "estimators.le_xi.calls",
    "estimators.le_xi.solver_iterations", "estimators.le_xi.ok_links",
    "statistics.regularity_report.self", "statistics.regularity_report.calls",
    "statistics.parse_data.self", "statistics.parse_data.calls",
    "statistics.parse_data.bytes",
    "topology.parse_topology.self", "topology.parse_topology.calls",
    "statistics.serialize_data.self",
    "bench.run_grid.self",
    "cli.main.self",
    "trace.overhead",
)


def layer_unit(name: str) -> str:
    if name.endswith((".self", ".total", ".overhead")):
        return "ref"
    return "bytes" if name.endswith(".bytes") else "count"


class Tracer:
    """Install with `with Tracer() as t:`; the originals return on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counters):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if counters is not None:
                for key, value in counters(args, kwargs, out).items():
                    counts[f"{name}.{key}"] += value
            return out
        return traced

    def __enter__(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "losstomo" or n.startswith("losstomo.")]
        for mod_name, attr, counters in TARGETS:
            home = importlib.import_module(f"losstomo.{mod_name}")
            orig = getattr(home, attr)
            name = f"{mod_name}.{attr}"
            if isinstance(orig, type):
                self._undo.append((orig, "__init__", orig.__init__))
                orig.__init__ = self._wrap(name, orig.__init__, counters)
                continue
            traced = self._wrap(name, orig, counters)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, traced)
        return self

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()
        return False

    def layer_times(self) -> dict[str, tuple[float, float, int]]:
        """name -> (self seconds, total seconds, calls).

        Self time is a span's duration minus its children's; children of one
        span run one after another, so their durations simply add.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        for (name, start, end, _), inner in zip(self.spans, child):
            acc = out[name]
            acc[0] += end - start - inner
            acc[1] += end - start
            acc[2] += 1
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))
