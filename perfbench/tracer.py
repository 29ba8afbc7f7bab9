"""Layer tracing from outside the library.

``Tracer.install`` replaces each layer's public functions with wrappers at
every name a caller looks them up by (``skeletron.slopes.eval_val``,
``skeletron.skeleton.join``, ...) and ``uninstall`` puts the originals back.

Two kinds of wrapper:

* a span records (name, start, end, parent span, time of aggregate
  children) for every call, kept in memory;
* an aggregate only counts calls and sums self time.  It serves operations
  too frequent for a span each (Puiseux arithmetic, ``valence``).  A call
  of an aggregate made inside another call of the same aggregate (``a - b``
  computing ``a + (-b)``) is not counted again.

Self time of a span is its duration minus the durations of its child spans
and of the aggregate calls made directly inside it.  Self times of all spans
and aggregates therefore add up to at most the traced wall time.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from time import perf_counter

ITEM = "bench.item"  # root span of one workload item: the benchmark's own work

LAYERS = ("puiseux", "points", "skeleton", "slopes", "oracle", "newton",
          "metric_graph", "stable", "io_json")


# (metric name, kind, owner, attributes, caller sites).  Owners and caller
# sites are attribute paths on the loaded library.  A caller site is a module
# that imported the function by name and calls it through that name; the
# wrapper is installed there too.
SITES = (
    ("puiseux.arith", "agg", "sk.PuiseuxElement",
     ("__add__", "__sub__", "__mul__", "__neg__"), ()),
    ("puiseux.from_terms", "agg", "sk.PuiseuxElement", ("from_terms",), ()),
    ("points.join", "span", "points", ("join",), ("skeleton", "sk")),
    ("points.eval_val", "span", "points", ("eval_val",), ("slopes", "sk")),
    ("skeleton.build", "span", "skeleton", ("build_skeleton_tree",), ("sk",)),
    ("skeleton.retract", "span", "skeleton", ("retract",), ("slopes", "sk")),
    ("slopes.compute_F", "span", "slopes", ("compute_F",), ("sk",)),
    ("slopes.verify", "span", "slopes", ("verify_slope_formula",), ("sk",)),
    ("oracle.eval_val_newton", "span", "oracle", ("eval_val_newton",), ()),
    ("oracle.expand", "span", "oracle", ("expand_from_roots",), ()),
    ("newton.tropical", "agg", "newton.TropicalLaurent", ("from_terms",), ()),
    ("newton.eval_trop", "span", "newton", ("eval_trop",), ("oracle", "sk")),
    ("metric_graph.make", "span", "sk.MetricGraph", ("make",), ()),
    ("metric_graph.valence", "agg", "sk.MetricGraph", ("valence",), ()),
    ("stable.prune_step", "span", "stable", ("prune_step",), ("sk",)),
    ("stable.stabilize", "span", "stable", ("stabilize",), ("sk",)),
    ("io_json.encode", "span", "io_json",
     ("slope_report_to_json", "stabilization_report_to_json"), ()),
)


def _resolve(lib, path: str):
    obj = lib
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self):
        self.spans: list = []   # (name, start, end, parent index, agg child s)
        # open frames: [span index or None, aggregate child s, name]
        self.stack: list = []
        self.agg: dict = {}     # aggregate name -> [calls, self seconds]
        self.observed: dict = {"vertices_built": 0, "vertices_F": 0,
                               "expand_max_terms": 0}
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, observe=None):
        spans, stack = self.spans, self.stack

        def wrapped(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[index] = (name, t0, t1, parent, frame[1])
            if observe is not None:
                observe(out)
            return out

        return wrapped

    def aggregate(self, name, fn):
        stack = self.stack
        counter = self.agg.setdefault(name, [0, 0.0])

        def wrapped(*args, **kwargs):
            if stack and stack[-1][2] == name:
                return fn(*args, **kwargs)
            frame = [None, 0.0, name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                counter[0] += 1
                counter[1] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        return wrapped

    def item(self, fn, *args):
        """Run one workload item under a root span."""
        return self.span(ITEM, fn)(*args)

    # -- installation -----------------------------------------------------

    def _observer(self, name):
        obs = self.observed

        def built(tree):
            obs["vertices_built"] += len(tree.placement)

        def f_vertices(F):
            obs["vertices_F"] += len(F.graph.vertices)

        def expand_terms(coeffs):
            obs["expand_max_terms"] = max(
                [obs["expand_max_terms"]] + [len(c.terms) for c in coeffs])

        return {"skeleton.build": built, "slopes.compute_F": f_vertices,
                "oracle.expand": expand_terms}.get(name)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, lib):
        for name, kind, owner_path, attrs, caller_paths in SITES:
            owner = _resolve(lib, owner_path)
            callers = [_resolve(lib, p) for p in caller_paths]
            for attr in attrs:
                raw = owner.__dict__[attr]
                static = isinstance(raw, staticmethod)
                fn = raw.__func__ if static else raw
                if kind == "agg":
                    wrapped = self.aggregate(name, fn)
                else:
                    wrapped = self.span(name, fn, self._observer(name))
                self._set(owner, attr,
                          staticmethod(wrapped) if static else wrapped)
                for module in callers:
                    if module.__dict__.get(attr) is fn:
                        self._set(module, attr, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer counts, self times (s) and ratios from the spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, self_s, total_s = {}, {}, {}
        for i, (name, t0, t1, parent, agg_child) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            own = (t1 - t0) - child[i] - agg_child
            self_s[name] = self_s.get(name, 0.0) + own
            if parent < 0 or spans[parent][0] != name:
                total_s[name] = total_s.get(name, 0.0) + (t1 - t0)
        for name, (n, s) in self.agg.items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + s

        def under(name, parent_name):
            return sum(1 for s in spans
                       if s[0] == name and s[3] >= 0
                       and spans[s[3]][0] == parent_name)

        m = {}
        for name, *_ in SITES:
            m[f"{name}.calls"] = calls.get(name, 0)
            m[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in ("skeleton.build", "skeleton.retract", "slopes.verify",
                     "oracle.eval_val_newton", "stable.stabilize"):
            m[f"{name}.total_s"] = total_s.get(name, 0.0)
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(
                (v for k, v in self_s.items() if k.split(".")[0] == layer),
                0.0)
        m["bench.self_s"] = self_s.get(ITEM, 0.0)
        builds = calls.get("skeleton.build", 0)
        retracts = calls.get("skeleton.retract", 0)
        m["skeleton.vertices"] = (self.observed["vertices_built"] / builds
                                  if builds else 0.0)
        m["skeleton.retract.joins_per_call"] = (
            under("points.join", "skeleton.retract") / retracts
            if retracts else 0.0)
        m["slopes.eval_val_per_vertex"] = (
            under("points.eval_val", "slopes.compute_F")
            / self.observed["vertices_F"]
            if self.observed["vertices_F"] else 0.0)
        m["oracle.expand.max_terms"] = self.observed["expand_max_terms"]
        m["trace.spans"] = len(spans)
        return m

    def write(self, path: Path):
        """Write the spans as gzipped JSON rows [name, start, end, parent]
        with times in microseconds from the first span, plus the
        aggregate counters."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round((a - origin) * 1e6), round((b - origin) * 1e6), p]
                for n, a, b, p, _ in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"spans": rows, "aggregates": self.agg}, fh)
