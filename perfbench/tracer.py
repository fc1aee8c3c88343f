"""Spans around the public functions of each stonedual module.

Only the traced run installs a Tracer.  It replaces every binding of a
traced function in every loaded ``stonedual.*`` module, because internal
callers reach them through names such as ``from .algebra import classify``.
Spans stay in memory as ``(name, start, end, parent, op, self_s, count)``
and are written once, when the run ends.  ``self_s`` is the span's duration
minus the time its child spans cover; ``count`` is the per-function work
counter named in COUNTERS, or None.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
from time import perf_counter

TRACED = {
    "zoo": ("enumerate_categories",),
    "duality": ("iso_categories", "category_signature", "germ_category",
                "unit_eta", "counit_epsilon", "morphism_to_cofunctor",
                "verify_adjunction", "verify_birestriction_equivalence"),
    "algebra": ("classify", "make_algebra", "projection_gba",
                "infer_cosupport", "deterministic_sets",
                "partial_isomorphisms", "bd_subalgebra", "iso_algebras",
                "check_morphism"),
    "gba": ("make_gba", "verify_stone_duality"),
    "category": ("make_category", "slice_semigroup", "check_cofunctor",
                 "compose_cofunctors", "cofunctor_to_morphism"),
    "io": ("save_instance", "load_instance"),
    "cli": ("run",),
}

# per-function work counters: (metric suffix, unit, better, fn(args, result))
COUNTERS = {
    "algebra.classify": ("elements", "count", "lower",
                         lambda args, res: args[0].n),
    "algebra.make_algebra": ("cells", "count", "lower",
                             lambda args, res: len(args[0]) ** 2),
    "category.slice_semigroup": ("elements", "count", "lower",
                                 lambda args, res: res.n),
    "duality.iso_categories": ("hits", None, None,
                               lambda args, res: int(res is not None)),
    "zoo.enumerate_categories": ("classes", None, None,
                                 lambda args, res: len(res)),
    "io.save_instance": ("bytes", "B", "lower",
                         lambda args, res: os.path.getsize(args[1])),
    "io.load_instance": ("bytes", "B", "lower",
                         lambda args, res: os.path.getsize(args[0])),
}


def traced_names():
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for name in traced_names():
        spec.append((f"{name}.calls", "count", "lower"))
        spec.append((f"{name}.self_s", "s", "lower"))
    for name, (suffix, unit, better, _) in COUNTERS.items():
        if unit is not None:
            spec.append((f"{name}.{suffix}", unit, better))
    spec += [("duality.iso_categories.hit_ratio", "ratio", "higher"),
             ("zoo.completions", "count", "lower"),
             ("zoo.classes", "count", "higher"),
             ("zoo.class_yield", "ratio", "higher"),
             ("zoo.iso_calls", "count", "lower"),
             ("zoo.iso_hits", "count", "higher"),
             ("trace.overhead_frac", "ratio", "lower"),
             ("trace.attributed_frac", "ratio", "higher")]
    return spec


class Tracer:
    """Span recorder; ``op`` is set by the workload before each operation."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []     # indices of open spans
        self._child = []     # time covered by children of each open span

    def install(self):
        """Wrap every traced function at every stonedual attribute bound
        to it."""
        import stonedual  # noqa: F401  (loads every submodule but cli)
        import stonedual.cli  # noqa: F401
        wrapped = {}
        for mod, fns in TRACED.items():
            module = sys.modules[f"stonedual.{mod}"]
            for fn in fns:
                original = getattr(module, fn)
                name = f"{mod}.{fn}"
                count = COUNTERS.get(name, (None, None, None, None))[3]
                wrapped[id(original)] = self._wrap(name, original, count)
        for modname, module in list(sys.modules.items()):
            if modname != "stonedual" and not modname.startswith("stonedual."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and callable(value):
                    setattr(module, attr, wrapped[id(value)])

    def _wrap(self, name, fn, count):
        spans, stack, child = self.spans, self._stack, self._child

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # the slot is filled with a tuple of plain values when the call
            # returns, which the garbage collector stops scanning
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                own = end - start - child.pop()
                if child:
                    child[-1] += end - start
                spans[index] = (name, start, end, parent, self.op, own, None)
            if count is not None:
                spans[index] = spans[index][:6] + (count(args, result),)
            return result

        return traced

    def layer_metrics(self):
        """Per-layer totals: calls and self time of every traced function,
        plus the work counters; and the self time of all spans opened
        during timed operations (op > 0)."""
        calls = dict.fromkeys(traced_names(), 0)
        self_s = dict.fromkeys(traced_names(), 0.0)
        counts = {name: 0 for name in COUNTERS}
        completions = iso_calls = iso_hits = 0
        timed_self_s = 0.0
        for name, _, _, parent, op, own, count in self.spans:
            calls[name] += 1
            self_s[name] += own
            if op > 0:
                timed_self_s += own
            if count is not None:
                counts[name] += count
            if (parent >= 0
                    and self.spans[parent][0] == "zoo.enumerate_categories"):
                if name == "category.make_category":
                    completions += 1
                elif name == "duality.iso_categories":
                    iso_calls += 1
                    iso_hits += count
        out = {}
        for name in traced_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name, (suffix, unit, _, _) in COUNTERS.items():
            if unit is not None:
                out[f"{name}.{suffix}"] = counts[name]
        all_iso = calls["duality.iso_categories"]
        out["duality.iso_categories.hit_ratio"] = (
            counts["duality.iso_categories"] / all_iso if all_iso else 0.0)
        classes = counts["zoo.enumerate_categories"]
        out["zoo.completions"] = completions
        out["zoo.classes"] = classes
        out["zoo.class_yield"] = classes / completions if completions else 0.0
        out["zoo.iso_calls"] = iso_calls
        out["zoo.iso_hits"] = iso_hits
        return out, timed_self_s

    def write(self, path):
        """Write every span as one JSON document (gzip-compressed)."""
        doc = {"fields": ["name", "start", "end", "parent", "op", "self_s",
                          "count"],
               "spans": self.spans}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
