"""The three workloads: corpus, ladder and relabel.

Each workload has ``setup(rng, workdir)`` and ``run(ctx, ops, rng,
seconds)``.  Set-up builds every input from the seed; ``run`` hands the
program only raw tables or files, times each call into it with ``Ops``,
and checks each answer outside the timer.  Every operation builds its
instances afresh, so the per-object caches of the program never carry over
from one operation to the next.  ``run`` returns the workload's stage
times for the detail line.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import statistics
from functools import partial
from time import perf_counter

import stonedual as sd
from stonedual import cli

from tables import (Mismatch, check_algebra_iso, check_category_iso,
                    check_rejection, corrupt, expect, permutation,
                    raw_algebra, raw_category, relabel_algebra,
                    relabel_category)

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)

# OEIS A058129: monoids of order 1..5 up to isomorphism; the one-object
# categories of the corpus are exactly these monoids
A058129 = (1, 2, 7, 35, 228)


class Ops:
    """Times operations and counts the ones that fail.

    ``run`` times ``call()`` alone, then passes its result to
    ``check``, which raises on a wrong answer and otherwise returns a
    JSON-able verdict record.  An exception from either is a failed op.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.sample_ms = []       # op times that enter the percentiles
        self.timed_s = 0.0        # all successful op time: the wall_s
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.verdicts = []

    def run(self, label, call, check, sample=True):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        try:
            start = perf_counter()
            result = call()
            elapsed = perf_counter() - start
            self.verdicts.append([label, check(result)])
        except Exception as exc:  # any crash or wrong answer fails the op
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None, None
        self.timed_s += elapsed
        if sample:
            self.sample_ms.append(elapsed * 1000.0)
        return result, elapsed


def _relabelled_category(rng, raw):
    return relabel_category(raw, permutation(rng, len(raw[0])),
                            permutation(rng, len(raw[1])))


# -- corpus ------------------------------------------------------------------

def corpus_setup(rng, workdir):
    named = [(f"k_{n}", sd.gen_pair_groupoid(n)) for n in (1, 2, 3)]
    named.append(("free_arrow", sd.gen_free_arrow()))
    return {"named": [(name, raw_category(C)) for name, C in named]}


def _check_enumeration(classes):
    shape = {}
    for C in classes:
        key = f"{C.n_obj}x{C.n_arr}"
        shape[key] = shape.get(key, 0) + 1
    monoids = tuple(shape.get(f"1x{n}", 0) for n in range(1, 6))
    expect(monoids == A058129, f"one-object counts {monoids} != A058129")
    expect(shape == EXPECTED["corpus"]["classes_by_shape"],
           f"class counts by objects x arrows {shape} differ from the pins")
    return sorted(shape.items())


def _sweep_op(raw):
    C = sd.make_category(*raw)
    rep = sd.verify_adjunction(C)
    G = sd.germ_category(sd.slice_semigroup(C)).category
    return rep, raw_category(G), sd.iso_categories(G, C)


def _check_sweep(raw):
    def check(result):
        rep, germ_raw, iso = result
        expect(rep.lines and rep.passed,
               f"triangle identity failed: {rep.failures()}")
        check_category_iso(germ_raw, raw, iso)
        return [[name for _, name, _ in rep.lines], iso]
    return check


def corpus_run(ctx, ops, rng, seconds):
    classes, enumerate_s = ops.run(
        "enumerate", lambda: sd.enumerate_categories(3, 5),
        _check_enumeration, sample=False)
    if classes is None:
        return {"enumerate_s": None}
    members = ctx["named"] + [(f"enum_{i:03d}", raw_category(C))
                              for i, C in enumerate(classes)]
    passes = max(3, seconds // 2)
    sweep_s = 0.0
    for p in range(passes):
        order = permutation(rng, len(members))
        for k in order:
            name, raw = members[k]
            relabelled = _relabelled_category(rng, raw)
            _, dt = ops.run(f"pass{p}/{name}",
                            lambda: _sweep_op(relabelled),
                            _check_sweep(relabelled))
            sweep_s += dt or 0.0
    return {"enumerate_s": enumerate_s, "sweep_s": sweep_s, "passes": passes,
            "sweep_ops": passes * len(members)}


# -- ladder ------------------------------------------------------------------

LADDER = (("pt_3", sd.gen_pt, (3,)), ("pt_4", sd.gen_pt, (4,)),
          ("i_3", sd.gen_i, (3,)), ("i_4", sd.gen_i, (4,)),
          ("triangular_3", sd.gen_triangular, (3,)),
          ("triangular_4", sd.gen_triangular, (4,)),
          ("k_3", sd.gen_pair_groupoid, (3,)),
          ("k_4", sd.gen_pair_groupoid, (4,)),
          ("free_arrow", sd.gen_free_arrow, ()))
# relabelled copies per instance, one roundtrip each.  pt_3 and k_3 take
# about 0.1s each.  Their 16 copies sit between the 3 faster and the 4
# slower instances, so the median of the 23 ops falls in the middle of a
# group of like roundtrips, taken over many permutations.
COPIES = {"pt_3": 8, "k_3": 8}


def ladder_setup(rng, workdir):
    files = []
    for name, gen, args in LADDER:
        obj = gen(*args)
        for k in range(COPIES.get(name, 1)):
            # a relabelled copy of a valid instance is valid, so it is
            # built without a second validation pass
            if isinstance(obj, sd.BiUnaryAlgebra):
                inst = sd.BiUnaryAlgebra(*relabel_algebra(
                    raw_algebra(obj), permutation(rng, obj.n)))
                size = inst.n
            else:
                inst = sd.FinCat(*_relabelled_category(rng, raw_category(obj)))
                size = inst.n_arr
            path = os.path.join(workdir, f"{name}-{k}.json")
            sd.save_instance(inst, path)
            files.append((name, path, inst, size))
    return {"files": files}


def _parse_tuple(text):
    body = text.strip()[1:-1]
    return [int(v) for v in body.split(",")] if body else []


def _check_roundtrip(name, inst, size):
    pin = EXPECTED["ladder"][name]

    def check(result):
        code, out = result
        expect(code == 0, f"roundtrip exit code {code}")
        expect(size == pin["size"], f"{size} elements, expected {pin['size']}")
        passed, info = [], {}
        for line in out.splitlines():
            if line.startswith("PASS "):
                passed.append(line[5:])
            elif line.startswith("INFO "):
                key, _, value = line[5:].partition("=")
                info[key] = value
            else:
                expect(line.startswith("# "), f"unexpected line {line!r}")
        expect(passed == pin["checks"], f"checks {passed} != {pin['checks']}")
        if "unit_iso" in pin:
            expect(info.get("unit-iso") == str(pin["unit_iso"]),
                   f"unit-iso={info.get('unit-iso')}")
        else:
            omap = _parse_tuple(info["object-map"])
            amap = _parse_tuple(info["arrow-map"])
            expect(sorted(omap) == list(range(len(inst.objects))),
                   "object map is not a bijection")
            expect(sorted(amap) == list(range(size)),
                   "arrow map is not a bijection")
        return [code, out]
    return check


def _roundtrip_op(path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(["roundtrip", path])
    return code, buf.getvalue()


def _check_stone(rep):
    expect(rep.passed and rep.lines, f"Stone duality failed: {rep.failures()}")
    return [name for _, name, _ in rep.lines]


def ladder_run(ctx, ops, rng, seconds):
    files = ctx["files"]
    times = {}
    for k in permutation(rng, len(files)):
        name, path, inst, size = files[k]
        _, dt = ops.run(name, lambda: _roundtrip_op(path),
                        _check_roundtrip(name, inst, size))
        times.setdefault(name, []).append(dt)
        # large structures of the last op sit in reference cycles; free
        # them so the peak RSS does not depend on the visit order
        gc.collect()
    for name, _, inst, _ in files:
        if isinstance(inst, sd.BiUnaryAlgebra):
            ops.run(f"stone/{name}", lambda: sd.verify_stone_duality(
                sd.projection_gba(inst)[0]), _check_stone, sample=False)
    return {f"roundtrip_s.{name}": statistics.median(ts) if None not in ts
            else None for name, ts in times.items()}


# -- relabel -----------------------------------------------------------------

# copies of each base per round.  A round has 813 ops; per round, 24
# samples lie beyond the 97th percentile: the 8 larger semigroup queries
# and the 16 slowest of the 35 pt_3 queries.  It thus sits in the middle of
# a group of like queries, not at the edge between two groups.
RELABEL_SEMIGROUPS = (("pt_3", sd.gen_pt, (3,), 35),
                      ("i_3", sd.gen_i, (3,), 10),
                      ("triangular_3", sd.gen_triangular, (3,), 10),
                      ("triangular_4", sd.gen_triangular, (4,), 5),
                      ("i_4", sd.gen_i, (4,), 2), ("pt_4", sd.gen_pt, (4,), 1))
RELABEL_CATEGORY_COPIES = 10


def relabel_setup(rng, workdir):
    semigroups = [(name, raw_algebra(gen(*args)), copies)
                  for name, gen, args, copies in RELABEL_SEMIGROUPS]
    categories = [(f"k_{n}", raw_category(sd.gen_pair_groupoid(n)))
                  for n in range(2, 7)]
    categories.append(("free_arrow", raw_category(sd.gen_free_arrow())))
    classes = sd.enumerate_categories(3, 4)
    if len(classes) != EXPECTED["relabel"]["classes"]:
        raise Mismatch(f"{len(classes)} classes with <= 3 objects and "
                       f"<= 4 arrows, expected {EXPECTED['relabel']['classes']}")
    categories += [(f"enum_{i:02d}", raw_category(C))
                   for i, C in enumerate(classes)]
    return {"semigroups": semigroups, "categories": categories}


def _algebra_op(raw, relabelled, bad):
    S, T = sd.make_algebra(*raw), sd.make_algebra(*relabelled)
    m = sd.iso_algebras(S, T)
    good = [] if m is None else [
        sd.check_morphism(sd.SemigroupMorphism(S, T, m), t)
        for t in (1, 2, 3, 4)]
    rejected = [sd.check_morphism(sd.SemigroupMorphism(S, T, bad), t)
                for t in (1, 2, 3, 4)]
    return m, good, rejected


def _check_algebra_op(raw, relabelled, bad):
    def check(result):
        m, good, rejected = result
        check_algebra_iso(raw, relabelled, m)
        for v in good:
            expect(v.ok, f"isomorphism fails type {v.mtype}: {v.failed}")
        for v in rejected:
            check_rejection(raw, relabelled, bad, v)
        return [m, [[v.failed, v.witness] for v in rejected]]
    return check


def _category_op(raw, relabelled):
    return sd.iso_categories(sd.make_category(*raw),
                             sd.make_category(*relabelled))


def _check_category_op(raw, relabelled):
    def check(iso):
        check_category_iso(raw, relabelled, iso)
        return iso
    return check


def _round(ctx, rng):
    """One round of queries in seeded order, each against a fresh copy."""
    queries = []
    for name, raw, copies in ctx["semigroups"]:
        for _ in range(copies):
            p = permutation(rng, len(raw[0]))
            relabelled = relabel_algebra(raw, p)
            bad = corrupt(raw, relabelled, p, rng)
            queries.append((name, partial(_algebra_op, raw, relabelled, bad),
                            _check_algebra_op(raw, relabelled, bad)))
    for name, raw in ctx["categories"]:
        for _ in range(RELABEL_CATEGORY_COPIES):
            relabelled = _relabelled_category(rng, raw)
            queries.append((name, partial(_category_op, raw, relabelled),
                            _check_category_op(raw, relabelled)))
    return [queries[k] for k in permutation(rng, len(queries))]


def relabel_run(ctx, ops, rng, seconds):
    rounds = max(1, seconds // 6)
    for r in range(rounds):
        for name, call, check in _round(ctx, rng):
            ops.run(f"round{r}/{name}", call, check)
    return {"rounds": rounds}


WORKLOADS = {
    "corpus": (corpus_setup, corpus_run),
    "ladder": (ladder_setup, ladder_run),
    "relabel": (relabel_setup, relabel_run),
}
