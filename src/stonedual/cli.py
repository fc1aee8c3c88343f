"""Command line front end.

Exit codes: 0 all checks pass, 1 a mathematical check failed (a witness is
printed), 2 the input is malformed or too large: no table with more than
SIZE_BOUND (1000) elements, arrows, slices or bislices is built.

`adjunction` takes FILE or --corpus DIR, not both.  With --corpus it prints one
PASS, FAIL or ERROR line per file, going on past a file it cannot read or check;
it exits 2 if any file gave an ERROR, else 1 if any gave a FAIL, else 0.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .algebra import (BiUnaryAlgebra, SemigroupMorphism, check_morphism,
                      classify)
from .category import (FinCat, _cofunctor_diff, check_cofunctor,
                       cofunctor_to_covering, covering_to_cofunctor,
                       slice_semigroup)
from .duality import (counit_epsilon, germ_category, iso_categories,
                      unit_eta, verify_adjunction,
                      verify_birestriction_equivalence)
from .errors import InputError, MathFail
from .io import CofunctorFile, MorphismFile, load_instance, save_instance
from .report import Report, format_witness
from .zoo import (gen_free_arrow, gen_i, gen_pair_groupoid, gen_pt,
                  gen_triangular)

__all__ = ["main", "run"]

_GENERATORS = {
    "pt": (gen_pt, 1),
    "i": (gen_i, 1),
    "triangular": (gen_triangular, 1),
    "pair-groupoid": (gen_pair_groupoid, 1),
    "free-arrow": (gen_free_arrow, 0),
}


def _emit(rep):
    print(rep.render())
    return 0 if rep.passed else 1


def _cmd_check(args):
    obj = load_instance(args.file)
    rep = Report()
    if isinstance(obj, BiUnaryAlgebra):
        rep.check("semigroup-axioms", True)
        rep.info("elements", obj.n)
    elif isinstance(obj, FinCat):
        rep.check("category-axioms", True)
        rep.info("objects", obj.n_obj)
        rep.info("arrows", obj.n_arr)
    elif isinstance(obj, MorphismFile):
        verdict = check_morphism(obj.morphism, 1)
        rep.check("type-1-morphism", verdict.ok,
                  None if verdict.ok else (verdict.failed, verdict.witness))
    elif isinstance(obj, CofunctorFile):
        rep.check("cofunctor-laws", True)
        flags = check_cofunctor(obj.cofunctor)
        for name, value in flags.flags.items():
            rep.info(name, value)
    return _emit(rep)


def _load_as(path, want, what):
    obj = load_instance(path)
    if not isinstance(obj, want):
        raise InputError(f"{path} is not a {what} file")
    return obj


def _cmd_classify(args):
    S = _load_as(args.file, BiUnaryAlgebra, "semigroup")
    print(classify(S).render(S.names))
    return 0


def _cmd_germs(args):
    S = _load_as(args.file, BiUnaryAlgebra, "semigroup")
    G = germ_category(S)
    save_instance(G.category, args.output)
    rep = Report()
    rep.check("germ-category", True)
    rep.info("objects", G.category.n_obj)
    rep.info("arrows", G.category.n_arr)
    return _emit(rep)


def _cmd_slices(args):
    C = _load_as(args.file, FinCat, "category")
    T = slice_semigroup(C, bislices_only=args.bislices)
    save_instance(T, args.output)
    rep = Report()
    rep.check("bislice-semigroup" if args.bislices else "slice-semigroup",
              True)
    rep.info("elements", T.n)
    return _emit(rep)


def _cmd_roundtrip(args):
    obj = load_instance(args.file)
    if isinstance(obj, BiUnaryAlgebra):
        S = obj
        cls = classify(S)
        rep = Report("roundtrip at a semigroup")
        eta = unit_eta(S)
        # never fails: unit_eta raises with a witness first
        rep.check("unit-injective", len(set(eta.map)) == S.n)
        iso = len(set(eta.map)) == eta.target.n
        rep.check("unit-iso-iff-boolean-restriction",
                  iso == cls.boolean_restriction, (iso,))
        rep.info("unit-iso", iso)
        rep.merge(verify_adjunction(S), prefix="triangle/")
        if cls.boolean_birestriction:
            rep.merge(verify_birestriction_equivalence(S), prefix="bd/")
        return _emit(rep)
    if isinstance(obj, FinCat):
        C = obj
        rep = Report("roundtrip at a category")
        eps = counit_epsilon(C)
        # never fails: counit_epsilon raises with a witness first
        rep.check("counit-bijective-on-arrows",
                  check_cofunctor(eps).bijective_on_arrows)
        rep.merge(verify_adjunction(C), prefix="triangle/")
        S_C = slice_semigroup(C)
        res = iso_categories(germ_category(S_C).category, C)
        rep.check("germ-of-slices-iso-to-original", res is not None)
        if res is not None:
            rep.info("object-map", res[0])
            rep.info("arrow-map", res[1])
        return _emit(rep)
    raise InputError("roundtrip expects a semigroup or category file")


def _cmd_adjunction(args):
    if args.corpus is None:
        return _emit(verify_adjunction(load_instance(args.file)))
    try:
        files = sorted(f for f in os.listdir(args.corpus) if f.endswith(".json"))
    except OSError as exc:
        raise InputError(f"cannot list {args.corpus}: {exc.strerror}")
    if not files:
        raise InputError(f"no .json files in {args.corpus}")
    status = 0
    for name in files:
        try:
            obj = load_instance(os.path.join(args.corpus, name))
            rep = verify_adjunction(obj)
        except InputError as exc:
            print(f"ERROR {name} {exc}")
            status = 2
            continue
        except MathFail as exc:
            print(f"FAIL {name} " + _describe(exc))
            status = max(status, 1)
            continue
        line = ("PASS " if rep.passed else "FAIL ") + name
        if not rep.passed:
            line += f" witness={format_witness(rep.failures()[0])}"
            status = max(status, 1)
        print(line)
    return status


def _cmd_morphism_check(args):
    S = _load_as(args.source, BiUnaryAlgebra, "semigroup")
    T = _load_as(args.target, BiUnaryAlgebra, "semigroup")
    try:
        entries = tuple(int(part) for part in args.map.split(","))
    except ValueError:
        raise InputError("MAP must be comma-separated integers")
    f = SemigroupMorphism(S, T, entries)
    verdict = check_morphism(f, args.type)
    rep = Report()
    rep.check(f"type-{args.type}-morphism", verdict.ok,
              None if verdict.ok else (verdict.failed, verdict.witness))
    return _emit(rep)


def _cmd_translate(args):
    cf = _load_as(args.file, CofunctorFile, "cofunctor")
    g = cofunctor_to_covering(cf.cofunctor)
    print("f0=" + format_witness(g.f0))
    print("f1=" + format_witness(g.f1))
    rep = Report()
    diff = _cofunctor_diff(covering_to_cofunctor(g), cf.cofunctor)
    rep.check("covering-round-trip-exact", diff is None, diff)
    return _emit(rep)


def _cmd_zoo(args):
    if args.name not in _GENERATORS:
        raise InputError(f"unknown zoo generator {args.name!r}; "
                         "choose from " + ", ".join(sorted(_GENERATORS)))
    gen, arity = _GENERATORS[args.name]
    if len(args.args) != arity:
        raise InputError(f"{args.name} takes {arity} argument(s)")
    obj = gen(*args.args)
    save_instance(obj, args.output)
    if isinstance(obj, BiUnaryAlgebra):
        print(f"wrote semigroup with {obj.n} elements to {args.output}")
    else:
        print(f"wrote category with {obj.n_obj} objects and "
              f"{obj.n_arr} arrows to {args.output}")
    return 0


# built once per process: a parse does not change the parser
@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sdl",
        description="Finite noncommutative Stone duality toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate an instance file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("classify", help="print classification flags")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("germs", help="write the germ category")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_germs)

    p = sub.add_parser("slices", help="write the slice semigroup")
    p.add_argument("file")
    p.add_argument("--bislices", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_slices)

    p = sub.add_parser("roundtrip", help="run the duality checks both ways")
    p.add_argument("file")
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("adjunction", help="verify the triangle identity")
    p.add_argument("file", nargs="?")
    p.add_argument("--corpus", metavar="DIR")
    p.set_defaults(func=_cmd_adjunction)

    p = sub.add_parser("morphism", help="morphism utilities")
    msub = p.add_subparsers(dest="morphism_command", required=True)
    mc = msub.add_parser("check", help="check a map between semigroup files")
    mc.add_argument("source")
    mc.add_argument("target")
    mc.add_argument("map", metavar="MAP",
                    help="comma-separated target indices, one per source "
                         "element")
    mc.add_argument("--type", type=int, choices=(1, 2, 3, 4), required=True)
    mc.set_defaults(func=_cmd_morphism_check)

    p = sub.add_parser("translate",
                       help="covering-functor view of a cofunctor")
    p.add_argument("file")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("zoo", help="write a built-in example instance")
    p.add_argument("name", metavar="NAME",
                   help="pt | i | triangular | pair-groupoid | free-arrow")
    p.add_argument("args", metavar="ARGS", nargs="*", type=int)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_zoo)

    return parser


def _describe(exc):
    name = getattr(exc, "axiom", None) or type(exc).__name__
    text = f"{name}: {exc}"
    if getattr(exc, "witness", None) is not None:
        text += f" witness={format_witness(exc.witness)}"
    return text


def run(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "adjunction" and \
            (args.file is None) == (args.corpus is None):
        parser.error("adjunction needs exactly one of FILE and --corpus DIR")
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MathFail as exc:
        print("FAIL " + _describe(exc))
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
