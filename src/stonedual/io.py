"""JSON files for the four instance kinds, in a canonical layout.

Tables store element indices, never names.  Canonical form sorts keys and
indents by two, so `dumps(loads(text)) == text` holds byte for byte on
canonically formatted files.  Morphism and cofunctor files reference their
endpoint files by path, resolved relative to the referencing file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .algebra import BiUnaryAlgebra, SemigroupMorphism, make_algebra
from .category import Cofunctor, FinCat, make_category
from .errors import InputError

KINDS = ("semigroup", "category", "morphism", "cofunctor")


@dataclass(frozen=True)
class MorphismFile:
    """A morphism together with the endpoint paths it was written with."""

    morphism: SemigroupMorphism
    source_path: str
    target_path: str


@dataclass(frozen=True)
class CofunctorFile:
    cofunctor: Cofunctor
    source_path: str
    target_path: str


def _need(payload, key, typ):
    if key not in payload:
        raise InputError(f"missing key {key!r}")
    value = payload[key]
    if not isinstance(value, typ):
        raise InputError(f"key {key!r} must be {typ.__name__}")
    return value


def _index_list(payload, key, bound, allow_gap=False):
    values = _need(payload, key, list)
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise InputError(f"{key} entries must be integers")
        if allow_gap and v == -1:
            continue
        if not 0 <= v < bound:
            raise InputError(f"{key} index {v} out of range")
    return values


def _index_table(payload, key, rows, cols, bound, allow_gap=False):
    table = _need(payload, key, list)
    if len(table) != rows:
        raise InputError(f"{key} must have {rows} rows")
    for row in table:
        if not isinstance(row, list) or len(row) != cols:
            raise InputError(f"{key} rows must have {cols} entries")
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool):
                raise InputError(f"{key} entries must be integers")
            if allow_gap and v == -1:
                continue
            if not 0 <= v < bound:
                raise InputError(f"{key} index {v} out of range")
    return table


def _names(payload, key):
    names = _need(payload, key, list)
    if not names:
        raise InputError(f"{key} must be non-empty")
    if any(not isinstance(s, str) for s in names):
        raise InputError(f"{key} entries must be strings")
    if len(set(names)) != len(names):
        raise InputError(f"{key} are not unique")
    return names


def semigroup_from_dict(payload):
    names = _names(payload, "elements")
    n = len(names)
    mult = _index_table(payload, "mult", n, n, n)
    star = _index_list(payload, "star", n)
    if len(star) != n:
        raise InputError("star must have one entry per element")
    plus = None
    if payload.get("plus") is not None:
        plus = _index_list(payload, "plus", n)
        if len(plus) != n:
            raise InputError("plus must have one entry per element")
    zero = payload.get("zero")
    if zero is not None:
        if not isinstance(zero, int) or isinstance(zero, bool) \
                or not 0 <= zero < n:
            raise InputError("zero index out of range")
    return make_algebra(names, mult, star, plus, zero)


def semigroup_to_dict(S):
    payload = {
        "kind": "semigroup",
        "elements": list(S.names),
        "mult": [list(row) for row in S.mult],
        "star": list(S.star),
    }
    if S.plus is not None:
        payload["plus"] = list(S.plus)
    if S.zero is not None:
        payload["zero"] = S.zero
    return payload


def category_from_dict(payload):
    objects = _names(payload, "objects")
    n_obj = len(objects)
    entries = _need(payload, "arrows", list)
    if not entries:
        raise InputError("arrows must be non-empty")
    arrows, d, r = [], [], []
    for item in entries:
        if not isinstance(item, dict):
            raise InputError("arrows entries must be objects")
        name = item.get("name")
        if not isinstance(name, str):
            raise InputError("arrow name must be a string")
        arrows.append(name)
        for key, into in (("dom", d), ("cod", r)):
            v = item.get(key)
            if not isinstance(v, int) or isinstance(v, bool) \
                    or not 0 <= v < n_obj:
                raise InputError(f"arrow {key} index out of range")
            into.append(v)
    if len(set(arrows)) != len(arrows):
        raise InputError("arrow names are not unique")
    n_arr = len(arrows)
    unit = _index_list(payload, "units", n_arr)
    if len(unit) != n_obj:
        raise InputError("units must have one entry per object")
    comp = _index_table(payload, "comp", n_arr, n_arr, n_arr, allow_gap=True)
    return make_category(objects, arrows, d, r, unit, comp)


def category_to_dict(C):
    return {
        "kind": "category",
        "objects": list(C.objects),
        "arrows": [{"name": C.arrows[a], "dom": C.d[a], "cod": C.r[a]}
                   for a in range(C.n_arr)],
        "units": list(C.unit),
        "comp": [list(row) for row in C.comp],
    }


def _endpoint(payload, key, base_dir, want):
    rel = _need(payload, key, str)
    obj = load_instance(os.path.join(base_dir, rel))
    if not isinstance(obj, want):
        raise InputError(f"{key} file is not a {want.__name__.lower()}")
    return rel, obj


def morphism_from_dict(payload, base_dir):
    src_path, S = _endpoint(payload, "source", base_dir, BiUnaryAlgebra)
    tgt_path, T = _endpoint(payload, "target", base_dir, BiUnaryAlgebra)
    fmap = _index_list(payload, "map", T.n)
    if len(fmap) != S.n:
        raise InputError("map must have one entry per source element")
    f = SemigroupMorphism(S, T, tuple(fmap))
    return MorphismFile(f, src_path, tgt_path)


def morphism_to_dict(mf):
    return {
        "kind": "morphism",
        "source": mf.source_path,
        "target": mf.target_path,
        "map": list(mf.morphism.map),
    }


def cofunctor_from_dict(payload, base_dir):
    src_path, C = _endpoint(payload, "source", base_dir, FinCat)
    tgt_path, D = _endpoint(payload, "target", base_dir, FinCat)
    anchor = _index_list(payload, "anchor", C.n_obj)
    if len(anchor) != D.n_obj:
        raise InputError("anchor must have one entry per target object")
    mu = _index_table(payload, "mu", C.n_arr, D.n_obj, D.n_obj,
                      allow_gap=True)
    rho1 = _index_table(payload, "rho1", C.n_arr, D.n_obj, D.n_arr,
                        allow_gap=True)
    F = Cofunctor(C, D, anchor, mu, rho1)
    return CofunctorFile(F, src_path, tgt_path)


def cofunctor_to_dict(cf):
    F = cf.cofunctor
    return {
        "kind": "cofunctor",
        "source": cf.source_path,
        "target": cf.target_path,
        "anchor": list(F.anchor),
        "mu": [list(row) for row in F.mu],
        "rho1": [list(row) for row in F.rho1],
    }


def instance_to_dict(obj):
    if isinstance(obj, BiUnaryAlgebra):
        return semigroup_to_dict(obj)
    if isinstance(obj, FinCat):
        return category_to_dict(obj)
    if isinstance(obj, MorphismFile):
        return morphism_to_dict(obj)
    if isinstance(obj, CofunctorFile):
        return cofunctor_to_dict(obj)
    raise InputError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def save_instance(obj, path):
    text = dumps_canonical(instance_to_dict(obj))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc


def load_instance(path):
    """Read one instance file; morphisms and cofunctors pull in their
    endpoint files relative to the referencing file's directory."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path} nests too deeply") from exc
    if not isinstance(payload, dict):
        raise InputError("top level must be a JSON object")
    kind = payload.get("kind")
    if kind not in KINDS:
        raise InputError(f"unknown kind {kind!r}")
    base_dir = os.path.dirname(os.path.abspath(path))
    if kind == "semigroup":
        return semigroup_from_dict(payload)
    if kind == "category":
        return category_from_dict(payload)
    if kind == "morphism":
        return morphism_from_dict(payload, base_dir)
    return cofunctor_from_dict(payload, base_dir)
