"""JSON files for the four instance kinds, in a canonical layout.

Tables store element indices, never names.  Canonical form sorts keys and
indents by two, so `dumps(loads(text)) == text` holds byte for byte on
canonically formatted files.  Morphism and cofunctor files reference their
endpoint files by path, resolved relative to the referencing file.

The loader checks JSON types only (strings, integer lists and tables,
arrow objects); shapes, index ranges and laws are checked by the
constructors it hands the raw tables to, shapes and ranges first.
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


def _ints(v):
    return isinstance(v, list) and {int}.issuperset(map(type, v))


# what each key must hold; shapes and ranges are the constructors' to check
_TYPES = {
    "str": ("a string", lambda v: isinstance(v, str)),
    "int": ("an integer", lambda v: type(v) is int),
    "ints": ("a list of integers", _ints),
    "table": ("a list of integer lists",
              lambda v: isinstance(v, list) and all(map(_ints, v))),
    "names": ("a list of strings",
              lambda v: isinstance(v, list) and {str}.issuperset(map(type, v))),
    "arrows": ("a list of objects with a string name and integer dom and cod",
               lambda v: isinstance(v, list) and all(
                   isinstance(a, dict) and isinstance(a.get("name"), str)
                   and type(a.get("dom")) is type(a.get("cod")) is int
                   for a in v)),
}


def _need(payload, key, kind, optional=False):
    """payload[key] after checking its JSON type; an optional key may be
    absent or null, giving None."""
    value = payload.get(key)
    if optional and value is None:
        return None
    if key not in payload:
        raise InputError(f"missing key {key!r}")
    what, ok = _TYPES[kind]
    if not ok(value):
        raise InputError(f"{key} must be {what}")
    return value


def semigroup_from_dict(payload):
    return make_algebra(_need(payload, "elements", "names"),
                        _need(payload, "mult", "table"),
                        _need(payload, "star", "ints"),
                        _need(payload, "plus", "ints", optional=True),
                        _need(payload, "zero", "int", optional=True))


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
    arrows = _need(payload, "arrows", "arrows")
    return make_category(_need(payload, "objects", "names"),
                         [a["name"] for a in arrows],
                         [a["dom"] for a in arrows],
                         [a["cod"] for a in arrows],
                         _need(payload, "units", "ints"),
                         _need(payload, "comp", "table"))


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
    """payload[key] and its instance, whose kind is checked before it is built."""
    rel = _need(payload, key, "str")
    endpoint, kind = _read(os.path.join(base_dir, rel))
    if kind != want:
        raise InputError(f"{key} file {rel} is a {kind}, not a {want}")
    if want == "semigroup":
        return rel, semigroup_from_dict(endpoint)
    return rel, category_from_dict(endpoint)


def morphism_from_dict(payload, base_dir):
    src_path, S = _endpoint(payload, "source", base_dir, "semigroup")
    tgt_path, T = _endpoint(payload, "target", base_dir, "semigroup")
    f = SemigroupMorphism(S, T, tuple(_need(payload, "map", "ints")))
    return MorphismFile(f, src_path, tgt_path)


def morphism_to_dict(mf):
    return {
        "kind": "morphism",
        "source": mf.source_path,
        "target": mf.target_path,
        "map": list(mf.morphism.map),
    }


def cofunctor_from_dict(payload, base_dir):
    src_path, C = _endpoint(payload, "source", base_dir, "category")
    tgt_path, D = _endpoint(payload, "target", base_dir, "category")
    F = Cofunctor(C, D, _need(payload, "anchor", "ints"),
                  _need(payload, "mu", "table"), _need(payload, "rho1", "table"))
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


# json drops its C encoder whenever an indent is set, so the layout is
# written here and only scalars and key strings go through the C encoder
_encode = json.JSONEncoder().encode


def _key(k):
    """A dict key as json writes it: a non-str key is stringified first."""
    if not isinstance(k, (str, int, float)) and k is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {type(k).__name__}")
    return _encode(k if isinstance(k, str) else _encode(k))


class _IntStrs(dict):
    """str(i) for each int i, made once per value."""

    def __missing__(self, i):
        s = self[i] = str(i)
        return s


def _flat(o, pad, strs):
    """o's text, as _layout lays it out, when that is one piece: a scalar,
    an empty list or dict, or a list of ints; else None."""
    if not isinstance(o, (dict, list, tuple)):
        return _encode(o)
    if not o:
        return "{}" if isinstance(o, dict) else "[]"
    if isinstance(o, dict) or not {int}.issuperset(map(type, o)):
        return None
    sep = ",\n" + pad + "  "
    return f"[\n{pad}  {sep.join(map(strs.__getitem__, o))}\n{pad}]"


def _layout(o, pad, strs):
    """The pieces of o laid out as json lays it out with sorted keys and an
    indent of two, its closing bracket at indent pad, made one at a time
    as they are written; strs caches the ints' strings."""
    text = _flat(o, pad, strs)
    if text is not None:
        yield text
        return
    inner = pad + "  "
    if isinstance(o, dict):
        ends, body = "{}", [(f"{_key(k)}: ", v) for k, v in sorted(o.items())]
    else:
        ends, body = "[]", [("", v) for v in o]
    head = ends[0] + "\n" + inner
    for key, v in body:
        text = _flat(v, inner, strs)
        if text is None:
            yield head + key
            yield from _layout(v, inner, strs)
        else:
            yield head + key + text
        head = ",\n" + inner
    yield "\n" + pad + ends[1]


def dumps_canonical(payload):
    return "".join(_layout(payload, "", _IntStrs())) + "\n"


def save_instance(obj, path):
    """Write obj's canonical file, piece by piece, so that the whole text
    is never held at once."""
    pieces = _layout(instance_to_dict(obj), "", _IntStrs())
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc


def _read(path):
    """The JSON object in path and its kind."""
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
    return payload, kind


def load_instance(path):
    """Read one instance file; morphisms and cofunctors pull in their
    endpoint files relative to the referencing file's directory."""
    payload, kind = _read(path)
    base_dir = os.path.dirname(os.path.abspath(path))
    if kind == "semigroup":
        return semigroup_from_dict(payload)
    if kind == "category":
        return category_from_dict(payload)
    if kind == "morphism":
        return morphism_from_dict(payload, base_dir)
    return cofunctor_from_dict(payload, base_dir)
