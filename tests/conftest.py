import random
from itertools import combinations

import pytest

import stonedual.algebra
import stonedual.category
from stonedual.algebra import (AlgebraClassification, bd_subalgebra,
                               iso_algebras, make_algebra)
from stonedual.category import slice_semigroup
from stonedual.duality import germ_category, iso_categories
from stonedual.zoo import (corpus_categories, corpus_semigroups, gen_pt,
                           subsemigroup, zoo_categories, zoo_semigroups)


def pytest_addoption(parser):
    parser.addoption("--run-slow", action="store_true",
                     help="also run the tests marked slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="slow: needs --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def zoo_sgs():
    return zoo_semigroups()


@pytest.fixture(scope="session")
def zoo_cats():
    return zoo_categories()


@pytest.fixture(scope="session")
def corpus_sgs():
    return corpus_semigroups()


@pytest.fixture(scope="session")
def corpus_cats():
    # enumerating all categories with <= 3 objects and <= 5 arrows takes a
    # few seconds; share one copy across the whole session
    return corpus_categories()


def planted(cls, flag, witness):
    """A classification from rules that read cls, except that flag fails
    with witness (holds, if witness is None)."""
    return AlgebraClassification([
        (f, (), lambda f=f: witness if f == flag else cls.witness(f))
        for f in cls.flags])


def check_read_order(new, seed):
    """Read the flags of a fresh classification new() one at a time, each
    with its witness, in a seeded shuffled order: they must be the flags
    and witnesses another one forces in table order."""
    forced = new()
    cls, names = new(), list(forced.flags)
    random.Random(seed).shuffle(names)
    flags, witnesses = {}, {}
    for f in names:
        flags[f] = getattr(cls, f)
        if (w := cls.witness(f)) is not None:
            witnesses[f] = w
    assert (flags, witnesses) == (forced.flags, forced.witnesses)


def shuffle_algebra(S, perm):
    """S with element i renumbered perm[i], built by make_algebra."""
    inv = [0] * S.n
    for old, new in enumerate(perm):
        inv[new] = old
    names = [S.names[inv[i]] for i in range(S.n)]
    mult = [[perm[S.mult[inv[i]][inv[j]]] for j in range(S.n)]
            for i in range(S.n)]
    star = [perm[S.star[inv[i]]] for i in range(S.n)]
    plus = S.plus and [perm[S.plus[inv[i]]] for i in range(S.n)]
    return make_algebra(names, mult, star, plus,
                        perm[S.zero] if S.zero is not None else None)


def bislice_composites(C):
    """The paper's other equivalence from the category side, as named
    checks on C: bd(Slice(C)) has the bislices of C as its elements and is
    isomorphic to their semigroup, Germ(bd(Slice(C))) is isomorphic to C,
    and the bridge sending each germ, a singleton bislice {t}, to t is a
    bijection that carries d, r, unit and comp over."""
    S = slice_semigroup(C)
    B, keep = bd_subalgebra(S)
    T = slice_semigroup(C, bislices_only=True)
    germs = germ_category(B)
    G = germs.category
    singles = [[a for a in S.slice_sets[keep[x]] if a >= 0]
               for x in germs.germ_elems]
    if any(len(t) != 1 for t in singles):
        return {"germs-are-singletons": False}
    f = [t for t, in singles]
    g = [C.d[f[G.unit[i]]] for i in range(G.n_obj)]
    comp = [[f[k] if k >= 0 else -1 for k in row] for row in G.comp]
    return {
        "bd-iso-to-bislices": iso_algebras(B, T) is not None
        and sorted(S.slice_sets[k] for k in keep) == sorted(T.slice_sets),
        "germ-of-bd-iso-to-original": iso_categories(G, C) is not None,
        "germ-bridge-carries-structure":
            sorted(f) == list(range(C.n_arr))
            and sorted(g) == list(range(C.n_obj))
            and all(C.d[f[j]] == g[G.d[j]] and C.r[f[j]] == g[G.r[j]]
                    for j in range(G.n_arr))
            and all(C.unit[g[i]] == f[G.unit[i]] for i in range(G.n_obj))
            and all(comp[i][j] == C.comp[f[i]][f[j]]
                    for i in range(G.n_arr) for j in range(G.n_arr))}


def small_subsemigroups(P, limit=12):
    """Sub-semigroups of P generated by one or two elements and closed
    under product and star, with at most limit elements."""
    seen = set()
    for gens in [(a,) for a in range(P.n)] + list(combinations(range(P.n), 2)):
        S = subsemigroup(P, gens, limit)
        if S is not None and S.names not in seen:
            seen.add(S.names)
            yield S


@pytest.fixture(scope="session")
def pt4():
    return gen_pt(4)


@pytest.fixture(scope="session")
def pt4_subsemigroups(pt4):
    """The distinct sub-semigroups of pt_4 with at most 60 elements that
    2,000 seeded random pairs generate, closed under product and star."""
    rng, family = random.Random(4), {}
    for _ in range(2000):
        S = subsemigroup(pt4, rng.sample(range(pt4.n), 2), limit=60)
        if S is not None:
            family.setdefault(S.names, S)
    return list(family.values())


@pytest.fixture
def fail_slice_flag(monkeypatch):
    """Call with a flag name: classify, as slice_semigroup sees it, then
    reports that flag failed with the witness ("planted",)."""
    def plant(flag):
        real = stonedual.category.classify

        monkeypatch.setattr(stonedual.category, "classify",
                            lambda S: planted(real(S), flag, ("planted",)))
    return plant


@pytest.fixture(params=["chunked", "one-cell-chunks"])
def numpy_kernel(request, monkeypatch):
    """Send every table down the numpy path.  With one-cell chunks every
    chunked scan takes one row or one pair at a time, and associativity
    always starts with Light's test."""
    monkeypatch.setattr(stonedual.algebra, "_NUMPY_THRESHOLD", 0)
    if request.param == "one-cell-chunks":
        monkeypatch.setattr(stonedual.algebra, "_CHUNK_CELLS", 1)
