import random
from itertools import combinations, product

import pytest

import stonedual.algebra
import stonedual.category
from stonedual.algebra import (AlgebraClassification, bd_subalgebra,
                               classify, iso_algebras, make_algebra)
from stonedual.category import slice_semigroup
from stonedual.duality import germ_category, iso_categories
from stonedual.zoo import (corpus_categories, corpus_semigroups,
                           enumerate_categories, gen_pt, zoo_categories,
                           zoo_semigroups)


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


def subsemigroup(P, gens, limit=None):
    """The sub-semigroup of P generated by gens and closed under star, or
    None once it has more than limit elements."""
    elems = set(gens)
    while limit is None or len(elems) <= limit:
        new = {P.mult[a][b] for a in elems for b in elems}
        new |= {P.star[a] for a in elems}
        if new <= elems:
            break
        elems |= new
    else:
        return None
    keep = sorted(elems)
    pos = {e: i for i, e in enumerate(keep)}
    return make_algebra([P.names[e] for e in keep],
                        [[pos[P.mult[a][b]] for b in keep] for a in keep],
                        [pos[P.star[a]] for a in keep])


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


def restriction_family(max_order, monoids=None):
    """{n: (semigroups of order n, [its restriction semigroups])} for n
    from 1 to max_order, each semigroup and each restriction semigroup
    counted once up to isomorphism; monoids, if given, is the list that
    enumerate_categories(1, max_order + 1) returns.

    A semigroup S of order n gives the monoid S^1 with n + 1 arrows by
    adjoining an identity, S and T are isomorphic exactly when S^1 and T^1
    are, and a monoid is some S^1 exactly when its other arrows are closed
    under composition.  So the monoids of enumerate_categories with n + 1
    arrows that pass that filter give every S once, with element i of S
    the arrow i + 1.  Order 0 is left out: the one-arrow monoid gives an
    algebra of no elements.  On each S, the star maps tried send x to an
    idempotent e with xe = x, with fixed and commuting values; classify
    keeps the restriction ones, and iso_algebras one of each class."""
    family = {n: [0, []] for n in range(1, max_order + 1)}
    if monoids is None:
        monoids = enumerate_categories(1, max_order + 1)
    for C in monoids:
        n = C.n_arr - 1
        mult = [[a - 1 for a in row[1:]] for row in C.comp[1:]]
        if n == 0 or any(a < 0 for row in mult for a in row):
            continue
        family[n][0] += 1
        names = [str(x) for x in range(n)]
        idempotents = [e for e in range(n) if mult[e][e] == e]
        choices = [[e for e in idempotents if mult[x][e] == x]
                   for x in range(n)]
        found = []
        for star in product(*choices):
            values = set(star)
            if any(star[e] != e for e in values) or any(
                    mult[e][f] != mult[f][e] for e in values for f in values):
                continue
            S = make_algebra(names, mult, star)
            if classify(S).restriction and all(
                    iso_algebras(S, T) is None for T in found):
                found.append(S)
        family[n][1] += found
    return {n: tuple(v) for n, v in family.items()}


@pytest.fixture(scope="session")
def monoids_to_seven_arrows():
    """enumerate_categories(1, 7), the slow tests' largest enumeration:
    the order-seven census and the restriction semigroups of order six
    read one run of it."""
    return enumerate_categories(1, 7)


@pytest.fixture(scope="session")
def restriction_semigroups():
    """restriction_family(5): 745 restriction semigroups, in about 1 s."""
    return restriction_family(5)


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
