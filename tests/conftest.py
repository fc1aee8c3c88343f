import random
from itertools import combinations

import pytest

import stonedual.algebra
import stonedual.category
from stonedual.algebra import AlgebraClassification
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
