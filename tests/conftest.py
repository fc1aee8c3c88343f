import random

import pytest

import stonedual.algebra
import stonedual.category
from stonedual.algebra import AlgebraClassification
from stonedual.zoo import (corpus_categories, corpus_semigroups,
                           zoo_categories, zoo_semigroups)


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
