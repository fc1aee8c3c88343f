import pytest

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


@pytest.fixture
def fail_slice_flag(monkeypatch):
    """Call with a flag name: classify, as slice_semigroup sees it, then
    reports that flag failed with the witness ("planted",)."""
    def plant(flag):
        real = stonedual.category.classify

        def classify(S):
            cls = real(S)
            return AlgebraClassification({**cls.flags, flag: False},
                                         {**cls.witnesses, flag: ("planted",)})
        monkeypatch.setattr(stonedual.category, "classify", classify)
    return plant
