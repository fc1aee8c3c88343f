"""Isomorphism queries: the numpy refinement rounds against the Python
ones, iso_algebras / iso_categories against a search over every bijection,
and the library's search against the placement search it replaced."""

import random
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_subsemigroups
from oracles import (find_iso_by_placement, is_isomorphism, iso_reference,
                     rank_rows_reference)
from stonedual import algebra, category
from stonedual.algebra import SIZE_BOUND, BiUnaryAlgebra, iso_algebras
from stonedual.category import FinCat, slice_semigroup
from stonedual.duality import iso_categories
from stonedual.zoo import (gen_free_arrow, gen_i, gen_pair_groupoid, gen_pt,
                           gen_triangular, zoo_semigroups)


def copy(X):
    """X built afresh from its tables, with nothing memoised."""
    if isinstance(X, FinCat):
        return FinCat(X.objects, X.arrows, X.d, X.r, X.unit, X.comp)
    return BiUnaryAlgebra(X.names, X.mult, X.star, X.plus, X.zero)


def inverse(perm):
    return sorted(range(len(perm)), key=perm.__getitem__)


def relabel(X, rng):
    """X with its elements, or its objects and arrows, renumbered by
    seeded permutations; built without validation."""
    if isinstance(X, FinCat):
        operm = rng.sample(range(X.n_obj), X.n_obj)
        aperm = rng.sample(range(X.n_arr), X.n_arr)
        oinv, ainv = inverse(operm), inverse(aperm)
        get = (aperm + [-1]).__getitem__
        return FinCat([X.objects[o] for o in oinv],
                      [X.arrows[a] for a in ainv],
                      [operm[X.d[a]] for a in ainv],
                      [operm[X.r[a]] for a in ainv],
                      [aperm[X.unit[o]] for o in oinv],
                      [[get(X.comp[x][y]) for y in ainv] for x in ainv])
    perm = rng.sample(range(X.n), X.n)
    inv = inverse(perm)
    return BiUnaryAlgebra(
        [X.names[i] for i in inv],
        [[perm[X.mult[i][j]] for j in inv] for i in inv],
        [perm[X.star[i]] for i in inv],
        None if X.plus is None else [perm[X.plus[i]] for i in inv],
        None if X.zero is None else perm[X.zero])


def mutate(X, rng):
    """X with one product (one composite of a composable pair) changed."""
    if isinstance(X, FinCat):
        x, y = rng.choice([(x, y) for x in range(X.n_arr)
                           for y in range(X.n_arr) if X.d[x] == X.r[y]])
        comp = [list(row) for row in X.comp]
        comp[x][y] = rng.choice([a for a in range(X.n_arr) if a != comp[x][y]])
        return FinCat(X.objects, X.arrows, X.d, X.r, X.unit, comp)
    i, j = rng.randrange(X.n), rng.randrange(X.n)
    mult = [list(row) for row in X.mult]
    mult[i][j] = rng.choice([a for a in range(X.n) if a != mult[i][j]])
    return BiUnaryAlgebra(X.names, mult, X.star, X.plus, X.zero)


# -- the refinement kernel ----------------------------------------------------

def assert_refinement_forms_agree(family, monkeypatch):
    """Every structure's codes, computed afresh with the cutoff forced to
    send it through the Python rounds and then the numpy ones, are equal."""
    for X in family:
        codes = []
        for threshold in (SIZE_BOUND, 0):  # Python, numpy
            monkeypatch.setattr(algebra, "_NUMPY_THRESHOLD", threshold)
            codes.append(copy(X).iso_codes)
        assert codes[0] == codes[1], X


def test_numpy_refinement_matches_python_on_algebras(monkeypatch):
    rng = random.Random(17)
    family = [*zoo_semigroups().values(), gen_pt(3), gen_i(3), gen_i(4),
              gen_pt(4)]
    assert_refinement_forms_agree(
        family + [relabel(S, rng) for S in family], monkeypatch)


def test_numpy_refinement_matches_python_on_categories(monkeypatch,
                                                       corpus_cats):
    rng = random.Random(18)
    family = [*map(gen_pair_groupoid, range(2, 7)), gen_free_arrow(),
              *(C for _, C in corpus_cats)]
    assert len(family) == 6 + 398
    assert_refinement_forms_agree(
        family + [relabel(C, rng) for C in family[:6]], monkeypatch)


def test_numpy_refinement_matches_python_on_the_long_chain(monkeypatch):
    # every element its own class at SIZE_BOUND elements: the packed
    # triples reach (SIZE_BOUND + 1)**3 - 1, the most that int32 must hold
    n = SIZE_BOUND
    chain = BiUnaryAlgebra([f"c{i}" for i in range(n)],
                           [[min(i, j) for j in range(n)] for i in range(n)],
                           range(n))
    assert (n + 1) ** 3 <= 2 ** 31
    assert_refinement_forms_agree([chain], monkeypatch)
    assert sorted(chain.iso_codes) == list(range(n))


def test_numpy_refinement_matches_python_on_a_long_path(monkeypatch):
    # i*j = i + 1, and n - 1 at the end: a table, not a semigroup.  Each
    # round splits one class off the end, so late rounds break ties among
    # about n classes on packed triples near n**3, well past 16 bits
    n = 100
    path = BiUnaryAlgebra([f"p{i}" for i in range(n)],
                          [[min(i + 1, n - 1)] * n for i in range(n)],
                          range(n))
    assert_refinement_forms_agree([path], monkeypatch)
    assert sorted(path.iso_codes) == list(range(n))


@st.composite
def int32_rows(draw):
    """A small int32 matrix whose rows repeat: rows drawn from a pool of at
    most four, with small, negative and extreme entries, one column or
    more."""
    width = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-3, 3), st.integers(-2 ** 31, 2 ** 31 - 1))
    pool = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                         min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                          max_size=12))
    return np.array([pool[i] for i in picks], dtype=np.int32)


@settings(max_examples=200, deadline=None)
@given(int32_rows())
def test_row_ranks_match_the_lexsort(sig):
    # _rank_rows overwrites the matrix it ranks
    ranks, count = algebra._rank_rows(sig.copy())
    want, want_count = rank_rows_reference(sig)
    assert ranks.tolist() == want.tolist() and count == want_count


def test_refinement_codes_match_the_lexsort_ranks(numpy_kernel, monkeypatch,
                                                  corpus_sgs, corpus_cats):
    # the numpy rounds give the same codes ranking rows by one byte string
    # sort as by a lexsort over every column, on the corpus semigroups, the
    # corpus categories and their slice semigroups (up to 64 elements)
    family = [*(S for _, S in corpus_sgs), *(C for _, C in corpus_cats),
              *(slice_semigroup(C) for _, C in corpus_cats)]
    assert len(family) == 5 + 2 * 398
    codes = [copy(X).iso_codes for X in family]
    monkeypatch.setattr(algebra, "_rank_rows", rank_rows_reference)
    assert codes == [copy(X).iso_codes for X in family]


# -- iso verdicts against the reference ---------------------------------------

@pytest.fixture(scope="module")
def reference_pairs(corpus_cats):
    """(X, Y, whether iso_reference finds an isomorphism) for a relabelled
    copy of X and, when X has two elements or arrows, a one-cell mutation
    of that copy, for every corpus category with at most 5 arrows and
    every small algebra in the family below."""
    rng = random.Random(19)
    algebras = [S for S in zoo_semigroups().values() if S.n <= 7]
    algebras += small_subsemigroups(gen_pt(2), limit=7)
    algebras += small_subsemigroups(gen_i(3), limit=6)
    relabelled, mutated = [], []
    for X in algebras + [C for _, C in corpus_cats if C.n_arr <= 5]:
        Y = relabel(X, rng)
        relabelled.append((X, Y, iso_reference(X, Y) is not None))
        if len(Y.star if isinstance(Y, BiUnaryAlgebra) else Y.d) > 1:
            Z = mutate(Y, rng)
            mutated.append((X, Z, iso_reference(X, Z) is not None))
    assert all(expected for _, _, expected in relabelled)
    assert sum(not expected for _, _, expected in mutated) > len(mutated) / 2
    return relabelled + mutated


def check_iso_verdicts(pairs):
    for X, Y, expected in pairs:
        X, Y = copy(X), copy(Y)
        got = (iso_categories if isinstance(X, FinCat) else iso_algebras)(X, Y)
        assert (got is not None) == expected, (X, Y)
        assert got is None or is_isomorphism(X, Y, got)


def test_iso_verdicts_match_reference(reference_pairs):
    check_iso_verdicts(reference_pairs)


def test_numpy_iso_verdicts_match_reference(reference_pairs, numpy_kernel):
    check_iso_verdicts(reference_pairs)


# -- the forced-image search against the placement search ---------------------

def iso(X, Y):
    return (iso_categories if isinstance(X, FinCat) else iso_algebras)(X, Y)


def assert_same_maps(pairs, monkeypatch):
    """The maps iso_algebras / iso_categories give on each pair, which
    must be the same, or None, with the placement search of oracles.py
    in place of the library's."""
    found = [iso(X, Y) for X, Y in pairs]
    with monkeypatch.context() as m:
        m.setattr(algebra, "_find_iso", find_iso_by_placement)
        m.setattr(category, "_find_iso", find_iso_by_placement)
        for (X, Y), got in zip(pairs, found):
            assert iso(X, Y) == got, (X, Y)
    return found


def test_forced_images_give_the_placement_maps_on_relabellings(monkeypatch):
    rng = random.Random(25)
    bases = [gen_pt(3), gen_i(3), gen_triangular(3), gen_i(4),
             gen_triangular(4)]
    pairs = [(X, relabel(X, rng)) for X in bases for _ in range(3)]
    pairs.append((gen_pt(4), relabel(gen_pt(4), rng)))
    assert None not in assert_same_maps(pairs, monkeypatch)


def test_forced_images_give_the_placement_maps_on_categories(monkeypatch,
                                                             corpus_cats):
    rng = random.Random(26)
    family = [*map(gen_pair_groupoid, range(2, 7)),
              *(C for _, C in corpus_cats)]
    assert len(family) == 5 + 398
    pairs = [(C, relabel(C, rng)) for C in family]
    assert None not in assert_same_maps(pairs, monkeypatch)


def test_forced_images_give_the_placement_maps_on_subsemigroups(monkeypatch):
    rng = random.Random(27)
    pairs = [(S, relabel(S, rng)) for S in small_subsemigroups(gen_pt(3))]
    assert len(pairs) == 1195
    assert None not in assert_same_maps(pairs, monkeypatch)


def test_forced_images_reject_classes_with_equal_codes(monkeypatch,
                                                        corpus_cats):
    # the enumerated classes are pairwise non-isomorphic, and equal sorted
    # codes send a pair past the first test into the search
    groups = defaultdict(list)
    for name, C in corpus_cats:
        if name.startswith("enum_"):
            groups[C.n_obj, tuple(sorted(C.iso_codes))].append(C)
    pairs = [(X, Y) for g in groups.values() for X in g for Y in g
             if X is not Y]
    assert len(pairs) == 10114
    assert set(assert_same_maps(pairs, monkeypatch)) == {None}


def test_forced_images_on_edge_cases(monkeypatch):
    rng = random.Random(28)
    empty = BiUnaryAlgebra([], [], [])
    one = BiUnaryAlgebra(["e"], [[0]], [0])
    T = gen_triangular(3)  # every colour class a singleton
    assert len(set(T.iso_codes)) == T.n
    U = relabel(T, rng)
    V = mutate(U, rng)  # not isomorphic, but with the same sorted codes
    assert sorted(V.iso_codes) == sorted(T.iso_codes)
    pairs = [(empty, empty), (one, one), (T, U), (T, V)]
    found = assert_same_maps(pairs, monkeypatch)
    assert found[:2] == [(), (0,)]
    assert found[2] is not None and found[3] is None
