import time

import pytest

import stonedual.algebra
import stonedual.category
import stonedual.duality
import stonedual.zoo
from conftest import subsemigroup
from oracles import (MONOID_COUNTS, count_monoids_brute,
                     enumerate_categories_reference, expected_map_tables,
                     is_increasing, is_injective, parse_map)
from stonedual.algebra import (SIZE_BOUND, CosupportResult, classify,
                               infer_cosupport, with_inferred_plus)
from stonedual.category import is_groupoid
from stonedual.duality import iso_categories
from stonedual.errors import InputError, TooLarge
from stonedual.zoo import (ZOO_CATEGORY_NAMES, ZOO_SEMIGROUP_NAMES,
                           corpus_categories, corpus_semigroups,
                           enumerate_categories, gen_free_arrow, gen_i,
                           gen_pair_groupoid, gen_pt, gen_triangular,
                           search_no_cosupport, zoo_categories,
                           zoo_semigroups)


# -- frozen element orders ---------------------------------------------------

def test_pt2_element_order_frozen():
    assert gen_pt(2).names == ("--", "1-", "2-", "-1", "-2",
                               "11", "12", "21", "22")


def test_i2_element_order_frozen():
    assert gen_i(2).names == ("--", "1-", "2-", "-1", "-2", "12", "21")


def test_triangular2_element_order_frozen():
    assert gen_triangular(2).names == ("--", "1-", "2-", "-2", "12", "22")


def test_generator_sizes():
    assert gen_pt(1).n == 2
    assert gen_pt(2).n == 9
    assert gen_i(2).n == 7
    assert gen_triangular(2).n == 6
    assert gen_triangular(3).n == 24
    assert gen_i(3).n == 34


# -- tables against the dict-model oracle --------------------------------------

@pytest.mark.parametrize("gen,n", [(gen_pt, 2), (gen_pt, 3), (gen_i, 2),
                                   (gen_triangular, 2), (gen_triangular, 3)])
def test_tables_match_dict_model(gen, n):
    S = gen(n)
    mult, star, plus = expected_map_tables(S.names)
    assert S.mult == tuple(tuple(row) for row in mult)
    assert S.star == tuple(star)
    assert S.plus == tuple(plus)
    assert S.zero == 0 and S.names[0] == "-" * n


def test_membership_predicates():
    assert all(is_injective(parse_map(nm)) for nm in gen_i(2).names)
    assert all(is_increasing(parse_map(nm)) for nm in gen_triangular(3).names)
    # and the filters are exhaustive within PT_n
    pt = set(gen_pt(2).names)
    assert {nm for nm in pt if is_injective(parse_map(nm))} == \
        set(gen_i(2).names)


def test_size_guards():
    with pytest.raises(InputError):
        gen_pt(0)
    with pytest.raises(TooLarge):
        gen_pt(5)
    with pytest.raises(InputError):
        gen_pair_groupoid(0)
    # n^2 arrows: K_31 has 961, K_32 1,024
    with pytest.raises(TooLarge) as exc:
        gen_pair_groupoid(32)
    assert (exc.value.predicted, exc.value.bound) == (1024, SIZE_BOUND)
    with pytest.raises(TooLarge) as exc:
        gen_pair_groupoid(10 ** 3000)  # its square is too long to print
    assert exc.value.bound == SIZE_BOUND and "exceeds" in str(exc.value)
    assert gen_pair_groupoid(7).n_arr == 49


def test_pair_groupoid_arrow_names_are_unique_from_ten_objects():
    assert gen_pair_groupoid(9).arrows[:2] == ("a11", "a21")
    arrows = gen_pair_groupoid(11).arrows
    assert arrows[:2] == ("a1_1", "a2_1")
    assert {"a1_11", "a11_1"} <= set(arrows)


@pytest.mark.parametrize("gen", [gen_pt, gen_i, gen_triangular])
@pytest.mark.parametrize("n", [5, 2000, 10 ** 6])
def test_map_generators_refuse_before_work(gen, n):
    # bounded by the (n+1)^n slices of K_n, a power with over 6,000 digits
    # at n = 2000, which is never formed
    start = time.perf_counter()
    with pytest.raises(TooLarge) as exc:
        gen(n)
    assert time.perf_counter() - start < 0.1
    assert exc.value.bound == SIZE_BOUND
    assert "exceeds bound" in str(exc.value)
    if n == 5:
        assert exc.value.predicted == 6 ** 5


# -- categories -----------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_groupoid_structure(n):
    K = gen_pair_groupoid(n)
    assert K.n_obj == n and K.n_arr == n * n
    inv, witness = is_groupoid(K)
    assert witness is None
    # the unit at o is the loop at o
    for o in range(n):
        u = K.unit[o]
        assert K.d[u] == K.r[u] == o


def test_free_arrow_structure():
    C = gen_free_arrow()
    assert C.n_obj == 2 and C.n_arr == 3
    assert is_groupoid(C)[0] is None


def test_documented_zoo_classifications():
    zoo = zoo_semigroups()
    assert set(zoo) == set(ZOO_SEMIGROUP_NAMES)
    assert classify(zoo["pt_1"]).flags["boolean_restriction"]
    assert classify(zoo["pt_2"]).flags["range"]
    assert not classify(zoo["pt_2"]).flags["corestriction"]
    assert classify(zoo["i_2"]).flags["boolean_birestriction"]
    assert classify(zoo["triangular_2"]).flags["etale_range"]
    assert classify(zoo["triangular_3"]).flags["etale_range"]
    assert set(zoo_categories()) == set(ZOO_CATEGORY_NAMES)


# -- enumeration ------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_monoid_counts_match_brute_oracle(n):
    cats = enumerate_categories(max_objects=1, max_arrows=n)
    got = sum(1 for C in cats if C.n_arr == n)
    assert got == count_monoids_brute(n) == MONOID_COUNTS[n - 1]


def test_enumeration_shape_and_validity():
    cats = enumerate_categories(max_objects=3, max_arrows=4)
    by_shape = {}
    for C in cats:
        by_shape.setdefault((C.n_obj, C.n_arr), []).append(C)
        assert C.unit == tuple(range(C.n_obj))
    assert [len(by_shape.get((1, k), [])) for k in (1, 2, 3, 4)] == \
        list(MONOID_COUNTS[:4])
    # two objects, two arrows: only the discrete category
    assert len(by_shape[(2, 2)]) == 1
    # no class is repeated
    four = by_shape[(1, 4)]
    for i, C in enumerate(four):
        for D in four[i + 1:]:
            assert iso_categories(C, D) is None


def test_enumeration_builds_each_class_once(monkeypatch):
    # symmetry breaking during the search: one make_category per class and
    # no isomorphism test at all
    calls = {"make_category": 0, "_refine": 0, "_find_iso": 0,
             "iso_categories": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for module in (stonedual.algebra, stonedual.category, stonedual.duality):
        for name in ("_refine", "_find_iso", "iso_categories"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
    monkeypatch.setattr(stonedual.zoo, "make_category",
                        counted("make_category", stonedual.zoo.make_category))
    cats = enumerate_categories(max_objects=3, max_arrows=4)
    assert calls == {"make_category": len(cats), "_refine": 0,
                     "_find_iso": 0, "iso_categories": 0}


@pytest.mark.parametrize("bounds", [(1, 4), (2, 4), (3, 4), (4, 4)])
def test_enumeration_matches_pairwise_dedup_reference(bounds):
    # the same first-found representatives, with the same tables, in the
    # same order
    got = enumerate_categories(*bounds)
    want = enumerate_categories_reference(*bounds)
    assert len(got) == len(want)
    for C, D in zip(got, want):
        assert C.same_tables(D)


def test_corpus_enumeration_has_no_isomorphic_pair(corpus_cats):
    enum = [C for name, C in corpus_cats if name.startswith("enum_")]
    assert len(enum) == 394
    buckets = {}
    for C in enum:
        key = (C.n_obj, C.n_arr, tuple(sorted(C.iso_codes)))
        buckets.setdefault(key, []).append(C)
    for bucket in buckets.values():
        for i, C in enumerate(bucket):
            for D in bucket[i + 1:]:
                assert iso_categories(C, D) is None


def test_order_six_monoids():
    cats = enumerate_categories(max_objects=1, max_arrows=6)
    assert sum(1 for C in cats if C.n_arr == 6) == MONOID_COUNTS[5]


@pytest.mark.slow
def test_order_seven_monoids():
    cats = enumerate_categories(max_objects=1, max_arrows=7)
    assert sum(1 for C in cats if C.n_arr == 7) == MONOID_COUNTS[6]


def test_corpus_contents():
    sgs = corpus_semigroups()
    assert [name for name, _ in sgs] == list(ZOO_SEMIGROUP_NAMES)
    cats = corpus_categories(max_objects=2, max_arrows=3)
    names = [name for name, _ in cats]
    assert names[:len(ZOO_CATEGORY_NAMES)] == list(ZOO_CATEGORY_NAMES)
    assert len(set(names)) == len(names)
    enum = [C for name, C in cats if name.startswith("enum_")]
    assert len(enum) == 14  # 1+2+7 monoids, 1+3 two-object categories


def test_search_no_cosupport_finds_small_witness():
    found, checked, witness = search_no_cosupport(max_order=6)
    assert found and checked > 0
    assert witness is not None and len(witness) <= 6


def test_search_no_cosupport_witnesses_are_not_boolean():
    # the finite case of the cosupport criterion: every finite Boolean
    # restriction semigroup with local units admits a cosupport, so no
    # witness of the search is Boolean
    PT = gen_pt(3)
    for k in range(4, 9):
        found, _, witness = search_no_cosupport(max_order=k)
        assert found, k
        assert not classify(subsemigroup(PT, witness)).boolean_restriction, k


def test_cosupport_failure_is_pinned():
    S = subsemigroup(gen_pt(3), search_no_cosupport(max_order=4)[2])
    assert S.names == ("---", "1--", "2--", "12-")
    assert infer_cosupport(S) == CosupportResult(
        None, "cosupport(xy)=cosupport(x cosupport(y))", (1, 2))
    assert with_inferred_plus(S) is None
    assert classify(S).witness("boolean_restriction") == (
        "BR2", ("RepNotInjective", 1, 3))


def test_search_no_cosupport_answers_by_order():
    assert [search_no_cosupport(max_order=k) for k in (1, 2, 3, 4)] == [
        (False, 8, None), (False, 48, None), (False, 169, None),
        (True, 103, (0, 1, 2, 8))]
