import subprocess
import sys
import time

import pytest

from conftest import check_read_order
from oracles import (ParentMismatch, Slice, choice_arrows,
                     count_slices_brute, first_assoc_failure, pushforward_set,
                     slice_cosupport, slice_of_index, slice_product,
                     slice_sets_brute, slice_support)
import stonedual.category
from stonedual import algebra
from stonedual.algebra import SIZE_BOUND, MorphismVerdict, classify
from stonedual.category import (Cofunctor, CoveringFunctor, _cofunctor_diff,
                                _slice_algebra, _slice_name, check_cofunctor,
                                cofunctor_to_covering, cofunctor_to_morphism,
                                compose_cofunctors,
                                covering_to_cofunctor, enumerate_slices,
                                identity_cofunctor, is_groupoid,
                                make_category, predicted_slice_count,
                                semigroup_slices, slice_semigroup)
from stonedual.duality import counit_epsilon
from stonedual.errors import (AxiomFail, BadTableShape, CompDomainMismatch,
                              CompositionMismatch, InputError,
                              InvariantViolation, MathFail,
                              NotBijectiveOnArrows, NotStarBijective,
                              TooLarge)
from stonedual.io import load_instance, save_instance
from stonedual.zoo import gen_free_arrow, gen_pair_groupoid, gen_pt


def one_object_loop():
    # free monoid truncated: unit plus an idempotent loop
    return make_category(["o"], ["u", "e"], [0, 0], [0, 0], [0],
                         [[0, 1], [1, 1]])


# -- construction ---------------------------------------------------------------

def test_duplicate_arrow_names_rejected():
    with pytest.raises(BadTableShape):
        make_category(["o"], ["u", "u"], [0, 0], [0, 0], [0],
                      [[0, 1], [1, 1]])


def test_comp_on_non_composable_pair_rejected():
    with pytest.raises(CompDomainMismatch):
        make_category(["1", "2"], ["u1", "u2"], [0, 1], [0, 1], [0, 1],
                      [[0, 0], [-1, 1]])


def test_unit_anchoring_checked():
    with pytest.raises(AxiomFail) as exc:
        make_category(["1", "2"], ["u1", "u2"], [0, 1], [0, 1], [1, 0],
                      [[0, -1], [-1, 1]])
    assert exc.value.axiom == "DRU"


def test_composite_endpoints_checked():
    # comp sends (a, u1) to u1 whose r is wrong
    with pytest.raises(AxiomFail) as exc:
        make_category(["1", "2"], ["u1", "u2", "a"], [0, 1, 0], [0, 1, 1],
                      [0, 1], [[0, -1, -1], [-1, 1, 2], [0, -1, -1]])
    assert exc.value.axiom in ("DP", "RP")


def test_associativity_checked():
    # z2 absorbs on the left but not associatively
    with pytest.raises(AxiomFail) as exc:
        make_category(["o"], ["u", "a", "b"], [0, 0, 0], [0, 0, 0], [0],
                      [[0, 1, 2], [1, 2, 1], [2, 1, 1]])
    assert exc.value.axiom in ("A", "UL")


def _check_associativity_witnesses(categories):
    # composites changed within their hom-set keep DP and RP
    failures = 0
    for C in categories:
        arrows = range(C.n_arr)
        cells = [(x, y, z) for x in arrows for y in arrows for z in arrows
                 if C.d[x] == C.r[y] and z != C.comp[x][y]
                 and (C.d[z], C.r[z]) == (C.d[y], C.r[x])]
        for x, y, z in cells[-3:]:
            comp = [list(row) for row in C.comp]
            comp[x][y] = z
            expected = first_assoc_failure(C.d, C.r, comp)
            if expected is None:
                continue
            with pytest.raises(AxiomFail) as exc:
                make_category(C.objects, C.arrows, C.d, C.r, C.unit, comp)
            assert exc.value.witness == ("A", expected)
            failures += 1
    assert failures > 500


def _cyclic_group(n):
    return make_category(["o"], [f"g{a}" for a in range(n)], [0] * n,
                         [0] * n, [0], [[(a + b) % n for b in range(n)]
                                        for a in range(n)])


def test_associativity_witness_is_the_first_failing_composable_triple(
        corpus_cats):
    # the cyclic group of order 15 takes the numpy path
    _check_associativity_witnesses(
        [C for _, C in corpus_cats] + [_cyclic_group(15)])


def test_numpy_associativity_witness_is_the_first_failing_composable_triple(
        corpus_cats, numpy_kernel):
    _check_associativity_witnesses(
        [C for _, C in corpus_cats]
        + [gen_pair_groupoid(3), gen_pair_groupoid(4), _cyclic_group(41)])


def test_composite_domain_checked():
    # a after u0 is set to u1, which starts at the wrong object
    with pytest.raises(AxiomFail) as exc:
        make_category(["1", "2"], ["u1", "u2", "a"], [0, 1, 0], [0, 1, 1],
                      [0, 1], [[0, -1, -1], [-1, 1, 2], [1, -1, -1]])
    assert exc.value.witness == ("DP", (2, 0))


def test_unit_law_checked():
    # associative, but u absorbs a instead of fixing it
    with pytest.raises(AxiomFail) as exc:
        make_category(["o"], ["u", "a"], [0, 0], [0, 0], [0],
                      [[0, 0], [1, 1]])
    assert exc.value.axiom == "UL"


# -- groupoid test ----------------------------------------------------------------

def test_pair_groupoid_has_inverses():
    K2 = gen_pair_groupoid(2)
    inv, witness = is_groupoid(K2)
    assert witness is None
    for a in range(K2.n_arr):
        b = inv[a]
        assert K2.comp[a][b] == K2.unit[K2.r[a]]
        assert K2.comp[b][a] == K2.unit[K2.d[a]]


def test_free_arrow_is_not_a_groupoid():
    inv, witness = is_groupoid(gen_free_arrow())
    assert inv is None
    assert gen_free_arrow().arrows[witness] == "a21"


# -- slices ------------------------------------------------------------------------

def test_slice_rejects_repeated_domain():
    K2 = gen_pair_groupoid(2)
    fiber = K2.d_fiber(0)
    with pytest.raises(MathFail):
        Slice(K2, set(fiber))


def _is_choice(C, A):
    return len(A) == C.n_obj and all(a == -1 or C.d[a] == x
                                     for x, a in enumerate(A))


@pytest.mark.parametrize("make", [lambda: gen_pair_groupoid(1),
                                  lambda: gen_pair_groupoid(2),
                                  lambda: gen_pair_groupoid(3),
                                  gen_free_arrow,
                                  one_object_loop])
def test_slice_counts_match_subset_enumeration(make):
    C = make()
    total, bis = count_slices_brute(C)
    assert predicted_slice_count(C) == total
    assert len(enumerate_slices(C)) == total
    assert len(enumerate_slices(C, bislices_only=True)) == bis
    assert all(_is_choice(C, A) for A in enumerate_slices(C))
    assert set(map(choice_arrows, enumerate_slices(C))) == \
        set(slice_sets_brute(C))


def test_slice_semigroup_sizes_frozen():
    assert slice_semigroup(gen_pair_groupoid(2)).n == 9
    assert slice_semigroup(gen_pair_groupoid(2), bislices_only=True).n == 7
    assert slice_semigroup(gen_free_arrow()).n == 6
    assert slice_semigroup(gen_pair_groupoid(3)).n == 64
    assert slice_semigroup(gen_pair_groupoid(3), bislices_only=True).n == 34


def test_slice_products_match_direct_computation():
    C = gen_pair_groupoid(2)
    S = slice_semigroup(C)
    sets = [choice_arrows(A) for A in semigroup_slices(C, S)]
    index = {fs: i for i, fs in enumerate(sets)}
    for i, A in enumerate(sets):
        for j, B in enumerate(sets):
            direct = frozenset(C.comp[a][b] for a in A for b in B
                               if C.d[a] == C.r[b])
            assert S.mult[i][j] == index[direct]
            prod = slice_product(Slice(C, A), Slice(C, B))
            assert prod.arrows == direct


def _check_slice_cells(C):
    S = slice_semigroup(C)
    sets = [choice_arrows(A) for A in semigroup_slices(C, S)]
    slices = [Slice(C, A) for A in sets]
    for i, A in enumerate(slices):
        assert sets[S.star[i]] == slice_support(A).arrows
        assert sets[S.plus[i]] == slice_cosupport(A).arrows
        row = S.mult[i]
        for j, B in enumerate(slices):
            assert sets[row[j]] == slice_product(A, B).arrows, (i, j)
    assert sets[S.zero] == frozenset()


@pytest.mark.parametrize("make", [lambda: gen_pair_groupoid(4),
                                  gen_free_arrow])
def test_slice_tables_match_the_slice_operations(make):
    # K_4 has 625 slices and takes the numpy builder, the free arrow 6
    _check_slice_cells(make())


@pytest.mark.parametrize("make", [lambda: gen_pair_groupoid(2),
                                  gen_free_arrow])
def test_numpy_slice_tables_match_the_slice_operations(numpy_kernel, make):
    _check_slice_cells(make())


def test_numpy_k4_slice_tables_match_the_slice_operations(numpy_kernel):
    # K_4 is above the cutoff anyway; one-cell chunks take one row at a time
    _check_slice_cells(gen_pair_groupoid(4))


def test_slice_tables_refuse_a_family_not_closed_under_product():
    C = gen_pair_groupoid(3)
    slices = enumerate_slices(C)[:-1]  # the last is a product of others
    assert len(slices) > algebra._NUMPY_THRESHOLD
    with pytest.raises(InvariantViolation) as exc:
        _slice_algebra(C, slices, [_slice_name(C, s) for s in slices])
    assert exc.value.witness == ("closed",)


@pytest.mark.parametrize("threshold", [0, SIZE_BOUND])  # numpy, Python
def test_both_slice_builders_refuse_a_family_not_closed(monkeypatch,
                                                        threshold):
    # K_2 without its four one-arrow slices: a slice sending both objects
    # to one has a one-arrow cosupport
    monkeypatch.setattr(algebra, "_NUMPY_THRESHOLD", threshold)
    C = gen_pair_groupoid(2)
    slices = [s for s in enumerate_slices(C) if s.count(-1) != 1]
    assert len(slices) == 5
    with pytest.raises(InvariantViolation, match="not closed") as exc:
        _slice_algebra(C, slices, [_slice_name(C, s) for s in slices])
    assert exc.value.witness == ("closed",)


def test_slice_support_and_cosupport():
    C = gen_free_arrow()
    S = slice_semigroup(C)
    sets = [choice_arrows(A) for A in semigroup_slices(C, S)]
    for i, A in enumerate(sets):
        sl = Slice(C, A)
        assert slice_support(sl).arrows == sets[S.star[i]]
        assert slice_cosupport(sl).arrows == sets[S.plus[i]]
        assert slice_of_index(C, S, i).arrows == A


def test_slice_parent_mismatch():
    A = Slice(gen_pair_groupoid(2), set())
    B = Slice(gen_free_arrow(), set())
    with pytest.raises(ParentMismatch):
        slice_product(A, B)


def test_slice_semigroup_size_guard_fires_before_work():
    K5 = gen_pair_groupoid(5)
    start = time.perf_counter()
    with pytest.raises(TooLarge) as exc:
        slice_semigroup(K5)
    assert time.perf_counter() - start < 0.1
    assert (exc.value.predicted, exc.value.bound) == (7776, SIZE_BOUND)


def test_every_full_slice_enumeration_is_guarded():
    # K_6 has 7^6 = 117,649 slices: listing them, and the by-name path of
    # semigroup_slices for an algebra built elsewhere, refuse before work
    K6 = gen_pair_groupoid(6)
    for enumerate_all in (lambda: enumerate_slices(K6),
                          lambda: semigroup_slices(K6, gen_pt(2))):
        start = time.perf_counter()
        with pytest.raises(TooLarge) as exc:
            enumerate_all()
        assert time.perf_counter() - start < 0.1
        assert (exc.value.predicted, exc.value.bound) == (117649, SIZE_BOUND)


def test_bislice_guard_fires_object_by_object():
    # K_12 has 13^12 slices; the partial bislices pass SIZE_BOUND after a
    # few objects, so enumeration must stop there
    K12 = gen_pair_groupoid(12)
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        slice_semigroup(K12, bislices_only=True)
    assert time.perf_counter() - start < 0.1


def test_bislice_semigroup_is_bounded_by_its_own_count():
    # objects 0..7 and one arrow i -> 0 from each i >= 1: 4,374 slices,
    # of which 704 are bislices
    n = 8
    d = list(range(n)) + list(range(1, n))  # the units, then the i -> 0
    r = list(range(n)) + [0] * (n - 1)
    m = len(d)
    # every composite has a unit factor: no i -> 0 follows another
    comp = [[-1 if d[x] != r[y] else y if x < n else x for y in range(m)]
            for x in range(m)]
    C = make_category([f"o{o}" for o in range(n)],
                      [f"a{a}" for a in range(m)], d, r, range(n), comp)
    assert predicted_slice_count(C) == 4374 > SIZE_BOUND
    S = slice_semigroup(C, bislices_only=True)
    assert S.n == 704
    assert classify(S).flags["boolean_birestriction"]


def test_bislice_size_guard_fires_before_work():
    K5 = gen_pair_groupoid(5)  # its bislices form I_5, 1,546 elements
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        slice_semigroup(K5, bislices_only=True)
    assert time.perf_counter() - start < 0.1


def test_make_category_size_guard_fires_before_the_laws():
    # SIZE_BOUND + 1 loops at o; the unit of p is one of them, breaking DRU
    n = SIZE_BOUND + 1
    with pytest.raises(TooLarge) as exc:
        make_category(["o", "p"], [f"a{i}" for i in range(n)], [0] * n,
                      [0] * n, [0, 0], [[0] * n] * n)
    assert exc.value.predicted == n


@pytest.mark.parametrize("flag,bislices", [("boolean_range", False),
                                          ("etale_range", False),
                                          ("boolean_birestriction", True)])
def test_slice_invariant_failure_raises_with_witness(fail_slice_flag, flag,
                                                     bislices):
    fail_slice_flag(flag)
    C = gen_pair_groupoid(2)
    with pytest.raises(InvariantViolation) as exc:
        slice_semigroup(C, bislices_only=bislices)
    assert exc.value.witness == (flag, ("planted",))
    assert (C.bislice_sg if bislices else C.slice_sg) is None


def test_slice_invariant_is_checked_under_python_O():
    code = """
import stonedual.category as cat
from stonedual.algebra import AlgebraClassification
from stonedual.errors import InvariantViolation
from stonedual.zoo import gen_pair_groupoid
class NoWitness(AlgebraClassification):
    def witness(self, flag):
        return None
real = cat.classify
cat.classify = lambda S: NoWitness([
    (f, (), lambda f=f: ("planted",) if f == "boolean_range"
     else real(S).witness(f)) for f in real(S).flags])
try:
    cat.slice_semigroup(gen_pair_groupoid(2))
except InvariantViolation as exc:
    print("raised", exc.witness)
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.stdout.strip() == "raised ('boolean_range', None)", proc.stderr


def test_slice_repr_is_the_element_name():
    C = gen_free_arrow()
    S = slice_semigroup(C)
    assert [repr(Slice(C, choice_arrows(s))) for s in S.slice_sets] == \
        list(S.names)


def test_semigroup_slices_parses_names_without_cache():
    C = gen_pair_groupoid(2)
    S = slice_semigroup(C)
    rebuilt = C.__class__(C.objects, C.arrows, C.d, C.r, C.unit, C.comp)
    assert semigroup_slices(rebuilt, S) == semigroup_slices(C, S)


def test_semigroup_slices_of_loaded_semigroup_matches_whole_names(tmp_path):
    C = make_category(["o"], ["1", "a,b"], [0, 0], [0, 0], [0],
                      [[0, 1], [1, 0]])
    path = tmp_path / "s.json"
    save_instance(slice_semigroup(C), path)
    loaded = load_instance(str(path))
    assert semigroup_slices(C, loaded) == ((-1,), (0,), (1,))
    with pytest.raises(InputError):
        semigroup_slices(C, gen_pt(2))


# -- cofunctors -----------------------------------------------------------------

def trivial_cofunctor_k1_to_k2():
    # the one-object category acting on both objects of K_2 by identities
    K1, K2 = gen_pair_groupoid(1), gen_pair_groupoid(2)
    return Cofunctor(K1, K2, [0, 0],
                     [[0, 1]], [[K2.unit[0], K2.unit[1]]])


def test_identity_cofunctor_is_lawful():
    K2 = gen_pair_groupoid(2)
    F = identity_cofunctor(K2)
    flags = check_cofunctor(F)
    assert flags.flags["bijective_on_arrows"]
    assert flags.flags["action_injective"]


def test_cofunctor_domain_pattern_enforced():
    K1, K2 = gen_pair_groupoid(1), gen_pair_groupoid(2)
    with pytest.raises(CompDomainMismatch):
        Cofunctor(K1, K2, [0, 0], [[0, -1]], [[K2.unit[0], -1]])


def test_cofunctor_axioms_enforced():
    K1, K2 = gen_pair_groupoid(1), gen_pair_groupoid(2)
    # lift of the unit must be a unit
    a12 = 2 if K2.d[2] == 1 else 1
    with pytest.raises(AxiomFail):
        Cofunctor(K1, K2, [0, 0], [[1, 0]], [[a12, 3 - a12]])


def _small_categories():
    # K_2's arrows a11, a21, a12, a22 have (d, r) = (0, 0), (0, 1), (1, 0),
    # (1, 1); in the cyclic groups arrow 0 is the unit and a*b is a + b
    return {"K1": gen_pair_groupoid(1), "K2": gen_pair_groupoid(2),
            "Z2": _cyclic_group(2), "Z3": _cyclic_group(3)}


@pytest.mark.parametrize("source,target,anchor,mu,rho1,witness", [
    # a21 acts at object 0 by staying there
    ("K2", "K2", [0, 1], [[0, -1], [0, -1], [-1, 0], [-1, 1]],
     [[0, -1], [1, -1], [-1, 2], [-1, 3]], ("A1", (1, 0))),
    # the unit of K_1 moves object 0 of K_2 to object 1
    ("K1", "K2", [0, 0], [[1, 1]], [[1, 3]], ("A3", (0,))),
    # the unit of K_1 lifts to the non-unit arrow of Z_2
    ("K1", "Z2", [0], [[0]], [[1]], ("rho-unit", (0,))),
    # 1 sends both objects of K_2 to object 0, but 1 + 1 fixes object 1
    ("Z2", "K2", [0, 0], [[0, 1], [0, 0]], [[0, 3], [0, 2]],
     ("A2", (1, 1, 1))),
    # 1 of Z_2 lifts to 1 of Z_3, and 1 + 1 to 0, not to 2
    ("Z2", "Z3", [0], [[0], [0]], [[0], [1]], ("rho-comp", (1, 1, 0)))])
def test_cofunctor_axiom_witnesses(source, target, anchor, mu, rho1,
                                   witness):
    cats = _small_categories()
    with pytest.raises(AxiomFail) as exc:
        Cofunctor(cats[source], cats[target], anchor, mu, rho1)
    assert exc.value.witness == witness


@pytest.mark.parametrize("source,target,f0,f1,witness", [
    # a21 and a12 swapped
    ("K2", "K2", [0, 1], [0, 2, 1, 3], ("functor-dr", (1,))),
    ("Z2", "Z2", [0], [1, 0], ("functor-unit", (0,))),
    # 1 + 1 = 2 goes to 1, but 1 + 1 does not
    ("Z3", "Z3", [0], [0, 1, 1], ("functor-comp", (1, 1)))])
def test_covering_functor_law_witnesses(source, target, f0, f1, witness):
    cats = _small_categories()
    with pytest.raises(AxiomFail) as exc:
        CoveringFunctor(cats[source], cats[target], f0, f1)
    assert exc.value.witness == witness


def test_covering_functor_must_reach_every_arrow_of_a_fibre():
    # the unit of K_1 covers only the unit of Z_2's one fibre
    with pytest.raises(NotStarBijective, match="misses") as exc:
        CoveringFunctor(gen_pair_groupoid(1), _cyclic_group(2), [0], [0])
    assert exc.value.witness == ("surjective", 0)


def test_cofunctor_diff_names_the_first_difference():
    K1, K2, Z2 = gen_pair_groupoid(1), gen_pair_groupoid(2), _cyclic_group(2)
    two = make_category(["1", "2"], ["u1", "u2"], [0, 1], [0, 1], [0, 1],
                        [[0, -1], [-1, 1]])
    # Z_2 acting on K_2's objects by swapping them, and by fixing them
    swap = Cofunctor(Z2, K2, [0, 0], [[0, 1], [1, 0]], [[0, 3], [1, 2]])
    fix = Cofunctor(Z2, K2, [0, 0], [[0, 1], [0, 1]], [[0, 3], [0, 3]])
    pairs = [
        (identity_cofunctor(K2), identity_cofunctor(K1), ("categories",)),
        # the discrete category on two objects, anchored at either
        (Cofunctor(two, K1, [0], [[0], [-1]], [[0], [-1]]),
         Cofunctor(two, K1, [1], [[-1], [0]], [[-1], [0]]), ("anchor", 0)),
        (swap, fix, ("mu", 1, 0)),
        # g lifted to itself, and to the unit
        (identity_cofunctor(Z2), Cofunctor(Z2, Z2, [0], [[0], [0]],
                                           [[0], [0]]), ("rho1", 1, 0))]
    for F, G, diff in pairs:
        assert _cofunctor_diff(F, G) == diff and not F.equal_tables(G)
        assert _cofunctor_diff(F, F) is None


def test_cofunctor_flags_on_partial_action():
    flags = check_cofunctor(trivial_cofunctor_k1_to_k2())
    assert flags.flags["injective_on_arrows"]
    assert not flags.flags["surjective_on_arrows"]
    assert not flags.flags["bijective_on_arrows"]
    assert flags.flags["action_injective"]
    assert flags.witnesses["surjective_on_arrows"] is not None


def idempotent_monoid():
    # one object, arrows 1 and e with e*e = e
    return make_category(["o"], ["1", "e"], [0, 0], [0, 0], [0], [[0, 1], [1, 1]])


def lift_collapsing_cofunctor():
    # 1 and e both lift to the one arrow of K_1
    return Cofunctor(idempotent_monoid(), gen_pair_groupoid(1), [0],
                     [[0], [0]], [[0], [0]])


def constant_action_cofunctor():
    # e sends both objects of K_2 to the first one, by 1_1 and by 2 -> 1
    return Cofunctor(idempotent_monoid(), gen_pair_groupoid(2), [0, 0],
                     [[0, 1], [0, 0]], [[0, 3], [0, 2]])


@pytest.mark.parametrize("make,witnesses", [
    (trivial_cofunctor_k1_to_k2,
     {"surjective_on_arrows": (1,), "bijective_on_arrows": (1,)}),
    (lift_collapsing_cofunctor,
     {"injective_on_arrows": (0, 1, 0), "bijective_on_arrows": (0, 1, 0)}),
    # both arrow flags fail: bijective_on_arrows takes the injectivity witness
    (constant_action_cofunctor,
     {"injective_on_arrows": (0, 1, 0), "surjective_on_arrows": (1,),
      "bijective_on_arrows": (0, 1, 0), "action_injective": (1, 0, 1)}),
])
def test_cofunctor_flag_witnesses(make, witnesses):
    flags = check_cofunctor(make())
    assert flags.witnesses == witnesses
    assert flags.flags == {f: f not in witnesses for f in (
        "injective_on_arrows", "surjective_on_arrows", "bijective_on_arrows",
        "action_injective")}


@pytest.mark.parametrize("make", [trivial_cofunctor_k1_to_k2,
                                  lift_collapsing_cofunctor,
                                  constant_action_cofunctor])
def test_cofunctor_flags_read_in_any_order(make):
    F = make()
    for seed in range(8):
        check_read_order(lambda: check_cofunctor(F), seed)


def test_compose_with_identity():
    F = trivial_cofunctor_k1_to_k2()
    left = compose_cofunctors(F, identity_cofunctor(F.source))
    right = compose_cofunctors(identity_cofunctor(F.target), F)
    assert left.equal_tables(F)
    assert right.equal_tables(F)


def test_compose_rejects_mismatched_middle():
    F = trivial_cofunctor_k1_to_k2()
    with pytest.raises(CompositionMismatch):
        compose_cofunctors(F, F)


def test_pushforward_of_slices_is_a_slice():
    F = trivial_cofunctor_k1_to_k2()
    for A in enumerate_slices(F.source):
        image = F.pushforward(A)
        assert _is_choice(F.target, image)
        assert choice_arrows(image) == pushforward_set(F, choice_arrows(A))


def test_cofunctor_to_morphism_endpoints():
    F = trivial_cofunctor_k1_to_k2()
    f = cofunctor_to_morphism(F)
    assert f.source.n == slice_semigroup(F.source).n
    assert f.target.n == slice_semigroup(F.target).n
    # the empty slice must map to the empty slice
    assert f.map[f.source.zero] == f.target.zero


def test_pushforward_morphism_failure_raises_with_witness(monkeypatch):
    # the identity cofunctor is bijective on arrows: its pushforward must
    # pass type 4
    monkeypatch.setattr(stonedual.category, "check_morphism", lambda f, mtype: (
        MorphismVerdict(False, mtype, "planted", (0,))))
    with pytest.raises(InvariantViolation) as exc:
        cofunctor_to_morphism(identity_cofunctor(gen_pair_groupoid(2)))
    assert exc.value.witness == ("pushforward-morphism", (4, "planted", (0,)))


def test_pushforward_bideterministic_failure_raises_with_witness(monkeypatch):
    # the action of K_1 on K_2 is injective, so bideterministic slices must
    # land in the bideterministic part; plant a target without one
    F = trivial_cofunctor_k1_to_k2()
    real = stonedual.category.deterministic_sets
    monkeypatch.setattr(stonedual.category, "deterministic_sets", lambda S: (
        real(S)[:2] + ((),) if S.slice_parent is F.target else real(S)))
    with pytest.raises(InvariantViolation) as exc:
        cofunctor_to_morphism(F)
    assert exc.value.witness == ("pushforward-bideterministic", (0,))


def test_pushforward_check_runs_under_python_O():
    code = """
import stonedual.category as cat
from stonedual.algebra import MorphismVerdict
from stonedual.errors import InvariantViolation
from stonedual.zoo import gen_pair_groupoid
cat.check_morphism = lambda f, mtype: MorphismVerdict(False, mtype, "planted")
try:
    cat.cofunctor_to_morphism(cat.identity_cofunctor(gen_pair_groupoid(2)))
except InvariantViolation as exc:
    print("raised", exc.witness)
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.stdout.strip() == (
        "raised ('pushforward-morphism', (4, 'planted', None))"), proc.stderr


# -- covering functors ------------------------------------------------------------

def test_covering_round_trip_on_counit():
    K2 = gen_pair_groupoid(2)
    eps = counit_epsilon(K2)
    g = cofunctor_to_covering(eps)
    back = covering_to_cofunctor(g)
    assert back.equal_tables(eps)
    again = cofunctor_to_covering(back)
    assert again.equal_tables(g)


def test_covering_rejects_non_bijective_cofunctor():
    with pytest.raises(NotBijectiveOnArrows):
        cofunctor_to_covering(trivial_cofunctor_k1_to_k2())


def test_collapsing_functor_is_not_star_bijective():
    K1, K2 = gen_pair_groupoid(1), gen_pair_groupoid(2)
    with pytest.raises(NotStarBijective):
        CoveringFunctor(K2, K1, [0, 0], [0, 0, 0, 0])


def test_translate_finds_unique_lift():
    K2 = gen_pair_groupoid(2)
    eps = counit_epsilon(K2)
    g = cofunctor_to_covering(eps)
    for x in range(g.source.n_obj):
        for s in g.target.d_fiber(g.f0[x]):
            t = g.translate(s, x)
            assert g.f1[t] == s and g.source.d[t] == x
    with pytest.raises(NotStarBijective):
        bad_s = next(s for s in range(g.target.n_arr)
                     if g.target.d[s] != g.f0[0])
        g.translate(bad_s, 0)
