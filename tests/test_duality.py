import bisect
import gc
import hashlib
import itertools
import random
import subprocess
import sys
import weakref
from collections import Counter
from types import SimpleNamespace

import pytest

from conftest import bislice_composites, planted, small_subsemigroups
from oracles import (all_cofunctors, all_homomorphisms, choice_arrows,
                     germ_relation_mismatch, proj_atoms, pushforward_set,
                     theta_set)
from stonedual import algebra, category, duality
from stonedual.algebra import (BiUnaryAlgebra, MorphismVerdict,
                               SemigroupMorphism, bd_subalgebra,
                               check_morphism, classify, infer_cosupport,
                               iso_algebras, make_algebra, projection_gba)
from stonedual.category import (FinCat, check_cofunctor,
                                cofunctor_to_covering, cofunctor_to_morphism,
                                compose_cofunctors,
                                covering_to_cofunctor, enumerate_slices,
                                identity_cofunctor, is_groupoid, make_category,
                                predicted_slice_count, semigroup_slices,
                                slice_semigroup)
from stonedual.duality import (GermCategory, category_signature,
                               counit_epsilon,
                               germ_category, iso_categories,
                               morphism_to_cofunctor, theta, unit_eta,
                               verify_adjunction,
                               verify_birestriction_equivalence,
                               verify_groupoidal, with_inferred_plus)
from stonedual.errors import (InvariantViolation, MathFail, NoLocalUnits,
                              NotAMorphism, NotBooleanBirestriction,
                              NotPreBoolean, UnknownElement)
from stonedual.zoo import (enumerate_categories, gen_free_arrow, gen_i,
                           gen_pair_groupoid, gen_pt, gen_triangular)


def chain_semilattice(n):
    return make_algebra([f"c{i}" for i in range(n)],
                        [[min(i, j) for j in range(n)] for i in range(n)],
                        list(range(n)))


def no_left_unit_algebra():
    # restriction semigroup {z < e, s} with e*s = z, so s has no left unit
    return make_algebra(["z", "e", "s"],
                        [[0, 0, 0], [0, 1, 0], [0, 2, 0]],
                        [0, 1, 1])


# -- germ category structure -----------------------------------------------------

@pytest.mark.parametrize("gen,n", [(gen_pt, 1), (gen_pt, 2), (gen_i, 2),
                                   (gen_triangular, 2), (gen_triangular, 3)])
def test_canonical_germs_agree_with_brute_relation(gen, n):
    S = gen(n)
    assert germ_relation_mismatch(S) is None
    G = germ_category(S)
    atomic = {s for s in range(S.n) if S.star[s] in set(proj_atoms(S))}
    assert set(G.germ_elems) == atomic
    assert list(G.atoms) == sorted(proj_atoms(S))


@pytest.mark.parametrize("gen,n", [(gen_pt, 2), (gen_i, 2),
                                   (gen_triangular, 2)])
def test_germ_composition_is_multiplication(gen, n):
    S = gen(n)
    G = germ_category(S)
    C = G.category
    for j in range(C.n_arr):
        for k in range(C.n_arr):
            if C.d[j] != C.r[k]:
                continue
            assert G.germ_elems[C.comp[j][k]] == \
                S.mult[G.germ_elems[j]][G.germ_elems[k]]


def test_germ_of_pt2_is_pair_groupoid():
    G = germ_category(gen_pt(2))
    assert (G.category.n_obj, G.category.n_arr) == (2, 4)
    assert iso_categories(G.category, gen_pair_groupoid(2)) is not None


def test_germ_of_triangular_is_free_arrow():
    G = germ_category(gen_triangular(2))
    assert (G.category.n_obj, G.category.n_arr) == (2, 3)
    assert iso_categories(G.category, gen_free_arrow()) is not None
    assert is_groupoid(G.category)[0] is None


def test_germ_ignores_non_injective_elements():
    # PT_2 and its bideterministic part I_2 have the same germs
    G1 = germ_category(gen_pt(2))
    G2 = germ_category(gen_i(2))
    assert iso_categories(G1.category, G2.category) is not None


def test_germ_requires_preboolean():
    with pytest.raises(NotPreBoolean):
        germ_category(chain_semilattice(3))


def test_germ_requires_local_units():
    S = no_left_unit_algebra()
    cls = classify(S)
    assert cls.flags["preboolean_restriction"]
    assert not cls.flags["has_local_units"]
    with pytest.raises(NoLocalUnits):
        germ_category(S)


def test_germ_range_failures_raise_with_witness(monkeypatch):
    # in pt_2 the germ 2- (1 -> 2) has the one left unit atom -2; plant
    # the atom 1- as a second one, with classify still passing
    P = gen_pt(2)
    mult = [list(row) for row in P.mult]
    mult[1][2] = 2
    S = BiUnaryAlgebra(P.names, mult, P.star, P.plus, P.zero)
    cls = planted(classify(P), "range", ("planted",))
    monkeypatch.setattr(duality, "classify", lambda T: cls)
    with pytest.raises(InvariantViolation) as exc:
        germ_category(S)
    assert exc.value.witness == ("germ-range", (2, (1, 4)))
    # on a range instance the atom must also be x^+: plant star for plus
    monkeypatch.undo()
    monkeypatch.setattr(duality, "with_inferred_plus",
                        lambda T: SimpleNamespace(plus=T.star))
    with pytest.raises(InvariantViolation) as exc:
        germ_category(gen_pt(2))
    assert exc.value.witness == ("germ-range", (2, (4,)))


# -- theta and the unit ------------------------------------------------------------

def test_theta_sizes_and_errors():
    S = gen_pt(2)
    G = germ_category(S)
    for s in range(S.n):
        dom_size = sum(c != "-" for c in S.names[s])
        assert len(theta(S, s)) == G.category.n_obj
        assert sum(a >= 0 for a in theta(S, s)) == dom_size
    assert theta(S, S.zero) == (-1,) * G.category.n_obj
    with pytest.raises(UnknownElement):
        theta(S, S.n)


def test_theta_matches_the_set_definition(zoo_sgs, corpus_cats):
    for S in [*zoo_sgs.values(), *(slice_semigroup(C) for _, C in corpus_cats)]:
        cls = classify(S)
        if not (cls.flags["preboolean_restriction"]
                and cls.flags["has_local_units"]):
            continue
        G = germ_category(S)
        for s in range(S.n):
            A = theta(S, s)
            assert len(A) == G.category.n_obj
            assert choice_arrows(A) == theta_set(S, G, s), (S.names, s)


def test_pushforward_matches_the_set_definition(corpus_cats):
    for _, C in corpus_cats:
        for F in (counit_epsilon(C), identity_cofunctor(C)):
            for A in enumerate_slices(F.source):
                image = F.pushforward(A)
                assert len(image) == F.target.n_obj
                assert choice_arrows(image) == \
                    pushforward_set(F, choice_arrows(A)), (C, A)


def test_unit_eta_bijective_for_boolean_restriction():
    S = gen_pt(2)
    eta = unit_eta(S)
    assert len(set(eta.map)) == S.n == eta.target.n


def test_unit_eta_proper_embedding_otherwise():
    S = gen_i(2)
    eta = unit_eta(S)
    assert len(set(eta.map)) == S.n
    assert eta.target.n == 9


def test_unit_invariant_failures_raise_with_witness(monkeypatch):
    # i_2 is not Boolean restriction, so its unit is not onto
    missed = sorted(set(range(9)) - set(unit_eta(gen_i(2)).map))[0]
    real_classify, real_theta = duality.classify, duality.theta
    monkeypatch.setattr(duality, "classify", lambda S: planted(
        real_classify(S), "boolean_restriction", None))
    with pytest.raises(InvariantViolation) as exc:
        unit_eta(gen_i(2))
    assert exc.value.witness == ("unit-onto", (missed,))
    monkeypatch.setattr(duality, "check_morphism",
                        lambda f, mtype: MorphismVerdict(True, mtype))
    monkeypatch.setattr(duality, "theta", lambda S, s: real_theta(S, 0))
    with pytest.raises(InvariantViolation) as exc:
        unit_eta(gen_pt(2))
    assert exc.value.witness == ("unit-injective", (0, 1))
    monkeypatch.setattr(duality, "check_morphism", lambda f, mtype: (
        MorphismVerdict(False, mtype, "planted", ())))
    with pytest.raises(InvariantViolation) as exc:
        unit_eta(gen_pt(2))
    assert exc.value.witness == ("unit-morphism", ("planted", ()))


# -- counit and adjunction -----------------------------------------------------------

def test_adjunction_checks_its_unit_once(monkeypatch):
    # morphism_to_cofunctor reads the flags of the unit that unit_eta
    # checked, so the projection maps are compared once
    checked = []
    real = algebra._projection_map_witness
    monkeypatch.setattr(algebra, "_projection_map_witness",
                        lambda f: checked.append(f) or real(f))
    S = gen_pt(2)
    assert verify_adjunction(S).passed
    assert len(checked) == 1 and checked[0] is unit_eta(S)


@pytest.mark.parametrize("make", [lambda: gen_pair_groupoid(1),
                                  lambda: gen_pair_groupoid(2),
                                  gen_free_arrow])
def test_counit_is_bijective_on_arrows(make):
    C = make()
    eps = counit_epsilon(C)
    flags = check_cofunctor(eps)
    assert flags.flags["bijective_on_arrows"]
    assert eps.target is C


@pytest.mark.parametrize("gen,n", [(gen_pt, 1), (gen_pt, 2), (gen_i, 2),
                                   (gen_triangular, 2), (gen_triangular, 3)])
def test_triangle_identity_semigroup_side(gen, n):
    rep = verify_adjunction(gen(n))
    assert rep.passed, rep.render()


@pytest.mark.parametrize("make", [lambda: gen_pair_groupoid(1),
                                  lambda: gen_pair_groupoid(2),
                                  lambda: gen_pair_groupoid(3),
                                  gen_free_arrow])
def test_triangle_identity_category_side(make):
    rep = verify_adjunction(make())
    assert rep.passed, rep.render()


def test_adjunction_evaluates_only_the_flags_it_reads(monkeypatch):
    # no step of the triangle identity reads the meets, groupoidal, inverse
    # or Boolean birestriction flags: their scans run only when .flags
    # forces every rule
    calls, classified = Counter(), []
    for name in ("partial_isomorphisms", "_meets_witness", "_inverse_witness",
                 "_br1_witness"):
        def counted(*args, name=name, real=getattr(algebra, name)):
            calls[args[1] if name == "_br1_witness" else name] += 1
            return real(*args)
        monkeypatch.setattr(algebra, name, counted)
    real_classify = algebra._classify
    monkeypatch.setattr(algebra, "_classify", lambda S: (
        classified.append(S) or real_classify(S)))
    # BR3 on the 64-element slice semigroups of K_3 reads the generators
    # that make_algebra's Light test found, and needs no other column
    scans, real_scan = [], algebra._br3_scan
    monkeypatch.setattr(algebra, "_br3_scan", lambda S, columns: (
        scans.append(columns is S._generating_set) or real_scan(S, columns)))
    for X in (gen_pt(2), gen_i(2), gen_pair_groupoid(3), gen_free_arrow()):
        assert verify_adjunction(X).passed
    unread = ("partial_isomorphisms", "_meets_witness", "_inverse_witness",
              "BBR1")
    assert [calls[name] for name in unread] == [0] * 4
    assert scans and all(scans), scans
    for S in classified:
        classify(S).flags
    assert all(calls[name] for name in unread), calls


def _planted_flags(flag):
    return lambda F: planted(check_cofunctor(F), flag, ("planted",))


def test_counit_invariant_failures_raise_with_witness(monkeypatch):
    real = duality.germ_category
    # a germ category with an object that no unit of K_2 reaches
    monkeypatch.setattr(duality, "germ_category", lambda S: GermCategory(
        S, gen_pair_groupoid(3), real(S).atoms, real(S).germ_elems))
    with pytest.raises(InvariantViolation) as exc:
        counit_epsilon(gen_pair_groupoid(2))
    assert exc.value.witness == ("counit-anchor", (2,))
    monkeypatch.undo()
    monkeypatch.setattr(duality, "check_cofunctor",
                        _planted_flags("bijective_on_arrows"))
    with pytest.raises(InvariantViolation) as exc:
        counit_epsilon(gen_pair_groupoid(2))
    assert exc.value.witness == ("counit-bijective", ("planted",))


def test_verify_adjunction_rejects_other_inputs():
    with pytest.raises(UnknownElement):
        verify_adjunction("not an instance")


# -- cofunctors from morphisms ---------------------------------------------------------

def _tables_digest(cofunctors):
    return hashlib.sha256(repr([(F.anchor, F.mu, F.rho1)
                                for F in cofunctors]).encode()).hexdigest()


def test_cofunctor_builders_are_pinned(corpus_cats, zoo_sgs):
    # SHA-256 of the (anchor, mu, rho1) tables every cofunctor builder
    # gives on the corpus categories and on the zoo and small slice
    # semigroups: a builder whose output changes by one cell fails here
    built = []
    for _, C in corpus_cats:
        eps = counit_epsilon(C)
        built += [eps, identity_cofunctor(C),
                  covering_to_cofunctor(cofunctor_to_covering(eps)),
                  compose_cofunctors(eps, identity_cofunctor(eps.source)),
                  compose_cofunctors(identity_cofunctor(C), eps)]
    assert len(built) == 5 * 398
    assert _tables_digest(built) == (
        "c4995e318b39684412ced8c8e784df3a19927b2881a424ce008fd229c3291a0f")
    sgs = list(zoo_sgs.values()) + [slice_semigroup(C) for _, C in corpus_cats
                                    if predicted_slice_count(C) <= 40]
    built = []
    for S in sgs:
        F = morphism_to_cofunctor(unit_eta(S))
        built += [F, compose_cofunctors(counit_epsilon(F.source), F)]
    assert len(built) == 2 * 402
    assert _tables_digest(built) == (
        "3c18fb8ac676011cc07a2fbfc85771cd0351edfdee2d794a23a51924125dfd62")


def test_inclusion_gives_action_injective_cofunctor():
    I, P = gen_i(2), gen_pt(2)
    f = SemigroupMorphism(I, P, tuple(P.names.index(nm) for nm in I.names))
    F = morphism_to_cofunctor(f)
    flags = check_cofunctor(F)
    assert flags.flags["action_injective"]


def test_morphism_to_cofunctor_validates():
    P = gen_pt(2)
    bad = SemigroupMorphism(P, P, (P.zero,) * P.n)
    with pytest.raises(NotAMorphism):
        morphism_to_cofunctor(bad)


def test_cofunctor_invariant_failures_raise_with_witness(monkeypatch):
    P = gen_pt(2)
    # the zero map passed off as a morphism: no atom lies below an image
    monkeypatch.setattr(duality, "check_morphism",
                        lambda f, mtype: MorphismVerdict(True, mtype))
    with pytest.raises(InvariantViolation) as exc:
        morphism_to_cofunctor(SemigroupMorphism(P, P, (P.zero,) * P.n))
    assert exc.value.witness == ("cofunctor-anchor", (1, ()))
    monkeypatch.undo()
    # the identity of pt_2 keeps bideterministic elements: its action
    # must be injective
    monkeypatch.setattr(duality, "check_cofunctor",
                        _planted_flags("action_injective"))
    with pytest.raises(InvariantViolation) as exc:
        morphism_to_cofunctor(SemigroupMorphism(P, P, tuple(range(P.n))))
    assert exc.value.witness == ("cofunctor-action-injective", ("planted",))


def test_duality_invariant_is_checked_under_python_O():
    code = """
import stonedual.duality as du
from stonedual.algebra import MorphismVerdict, SemigroupMorphism
from stonedual.errors import InvariantViolation
from stonedual.zoo import gen_pt
du.check_morphism = lambda f, mtype: MorphismVerdict(True, mtype)
P = gen_pt(2)
try:
    du.morphism_to_cofunctor(SemigroupMorphism(P, P, (P.zero,) * P.n))
except InvariantViolation as exc:
    print("raised", exc.witness)
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.stdout.strip() == "raised ('cofunctor-anchor', (1, ()))", \
        proc.stderr


def test_pushforward_naturality_square():
    I, P = gen_i(2), gen_pt(2)
    f = SemigroupMorphism(I, P, tuple(P.names.index(nm) for nm in I.names))
    F = morphism_to_cofunctor(f)
    F_star = cofunctor_to_morphism(F)
    eta_I, eta_P = unit_eta(I), unit_eta(P)
    for s in range(I.n):
        assert F_star.map[eta_I.map[s]] == eta_P.map[f.map[s]]


def _germ_families():
    """The small sub-semigroups of pt_2, i_2, pt_3 and i_3, and each whole
    semigroup, that have a germ category: one list per semigroup."""
    for P in (gen_pt(2), gen_i(2), gen_pt(3), gen_i(3)):
        family = []
        for S in [*small_subsemigroups(P), P]:
            try:
                germ_category(S)
            except (NotPreBoolean, NoLocalUnits):
                continue
            family.append(S)
        yield family


def _inclusion(S, T):
    return SemigroupMorphism(S, T, tuple(map(T.names.index, S.names)))


def test_morphism_to_cofunctor_keeps_identities_and_composites():
    # identity maps give identity cofunctors, and the cofunctors of type-1
    # inclusions S < T < U compose to that of S < U, within each family
    identities, composites = 0, 0
    for family in _germ_families():
        for S in family:
            F = morphism_to_cofunctor(_inclusion(S, S))
            assert F.equal_tables(identity_cofunctor(F.source)), S.names
            identities += 1
        cofunctor = {(a, b): morphism_to_cofunctor(_inclusion(S, T))
                     for a, S in enumerate(family)
                     for b, T in enumerate(family)
                     if set(S.names) < set(T.names)
                     and check_morphism(_inclusion(S, T), 1).ok}
        for (a, b), F in cofunctor.items():
            for c, U in enumerate(family):
                if (b, c) in cofunctor:
                    outer = morphism_to_cofunctor(_inclusion(family[a], U))
                    assert compose_cofunctors(cofunctor[b, c], F).equal_tables(
                        outer), (family[a].names, family[b].names, U.names)
                    composites += 1
    assert (identities, composites) == (171, 265)


def _pushed_cofunctors(cats):
    """{(c, d): [(F, F_*.map)]}, every cofunctor F: cats[c] ~> cats[d]
    with its pushforward, and the counts of cofunctors, injective and
    surjective on arrows.  F_* is a morphism of F's type, and of type 2
    or 3 only when F is injective or surjective on arrows; the counit is
    natural; identities push forward to identities."""
    counts, pushed = Counter(), {}
    for c, C in enumerate(cats):
        S = slice_semigroup(C)
        assert cofunctor_to_morphism(identity_cofunctor(C)).map == tuple(
            range(S.n)), c
        for d, D in enumerate(cats):
            pushed[c, d] = []
            for F in all_cofunctors(C, D):
                F_star = cofunctor_to_morphism(F)  # raises unless F's type
                cls = check_cofunctor(F)
                where = (c, d, F.anchor, F.rho1)
                assert check_morphism(F_star, 2).ok == \
                    cls.injective_on_arrows, where
                assert check_morphism(F_star, 3).ok == \
                    cls.surjective_on_arrows, where
                assert compose_cofunctors(F, counit_epsilon(C)).equal_tables(
                    compose_cofunctors(counit_epsilon(D),
                                       morphism_to_cofunctor(F_star))), where
                pushed[c, d].append((F, F_star.map))
                counts["injective"] += cls.injective_on_arrows
                counts["surjective"] += cls.surjective_on_arrows
    counts["cofunctors"] = sum(map(len, pushed.values()))
    return counts, pushed


def _composable_blocks(pushed, n):
    """(c, d, e, count) for each c, d, e < n, with the count of composable
    pairs F: c ~> d, G: d ~> e."""
    return [(c, d, e, len(pushed[c, d]) * len(pushed[d, e]))
            for c in range(n) for d in range(n) for e in range(n)]


def _check_pushed_composite(pushed, c, d, e, i):
    """(G F)_* = G_* F_* on the i-th pair of the block (c, d, e)."""
    q, r = divmod(i, len(pushed[d, e]))
    (F, f), (G, g) = pushed[c, d][q], pushed[d, e][r]
    gf = cofunctor_to_morphism(compose_cofunctors(G, F))
    assert gf.map == tuple(g[x] for x in f), (c, d, e, F.rho1, G.rho1)


def test_every_small_cofunctor_pushes_forward_functorially():
    # the category side of the equivalence on morphisms: every cofunctor
    # between the classes with at most 2 objects and 3 arrows, checked as
    # _pushed_cofunctors says, and every composite pushes forward to the
    # composite
    cats = enumerate_categories(2, 3)
    assert len(cats) == 14
    counts, pushed = _pushed_cofunctors(cats)
    for c, d, e, count in _composable_blocks(pushed, len(cats)):
        for i in range(count):
            _check_pushed_composite(pushed, c, d, e, i)
        counts["composites"] += count
    assert counts == {"cofunctors": 392, "injective": 129,
                      "surjective": 86, "composites": 11403}


@pytest.mark.slow
def test_cofunctors_up_to_three_objects_push_forward_functorially():
    # the same checks one size up, on every cofunctor between the classes
    # with at most 3 objects and 4 arrows, and on a seeded sample of 50,000
    # of their composable pairs
    cats = enumerate_categories(3, 4)
    assert len(cats) == 69
    counts, pushed = _pushed_cofunctors(cats)
    assert counts == {"cofunctors": 17567, "injective": 3239,
                      "surjective": 1628}
    blocks = _composable_blocks(pushed, len(cats))
    ends = list(itertools.accumulate(count for *_, count in blocks))
    assert ends[-1] == 4793546
    for k in sorted(random.Random(19).sample(range(ends[-1]), 50000)):
        b = bisect.bisect_right(ends, k)
        c, d, e, count = blocks[b]
        _check_pushed_composite(pushed, c, d, e, k - (ends[b] - count))


def _germ_semigroups(restriction_semigroups):
    """The preBoolean restriction semigroups with local units of order at
    most 5, by order: the first 12 have order at most 4."""
    return [S for _, sgs in restriction_semigroups.values() for S in sgs
            if classify(S).preboolean_restriction
            and classify(S).has_local_units]


def _typed_homomorphisms(family):
    """{(a, b): [(f, F)]}, every type-1 map f from family[a] to family[b]
    with its cofunctor F, and the counts of maps by type.  On each f the
    unit is natural, and f has type 2 or 3 just when F is injective or
    surjective on arrows; identity maps give identity cofunctors."""
    counts, typed = Counter(), {}
    for a, S in enumerate(family):
        identity = morphism_to_cofunctor(_inclusion(S, S))
        assert identity.equal_tables(identity_cofunctor(identity.source)), a
        for b, T in enumerate(family):
            homs = all_homomorphisms(S, T)
            counts["homomorphisms"] += len(homs)
            typed[a, b] = []
            for f in homs:
                if not check_morphism(f, 1).ok:
                    continue
                F = morphism_to_cofunctor(f)
                cls = check_cofunctor(F)
                F_star = cofunctor_to_morphism(F)
                where = (a, b, f.map)
                assert [F_star.map[i] for i in unit_eta(S).map] == [
                    unit_eta(T).map[i] for i in f.map], where
                assert check_morphism(f, 2).ok == cls.injective_on_arrows, \
                    where
                assert check_morphism(f, 3).ok == cls.surjective_on_arrows, \
                    where
                counts["type 2"] += cls.injective_on_arrows
                counts["type 3"] += cls.surjective_on_arrows
                typed[a, b].append((f, F))
    counts["type 1"] = sum(map(len, typed.values()))
    return counts, typed


def _checked_composites(typed, count):
    """Check every composite g f of type-1 maps among the first count
    algebras: it is one of the type-1 maps of typed, and its cofunctor is
    the composite cofunctor.  Returns how many there were."""
    composites, cofunctor = 0, {(a, c, h.map): H for (a, c), inner
                                in typed.items() for h, H in inner}
    for (a, b), inner in typed.items():
        if max(a, b) >= count:
            continue
        for c in range(count):
            for f, F in inner:
                for g, G in typed[b, c]:
                    where = (a, b, c, f.map, g.map)
                    gf = (a, c, tuple(g.map[i] for i in f.map))
                    assert gf in cofunctor, where
                    assert cofunctor[gf].equal_tables(
                        compose_cofunctors(G, F)), where
                    composites += 1
    return composites


def test_every_small_homomorphism_gives_a_natural_cofunctor(
        restriction_semigroups):
    # the semigroup side: every (2,1)-homomorphism between the preBoolean
    # restriction semigroups with local units of order at most 5, checked
    # as _typed_homomorphisms says; the composites at order at most 4
    family = _germ_semigroups(restriction_semigroups)
    assert (len(family), sum(S.n <= 4 for S in family)) == (50, 12)
    counts, typed = _typed_homomorphisms(family)
    assert counts == {"homomorphisms": 15107, "type 1": 8585,
                      "type 2": 697, "type 3": 383}
    assert _checked_composites(typed, 12) == 5272


@pytest.mark.slow
def test_every_order_five_homomorphism_composite_is_natural(
        restriction_semigroups):
    # every composite of type-1 maps among the 50 semigroups of order at
    # most 5, which tier-1 checks up to order 4
    family = _germ_semigroups(restriction_semigroups)
    _, typed = _typed_homomorphisms(family)
    assert _checked_composites(typed, len(family)) == 1697798


# -- theorem reports -----------------------------------------------------------------

def test_birestriction_equivalence_on_i2():
    rep = verify_birestriction_equivalence(gen_i(2))
    assert rep.passed, rep.render()
    assert rep.data["bijection"] == (0, 1, 2, 3, 4, 5, 6)


def test_birestriction_equivalence_stops_where_the_unit_leaves(monkeypatch):
    # plant a bideterministic part of the slice semigroup without the
    # image of element 3 of i_2 under the unit: the report fails there and
    # checks nothing more
    real = duality.bd_subalgebra

    def without_one(T):
        sub, keep = real(T)
        return sub, keep[:3] + keep[4:]

    monkeypatch.setattr(duality, "bd_subalgebra", without_one)
    rep = verify_birestriction_equivalence(gen_i(2))
    assert (rep.lines, rep.data) == (
        [(False, "unit-lands-in-bideterministic-part", (3,))], {})


def test_birestriction_equivalence_rejects_pt2():
    with pytest.raises(NotBooleanBirestriction):
        verify_birestriction_equivalence(gen_pt(2))


@pytest.mark.parametrize("make", [lambda: gen_pair_groupoid(2),
                                  gen_free_arrow])
def test_groupoid_criterion_on_categories(make):
    rep = verify_groupoidal(make())
    assert rep.passed, rep.render()


@pytest.mark.parametrize("gen,n,expect", [(gen_pt, 2, True),
                                          (gen_i, 2, True),
                                          (gen_triangular, 2, False)])
def test_groupoid_criterion_on_semigroups(gen, n, expect):
    S = gen(n)
    rep = verify_groupoidal(S)
    assert rep.passed, rep.render()
    assert ("inversion" in rep.data) == expect


@pytest.mark.slow
def test_every_category_with_six_arrows_passes_the_roundtrip():
    # every class of enumerate_categories(6, 6), with what sdl roundtrip
    # checks at the category and at its slice semigroup, the groupoid
    # criterion, étale range and both composites of the Boolean
    # birestriction equivalence from the category side; 2,896 of the 3,257
    # slice semigroups have at most 14 elements, the largest 64.  Slices of
    # the germ category hold the tables of S; and since every class,
    # one-object or not, numbers its units in ascending order, the germ
    # category holds the tables of C
    failures, sizes = [], []
    for C in enumerate_categories(6, 6):
        S = slice_semigroup(C)
        sizes.append(S.n)
        cls, eta, G = classify(S), unit_eta(S), germ_category(S).category
        iso = len(set(eta.map)) == eta.target.n
        checks = {
            "adjunction": verify_adjunction(C).passed,
            "counit-bijective-on-arrows":
                check_cofunctor(counit_epsilon(C)).bijective_on_arrows,
            "germ-of-slices-iso-to-original":
                iso_categories(germ_category(S).category, C) is not None,
            "groupoidal": verify_groupoidal(C).passed,
            "semigroup-adjunction": verify_adjunction(S).passed,
            "unit-injective": len(set(eta.map)) == S.n,
            "unit-iso-iff-boolean-restriction":
                iso == cls.boolean_restriction,
            "birestriction-equivalence": not cls.boolean_birestriction
                or verify_birestriction_equivalence(S).passed,
            "etale-range": cls.etale_range,
            "slices-of-germs-share-tables": slice_semigroup(G).tables_of is S,
            "germs-share-tables": G.tables_of is C,
            **bislice_composites(C)}
        failures += [(C.arrows, C.comp, name)
                     for name, ok in checks.items() if not ok]
    assert failures == []
    assert len(sizes) == 3257 and max(sizes) == 64
    assert sum(n <= algebra._NUMPY_THRESHOLD for n in sizes) == 2896


def test_with_inferred_plus_matches_stored_table():
    S = gen_i(2)
    stripped = make_algebra(S.names, S.mult, S.star, zero=S.zero)
    assert with_inferred_plus(stripped).plus == S.plus
    assert with_inferred_plus(S) is S


def test_memos_die_with_their_object():
    S = gen_i(2)
    stripped = make_algebra(S.names, S.mult, S.star, zero=S.zero)
    C = gen_pair_groupoid(2)
    T = slice_semigroup(C)
    memos = [classify(S), germ_category(S), classify(stripped),
             with_inferred_plus(stripped), germ_category(T),
             slice_semigroup(C, bislices_only=True), unit_eta(S), unit_eta(T),
             unit_eta(S).classification]
    assert unit_eta(S) is memos[-3] and unit_eta(T) is memos[-2]
    # a morphism's flags, read after unit_eta checked it
    assert memos[-1].projection_morphism
    # the iso searches memoise refinement codes on every object they touch
    assert iso_algebras(S, S) is not None and iso_algebras(T, T) is not None
    assert iso_categories(germ_category(S).category, C) is not None
    # a cofunctor's flags, read by counit_epsilon
    memos.append(check_cofunctor(counit_epsilon(C)))
    assert memos[-1].bijective_on_arrows
    # a map's flags, kept on its source with the target in their key
    target = make_algebra(S.names, S.mult, S.star, S.plus, S.zero)
    g = SemigroupMorphism(stripped, target, tuple(range(S.n)))
    assert check_morphism(g, 4).ok
    assert stripped._map_flags == {(target, g.map): g.classification}
    refs = [weakref.ref(x) for x in [S, stripped, C, T, target, g, *memos]]
    del S, stripped, C, T, target, g, memos
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)
    # a failed derivation leaves no entry on its algebra, which has no
    # other memo that refers back to it, so it dies without the cycle
    # collector
    N = make_algebra(["z", "s"], [[0, 0], [1, 1]], [0, 0])
    for read in (infer_cosupport, projection_gba, infer_cosupport):
        with pytest.raises(MathFail):
            read(N)
    assert "_cosupport" not in vars(N) and "_projection_gba" not in vars(N)
    ref = weakref.ref(N)
    del N
    assert ref() is None


def test_the_counit_is_checked_once(monkeypatch):
    # counit_epsilon and cofunctor_to_morphism read the one classification
    # kept on the counit
    calls = []
    for name in ("_lift_collision", "_unlifted_arrow"):
        scan = getattr(category, name)
        monkeypatch.setattr(category, name, lambda F, name=name, scan=scan:
                            calls.append((name, F)) or scan(F))
    assert verify_adjunction(gen_pair_groupoid(2)).passed
    (lift, eps), (unlifted, same) = sorted(calls, key=lambda c: c[0])
    assert (lift, unlifted) == ("_lift_collision", "_unlifted_arrow")
    assert eps is same
    assert check_cofunctor(eps) is check_cofunctor(eps) is eps.classification


# -- one table, derived once ------------------------------------------------------------

def test_rebuilt_tables_share_what_they_derive(corpus_cats, monkeypatch):
    # Slice(Germ(Slice(C))) has exactly the tables of Slice(C), so it reads
    # Slice(C)'s derived state through tables_of: that state must be what
    # the rebuilt tables derive afresh, and the germ category's
    # isomorphism to C the one the search finds on copies without links
    rng = random.Random(40)
    family = [C for _, C in corpus_cats] + [gen_pair_groupoid(4)]
    for C in family:
        C = relabel_category(C, rng.sample(range(C.n_obj), C.n_obj),
                             rng.sample(range(C.n_arr), C.n_arr))
        S = slice_semigroup(C)
        G = germ_category(S).category
        T = slice_semigroup(G)
        assert T.tables_of is S and T.star is S.star and T.mult is S.mult
        fresh = make_algebra(T.names, T.mult, T.star, T.plus, T.zero)
        cls, ref = classify(T), classify(fresh)
        assert (cls.flags, cls.witnesses) == (ref.flags, ref.witnesses)
        assert (T.up, T.down, T.iso_codes) == (
            fresh.up, fresh.down, fresh.iso_codes)
        # the germ objects are the atoms {1_x}, numbered as their units
        # are: C's own tables exactly when its units ascend
        assert (G.tables_of is C) == (list(C.unit) == sorted(C.unit))
        if G.tables_of is C:
            assert (G.d, G.r, G.unit, G.comp) == (C.d, C.r, C.unit, C.comp)
            assert G.comp is C.comp and G.d is C.d
        bare = [FinCat(X.objects, X.arrows, X.d, X.r, X.unit, X.comp)
                for X in (G, C)]
        assert iso_categories(G, C) == iso_categories(*bare)
    # slices in another order give other tables: the rebuild takes the
    # full path, and the triangle identity holds all the same
    real = category.enumerate_slices
    monkeypatch.setattr(category, "enumerate_slices", lambda C, bis=False: (
        real(C, bis)[::-1] if C.germ_of is not None else real(C, bis)))
    for C in family:
        if C.n_obj > 2 or C.n_arr > 4:
            continue
        C = make_category(C.objects, C.arrows, C.d, C.r, C.unit, C.comp)
        assert verify_adjunction(C).passed
        assert slice_semigroup(C.slice_sg.germ.category).tables_of is None
    # pt_3 is not numbered as the slices of its germ category are, so the
    # semigroup side builds them afresh
    assert slice_semigroup(germ_category(gen_pt(3)).category).tables_of is None


def test_germ_rebuild_validates_only_tables_that_differ(corpus_cats,
                                                       monkeypatch):
    # work, not time: on the corpus sweep op (build C from raw tables,
    # verify_adjunction, the germ category of its slices and the search for
    # its isomorphism to C) the germ side runs make_category only when C's
    # units do not ascend, and so the table checks run 16 times, or 12
    calls = Counter()

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(duality, "make_category",
                        counted("germ", duality.make_category))
    check = counted("tables", algebra._check_table)
    monkeypatch.setattr(algebra, "_check_table", check)
    monkeypatch.setattr(category, "_check_table", check)
    rng, seen = random.Random(47), Counter()
    for _, C in corpus_cats[::3]:
        C = relabel_category(C, rng.sample(range(C.n_obj), C.n_obj),
                             rng.sample(range(C.n_arr), C.n_arr))
        calls.clear()
        C = make_category(C.objects, C.arrows, C.d, C.r, C.unit, C.comp)
        assert verify_adjunction(C).passed
        G = germ_category(slice_semigroup(C)).category
        assert iso_categories(G, C) is not None
        ascend = list(C.unit) == sorted(C.unit)
        assert (calls["germ"], calls["tables"]) == (
            (0, 12) if ascend else (1, 16)), C.comp
        seen[ascend] += 1
    assert seen == {True: 108, False: 25}
    # a parent with the same d, r and unit but the opposite comp is no
    # match: the germ category validates and keeps its own tables
    C = next(C for _, C in corpus_cats if C.n_obj == 1
             and C.comp != tuple(zip(*C.comp)))
    C = make_category(C.objects, C.arrows, C.d, C.r, C.unit, C.comp)
    S = slice_semigroup(C)
    S.slice_parent = FinCat(C.objects, C.arrows, C.d, C.r, C.unit,
                            tuple(zip(*C.comp)))
    calls.clear()
    G = germ_category(S).category
    assert (calls["germ"], G.tables_of, G.comp) == (1, None, C.comp)


# -- category isomorphism search -------------------------------------------------------

def relabel_category(C, operm, aperm):
    ainv = [0] * C.n_arr
    for old, new in enumerate(aperm):
        ainv[new] = old
    oinv = [0] * C.n_obj
    for old, new in enumerate(operm):
        oinv[new] = old
    return make_category(
        [C.objects[oinv[i]] for i in range(C.n_obj)],
        [C.arrows[ainv[i]] for i in range(C.n_arr)],
        [operm[C.d[ainv[a]]] for a in range(C.n_arr)],
        [operm[C.r[ainv[a]]] for a in range(C.n_arr)],
        [aperm[C.unit[oinv[o]]] for o in range(C.n_obj)],
        [[aperm[C.comp[ainv[x]][ainv[y]]]
          if C.d[ainv[x]] == C.r[ainv[y]] else -1
          for y in range(C.n_arr)] for x in range(C.n_arr)])


def test_iso_categories_finds_relabeling():
    C = gen_pair_groupoid(2)
    D = relabel_category(C, (1, 0), (3, 1, 2, 0))
    found = iso_categories(C, D)
    assert found is not None
    omap, amap = found
    for x in range(C.n_arr):
        assert D.d[amap[x]] == omap[C.d[x]]
        for y in range(C.n_arr):
            if C.d[x] == C.r[y]:
                assert amap[C.comp[x][y]] == D.comp[amap[x]][amap[y]]


def test_iso_categories_rejects_different_sizes():
    assert iso_categories(gen_pair_groupoid(2), gen_free_arrow()) is None


def test_iso_categories_rejects_same_size_non_isomorphic():
    cyclic = make_category(["o"], ["u", "a", "b"], [0] * 3, [0] * 3, [0],
                           [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    left = make_category(["o"], ["u", "e", "f"], [0] * 3, [0] * 3, [0],
                         [[0, 1, 2], [1, 1, 1], [2, 2, 2]])
    assert iso_categories(cyclic, left) is None


def test_category_signature_is_relabeling_invariant():
    C = gen_pair_groupoid(3)
    D = relabel_category(C, (2, 0, 1), tuple(reversed(range(C.n_arr))))
    assert sorted(category_signature(C)) == sorted(category_signature(D))
    _, amap = iso_categories(C, D)
    for a in range(C.n_arr):
        assert category_signature(C)[a] == category_signature(D)[amap[a]]
