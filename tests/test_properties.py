"""Law sweeps over the whole instance pool.

Each test quantifies one identity over every pool member it applies to,
branching on classification flags rather than on hard-coded names.  The
pool mixes the named semigroups with slice semigroups of the named
categories so both construction paths feed the same laws.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bislice_composites, small_subsemigroups
from oracles import (Slice, choice_arrows, germ_relation_mismatch,
                     slice_product, slice_support)
from stonedual.algebra import (SemigroupMorphism, bd_subalgebra, classify,
                               compatible, deterministic_sets, infer_cosupport,
                               join, meet, partial_isomorphisms)
from stonedual.category import (enumerate_slices, identity_cofunctor,
                                is_groupoid, make_category, slice_semigroup)
from stonedual.duality import (germ_category, iso_categories,
                               morphism_to_cofunctor, theta, unit_eta,
                               counit_epsilon, verify_adjunction,
                               verify_birestriction_equivalence,
                               verify_groupoidal)
from stonedual.zoo import gen_i, gen_pair_groupoid, gen_pt


@pytest.fixture(scope="session")
def pool(zoo_sgs, zoo_cats):
    members = list(zoo_sgs.items())
    for name, C in zoo_cats.items():
        members.append((f"slices_{name}", slice_semigroup(C)))
    members.append(("bislices_k_3",
                    slice_semigroup(zoo_cats["k_3"], bislices_only=True)))
    return [(name, S, classify(S)) for name, S in members]


# -- derived rules -----------------------------------------------------------

def test_support_absorbs_projections(pool):
    # (se)^* = s^*e for every projection e
    for name, S, _ in pool:
        mult, star = S.mult, S.star
        for s in range(S.n):
            for e in S.projections():
                assert star[mult[s][e]] == mult[star[s]][e], (name, s, e)


def test_projection_action_factors_through_support(pool):
    # es = s(es)^*
    for name, S, cls in pool:
        if not cls.flags["restriction"]:
            continue
        mult, star = S.mult, S.star
        for e in S.projections():
            for s in range(S.n):
                es = mult[e][s]
                assert es == mult[s][star[es]], (name, e, s)


def test_order_is_preserved_by_support(pool):
    for name, S, _ in pool:
        star = S.star
        for a in range(S.n):
            for b in range(S.n):
                if S.leq(a, b):
                    assert S.leq(star[a], star[b]), (name, a, b)


def test_compatibility_survives_translation(pool):
    for name, S, _ in pool:
        mult = S.mult
        comp = [[compatible(S, s, t) for t in range(S.n)] for s in range(S.n)]
        for s in range(S.n):
            for t in range(s, S.n):
                if not comp[s][t]:
                    continue
                for u in range(S.n):
                    assert comp[mult[s][u]][mult[t][u]], (name, s, t, u)
                    assert comp[mult[u][s]][mult[u][t]], (name, s, t, u)


def test_join_implies_compatible(pool):
    for name, S, _ in pool:
        for s in range(S.n):
            for t in range(S.n):
                if join(S, s, t) is not None:
                    assert compatible(S, s, t), (name, s, t)


# -- join laws ----------------------------------------------------------------

def test_support_distributes_over_join(pool):
    for name, S, cls in pool:
        if not cls.flags["preboolean_restriction"]:
            continue
        star = S.star
        for s in range(S.n):
            for t in range(S.n):
                j = join(S, s, t)
                if j is None:
                    continue
                assert join(S, star[s], star[t]) == star[j], (name, s, t)


def test_multiplication_distributes_over_join(pool):
    for name, S, cls in pool:
        if not cls.flags["preboolean_restriction"]:
            continue
        mult = S.mult
        for s in range(S.n):
            for t in range(s, S.n):
                j = join(S, s, t)
                if j is None:
                    continue
                for u in range(S.n):
                    assert join(S, mult[u][s], mult[u][t]) == mult[u][j], \
                        (name, u, s, t)
                    assert join(S, mult[s][u], mult[t][u]) == mult[j][u], \
                        (name, s, t, u)


def test_pullback_of_projections_preserves_joins(pool):
    # e -> (es)^* carries e v f to (es)^* v (fs)^*
    for name, S, cls in pool:
        if not cls.flags["preboolean_restriction"]:
            continue
        mult, star = S.mult, S.star
        proj = S.projections()
        for s in range(S.n):
            for e in proj:
                for f in proj:
                    j = join(S, e, f)
                    if j is None:
                        continue
                    lhs = star[mult[j][s]]
                    rhs = join(S, star[mult[e][s]], star[mult[f][s]])
                    assert lhs == rhs, (name, s, e, f)


# -- partial isomorphisms and cosupports ---------------------------------------

def test_partial_isos_are_bideterministic_with_mate_cosupport(pool):
    for name, S, cls in pool:
        if not cls.flags["range"] or S.plus is None:
            continue
        _, _, bidet = deterministic_sets(S)
        partner = partial_isomorphisms(S)
        assert set(partner) <= set(bidet), name
        for s, t in partner.items():
            assert S.plus[s] == S.star[t], (name, s, t)


def test_boolean_members_have_meets_and_cosupports(pool):
    for name, S, cls in pool:
        if not (cls.flags["boolean_restriction"] and cls.flags["has_local_units"]):
            continue
        for s in range(S.n):
            for t in range(S.n):
                assert meet(S, s, t) is not None, (name, s, t)
        assert infer_cosupport(S), name


# -- slice monoid laws ----------------------------------------------------------

def test_slice_monoid_identities(corpus_cats):
    for name, C in corpus_cats:
        T = slice_semigroup(C)
        mult, star = T.mult, T.star
        for a in range(T.n):
            assert mult[a][star[a]] == a, (name, a)
            for b in range(T.n):
                assert star[mult[a][b]] == star[mult[star[a]][b]], (name, a, b)
                assert mult[star[a]][b] == mult[b][star[mult[a][b]]], (name, a, b)
                assert mult[star[a]][star[b]] == mult[star[b]][star[a]], \
                    (name, a, b)


def test_slice_semigroups_are_etale(corpus_cats):
    for name, C in corpus_cats:
        cls = classify(slice_semigroup(C))
        assert cls.flags["etale_range"], (name, cls.witness("etale_range"))


def test_bd_of_slices_is_the_bislice_semigroup(corpus_cats):
    # both composites of the equivalence between étale Boolean range and
    # Boolean birestriction semigroups, read from the category side:
    # bd(Slice(C)) is the bislice semigroup, and its germs are C's arrows
    failures = [(name, check) for name, C in corpus_cats
                for check, ok in bislice_composites(C).items() if not ok]
    assert failures == []


def test_groupoids_are_exactly_the_all_bislice_categories(corpus_cats):
    for name, C in corpus_cats:
        T = slice_semigroup(C)
        _, _, bidet = deterministic_sets(T)
        partner = partial_isomorphisms(T)
        n_bislices = slice_semigroup(C, bislices_only=True).n
        collapse = set(partner) == set(bidet) and len(bidet) == n_bislices
        assert (is_groupoid(C)[0] is not None) == collapse, name


def test_pushforward_of_slice_is_slice(zoo_cats):
    incl_src, incl_tgt = gen_i(2), gen_pt(2)
    incl = SemigroupMorphism(
        incl_src, incl_tgt,
        tuple(incl_tgt.names.index(nm) for nm in incl_src.names))
    cofs = [morphism_to_cofunctor(incl)]
    for C in zoo_cats.values():
        cofs.append(identity_cofunctor(C))
        cofs.append(counit_epsilon(C))
    for F in cofs:
        for A in enumerate_slices(F.source):
            pushed = F.pushforward(A)
            # one entry per object, each an arrow out of it or -1
            assert len(pushed) == F.target.n_obj
            assert all(a == -1 or F.target.d[a] == x
                       for x, a in enumerate(pushed))


# -- germs and theta -------------------------------------------------------------

def _pb(cls):
    return cls.flags["preboolean_restriction"] and cls.flags["has_local_units"]


def test_canonical_germ_matches_brute_relation(pool):
    for name, S, cls in pool:
        if not _pb(cls):
            continue
        assert germ_relation_mismatch(S) is None, name


def test_theta_is_a_homomorphism(pool):
    for name, S, cls in pool:
        if not _pb(cls):
            continue
        C = germ_category(S).category
        th = [Slice(C, choice_arrows(theta(S, s))) for s in range(S.n)]
        for s in range(S.n):
            assert slice_support(th[s]) == th[S.star[s]], (name, s)
            for t in range(S.n):
                assert slice_product(th[s], th[t]) == th[S.mult[s][t]], \
                    (name, s, t)
                j = join(S, s, t)
                if j is not None:
                    assert th[j].arrows == th[s].arrows | th[t].arrows, \
                        (name, s, t)


def test_theta_cosupport_tracks_plus(pool):
    for name, S, cls in pool:
        if not (_pb(cls) and cls.flags["range"]):
            continue
        G = germ_category(S)
        C = G.category
        for s in range(S.n):
            cosup = {C.unit[C.r[a]] for a in choice_arrows(theta(S, s))}
            expect = {C.unit[G.obj_index[a]] for a in G.atoms
                      if S.leq(a, S.plus[s])}
            assert cosup == expect, (name, s)
        for j, elt in enumerate(G.germ_elems):
            assert S.plus[elt] == G.atoms[C.r[j]], (name, j)


def test_bideterministic_theta_is_bislice(pool):
    for name, S, cls in pool:
        if not _pb(cls) or S.plus is None:
            continue
        _, _, bidet = deterministic_sets(S)
        G = germ_category(S)
        for s in bidet:
            assert Slice(G.category, choice_arrows(theta(S, s))).is_bislice(), \
                (name, s)
        if cls.flags["etale_range"]:
            images = {theta(S, s) for s in bidet}
            assert images == set(enumerate_slices(G.category,
                                                  bislices_only=True)), name


def test_germ_category_survives_bd_restriction(pool):
    for name, S, cls in pool:
        if not cls.flags["etale_range"]:
            continue
        B, _ = bd_subalgebra(S)
        res = iso_categories(germ_category(S).category,
                             germ_category(B).category)
        assert res is not None, name


def test_unit_is_injective(pool):
    for name, S, cls in pool:
        if not _pb(cls):
            continue
        eta = unit_eta(S)
        assert len(set(eta.map)) == S.n, name


def _check_duality(family):
    """The paper's statements on every member of family that has a germ
    category: the triangle identities, the unit onto exactly on Boolean
    restriction members, the birestriction equivalence, and a cosupport
    for every Boolean restriction member (they all have local units).
    Returns those members."""
    dual = [S for S in family if _pb(classify(S))]
    for S in dual:
        cls = classify(S)
        assert verify_adjunction(S).passed, S.names
        assert verify_groupoidal(S).passed, S.names
        eta = unit_eta(S)
        assert (len(set(eta.map)) == eta.target.n) == cls.boolean_restriction
        if cls.boolean_birestriction:
            assert verify_birestriction_equivalence(S).passed, S.names
        if cls.boolean_restriction:
            assert S.plus is not None or cls.plus_inferred, S.names
    return dual


def test_duality_on_small_semigroups():
    # the pool's semigroups are slice semigroups, Boolean range by
    # construction, or zoo members; these sub-semigroups of pt_3 and i_3,
    # closed under product and star, are mostly neither, and every member
    # that has a germ category is checked
    family = [*small_subsemigroups(gen_pt(3)), *small_subsemigroups(gen_i(3))]
    dual = _check_duality(family)
    assert (len(family), len(dual)) == (1519, 143)
    assert sum(not classify(S).boolean_restriction for S in dual) == 36


def test_duality_on_pt4_subsemigroups(pt4_subsemigroups):
    # the seeded sample of sub-semigroups of pt_4 (see conftest), none with
    # a plus table: every Boolean restriction member infers one
    dual = _check_duality(pt4_subsemigroups)
    assert (len(pt4_subsemigroups), len(dual)) == (1819, 43)
    assert sum(not classify(S).boolean_restriction for S in dual) == 39
    assert sum(classify(S).boolean_birestriction for S in dual) == 9
    # members above 40 elements go through Light's test; one of them has
    # a generating set small enough, and BR3 checks it on that set
    large = [S for S in dual if S.n > 40]
    assert (len(large), sum(S._generating_set is not None for S in large)) \
        == (5, 1)


# -- sampled variants -------------------------------------------------------------

_PT3 = gen_pt(3)


@given(st.integers(0, _PT3.n - 1), st.integers(0, _PT3.n - 1),
       st.sampled_from(_PT3.projections()))
def test_derived_rules_on_sampled_triples(s, t, e):
    mult, star = _PT3.mult, _PT3.star
    assert star[mult[s][e]] == mult[star[s]][e]
    assert mult[e][s] == mult[s][star[mult[e][s]]]
    if _PT3.leq(s, t):
        assert _PT3.leq(star[s], star[t])


_K3_SLICES = None


def _k3_slices():
    global _K3_SLICES
    if _K3_SLICES is None:
        _K3_SLICES = slice_semigroup(gen_pair_groupoid(3))
    return _K3_SLICES


@settings(deadline=None)
@given(st.integers(0, 63), st.integers(0, 63))
def test_slice_laws_on_sampled_pairs(a, b):
    T = _k3_slices()
    mult, star = T.mult, T.star
    assert star[mult[a][b]] == star[mult[star[a]][b]]
    assert mult[star[a]][b] == mult[b][star[mult[a][b]]]
    assert mult[star[a]][star[b]] == mult[star[b]][star[a]]


def _relabel(C, operm, aperm):
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


_K2 = gen_pair_groupoid(2)


@settings(deadline=None)
@given(st.permutations(tuple(range(2))), st.permutations(tuple(range(4))))
def test_iso_found_for_any_relabeling(operm, aperm):
    D = _relabel(_K2, tuple(operm), tuple(aperm))
    res = iso_categories(_K2, D)
    assert res is not None
    omap, amap = res
    for o in range(_K2.n_obj):
        assert amap[_K2.unit[o]] == D.unit[omap[o]]
    for x in range(_K2.n_arr):
        assert D.d[amap[x]] == omap[_K2.d[x]]
        assert D.r[amap[x]] == omap[_K2.r[x]]
        for y in range(_K2.n_arr):
            if _K2.d[x] == _K2.r[y]:
                assert D.comp[amap[x]][amap[y]] == amap[_K2.comp[x][y]]
