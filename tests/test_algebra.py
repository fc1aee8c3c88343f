import hashlib
from itertools import combinations

import pytest

from oracles import (br1_witness_brute, br1prime_witness_brute,
                     br3_witness_brute, brute_join, inverse_map,
                     leq as oracle_leq, no_meet_witness_brute, parse_map)
from stonedual.algebra import (SIZE_BOUND, BiUnaryAlgebra, bd_subalgebra,
                               check_morphism, classify, compatible,
                               deterministic_sets, has_local_units,
                               infer_cosupport, iso_algebras,
                               join, join_all, make_algebra, meet, nat_leq,
                               partial_isomorphisms, projection_gba,
                               projections, SemigroupMorphism)
from stonedual.errors import (BadTableShape, MathFail, NoLeftUnit,
                              NoPlusTable, NotAssociative, PlusStarMismatch,
                              TooLarge)
from stonedual.zoo import gen_i, gen_pt, gen_triangular


# -- construction ------------------------------------------------------------

def test_duplicate_names_rejected():
    with pytest.raises(BadTableShape):
        make_algebra(["a", "a"], [[0, 0], [0, 1]], [0, 1])


def test_bad_row_length_rejected():
    with pytest.raises(BadTableShape):
        make_algebra(["a", "b"], [[0], [0, 1]], [0, 1])
    with pytest.raises(BadTableShape):
        make_algebra(["a", "b"], [[0, 0], [0, 2]], [0, 1])


def test_non_associative_witness_is_first():
    # x*y = x except 0*1 = 2 breaks (0*0)*1 = 2 vs 0*(0*1) = 0*2 = 0
    n = 3
    mult = [[i] * n for i in range(n)]
    mult[0][1] = 2
    with pytest.raises(NotAssociative) as exc:
        make_algebra(list("abc"), mult, [0, 1, 2])
    assert exc.value.witness == (0, 0, 1)


def test_numpy_associativity_path():
    # 50 elements crosses the chunked-verification threshold
    n = 50
    mult = [[i] * n for i in range(n)]
    S = make_algebra([f"e{i}" for i in range(n)], mult, list(range(n)))
    assert S.n == n
    mult[0][1] = 2
    with pytest.raises(NotAssociative) as exc:
        make_algebra([f"e{i}" for i in range(n)], mult, list(range(n)))
    assert exc.value.witness == (0, 0, 1)


def test_make_algebra_size_guard_fires_before_the_laws():
    # SIZE_BOUND + 1 elements; x*y = f(y) with f(0) = 1, else 0, is not
    # associative: (x*y)*0 = 1 but x*(y*0) = 0
    n = SIZE_BOUND + 1
    with pytest.raises(TooLarge) as exc:
        make_algebra([f"e{i}" for i in range(n)], [[1] + [0] * (n - 1)] * n,
                     [0] * n)
    assert (exc.value.predicted, exc.value.bound) == (n, SIZE_BOUND)


def test_declared_zero_must_absorb():
    # 'a' is not absorbing: a*b = b
    mult = [[1, 1], [1, 1]]
    with pytest.raises(MathFail):
        make_algebra(["z", "b"], mult, [0, 1], zero=0)


def test_plus_star_image_mismatch():
    # meet semilattice on {0 < 1}, plus lands only on 1
    S = make_algebra(["z", "e"], [[0, 0], [0, 1]], [0, 1], plus=[1, 1])
    with pytest.raises(PlusStarMismatch):
        projections(S)


# -- order, compatibility, joins ---------------------------------------------

def test_natural_order_matches_map_containment():
    S = gen_pt(2)
    maps = [parse_map(nm) for nm in S.names]
    for a in range(S.n):
        for b in range(S.n):
            expected = set(maps[a].items()) <= set(maps[b].items())
            assert S.leq(a, b) == expected
            assert nat_leq(S, a, b) == expected


def test_plus_order_matches_star_order_on_inverse_elements():
    S = gen_i(2)
    for a in range(S.n):
        for b in range(S.n):
            assert nat_leq(S, a, b, side="plus") == \
                (S.mult[S.plus[a]][b] == a)


def test_right_compatibility_means_agreement_on_overlap():
    S = gen_pt(2)
    maps = [parse_map(nm) for nm in S.names]
    for s in range(S.n):
        for t in range(S.n):
            overlap = set(maps[s]) & set(maps[t])
            agree = all(maps[s][x] == maps[t][x] for x in overlap)
            assert compatible(S, s, t, "right") == agree


def test_left_compatibility_needs_plus():
    S = gen_pt(2)
    stripped = make_algebra(S.names, S.mult, S.star)
    with pytest.raises(NoPlusTable):
        compatible(stripped, 0, 1, "bi")


@pytest.mark.parametrize("gen", [gen_i, gen_triangular])
def test_join_and_meet_match_brute_force(gen):
    S = gen(2)
    for s in range(S.n):
        for t in range(S.n):
            assert join(S, s, t) == brute_join(S, s, t)
            assert S.joins[s][t] == brute_join(S, s, t)
            lbs = [u for u in range(S.n)
                   if oracle_leq(S, u, s) and oracle_leq(S, u, t)]
            greatest = [u for u in lbs
                        if all(oracle_leq(S, v, u) for v in lbs)]
            assert meet(S, s, t) == (greatest[0] if greatest else None)


def _small_subsemigroups(P, limit=12):
    """Sub-semigroups of P generated by one or two elements and closed
    under product and star, with at most limit elements."""
    seen = set()
    for gens in [(a,) for a in range(P.n)] + list(combinations(range(P.n), 2)):
        elems = set(gens)
        while len(elems) <= limit:
            new = {P.mult[a][b] for a in elems for b in elems}
            new |= {P.star[a] for a in elems}
            if new <= elems:
                break
            elems |= new
        keep = tuple(sorted(elems))
        if len(keep) > limit or keep in seen:
            continue
        seen.add(keep)
        pos = {e: i for i, e in enumerate(keep)}
        yield make_algebra([P.names[e] for e in keep],
                           [[pos[P.mult[a][b]] for b in keep] for a in keep],
                           [pos[P.star[a]] for a in keep])


def test_join_axiom_witnesses_match_brute_force():
    failed = {"BR1": 0, "BR3": 0, "no-meet": 0}
    for S in _small_subsemigroups(gen_pt(3)):
        cls = classify(S)
        no_meet = no_meet_witness_brute(S)
        assert cls.has_binary_meets == (no_meet is None)
        assert cls.witness("has_binary_meets") == no_meet
        failed["no-meet"] += no_meet is not None
        try:
            projection_gba(S)
        except MathFail:
            continue
        if not (cls.restriction and cls.has_zero_projection):
            continue
        br1, br1p, br3 = (br1_witness_brute(S), br1prime_witness_brute(S),
                          br3_witness_brute(S))
        failed["BR1"] += br1 is not None
        failed["BR3"] += br3 is not None
        for flag, first in (("boolean_restriction", br1 or br3),
                            ("preboolean_restriction", br1p or br3)):
            assert cls.flags[flag] == (first is None), (S.names, flag)
            assert cls.witness(flag) == first, (S.names, flag)
    # the family has BR1, BR3 and no-meet failures (none of BR1')
    assert all(failed.values()), failed


def test_classification_of_pt3_subsemigroups_is_pinned():
    # every flag, witness and rendered line over the family, as SHA-256
    text = "\n\n".join(classify(S).render(S.names)
                        for S in _small_subsemigroups(gen_pt(3)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2ed128b36e06eb4b4e472ff6a9f0bbd3c8997c5a543cba3c313e8ac8e8cc540e")


def test_join_all_folds_and_fails():
    S = gen_i(2)
    zero = S.zero
    assert join_all(S, [zero]) == zero
    # 1|-> 1 and 2|->1 are compatible but have no join in I_2
    assert join(S, 1, 3) is None
    assert join_all(S, [1, 3]) is None


def test_local_units_present_in_zoo():
    for S in (gen_pt(2), gen_i(2), gen_triangular(3)):
        ok, witness = has_local_units(S)
        assert ok and witness is None


# -- projection lattice and subalgebras ---------------------------------------

def test_projections_of_pt2_are_partial_identities():
    S = gen_pt(2)
    expected = tuple(i for i, nm in enumerate(S.names)
                     if all(int(c) == x for x, c in
                            enumerate(nm, start=1) if c != "-"))
    assert projections(S) == expected == (0, 1, 4, 6)


def test_projection_gba_bijection():
    S = gen_pt(2)
    E, to_mask, from_mask = projection_gba(S)
    assert len(E) == 4
    for e in projections(S):
        assert from_mask[to_mask[e]] == e
    masks = sorted(to_mask.values())
    assert masks == list(E.elements)


def test_deterministic_sets_of_pt2():
    S = gen_pt(2)
    det, codet, bidet = deterministic_sets(S)
    assert det == tuple(range(9))
    injective = tuple(i for i, nm in enumerate(S.names)
                      if len({c for c in nm if c != "-"})
                      == sum(c != "-" for c in nm))
    assert codet == bidet == injective


def test_bd_subalgebra_of_pt2_is_i2():
    sub, keep = bd_subalgebra(gen_pt(2))
    assert sub.n == 7
    assert iso_algebras(sub, gen_i(2)) is not None
    assert all(gen_pt(2).names[k] == sub.names[i]
               for i, k in enumerate(keep))


def test_partial_isomorphisms_have_literal_inverses():
    S = gen_pt(2)
    piso = partial_isomorphisms(S)
    for s, t in piso.items():
        assert parse_map(S.names[t]) == inverse_map(parse_map(S.names[s]))
    injective = {i for i, nm in enumerate(S.names)
                 if len({c for c in nm if c != "-"})
                 == sum(c != "-" for c in nm)}
    assert set(piso) == injective


def test_partial_isomorphisms_of_triangular_are_projections():
    S = gen_triangular(3)
    piso = partial_isomorphisms(S)
    assert set(piso) == set(projections(S))
    assert len(piso) == 8
    assert all(s == t for s, t in piso.items())


# -- cosupport inference -------------------------------------------------------

@pytest.mark.parametrize("gen,n", [(gen_pt, 1), (gen_pt, 2), (gen_i, 2),
                                   (gen_triangular, 2), (gen_triangular, 3)])
def test_infer_cosupport_reproduces_withheld_table(gen, n):
    S = gen(n)
    stripped = make_algebra(S.names, S.mult, S.star, zero=S.zero)
    result = infer_cosupport(stripped)
    assert result
    assert result.table == S.plus


def test_infer_cosupport_no_left_unit():
    # s has no left local unit: z*s = z
    S = make_algebra(["z", "s"], [[0, 0], [1, 1]], [0, 0])
    with pytest.raises(NoLeftUnit) as exc:
        infer_cosupport(S)
    assert exc.value.witness == (1,)


def test_classify_infers_plus_quietly():
    S = gen_i(2)
    stripped = make_algebra(S.names, S.mult, S.star, zero=S.zero)
    cls = classify(stripped)
    assert cls.plus_inferred
    assert cls.flags == classify(S).flags


# -- classification -----------------------------------------------------------

def test_classify_pt2_frozen_flags():
    cls = classify(gen_pt(2))
    assert cls.flags["restriction"]
    assert cls.flags["range"]
    assert cls.flags["boolean_restriction"]
    assert cls.flags["etale_range"]
    assert cls.flags["groupoidal_etale"]
    assert not cls.flags["corestriction"]
    assert not cls.flags["inverse"]
    assert cls.witness("corestriction") is not None


def test_classify_i2_frozen_witness():
    cls = classify(gen_i(2))
    assert cls.flags["boolean_birestriction"]
    assert cls.flags["inverse"]
    assert not cls.flags["boolean_restriction"]
    assert cls.witness("boolean_restriction") == ("BR1", (1, 3))


def test_classify_triangular_flags():
    cls = classify(gen_triangular(2))
    assert cls.flags["etale_range"]
    assert not cls.flags["groupoidal_etale"]
    assert not cls.flags["inverse"]


def test_classification_render_mentions_witness():
    text = classify(gen_i(2)).render(gen_i(2).names)
    assert "boolean_restriction=false" in text
    assert "witness=" in text


# -- morphisms ----------------------------------------------------------------

def inclusion_map(sub, sup):
    return tuple(sup.names.index(nm) for nm in sub.names)


def test_inclusion_passes_all_types():
    I, P = gen_i(2), gen_pt(2)
    f = SemigroupMorphism(I, P, inclusion_map(I, P))
    for mtype in (1, 2, 3, 4):
        verdict = check_morphism(f, mtype)
        assert verdict.ok, (mtype, verdict.failed, verdict.witness)


def test_constant_to_zero_fails_properness_on_projections():
    P = gen_pt(2)
    f = SemigroupMorphism(P, P, (P.zero,) * P.n)
    verdict = check_morphism(f, 1)
    assert not verdict.ok
    assert verdict.failed == "proj-proper"


def test_embedding_passing_12_failing_34():
    I1, I2 = gen_i(1), gen_i(2)
    ident = I2.names.index("12")
    f = SemigroupMorphism(I1, I2, (I2.zero, ident))
    assert check_morphism(f, 1).ok
    assert check_morphism(f, 2).ok
    verdict = check_morphism(f, 3)
    assert not verdict.ok and verdict.failed == "proper"
    assert not check_morphism(f, 4).ok


def test_plus_preservation_switch():
    I, P = gen_i(2), gen_pt(2)
    f = SemigroupMorphism(I, P, inclusion_map(I, P))
    assert check_morphism(f, 1, require_plus=True).ok
    stripped = make_algebra(I.names, I.mult, I.star, zero=I.zero)
    g = SemigroupMorphism(stripped, P, inclusion_map(I, P))
    with pytest.raises(NoPlusTable):
        check_morphism(g, 1, require_plus=True)


# -- isomorphism search ---------------------------------------------------------

def shuffle_algebra(S, perm):
    inv = [0] * S.n
    for old, new in enumerate(perm):
        inv[new] = old
    names = [S.names[inv[i]] for i in range(S.n)]
    mult = [[perm[S.mult[inv[i]][inv[j]]] for j in range(S.n)]
            for i in range(S.n)]
    star = [perm[S.star[inv[i]]] for i in range(S.n)]
    plus = [perm[S.plus[inv[i]]] for i in range(S.n)]
    return make_algebra(names, mult, star, plus,
                        perm[S.zero] if S.zero is not None else None)


def test_iso_algebras_finds_relabeling():
    S = gen_pt(2)
    T = shuffle_algebra(S, tuple(reversed(range(S.n))))
    found = iso_algebras(S, T)
    # PT_2 has a nontrivial automorphism, so any valid map is acceptable
    assert found is not None
    assert sorted(found) == list(range(S.n))
    for i in range(S.n):
        assert found[S.star[i]] == T.star[found[i]]
        assert found[S.plus[i]] == T.plus[found[i]]
        for j in range(S.n):
            assert found[S.mult[i][j]] == T.mult[found[i]][found[j]]


def test_iso_codes_correspond_under_the_found_isomorphism():
    S = gen_pt(3)
    T = shuffle_algebra(S, [(5 * i + 3) % S.n for i in range(S.n)])
    found = iso_algebras(S, T)
    assert found is not None
    for i in range(S.n):
        assert S.iso_codes[i] == T.iso_codes[found[i]]


def test_iso_algebras_size_fast_path():
    assert iso_algebras(gen_pt(2), gen_i(2)) is None


def test_iso_algebras_preserves_plus():
    S = gen_pt(2)
    plus_is_star = make_algebra(S.names, S.mult, S.star, S.star, S.zero)
    assert iso_algebras(S, plus_is_star) is None


def test_iso_algebras_on_a_long_chain():
    # one search step per element; built without make_algebra, whose
    # associativity check is cubic
    n = 1000
    names = [f"c{i}" for i in range(n)]
    S = BiUnaryAlgebra(names, [[min(i, j) for j in range(n)] for i in range(n)],
                       range(n))
    perm = [(7 * i) % n for i in range(n)]  # 7 is prime to 1000
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    T = BiUnaryAlgebra([names[inv[i]] for i in range(n)],
                       [[perm[min(inv[i], inv[j])] for j in range(n)]
                        for i in range(n)], range(n))
    assert iso_algebras(S, T) == tuple(perm)


def test_iso_algebras_rejects_same_size_non_isomorphic():
    chain = make_algebra(
        [f"c{i}" for i in range(6)],
        [[min(i, j) for j in range(6)] for i in range(6)],
        list(range(6)))
    T = gen_triangular(2)
    stripped = make_algebra(T.names, T.mult, T.star)
    assert iso_algebras(chain, stripped) is None
