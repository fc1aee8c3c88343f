import hashlib
import random
import re
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest

from conftest import (check_read_order, shuffle_algebra, small_subsemigroups,
                      subsemigroup)
from oracles import (br1_witness_brute, br1prime_witness_brute,
                     br3_witness_brute, brute_join, brute_meet,
                     check_morphism_by_chain, generators_reference,
                     inverse_map, is_preorder_brute,
                     join_all_brute, join_cover_witness_brute,
                     leq as oracle_leq, map_name, nat_leq,
                     no_meet_witness_brute, order_masks_reference, parse_map,
                     weak_meet_witness_brute)
from test_memory import traced_peak_mb
from stonedual import algebra
from stonedual.algebra import (SIZE_BOUND, AlgebraClassification,
                               BiUnaryAlgebra, MorphismVerdict,
                               bd_subalgebra, check_morphism, classify,
                               compatible, deterministic_sets, has_local_units,
                               infer_cosupport, iso_algebras,
                               join, join_all, make_algebra, meet,
                               partial_isomorphisms, projection_gba,
                               projections, SemigroupMorphism,
                               with_inferred_plus)
from stonedual.errors import (BadTableShape, CompDomainMismatch, InputError,
                              InvariantViolation, MathFail, NoLeftUnit,
                              NoPlusTable, NotAssociative, PlusStarMismatch,
                              SdlError, TooLarge, UnknownElement)
from stonedual.category import (Cofunctor, identity_cofunctor,
                                make_category, slice_semigroup)
from stonedual.duality import verify_groupoidal
from stonedual.io import instance_to_dict
from stonedual.report import format_witness
from stonedual.zoo import gen_i, gen_pair_groupoid, gen_pt, gen_triangular


# -- construction ------------------------------------------------------------

def test_duplicate_names_rejected():
    with pytest.raises(BadTableShape):
        make_algebra(["a", "a"], [[0, 0], [0, 1]], [0, 1])


def test_bad_row_length_rejected():
    with pytest.raises(BadTableShape):
        make_algebra(["a", "b"], [[0], [0, 1]], [0, 1])
    with pytest.raises(BadTableShape):
        make_algebra(["a", "b"], [[0, 0], [0, 2]], [0, 1])


def test_out_of_range_message_names_the_first_bad_entry():
    # row 1 holds two bad entries in its middle; the first is named
    with pytest.raises(BadTableShape) as exc:
        make_algebra(["a", "b", "c", "e"],
                     [[0, 1, 2, 3], [1, 7, -1, 3], [2, 9, 2, 3], [3] * 4],
                     [0, 1, 2, 3])
    assert str(exc.value) == "mult entry 7 out of range"


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


@pytest.mark.parametrize("chunk,count,width", [
    (1 << 16, 0, 7), (1, 5, 3), (1, 0, 1), (12, 12, 3), (12, 13, 3),
    (12, 11, 4), (65536, 256, 256), (65536, 300, 256), (65536, 4, 70000)])
def test_blocks_cover_the_items_in_order(monkeypatch, chunk, count, width):
    # no items, one-cell chunks, and exact and inexact multiples of the
    # block size: the ranges tile 0..count in order, each full but the last
    monkeypatch.setattr(algebra, "_CHUNK_CELLS", chunk)
    step = max(1, chunk // width)
    blocks = algebra._blocks(count, width)
    assert [lo for lo, _ in blocks] == list(range(0, count, step))
    assert [hi for _, hi in blocks] == [lo for lo, _ in blocks[1:]] + (
        [count] if count else [])
    assert all(0 < hi - lo <= step for lo, hi in blocks)
    assert all(hi - lo == step for lo, hi in blocks[:-1])


def test_full_associativity_scan_holds_one_block_of_triples():
    # x*y = x on 300 elements: one row i by a block of 218 rows j, 65,400
    # triples, at a time, about 0.84 MB with the int16 gathers, the intp
    # copy of the take's indices and the comparison; i blocks as tall as
    # the j blocks would hold 218 times as much
    n = 300
    a = np.repeat(np.arange(n, dtype=np.int16)[:, None], n, axis=1)
    assert traced_peak_mb(lambda: algebra._assoc_numpy(a)) < 1.2


@pytest.mark.parametrize("gen,n", [(gen_pt, 3), (gen_triangular, 4)])
def test_light_test_finds_the_first_triple_of_mutated_tables(gen, n):
    # 64 and 120 elements: Light's test runs first; each table has one cell
    # changed, and the expected triple comes from one whole-table comparison
    S = gen(n)
    rng = random.Random(n)
    failures = 0
    for _ in range(30):
        mult = [list(row) for row in S.mult]
        mult[rng.randrange(S.n)][rng.randrange(S.n)] = rng.randrange(S.n)
        a = np.array(mult)
        bad = np.argwhere(a[a] != a[:, a])
        if len(bad) == 0:
            make_algebra(S.names, mult, S.star)
            continue
        with pytest.raises(NotAssociative) as exc:
            make_algebra(S.names, mult, S.star)
        assert exc.value.witness == tuple(map(int, bad[0]))
        failures += 1
    assert failures > 20


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


def test_declared_zero_must_be_a_projection():
    # z absorbs, but its support is e
    with pytest.raises(MathFail, match="declared zero is not a projection") \
            as exc:
        make_algebra(["z", "e"], [[0, 0], [0, 1]], [1, 1], zero=0)
    assert exc.value.witness == (0,)


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


def test_left_compatibility_means_an_idempotent_quotient():
    # in an inverse semigroup t^+ s = s^+ t just when s^-1 t is idempotent
    S = gen_i(3)
    inv = [S.names.index(map_name(inverse_map(parse_map(nm)), 3))
           for nm in S.names]
    for s in range(S.n):
        for t in range(S.n):
            q = S.mult[inv[s]][t]
            assert compatible(S, s, t, "left") == (S.mult[q][q] == q)


def test_left_compatibility_needs_plus():
    S = gen_pt(2)
    stripped = make_algebra(S.names, S.mult, S.star)
    with pytest.raises(NoPlusTable):
        compatible(stripped, 0, 1, "bi")


def _relation_algebra(rel):
    """A table whose natural order is the relation R given by the bool
    matrix rel: star the identity, and b*a = a just when a R b."""
    n = len(rel)
    return BiUnaryAlgebra(range(n), [[a if rel[a][b] else (a + 1) % n
                                      for a in range(n)] for b in range(n)],
                          range(n))


def _relations():
    """Seeded arbitrary relations on 2 to 12 elements (_relation_algebra)."""
    rng = random.Random(7)
    for _ in range(300):
        n, p = rng.randrange(2, 13), rng.random()
        yield _relation_algebra([[rng.random() < p for b in range(n)]
                                 for a in range(n)])


def _preorders():
    """Seeded preorders on 2 to 12 elements, most with ties: the reflexive
    and transitive closures of sparse random relations."""
    rng = random.Random(29)
    for _ in range(100):
        n, p = rng.randrange(2, 13), rng.random() / 3
        rel = [[a == b or rng.random() < p for b in range(n)]
               for a in range(n)]
        for k in range(n):
            for a in range(n):
                if rel[a][k]:
                    rel[a] = [x or y for x, y in zip(rel[a], rel[k])]
        yield _relation_algebra(rel)


JOIN_MEET_FAMILIES = {
    "gen_i": lambda: [gen_i(2)],
    "gen_triangular": lambda: [gen_triangular(2)],
    "mutated": lambda: [BiUnaryAlgebra(S.names, mult, star, S.plus, S.zero)
                        for S, mult, star in _mutated_tables()],
    "pt3-i3-small": lambda: [*small_subsemigroups(gen_pt(3)),
                             *small_subsemigroups(gen_i(3))],
    "relations": _relations,
    # a chain, the left-zero band, whose order is equality, and the
    # right-zero band, whose order relates every pair, so each element
    # ties with all others
    "bands": lambda: [_op_table(op, perm) for op in (min, lambda i, j: i,
                                                     lambda i, j: j)
                      for perm in ([0, 1, 2, 3, 4, 5], [3, 0, 5, 1, 4, 2])],
    "preorders": _preorders,
}


def _least_by_definition(masks, s, t):
    """The lowest-index element m of masks[s] & masks[t] whose own mask
    covers that set, or None."""
    common = masks[s] & masks[t]
    return next((m for m in range(len(masks)) if common >> m & 1
                 and common & ~masks[m] == 0), None)


def _wide_relation(n):
    """As _relations builds them: 0 and 1 below each of 2..n-1, which are
    mutually unrelated, so the common up set of 0 and 1 is an antichain of
    n - 2 elements, none of which covers it."""
    return BiUnaryAlgebra(range(n), [[a if a == b or a < 2 <= b else (a + 1) % n
                                      for a in range(n)] for b in range(n)],
                          range(n))


@pytest.mark.parametrize("family", JOIN_MEET_FAMILIES)
def test_join_and_meet_match_brute_force(monkeypatch, family):
    # the mutated tables and the relations are not all partial orders (see
    # test_numpy_classification_matches_python_on_mutated_tables); on every
    # relation the bound is the lowest-index element m of the common set
    # whose own mask covers it, which the oracles find from leq alone.  On
    # a preorder join and meet look it up, on any other relation they scan
    # (_least): each is checked with its folds at both cutoffs, on a fresh
    # algebra each
    rng = random.Random(12)
    for S in JOIN_MEET_FAMILIES[family]():
        n = S.n
        joins = [[brute_join(S, s, t) for t in range(n)] for s in range(n)]
        meets = [[brute_meet(S, s, t) for t in range(n)] for s in range(n)]
        lowers = [(1 << n) - 1, rng.getrandbits(n), rng.getrandbits(n)]
        covers = [join_cover_witness_brute(S, lower) for lower in lowers]
        lists = [rng.sample(range(n), rng.randrange(1, n + 1))
                 for _ in range(3)]
        folds = [join_all_brute(S, elems) for elems in lists]
        preorder = is_preorder_brute(S)
        for threshold in (0, SIZE_BOUND):
            monkeypatch.setattr(algebra, "_NUMPY_THRESHOLD", threshold)
            X = BiUnaryAlgebra(S.names, S.mult, S.star, S.plus, S.zero)
            assert (X._holders is not None) == preorder
            for s in range(n):
                for t in range(n):
                    assert join(X, s, t) == X.joins[s][t] == joins[s][t]
                    assert meet(X, s, t) == meets[s][t]
                    for masks, rank in ((X.up, X._up_rank),
                                        (X.down, X._down_rank)):
                        assert algebra._least(rank, s, t) == (
                            _least_by_definition(masks, s, t))
                    assert algebra._least(X._up_rank, s, t) == joins[s][t]
                    assert algebra._least(X._down_rank, s, t) == meets[s][t]
            assert [join_all(X, elems) for elems in lists] == folds
            assert [algebra._join_cover_witness(X, lower)
                    for lower in lowers] == covers
    if family != "relations":
        return
    # a cover is no smaller than the common set, so the scan stops at the
    # first smaller mask: on the wide relation one candidate settles (0, 1)
    # where a scan without that stop tries all 298
    S, tried = _wide_relation(300), []
    families = ((S.up, S._up_rank), (S.down, S._down_rank))
    real_bits = algebra._iter_bits
    monkeypatch.setattr(algebra, "_iter_bits", lambda mask: (
        tried.append(b) or b for b in real_bits(mask)))
    for masks, rank in families:
        for s, t in ((0, 1), (1, 0), (0, 2), (2, 3)):
            tried.clear()
            assert algebra._least(rank, s, t) == _least_by_definition(
                masks, s, t)
            assert len(tried) <= 2, (s, t, len(tried))


def _op_table(op, perm):
    """The table of op, a binary function on range(len(perm)), with star
    the identity and element i renamed perm[i]."""
    n = len(perm)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return BiUnaryAlgebra([f"c{inv[i]}" for i in range(n)],
                          [[perm[op(inv[i], inv[j])] for j in range(n)]
                           for i in range(n)], range(n))


@pytest.mark.parametrize("op,flags", [(min, (True, True)),
                                      (max, (True, True)),
                                      (lambda i, j: j, (True, False))],
                         ids=["min-chain", "max-chain", "right-zero-band"])
def test_least_bounds_try_at_most_two_candidates(monkeypatch, op, flags):
    # a scan of the common bits in index order tries O(n) candidates per
    # pair on a chain whose indices run against the order, and forcing
    # these flags then takes over a minute at 1,000 elements; so the count
    # is pinned, on the table and a seeded relabelled copy, not the time.
    # The right-zero band's order relates every pair: every mask covers.
    # Each of these orders is a preorder, so classify takes every bound
    # by lookup and scans none; the rank-order scan, which any other
    # relation takes, is then pinned on every pair of both families
    n, calls, tried, inside = 300, [], [], []
    real_least, real_bits = algebra._least, algebra._iter_bits

    def least(rank, s, t):
        tried.append(0)
        inside.append(True)
        try:
            return real_least(rank, s, t)
        finally:
            inside.pop()

    def bits(mask):
        for b in real_bits(mask):
            if inside:  # not the join cover's own scan of the bits below s
                tried[-1] += 1
            yield b

    for name in ("join", "meet"):
        bound = getattr(algebra, name)
        monkeypatch.setattr(algebra, name, lambda S, s, t, bound=bound: (
            calls.append(0) or bound(S, s, t)))
    monkeypatch.setattr(algebra, "_least", least)
    monkeypatch.setattr(algebra, "_iter_bits", bits)
    perm = list(range(n))
    random.Random(3).shuffle(perm)
    for S in (_op_table(op, list(range(n))), _op_table(op, perm)):
        calls.clear()
        cls = classify(S)
        assert (cls.has_binary_meets, cls.groupoidal_etale) == flags
        assert len(calls) >= n * (n + 1) // 2 and tried == []
        for rank in (S._up_rank, S._down_rank):
            for s in range(n):
                for t in range(s, n):
                    algebra._least(rank, s, t)
        assert len(tried) == n * (n + 1) and max(tried) <= 2
        tried.clear()


def _cover_masks(S, rng):
    """Lower masks for the join-cover fold: all elements but three drawn
    at random, and when S has or infers a plus table, its bideterministic
    mask whole and with two elements dropped."""
    drop = lambda mask, k: mask & ~sum(1 << b for b in rng.sample(range(S.n), k))
    masks = [drop((1 << S.n) - 1, 3)]
    try:
        probe = with_inferred_plus(S)
    except MathFail:
        probe = None
    if probe is not None:
        bidet = sum(1 << b for b in deterministic_sets(probe)[2])
        masks += [bidet, drop(bidet, 2)]
    return masks


def _matrix_cover_witness(joins, down, lower):
    """join_cover_witness_brute(S, lower), with each join read from the
    matrix joins of S (-1 where none) and the order from its down masks."""
    for s, below in enumerate(down):
        acc, rest = None, below & lower
        while rest and acc != -1:
            e = (rest & -rest).bit_length() - 1
            acc, rest = e if acc is None else joins[acc][e], rest & rest - 1
        if acc != s:
            return ("join-cover", (s,))
    return None


def test_array_least_bounds_and_cover_match_python(pt4, pt4_subsemigroups):
    # above the cutoff the join matrix is built on arrays; it is compared
    # with _least on every table above the cutoff of the seeded pt_4 family
    # and on pt_4, i_4, triangular_4 and Slice(K_4), all of them partial
    # orders.  On each, the etale rule's join-cover fold is compared with
    # the brute-force oracle, whose joins scan every element: on the two
    # 625-element tables that takes about 1 s a mask, so there it is
    # compared with the same fold over the join matrix
    tables = [S for S in pt4_subsemigroups if S.n > algebra._NUMPY_THRESHOLD]
    assert len(tables) == 953
    tables += [pt4, gen_i(4), gen_triangular(4),
               slice_semigroup(gen_pair_groupoid(4))]
    rng, witnesses = random.Random(24), Counter()
    for S in tables:
        n, up, rank = S.n, S.up, S._up_rank
        least, shared = algebra._least_array(rank)
        # _least reads only the common set, so it is symmetric, and the
        # pairs s <= t with the symmetry of the arrays cover every pair
        assert (least == least.T).all() and (shared == shared.T).all()
        assert [least[s, s:].tolist() for s in range(n)] == [
            [-1 if (j := algebra._least(rank, s, t)) is None else j
             for t in range(s, n)] for s in range(n)]
        assert [shared[s, s:].tolist() for s in range(n)] == [
            [up[s] & up[t] != 0 for t in range(s, n)] for s in range(n)]
        rows = least.tolist()
        for lower in _cover_masks(S, rng):
            w = algebra._join_cover_witness(S, lower)
            assert w == (join_cover_witness_brute(S, lower) if n < 600 else
                         _matrix_cover_witness(rows, S.down, lower)), (
                S.names, lower)
            witnesses[w] += 1
    # of the 1,413 folds 257 pass, and the rest fail at 41 distinct elements
    assert (sum(witnesses.values()), witnesses[None], len(witnesses)) == (
        1413, 257, 42)


def test_join_cover_fold_keeps_a_missing_join(numpy_kernel):
    # a poset, as _relations realises one: above[a] lists the b > a.  Below
    # 6 the fold meets 1 and 3, whose least common upper bounds 0 and 6 are
    # incomparable, so there is no join; a fold that joined on with 5, from
    # a missing join read as -1, the last row of a join matrix, would come
    # out as 6
    above = [{4}, {0, 4, 6}, {0, 4}, {0, 2, 4, 5, 6}, set(), {0, 4, 6}, {4}]
    n = len(above)
    S = BiUnaryAlgebra(range(n), [[a if a == b or b in above[a] else b
                                   for a in range(n)] for b in range(n)],
                       range(n))
    for lower in (0b0111110, 0b0000000, 0b0000010):
        assert algebra._join_cover_witness(S, lower) == \
            join_cover_witness_brute(S, lower)
    assert algebra._join_cover_witness(S, 0b0111110) == ("join-cover", (6,))
    assert _matrix_cover_witness(algebra._least_array(S._up_rank)[0].tolist(),
                                 S.down, 0b0111110) == ("join-cover", (6,))


def _check_join_axiom_witnesses():
    failed = {"BR1": 0, "BR3": 0, "no-meet": 0}
    for S in small_subsemigroups(gen_pt(3)):
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
        assert algebra._br3_witness(S) == _br3_full_scan(S) == br3, S.names
        failed["BR1"] += br1 is not None
        failed["BR3"] += br3 is not None
        for flag, first in (("boolean_restriction", br1 or br3),
                            ("preboolean_restriction", br1p or br3)):
            assert cls.flags[flag] == (first is None), (S.names, flag)
            assert cls.witness(flag) == first, (S.names, flag)
    # the family has BR1, BR3 and no-meet failures (none of BR1')
    assert all(failed.values()), failed


def test_flags_read_in_any_order_match_the_forced_ones(zoo_sgs):
    family = [*small_subsemigroups(gen_pt(3)), *zoo_sgs.values()]
    for seed, S in enumerate(family):
        check_read_order(lambda: algebra._classify(S), seed)


def test_join_axiom_witnesses_match_brute_force():
    _check_join_axiom_witnesses()


def test_numpy_join_axiom_witnesses_match_brute_force(numpy_kernel):
    _check_join_axiom_witnesses()


def _pt3_classification_digest():
    # every flag, witness and rendered line over the family, as SHA-256
    text = "\n\n".join(classify(S).render(S.names)
                        for S in small_subsemigroups(gen_pt(3)))
    return hashlib.sha256(text.encode()).hexdigest()


PT3_CLASSIFICATION_DIGEST = (
    "2ed128b36e06eb4b4e472ff6a9f0bbd3c8997c5a543cba3c313e8ac8e8cc540e")


def test_classification_of_pt3_subsemigroups_is_pinned():
    assert _pt3_classification_digest() == PT3_CLASSIFICATION_DIGEST


def test_numpy_classification_of_pt3_subsemigroups_is_pinned(numpy_kernel):
    assert _pt3_classification_digest() == PT3_CLASSIFICATION_DIGEST


def _is_partial_order(S):
    n = range(S.n)
    return not any(
        (oracle_leq(S, a, b) and oracle_leq(S, b, a) and a != b)
        or (oracle_leq(S, a, b) and oracle_leq(S, b, c)
            and not oracle_leq(S, a, c))
        for a in n for b in n for c in n)


def _mutated_tables():
    """(S, mult, star): tables of pt_2, i_2, triangular_3 and i_3 with one
    to three star or product cells changed at random."""
    rng = random.Random(5)
    for S in (gen_pt(2), gen_i(2), gen_triangular(3), gen_i(3)):
        for _ in range(25):
            mult, star = [list(row) for row in S.mult], list(S.star)
            for _ in range(rng.choice((1, 2, 3))):
                if rng.random() < 0.5:
                    mult[rng.randrange(S.n)][rng.randrange(S.n)] = (
                        rng.randrange(S.n))
                else:
                    star[rng.randrange(S.n)] = rng.randrange(S.n)
            yield S, mult, star


def test_numpy_classification_matches_python_on_mutated_tables(monkeypatch):
    # most mutated tables are no longer Ehresmann, so their natural order
    # need not be a partial order; the numpy join kernel is read only under
    # the restriction flag, and the meets scan is Python only.  The natural
    # order has one form, a loop, at both cutoffs (see
    # test_order_masks_and_support_scans_match_the_python_loops)
    not_partial = 0
    for S, mult, star in _mutated_tables():
        seen = []
        for threshold in (SIZE_BOUND, 0):  # Python, numpy
            monkeypatch.setattr(algebra, "_NUMPY_THRESHOLD", threshold)
            T = BiUnaryAlgebra(S.names, mult, star, S.plus, S.zero)
            seen.append((classify(T).render(), T.joins, T.up, T.down))
        assert seen[0] == seen[1], (S.names, mult, star)
        not_partial += not _is_partial_order(T)
    assert not_partial > 10, not_partial


def test_order_masks_and_support_scans_match_the_python_loops(
        monkeypatch, zoo_sgs, corpus_cats):
    # the natural order, one loop over the projections at every size,
    # against the loop over all pairs; the support and restriction axioms
    # keep both forms, each run at both cutoffs.  The tables fail each axiom
    # at many places, and the empty one, which the loops take at either
    # cutoff, is included
    family = [BiUnaryAlgebra(S.names, mult, star, S.plus, S.zero)
              for S, mult, star in _mutated_tables()]
    family += [*small_subsemigroups(gen_pt(3)), *small_subsemigroups(gen_i(3))]
    family += [slice_semigroup(C) for _, C in corpus_cats]
    family += [*zoo_sgs.values(), make_algebra([], [], [])]
    failed = Counter()
    for S in family:
        assert (S.up, S.down) == order_masks_reference(S), S.names
        seen = []
        for threshold in (SIZE_BOUND, 0):  # Python, numpy
            monkeypatch.setattr(algebra, "_NUMPY_THRESHOLD", threshold)
            seen.append((algebra._star_axiom_witness(S),
                         algebra._restriction_witness(S)))
        assert seen[0] == seen[1], S.names
        failed.update(w[0] for w in seen[0] if w is not None)
    assert len(family) == 2023 and failed == {
        "x*support(x)=x": 56, "supports-commute-and-are-projections": 15,
        "support(xy)=support(support(x)y)": 25,
        "support(x)y=y support(xy)": 93}, failed


def test_order_masks_match_the_pair_loop_with_all_or_one_projection():
    # the natural order tries n * |P| candidates: all n^2 when every element
    # is a projection (chains and bands, star the identity), and n when only
    # 0 is (the null semigroup and Z_n, star 0), each also relabelled (and
    # so checked associative by make_algebra).  The related pairs counted
    # are those of the unrelabelled tables
    n, ids, rng = 200, range(200), random.Random(0)
    tables = {
        "min": ([[min(i, j) for j in ids] for i in ids], ids),
        "max": ([[max(i, j) for j in ids] for i in ids], ids),
        "left-zero": ([[i for _ in ids] for i in ids], ids),
        "right-zero": ([list(ids) for _ in ids], ids),
        "null": ([[0] * n for _ in ids], [0] * n),
        "Z_n": ([[(i + j) % n for j in ids] for i in ids], [0] * n)}
    pairs = {}
    for name, (mult, star) in tables.items():
        S = BiUnaryAlgebra([f"x{i}" for i in ids], mult, star)
        T = shuffle_algebra(S, rng.sample(range(n), n))
        for A in (S, T):
            assert (A.up, A.down) == order_masks_reference(A), name
        pairs[name] = sum(m.bit_count() for m in S.up)
    assert pairs == {"min": n * (n + 1) // 2, "max": n * (n + 1) // 2,
                     "left-zero": n, "right-zero": n * n, "null": n,
                     "Z_n": n}, pairs


# generators of sub-semigroups of pt_4, closed under product and star, that
# fail BR1', with whether they fail BR3 too; each has more than
# _NUMPY_THRESHOLD elements
BR1_PRIME_FAILURES = ((("-4-4", "1141", "2444"), True),
                      (("--3-", "3414", "4442"), True),
                      (("-3--", "1321", "4424"), True),
                      (("4---", "2344", "3134"), True),
                      (("-4-4", "1343", "4222"), False))


def test_ehresmann_order_is_partial(pt4, zoo_sgs):
    # the numpy join kernel needs a partial order, and is read only under
    # the restriction flag, which implies ehresmann; the support axioms give
    # a partial order on associative tables, and the mutated tables, which
    # need not be associative, are checked too
    family = [*small_subsemigroups(gen_pt(3)), *zoo_sgs.values()]
    family += [subsemigroup(pt4, [pt4.names.index(g) for g in gens])
               for gens, _ in BR1_PRIME_FAILURES]
    family += [BiUnaryAlgebra(S.names, mult, star, S.plus, S.zero)
               for S, mult, star in _mutated_tables()]
    ehresmann = [S for S in family if classify(S).ehresmann]
    assert all(_is_partial_order(S) for S in ehresmann)
    assert len(ehresmann) > 1000 and len(ehresmann) < len(family)


@pytest.mark.parametrize("gens,fails_br3", BR1_PRIME_FAILURES)
def test_br1_prime_failure_is_pinned(monkeypatch, pt4, gens, fails_br3):
    S = subsemigroup(pt4, [pt4.names.index(g) for g in gens])
    assert S.n > algebra._NUMPY_THRESHOLD
    br1p, br3 = br1prime_witness_brute(S), br3_witness_brute(S)
    assert br1p[0] == "BR1'" and (br3 is not None) == fails_br3
    for threshold in (algebra._NUMPY_THRESHOLD, SIZE_BOUND):  # numpy, Python
        monkeypatch.setattr(algebra, "_NUMPY_THRESHOLD", threshold)
        T = make_algebra(S.names, S.mult, S.star)
        assert classify(T).witness("preboolean_restriction") == br1p
        assert algebra._br3_witness(T) == br3


# a sub-semigroup of the bislice semigroup of the corpus category enum_386
# (3 objects; g1 an involution at o1, g2 an idempotent at o2), generated by
# {u3,g1,g2}, {u2} and {u3} and closed under product, star and plus: it is
# birestriction with a GBA of projections and fails both BR1' and BR3, so
# its preboolean_birestriction witness shows that BR1' is checked first
BR1_PRIME_BEFORE_BR3 = (
    ["{}", "{u2}", "{u3}", "{g2}", "{u1,u2,u3}", "{u1,u3,g2}", "{u3,g1,g2}"],
    [[0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 3, 1, 3, 3], [0, 0, 2, 0, 2, 2, 2],
     [0, 3, 0, 3, 3, 3, 3], [0, 1, 2, 3, 4, 5, 6], [0, 3, 2, 3, 5, 5, 6],
     [0, 3, 2, 3, 6, 6, 5]],
    [0, 1, 2, 1, 4, 4, 4])


def _check_br1_prime_before_br3():
    names, mult, star = BR1_PRIME_BEFORE_BR3
    for plus in (star, None):  # stored, inferred
        S = make_algebra(names, mult, star, plus, zero=0)
        cls = classify(S)
        assert cls.birestriction and cls.witness("_BR2") is None
        assert cls.plus_inferred == (plus is None)
        br1p, br3 = br1prime_witness_brute(S), br3_witness_brute(S)
        assert br1p == ("BR1'", (2, 3)) and br3 == ("BR3", (1, 2, 5))
        assert cls.witness("preboolean_birestriction") == br1p
        assert algebra._br3_witness(S) == br3


def test_br1_prime_before_br3_is_pinned():
    _check_br1_prime_before_br3()


def test_numpy_br1_prime_before_br3_is_pinned(numpy_kernel):
    _check_br1_prime_before_br3()


# generators of a 46-element sub-semigroup of pt_4, closed under product
# and star, and its first BR3 witness: a restriction semigroup with a GBA
# of projections, where a Light generator fails BR3 and the full scan
# follows; no 2-generated such semigroup turned up in a seeded search
BR3_ON_GENERATORS = (("23--", "1--1", "4132"), ("BR3", (1, 38, 3)))


def _br3_scans(monkeypatch):
    """A list that records each BR3 scan as (algebra, whether it scanned
    the generators make_algebra found rather than every column, whether
    it found a witness)."""
    scans, real = [], algebra._br3_scan

    def counted(S, columns):
        w = real(S, columns)
        scans.append((S, columns is S._generating_set, w is not None))
        return w
    monkeypatch.setattr(algebra, "_br3_scan", counted)
    return scans


def _br3_full_scan(S):
    # built directly, the algebra has no generators: every column is scanned
    return algebra._br3_witness(
        BiUnaryAlgebra(S.names, S.mult, S.star, S.plus, S.zero))


def test_br3_on_generators_matches_brute_force(numpy_kernel, monkeypatch,
                                               pt4, pt4_subsemigroups):
    # tables above 40 elements go through Light's test, and the small pt_3
    # family, checked in _check_join_axiom_witnesses, needs too many
    # generators for it even under one-cell chunks.  The brute-force oracle
    # takes n**4 steps, so the 141 members of the pt_4 family above 40
    # elements are checked against the full scan only
    family = [subsemigroup(pt4, [pt4.names.index(g) for g in gens])
              for gens in (*(g for g, _ in BR1_PRIME_FAILURES),
                           BR3_ON_GENERATORS[0])]
    large = [S for S in pt4_subsemigroups if S.n > 40]
    scans, paths = _br3_scans(monkeypatch), Counter()
    for S in family + large:
        assert classify(S).restriction, S.names
        scans.clear()
        found = algebra._br3_witness(S)
        paths[tuple((gens, failed) for _, gens, failed in scans)] += 1
        assert found == _br3_full_scan(S), S.names
        if S in family:
            assert found == br3_witness_brute(S), S.names
    # the generators prove BR3, or one fails and the full scan follows
    assert paths[((True, False),)] and paths[((True, True), (False, True))]
    assert paths[((False, True),)] and paths[((False, False),)], paths


def test_br3_on_generators_proves_the_large_tables(monkeypatch, pt4):
    scans = _br3_scans(monkeypatch)
    for S in (pt4, gen_i(4), gen_triangular(4),
              slice_semigroup(gen_pair_groupoid(4))):
        scans.clear()
        assert algebra._br3_witness(S) is None
        assert [(gens, failed) for _, gens, failed in scans] == [(True, False)]
        assert _br3_full_scan(S) is None


def test_br3_witness_found_on_the_generator_path_is_pinned(monkeypatch,
                                                            pt4):
    gens, witness = BR3_ON_GENERATORS
    S = subsemigroup(pt4, [pt4.names.index(g) for g in gens])
    assert S.n > 40 and S._generating_set is not None
    scans = _br3_scans(monkeypatch)
    cls = classify(S)
    assert cls.restriction and cls.witness("_BR2") is None
    assert cls.witness("_BR3") == br3_witness_brute(S) == witness
    assert [(gens, failed) for _, gens, failed in scans] == [(True, True),
                                                             (False, True)]


def test_directly_built_tables_skip_the_generator_test(monkeypatch):
    # the generator test is sound only on associative tables, which
    # make_algebra proves: a non-associative Ehresmann mutant built
    # directly is scanned in full
    monkeypatch.setattr(algebra, "_NUMPY_THRESHOLD", 0)
    mutants = [(BiUnaryAlgebra(S.names, mult, star, S.plus, S.zero),
                np.array(mult)) for S, mult, star in _mutated_tables()]
    T = next(T for T, a in mutants
             if (a[a] != a[:, a]).any() and classify(T).ehresmann)
    scans = _br3_scans(monkeypatch)
    assert algebra._br3_witness(T) == br3_witness_brute(T)
    assert [gens for _, gens, _ in scans] == [False]


def test_classify_reuses_the_array_and_generators_of_make_algebra(
        monkeypatch, pt4):
    built, real = [], algebra._check_assoc
    monkeypatch.setattr(algebra, "_check_assoc",
                        lambda rows, a=None: built.append(real(rows, a))
                        or built[-1])
    S = make_algebra(pt4.names, pt4.mult, pt4.star, pt4.plus, pt4.zero)
    (a, gens), = built
    assert gens is not None
    searched = []
    monkeypatch.setattr(algebra, "_generators", searched.append)
    classify(S).flags
    assert searched == []
    assert S._mult_array is a and S._generating_set is gens


def test_make_algebra_keeps_an_int16_product_table(monkeypatch):
    # the slice table builder hands make_algebra its product table as an
    # int16 array: one vectorised range check, kept as the algebra's array,
    # and read into rows holding one int object per element
    S = gen_pt(3)
    a = np.array(S.mult, dtype=np.int16)
    T = make_algebra(S.names, a, S.star, S.plus, S.zero)
    assert T._mult_array is a and T.mult == S.mult
    cells = [v for row in T.mult for v in row]
    assert {type(v) for v in cells} == {int}
    assert len({id(v) for v in cells}) == S.n
    for bad in (a[:-1], np.where(a == 5, S.n, a), np.where(a == 5, -1, a)):
        with pytest.raises(BadTableShape):
            make_algebra(S.names, bad.astype(np.int16), S.star)
    handed, real = [], algebra._check_assoc
    monkeypatch.setattr(algebra, "_check_assoc",
                        lambda rows, a=None: handed.append(a)
                        or real(rows, a))
    T = slice_semigroup(gen_pair_groupoid(3))
    assert handed == [T._mult_array] and handed[0] is T._mult_array


@pytest.mark.parametrize("dtype,zero", [
    ("float64", int), ("bool", int), ("object", int), ("int16", float)])
def test_make_algebra_types_its_array_and_zero(dtype, zero):
    # a float, bool or object product table passes the range test, and so
    # does a float zero; each is refused by its type, before any law
    S = gen_pt(2)
    with pytest.raises(BadTableShape):
        make_algebra(S.names, np.array(S.mult).astype(dtype), S.star, S.plus,
                     zero(S.zero))


def _retyped(table, convert):
    """table, a list or a list of rows, with its first entry converted."""
    if isinstance(table[0], (list, tuple)):
        return [[convert(table[0][0]), *table[0][1:]], *table[1:]]
    return [convert(table[0]), *table[1:]]


@pytest.mark.parametrize("what", ["mult", "star", "plus", "map"])
@pytest.mark.parametrize("convert", [float, Fraction, Decimal])
def test_list_tables_refuse_entries_that_are_not_integers(what, convert):
    # 0.0, Fraction(0) and Decimal(0) equal an index and pass the range
    # test; the row's sum is not an integer, so each is refused by type
    S = gen_pt(2)
    tables = {"mult": S.mult, "star": S.star, "plus": S.plus}
    if what != "map":
        tables[what] = _retyped(tables[what], convert)
        with pytest.raises(BadTableShape, match="not an integer"):
            make_algebra(S.names, tables["mult"], tables["star"],
                         tables["plus"], S.zero)
    else:
        with pytest.raises(BadTableShape, match="not an integer"):
            SemigroupMorphism(S, S, _retyped(range(S.n), convert))


def test_a_row_of_two_foreign_number_types_is_refused():
    # Decimal and float do not add, so such a row has no sum at all
    S = gen_pt(2)
    first = [Decimal(S.mult[0][0]), float(S.mult[0][1]), *S.mult[0][2:]]
    with pytest.raises(BadTableShape, match="not an integer"):
        make_algebra(S.names, [first, *S.mult[1:]], S.star, S.plus, S.zero)


@pytest.mark.parametrize("what", ["mult", "star", "plus", "map", "comp",
                                  "mu"])
@pytest.mark.parametrize("entry", ["0", None, [0]])
def test_tables_name_entries_that_are_not_numbers(what, entry):
    # a string or None fails the subset test, and a list cannot be hashed
    # for it; each is then named by its type, in algebra, map, category
    # and cofunctor tables alike
    S, C = gen_pt(2), gen_pair_groupoid(2)
    tables = {"mult": S.mult, "star": S.star, "plus": S.plus,
              "comp": C.comp, "mu": identity_cofunctor(C).mu}
    if what in tables:
        tables[what] = _retyped(tables[what], lambda v: entry)
    build = {
        "map": lambda: SemigroupMorphism(
            S, S, _retyped(range(S.n), lambda v: entry)),
        "comp": lambda: make_category(C.objects, C.arrows, C.d, C.r, C.unit,
                                      tables["comp"]),
        "mu": lambda: Cofunctor(C, C, range(C.n_obj), tables["mu"],
                                identity_cofunctor(C).rho1)}.get(
        what, lambda: make_algebra(S.names, tables["mult"], tables["star"],
                                   tables["plus"], S.zero))
    with pytest.raises(BadTableShape, match=re.escape(
            f"entry {entry!r} is not an integer")):
        build()


@pytest.mark.parametrize("convert", [bool, np.int16, np.int64, np.uint8])
def test_list_tables_take_integer_entries_of_any_type(convert):
    # bools and numpy integers are integers: tables and a map holding one
    # (each first entry is 0) build, classify and check as the ints do
    S = gen_pt(2)
    T = make_algebra(S.names, _retyped(S.mult, convert),
                     _retyped(S.star, convert), _retyped(S.plus, convert),
                     S.zero)
    assert classify(T).flags == classify(S).flags
    assert check_morphism(
        SemigroupMorphism(S, T, _retyped(range(S.n), convert)), 4).ok


def test_generators_match_the_array_closure(pt4, pt4_subsemigroups):
    # on these semigroups the closure over Python rows picks the same
    # generators, in the same order, as the closure over products of
    # arrays it replaced; on the 64-element left-zero band every element
    # generates only itself, so both give up at n // 8 generators
    left_zero = [[i] * 64 for i in range(64)]
    tables = [gen_pt(3).mult, pt4.mult, gen_i(4).mult,
              gen_triangular(4).mult,
              slice_semigroup(gen_pair_groupoid(4)).mult,
              *(S.mult for S in pt4_subsemigroups if S.n > 40), left_zero]
    assert len(tables) == 6 + 141
    found = []
    for rows in tables:
        a = np.array(rows, dtype=np.int16)
        found.append(algebra._generators(a, rows))
        assert found[-1] == generators_reference(a), len(rows)
    assert found[-1] is None
    assert all(g is not None for g in found[:5])


@pytest.mark.parametrize("gen,strong,weak", [
    (gen_pt, "boolean_restriction", "preboolean_restriction"),
    (gen_i, "boolean_birestriction", "preboolean_birestriction")])
def test_flag_implication_failure_raises_with_witness(monkeypatch, gen,
                                                      strong, weak):
    # a BR1' scan that fails wrongly breaks BR1 => BR1' on pt_2, and on
    # i_2, which fails BR1, it breaks BBR1 => BR1'
    real = algebra._br1_witness
    monkeypatch.setattr(algebra, "_br1_witness", lambda S, axiom, probe=None: (
        ("planted", ()) if axiom == "BR1'" else real(S, axiom, probe)))
    with pytest.raises(InvariantViolation) as exc:
        classify(gen(2)).flags
    assert exc.value.witness == (strong, weak)


def test_join_all_folds_and_fails():
    S = gen_i(2)
    zero = S.zero
    assert join_all(S, [zero]) == zero
    # 1|-> 1 and 2|->1 are compatible but have no join in I_2
    assert join(S, 1, 3) is None
    assert join_all(S, [1, 3]) is None


def _tied_preorders():
    """Seeded random tables on 2 to 6 elements, star the identity, whose
    natural order is a preorder with some elements sharing an up set."""
    rng, found = random.Random(34), []
    while len(found) < 40:
        n = rng.randrange(2, 7)
        S = BiUnaryAlgebra(range(n), [[rng.randrange(n) for _ in range(n)]
                                      for _ in range(n)], range(n))
        if S._holders is not None and len(set(S.up)) < n:
            found.append(S)
    return found


def test_join_all_on_tied_preorders_is_the_binary_fold(monkeypatch):
    # on preorders with tied up sets join_all is a fold of binary joins: a
    # lone element stays itself even where the lowest element holding its
    # up set is another, and the join cover keeps the brute force witness
    def binary_fold(S, elems):
        acc = None
        for e in elems:
            acc = e if acc is None else join(S, acc, e)
            if acc is None:
                return None
        return acc

    rng = random.Random(35)
    family = _tied_preorders()
    assert any(S._holders[0][S.up[e]] != e for S in family
               for e in range(S.n))
    for S in family:
        n = S.n
        lists = [[], *([e] for e in range(n)),
                 *(rng.choices(range(n), k=rng.randrange(2, 2 * n + 1))
                   for _ in range(20))]
        lowers = [(1 << n) - 1, *(rng.getrandbits(n) for _ in range(3))]
        covers = [join_cover_witness_brute(S, lower) for lower in lowers]
        for threshold in (0, SIZE_BOUND):
            monkeypatch.setattr(algebra, "_NUMPY_THRESHOLD", threshold)
            X = BiUnaryAlgebra(S.names, S.mult, S.star)
            assert [join_all(X, elems) for elems in lists] == [
                binary_fold(X, elems) for elems in lists]
            assert [join_all(X, [e]) for e in range(n)] == list(range(n))
            assert join_all(X, []) is None
            assert [algebra._join_cover_witness(X, lower)
                    for lower in lowers] == covers


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


@pytest.mark.parametrize("mult,star,plus,failure,witness", [
    # x0 is bideterministic, x0*x0 = x1 is not
    ([[1, 0], [0, 1]], [1, 1], [1, 0], "not closed under product", (0, 0)),
    # x1 is bideterministic, its cosupport x0 is not
    ([[0, 1], [0, 1]], [1, 1], [1, 0], "not closed under star/plus", (1,)),
    # x1 and x2, the projections, are bideterministic, but on them the
    # support takes the one value x2
    ([[0, 1, 1], [1, 1, 1], [2, 1, 1]], [1, 2, 2], [2, 1, 1],
     "projections changed", None),
    # Z_2 with star and plus swapped: x0 is only deterministic, x1 only
    # codeterministic, so the projection x0 is not bideterministic
    ([[0, 1], [1, 0]], [1, 0], [0, 1], "projection x0 is not bideterministic",
     (0,))])
def test_bd_subalgebra_failures(mult, star, plus, failure, witness):
    S = make_algebra([f"x{i}" for i in range(len(star))], mult, star, plus)
    with pytest.raises(MathFail, match=failure) as exc:
        bd_subalgebra(S)
    assert exc.value.witness == witness


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


# one hand-built semigroup for each failure partial_isomorphisms reports:
# (mult, star, the failure, its witness); each passes make_algebra, which
# checks associativity but none of the support axioms
PARTIAL_ISOMORPHISM_FAILURES = [
    # null semigroup, star constant 0: both elements are partners of 0
    ([[0, 0], [0, 0]], [0, 0], "two partial inverses", (0, 0, 1)),
    # null semigroup, star swapping the two: 1 is its own partner, 0 none
    ([[0, 0], [0, 0]], [1, 0], "not closed under star", (1,)),
    # {0 zero, 1 with 1*1 = 0, 2 identity}, star 1, 1, 0: 1 is its own
    # partner and 1*1 = 0 has none
    ([[0, 0, 0], [0, 0, 0], [0, 1, 2]], [1, 1, 0],
     "not closed under product", (1, 1)),
    # the group of order 2, star constant 1: 0 and 1 are partners, but
    # (0*1)*0 = 1
    ([[0, 1], [1, 0]], [1, 1], "fails regularity", (0, 1)),
    # left-zero band, star the identity: two idempotents, 0*1 != 1*0
    ([[0, 0], [1, 1]], [0, 1], "do not commute", (0, 1)),
    # 36-element left-zero band, star the identity on 0, 7, 14, 35 and 0
    # elsewhere: those four are the partial isomorphisms, and a set of them
    # iterates 0, 35, 14, 7, so the first pair is (0, 7) only when the scan
    # is in index order
    ([[i] * 36 for i in range(36)],
     [i if i in (0, 7, 14, 35) else 0 for i in range(36)],
     "do not commute", (0, 7)),
]


@pytest.mark.parametrize("mult, star, failure, witness",
                         PARTIAL_ISOMORPHISM_FAILURES)
def test_partial_isomorphism_failures_are_pinned(mult, star, failure,
                                                 witness):
    S = make_algebra([f"x{i}" for i in range(len(star))], mult, star)
    with pytest.raises(MathFail, match=failure) as exc:
        partial_isomorphisms(S)
    assert exc.value.witness == witness
    assert classify(S).witness("groupoidal_etale") == (
        "partial-isomorphisms", witness)


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


def test_a_failed_cosupport_raises_alike_on_every_read():
    # on a plus-less Ehresmann table with no left unit and no zero, a
    # failure is not kept: classify, infer_cosupport and with_inferred_plus
    # each derive the cosupport again, and projection_gba its own failure,
    # raised each time with the same class, message and witness
    S = make_algebra(["z", "s"], [[0, 0], [1, 1]], [0, 0])
    cls = classify(S)
    assert cls.ehresmann and not cls.plus_inferred
    assert cls.witness("coehresmann") == ("no-plus-table", ())
    raised = []
    for read in (infer_cosupport, with_inferred_plus, infer_cosupport,
                 projection_gba, projection_gba):
        with pytest.raises(MathFail) as exc:
            read(S)
        raised.append((type(exc.value), str(exc.value), exc.value.witness))
    no_unit = (NoLeftUnit, "no projection f with f*x1 = x1", (1,))
    no_zero = (MathFail, "P(S) has no zero projection",
               ("MissingZeroProjection",))
    assert raised == [no_unit] * 3 + [no_zero] * 2


def test_left_local_units_must_be_meet_closed():
    # a table built directly, not associative: f and g fix s on the left,
    # but their product h does not
    S = BiUnaryAlgebra(["f", "g", "h", "s"],
                       [[0, 2, 2, 3], [2, 1, 2, 3], [2, 2, 2, 2], [3] * 4],
                       [0, 1, 2, 0])
    for read in (infer_cosupport, with_inferred_plus):
        with pytest.raises(MathFail, match="left local units are not "
                           "meet-closed") as exc:
            read(S)
        assert exc.value.witness == (3,)


def test_classify_forces_the_plus_table_once(monkeypatch, pt4):
    # the forced table, its probe algebra and the probe's cosupport scan
    # are one value on S; the probe converts its own int16 table, once
    scans, conversions = [], []
    scan = algebra._plus_axiom_witness
    monkeypatch.setattr(algebra, "_plus_axiom_witness",
                        lambda P: scans.append(P) or scan(P))
    convert = BiUnaryAlgebra._mult_array.func
    counted = cached_property(lambda P: conversions.append(P) or convert(P))
    counted.__set_name__(BiUnaryAlgebra, "_mult_array")
    monkeypatch.setattr(BiUnaryAlgebra, "_mult_array", counted)
    stripped = make_algebra(pt4.names, pt4.mult, pt4.star, zero=pt4.zero)
    cls = classify(stripped)
    assert cls.flags["coehresmann"] and cls.plus_inferred
    assert len(scans) == 1 and conversions == scans
    assert with_inferred_plus(stripped) is scans[0]
    assert infer_cosupport(stripped).table == pt4.plus
    assert len(scans) == 1 and conversions == scans


@pytest.mark.parametrize("gen,n", [(gen_i, 2), (gen_pt, 3)])
def test_classify_scans_a_stored_plus_table(gen, n):
    # the forced table would pass the cosupport axioms; the stored one, a
    # copy of the star table, fails them
    S = gen(n)
    T = make_algebra(S.names, S.mult, S.star, S.star, S.zero)
    cls = classify(T)
    assert not cls.plus_inferred
    assert cls.witness("coehresmann") == ("cosupport(x)*x=x", (2,))


def test_classify_infers_plus_quietly():
    S = gen_i(2)
    stripped = make_algebra(S.names, S.mult, S.star, zero=S.zero)
    cls = classify(stripped)
    assert cls.plus_inferred
    assert cls.flags == classify(S).flags


def test_classify_infers_the_empty_plus_table():
    # the algebra of no elements is falsy, yet its forced plus table, the
    # empty one, passes the cosupport axioms and is taken
    S = make_algebra([], [], [])
    assert with_inferred_plus(S).plus == ()
    cls = classify(S)
    assert cls.plus_inferred
    assert {f: cls.witness(f) for f in cls.flags if not cls.flags[f]} == {
        "has_zero_projection": ("MissingZeroProjection", ()),
        **{f: ("has_zero_projection", ()) for f in (
            "preboolean_restriction", "boolean_restriction",
            "preboolean_birestriction", "boolean_birestriction",
            "boolean_range", "etale_range")}}


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


def _check_restriction_fails_on_an_ehresmann_table():
    # the left-zero band x*y = x with every support e: Ehresmann, but
    # support(e)f = e while f support(ef) = fe = f
    cls = classify(make_algebra(["e", "f"], [[0, 0], [1, 1]], [0, 0]))
    assert cls.ehresmann
    assert cls.witness("restriction") == ("support(x)y=y support(xy)", (0, 1))


def test_restriction_fails_on_an_ehresmann_table():
    _check_restriction_fails_on_an_ehresmann_table()


def test_numpy_restriction_fails_on_an_ehresmann_table(numpy_kernel):
    _check_restriction_fails_on_an_ehresmann_table()


def test_classify_triangular_flags():
    cls = classify(gen_triangular(2))
    assert cls.flags["etale_range"]
    assert not cls.flags["groupoidal_etale"]
    assert not cls.flags["inverse"]


def test_classification_render_mentions_witness():
    text = classify(gen_i(2)).render(gen_i(2).names)
    assert "boolean_restriction=false" in text
    assert "witness=" in text


def test_render_names_only_the_indices_of_elements():
    # a witness entry is renamed when it indexes an element: 0 is, while
    # len(names) and -1 (no element) are printed as they are
    cls = AlgebraClassification([("f", (), lambda: ("x", (0, 3, -1)))])
    assert cls.render(["a", "b", "c"]) == "f=false witness=(x,(a,3,-1))"


# -- morphisms ----------------------------------------------------------------

def inclusion_map(sub, sup):
    return tuple(sup.names.index(nm) for nm in sub.names)


def test_inclusion_passes_all_types():
    I, P = gen_i(2), gen_pt(2)
    f = SemigroupMorphism(I, P, inclusion_map(I, P))
    for mtype in (1, 2, 3, 4):
        verdict = check_morphism(f, mtype)
        assert verdict.ok, (mtype, verdict.failed, verdict.witness)


def test_equal_maps_share_one_classification(monkeypatch):
    # types 1-4 of one map, each asked through a fresh map object: the
    # flags are kept on the source, keyed by target and map, so the
    # homomorphism scan and the join-cover fold run once each
    S = gen_pt(3)
    perm = list(range(S.n))
    random.Random(29).shuffle(perm)
    T = shuffle_algebra(S, perm)
    m = iso_algebras(S, T)
    calls = Counter()
    for name in ("_unpreserved", "_join_cover_witness"):
        scan = getattr(algebra, name)
        monkeypatch.setattr(algebra, name, lambda *args, name=name, scan=scan:
                            calls.update([name]) or scan(*args))
    maps = [SemigroupMorphism(S, T, tuple(m)) for _ in range(4)]
    assert all(check_morphism(f, mtype).ok
               for f, mtype in zip(maps, (1, 2, 3, 4)))
    assert calls == {"_unpreserved": 1, "_join_cover_witness": 1}
    assert all(f.classification is maps[0].classification for f in maps)
    # another target object with the same tables has flags of its own
    other = SemigroupMorphism(S, _rebuilt(T), tuple(m))
    assert other.classification is not maps[0].classification


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


def test_morphism_types_share_their_flags(monkeypatch):
    # type 4 reads the proper flag that type 3 computed: one join-cover
    # fold for the two
    folds = []
    real = algebra._join_cover_witness
    monkeypatch.setattr(algebra, "_join_cover_witness",
                        lambda S, lower: folds.append(S) or real(S, lower))
    I, P = gen_i(2), gen_pt(2)
    f = SemigroupMorphism(I, P, inclusion_map(I, P))
    assert check_morphism(f, 3).ok and check_morphism(f, 4).ok
    assert folds == [P]


def test_plus_preservation_switch():
    I, P = gen_i(2), gen_pt(2)
    f = SemigroupMorphism(I, P, inclusion_map(I, P))
    assert check_morphism(f, 1, require_plus=True).ok
    stripped = make_algebra(I.names, I.mult, I.star, zero=I.zero)
    g = SemigroupMorphism(stripped, P, inclusion_map(I, P))
    with pytest.raises(NoPlusTable):
        check_morphism(g, 1, require_plus=True)
    # the plus tables are looked for before any scan, so a map that fails
    # mult raises too
    x = next(x for x in range(P.n) if P.mult[x][x] != x)
    h = SemigroupMorphism(stripped, P, (x,) * I.n)
    assert check_morphism(h, 1).failed == "mult"
    with pytest.raises(NoPlusTable):
        check_morphism(h, 1, require_plus=True)


def _cyclic_group_with_zero(n):
    # g0..g{n-1} under addition mod n, then a zero; every g has support g0
    z = n
    return make_algebra([f"g{a}" for a in range(n)] + ["0"],
                        [[(a + b) % n if a < n and b < n else z
                          for b in range(n + 1)] for a in range(n + 1)],
                        [0] * n + [z], zero=z)


def test_weak_meet_failure_is_pinned():
    # Z_16 with a zero onto {0, 1}: below g0 and g1 lies only the zero,
    # which maps under 1, so the map is proper but not weakly meet
    # preserving
    S = _cyclic_group_with_zero(16)
    T = make_algebra(["0", "1"], [[0, 0], [0, 1]], [0, 1], zero=0)
    f = SemigroupMorphism(S, T, (1,) * 16 + (0,))
    assert S.n > algebra._NUMPY_THRESHOLD
    verdicts = [check_morphism(f, mtype) for mtype in (1, 2, 3, 4)]
    assert [v.ok for v in verdicts] == [True, False, True, False]
    for v in verdicts[1::2]:
        assert (v.failed, v.witness) == ("weakly-meet-preserving", (0, 1, 1))


def _weak_meet_maps():
    # seeded maps of i_3 into triangular_3 fail at all sorts of (s, t, u),
    # and a few pass; the identity maps to and from the mutated tables, most
    # of which are not Ehresmann, run the scan on orders that need not be
    # transitive
    rng = random.Random(7)
    S, T = gen_i(3), gen_triangular(3)
    seeded = [SemigroupMorphism(S, T, tuple(rng.choice(
        (T.zero, T.n - 1, rng.randrange(T.n))) for _ in range(S.n)))
        for _ in range(60)]
    mutated = []
    for P, mult, star in _mutated_tables():
        Q = BiUnaryAlgebra(P.names, mult, star, P.plus, P.zero)
        ident = tuple(range(P.n))
        mutated += [SemigroupMorphism(P, Q, ident), SemigroupMorphism(Q, P, ident)]
    return seeded, mutated


def test_weak_meet_scan_matches_the_definition():
    # the scan is defined for any map
    seeded, mutated = _weak_meet_maps()
    witnesses = [algebra._weak_meet_witness(f) for f in seeded + mutated]
    assert witnesses == [weak_meet_witness_brute(f) for f in seeded + mutated]
    found = set(witnesses[:len(seeded)])
    assert None in found and len(found) > 10, found


def test_packed_weak_meet_scan_matches_python(numpy_kernel):
    # the same scan on down masks packed from the numpy order kernel, in
    # whole and in one-cell chunks, against the definition in Python
    seeded, mutated = _weak_meet_maps()
    for f in seeded + mutated:
        assert f.source.n > algebra._NUMPY_THRESHOLD
        assert algebra._weak_meet_witness(f) == weak_meet_witness_brute(f), f.map


def _corrupt(m, S, T, rng):
    # as the relabel benchmark does: swap the images of a seeded pair of
    # elements until the map stops preserving products
    while True:
        a, b = rng.sample(range(len(m)), 2)
        bad = list(m)
        bad[a], bad[b] = m[b], m[a]
        if any(bad[S.mult[i][j]] != T.mult[bad[i]][bad[j]]
               for i in range(S.n) for j in range(S.n)):
            return tuple(bad)


def _relabelled_maps(gen):
    """(S, T, maps, bent): S = gen(4) and a seeded relabelled copy T; the
    relabelling, seeded corruptions of it and a constant map, each with
    the name of the check it fails (None if it passes); and the
    relabelling into T with its plus table bent to its star, as a map."""
    S = gen(4)
    rng = random.Random(11)
    p = list(range(S.n))
    rng.shuffle(p)
    T = shuffle_algebra(S, p)
    # the relabelling passes, seeded swaps fail at mult, and the constant
    # map to an idempotent that is not a projection fails at star (i_4 has
    # none: its idempotents are its projections)
    maps = [(None, tuple(p))]
    maps += [("mult", _corrupt(p, S, T, rng)) for _ in range(4)]
    maps += [("star", (p[e],) * S.n) for e in range(S.n)
             if S.mult[e][e] == e and S.star[e] != e][:1]
    # the relabelling into T with its plus table bent to its star keeps
    # mult and star but not plus, first at the first i with i+ != i*
    bent = BiUnaryAlgebra(T.names, T.mult, T.star, T.star, T.zero)
    return S, T, maps, SemigroupMorphism(S, bent, tuple(p))


def _rebuilt(X):
    """A new algebra with the tables of X, holding none of its memos."""
    return BiUnaryAlgebra(X.names, X.mult, X.star, X.plus, X.zero)


@pytest.mark.parametrize("gen", [gen_pt, gen_i, gen_triangular])
def test_array_morphism_scans_match_python(monkeypatch, gen):
    # a map's flags are kept on its source, so the source and target are
    # rebuilt at each cutoff: neither pass reads what the other computed
    S, T, maps, bent = _relabelled_maps(gen)
    for failed, m in maps:
        seen = []
        for threshold in (0, SIZE_BOUND):  # numpy, Python
            monkeypatch.setattr(algebra, "_NUMPY_THRESHOLD", threshold)
            f = SemigroupMorphism(_rebuilt(S), _rebuilt(T), m)
            seen.append([check_morphism(f, mtype) for mtype in (1, 2, 3, 4)])
        assert seen[0] == seen[1], m
        assert {v.failed for v in seen[0]} == {failed}
    i = next(i for i in range(S.n) if S.plus[i] != S.star[i])
    for threshold in (0, SIZE_BOUND):
        monkeypatch.setattr(algebra, "_NUMPY_THRESHOLD", threshold)
        f = SemigroupMorphism(_rebuilt(S), _rebuilt(bent.target), bent.map)
        assert check_morphism(f, 1, require_plus=True) == MorphismVerdict(
            False, 1, "plus", (i,))


def _verdict_or_error(check, f, mtype, require_plus):
    try:
        return check(f, mtype, require_plus)
    except SdlError as exc:
        return type(exc)


def _subset_meet_algebra(masks):
    """The subsets of a finite set, given as the bitmasks masks in that
    order, under intersection, with star and plus the identity."""
    index = {m: i for i, m in enumerate(masks)}
    ident = range(len(masks))
    return make_algebra(list(map(str, masks)),
                        [[index[a & b] for b in masks] for a in masks],
                        ident, ident, index[0])


def test_morphism_flags_match_the_chain(monkeypatch, pt4, pt4_subsemigroups):
    # every type with and without plus, at both cutoffs, each on a fresh
    # map whose flags are read in a different order with plus than without,
    # against the chain's verdict or error; the chain runs once, at cutoff
    # 0, since its steps that depend on the cutoff, _unpreserved and the
    # order masks, have numpy-against-Python tests of their own.  A map's
    # flags are kept on its source, so every algebra is rebuilt once per
    # cutoff, and the copies live to the end of the test
    index = {name: i for i, name in enumerate(pt4.names)}
    maps = [SemigroupMorphism(S, pt4, tuple(map(index.get, S.names)))
            for S in pt4_subsemigroups]
    maps += [f for part in _weak_meet_maps() for f in part]
    for gen in (gen_pt, gen_i, gen_triangular):
        S, T, pairs, bent = _relabelled_maps(gen)
        maps += [SemigroupMorphism(S, T, m) for _, m in pairs] + [bent]
    # a meet map of subsets of {1, 2} into those of {1, 2, 3} that keeps
    # the join of {1, 2} and {1}, but sends {1, 2} \ {1} = {2} to {2},
    # not to {1, 2, 3} \ {1} = {2, 3}
    maps.append(SemigroupMorphism(_subset_meet_algebra([0, 3, 1, 2]),
                                  _subset_meet_algebra(range(8)),
                                  (0, 7, 1, 2)))
    calls = [(False, mtype) for mtype in (1, 2, 3, 4)]
    calls += [(True, mtype) for mtype in (4, 3, 2, 1)]
    # each algebra whose projection GBA exists derives it at most once; a
    # failure is not kept, and most of the pt_4 family has none
    derived = []
    derive = BiUnaryAlgebra._projection_gba.func
    counted = cached_property(lambda X: derived.append(X) or derive(X))
    counted.__set_name__(BiUnaryAlgebra, "_projection_gba")
    monkeypatch.setattr(BiUnaryAlgebra, "_projection_gba", counted)
    monkeypatch.setattr(algebra, "_NUMPY_THRESHOLD", 0)
    expected = [[_verdict_or_error(check_morphism_by_chain, f, mtype,
                                   require_plus)
                 for require_plus, mtype in calls] for f in maps]
    algebras = {id(X): X for g in maps for X in (g.source, g.target)}
    copies = []
    for threshold in (0, SIZE_BOUND):
        monkeypatch.setattr(algebra, "_NUMPY_THRESHOLD", threshold)
        copies.append({k: _rebuilt(X) for k, X in algebras.items()})
        for g, want in zip(maps, expected):
            f = SemigroupMorphism(copies[-1][id(g.source)],
                                  copies[-1][id(g.target)], g.map)
            got = [_verdict_or_error(check_morphism, f, mtype, require_plus)
                   for require_plus, mtype in calls]
            assert got == want, (threshold, g.map)
    runs = Counter(id(X) for X in derived if "_projection_gba" in vars(X))
    assert runs and max(runs.values()) == 1
    assert len(runs) < len(set(map(id, derived)))
    failed = {getattr(v, "failed", None) for want in expected for v in want}
    assert failed >= {
        "mult", "star", "plus", "proj-zero", "proj-join", "proj-diff",
        "proj-proper", "weakly-meet-preserving", "proper"}, failed


# -- isomorphism search ---------------------------------------------------------

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


# -- rejected inputs ---------------------------------------------------------

def _stripped_pt2():
    S = gen_pt(2)
    return make_algebra(S.names, S.mult, S.star)


def _k2_acting_off_its_domain():
    # K_2's arrow 0 starts at object 0, but the anchor sits at object 1
    K1, K2 = gen_pair_groupoid(1), gen_pair_groupoid(2)
    return Cofunctor(K2, K1, [1], [[0], [-1], [-1], [-1]],
                     [[0], [-1], [-1], [-1]])


def _k1_lifting_to_nothing():
    # mu is defined at both objects, rho1 only at the first
    K1, K2 = gen_pair_groupoid(1), gen_pair_groupoid(2)
    return Cofunctor(K1, K2, [0, 0], [[0, 1]], [[K2.unit[0], -1]])


@pytest.mark.parametrize("call,error,message", [
    (lambda: make_category(["o"], ["u"], [0], [0], [0], [[-1]]),
     CompDomainMismatch, "comp undefined on composable pair (0,0)"),
    (_k2_acting_off_its_domain, CompDomainMismatch,
     "action defined off its domain at (0,0)"),
    (_k1_lifting_to_nothing, CompDomainMismatch,
     "action undefined on its domain at (0,1)"),
    (lambda: verify_groupoidal("not an instance"), UnknownElement,
     "cannot check groupoidality of str"),
    (lambda: deterministic_sets(_stripped_pt2()), NoPlusTable,
     "codeterminism needs a plus table"),
    (lambda: _stripped_pt2().leq_plus(0, 1), NoPlusTable,
     "the dual order needs a plus table"),
    (lambda: check_morphism(SemigroupMorphism(
        gen_pt(1), gen_pt(1), (0, 1)), 5), InputError,
     "unknown morphism type 5"),
    (lambda: compatible(gen_pt(2), 0, 1, "up"), InputError,
     "unknown compatibility mode 'up'"),
    (lambda: instance_to_dict(object()), InputError,
     "cannot serialize object"),
    # a flag name that is not a rule, and a rule that is not a flag
    (lambda: classify(gen_pt(2)).etale, AttributeError, "etale"),
    (lambda: classify(gen_pt(2))._BR2, AttributeError, "_BR2"),
], ids=["comp-undefined", "action-off-domain", "lift-undefined",
        "groupoidal-of-str", "deterministic-without-plus",
        "plus-order-without-plus", "morphism-type-5", "compatible-up",
        "serialize-object", "unknown-flag", "private-flag"])
def test_rejected_inputs_raise_with_their_message(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_witnesses_format_sets_in_string_order():
    # a frozenset prints as its formatted members in sorted order
    assert format_witness(("atoms", frozenset({9, 10, (1, "a b")}),
                           frozenset())) == "(atoms,{(1,ab),10,9},{})"
