"""Germ categories, the unit and counit maps, and theorem verification.

A germ of (s, atom a <= s^*) is represented canonically by the element s*a,
whose support is the atom a itself.  So the germ category's arrows are just
the elements with atomic support, objects are the atom projections, and
composition is plain multiplication.  This removes all equivalence-class
bookkeeping; the brute-force germ relation is kept in the test oracles as
an independent cross-check.
"""

from __future__ import annotations

from .algebra import (BiUnaryAlgebra, SemigroupMorphism, bd_subalgebra,
                      check_morphism, classify, deterministic_sets,
                      partial_isomorphisms, projection_gba,
                      with_inferred_plus)
# category_signature and iso_categories keep their stonedual.duality names
from .category import (FinCat, _cofunctor_diff, _lifted_cofunctor,
                       category_signature, check_cofunctor,
                       cofunctor_to_morphism, compose_cofunctors,
                       identity_cofunctor, is_groupoid, iso_categories,
                       make_category, semigroup_slices, slice_semigroup)
from .errors import (InvariantViolation, NoLocalUnits, NotAMorphism,
                     NotBooleanBirestriction, NotPreBoolean, UnknownElement)
from .report import Report


class GermCategory:
    """The category of germs of a preBoolean restriction semigroup."""

    def __init__(self, base, category, atoms, germ_elems):
        self.base = base
        self.category = category
        self.atoms = tuple(atoms)          # object i <-> projection atoms[i]
        self.germ_elems = tuple(germ_elems)  # arrow j <-> element germ_elems[j]
        self.obj_index = {a: i for i, a in enumerate(self.atoms)}
        self.germ_index = {e: j for j, e in enumerate(self.germ_elems)}


def germ_category(S):
    """Build and fully re-verify the category of germs of S.

    Objects are the atom projections, arrows the elements with atomic
    support, r(x) the unique atom acting as a left unit on x (checked
    against x^+ on range instances), and comp(x,y) = xy, which is its own
    canonical germ (xy)y^* since yy^* = y.  A germ without a single such
    atom raises InvariantViolation with witness ("germ-range", (x, units)).
    """
    if S.germ is not None:
        return S.germ
    cls = classify(S)
    cls.require("preboolean_restriction", NotPreBoolean,
                "projection-ordered joins are missing")
    cls.require("has_local_units", NoLocalUnits,
                "some element has no left local unit")
    _, to_mask, from_mask = projection_gba(S)
    atoms = [from_mask[1 << i]
             for i in range(max(to_mask.values()).bit_length())]
    atom_set = set(atoms)
    mult, star = S.mult, S.star

    plus_ref = None
    if cls.range:
        plus_ref = with_inferred_plus(S).plus

    germs = [x for x in range(S.n) if star[x] in atom_set]
    gidx = {e: j for j, e in enumerate(germs)}
    oidx = {a: i for i, a in enumerate(atoms)}
    d = [oidx[star[x]] for x in germs]
    r = []
    for x in germs:
        units = tuple(b for b in atoms if mult[b][x] == x)
        if len(units) != 1 or plus_ref is not None and plus_ref[x] != units[0]:
            raise InvariantViolation("a germ has no single range atom",
                                     witness=("germ-range", (x, units)))
        r.append(oidx[units[0]])
    unit = [gidx[a] for a in atoms]
    comp = [[-1] * len(germs) for _ in germs]
    for j, y in enumerate(germs):
        for i, x in enumerate(germs):
            if d[i] != r[j]:
                continue
            comp[i][j] = gidx[mult[x][y]]
    cat = make_category([S.names[a] for a in atoms],
                        [S.names[x] for x in germs], d, r, unit, comp)
    cat.germ_of, C = S, S.slice_parent
    # cat passed make_category, so C's derived state holds for it too
    if C is not None and (cat.d, cat.r, cat.unit, cat.comp) == (
            C.d, C.r, C.unit, C.comp):
        cat.tables_of = C.tables_of or C
    S.germ = GermCategory(S, cat, atoms, germs)
    return S.germ


def theta(S, s):
    """The slice {s*a : a atom <= s^*} of the germ category, as the choice
    of s*a at each atom a <= s^* and -1 elsewhere."""
    if not 0 <= s < S.n:
        raise UnknownElement(f"element index {s} out of range")
    G = germ_category(S)
    _, to_mask, _ = projection_gba(S)
    mask, germ, row = to_mask[S.star[s]], G.germ_index, S.mult[s]
    return tuple(germ[row[a]] if mask >> i & 1 else -1
                 for i, a in enumerate(G.atoms))


def unit_eta(S):
    """The map s -> Theta(s) into the slice semigroup of the germ category.

    Always an injective morphism, and onto on Boolean restriction
    instances; each is checked, and a failure raises InvariantViolation
    with the property and its witness.  Computed once per algebra.
    """
    if S.eta is not None:
        return S.eta
    G = germ_category(S)
    T = slice_semigroup(G.category)
    index = {A: i for i, A in enumerate(semigroup_slices(G.category, T))}
    m = tuple(index[theta(S, s)] for s in range(S.n))
    f = SemigroupMorphism(S, T, m)
    verdict = check_morphism(f, 1)
    if not verdict.ok:
        raise InvariantViolation("unit is not a morphism", witness=(
            "unit-morphism", (verdict.failed, verdict.witness)))
    source = {}
    for s, i in enumerate(m):
        if source.setdefault(i, s) != s:
            raise InvariantViolation("unit is not injective", witness=(
                "unit-injective", (source[i], s)))
    if classify(S).boolean_restriction and len(source) < T.n:
        missed = next(i for i in range(T.n) if i not in source)
        raise InvariantViolation("unit is not onto a Boolean instance",
                                 witness=("unit-onto", (missed,)))
    S.eta = f
    return f


def counit_epsilon(C):
    """The cofunctor germ_category(slice_semigroup(C)) ~> C.

    Germ arrows of the slice semigroup are singleton slices {t}; the anchor
    sends an object x to the atom {1_x}, the action sends ({t}, x) with
    d(t) = x to r(t), and the lift returns t itself.  Verified to be an
    isomorphism: the anchor is injective, as distinct units give distinct
    atoms, and must reach every object ("counit-anchor", with the first
    object missed), and the lift must be bijective on arrows
    ("counit-bijective", with check_cofunctor's witness); a failure raises
    InvariantViolation.
    """
    S_C = slice_semigroup(C)
    slices = semigroup_slices(C, S_C)
    elem_of = {A: i for i, A in enumerate(slices)}
    G = germ_category(S_C)
    objects = range(C.n_obj)
    anchor = [G.obj_index[elem_of[tuple(C.unit[x] if y == x else -1
                                        for y in objects)]] for x in objects]
    missed = next((o for o in range(G.category.n_obj) if o not in anchor),
                  None)
    if missed is not None:
        raise InvariantViolation("counit anchor misses a germ object",
                                 witness=("counit-anchor", (missed,)))
    # the germ at anchor[x] is a singleton {t} with d(t) = x
    F = _lifted_cofunctor(G.category, C, anchor,
                          lambda j, x: slices[G.germ_elems[j]][x])
    check_cofunctor(F).require("bijective_on_arrows", InvariantViolation,
                               "counit is not bijective on arrows",
                               "counit-bijective")
    return F


def morphism_to_cofunctor(f):
    """Turn a type-1 semigroup morphism S -> T into a cofunctor between germ
    categories: the anchor pulls each atom b of P(T) back to the unique
    atom a of P(S) with b <= f(a), and the lift sends a germ u to f(u)*b.
    f is of type 2 exactly when the cofunctor is injective on arrows, and
    of type 3 exactly when it is surjective on arrows.  Between etale
    range semigroups, a map that keeps bideterministic elements
    bideterministic gives an injective action.  A failure raises
    InvariantViolation with ("cofunctor-anchor", (b, atoms a)) or
    ("cofunctor-action-injective", witness).
    """
    S, T = f.source, f.target
    verdict = check_morphism(f, 1)
    if not verdict.ok:
        raise NotAMorphism(f"map fails {verdict.failed}",
                           witness=(verdict.failed, verdict.witness))
    GS, GT = germ_category(S), germ_category(T)
    anchor = []
    for b in GT.atoms:
        hits = tuple(i for i, a in enumerate(GS.atoms) if T.leq(b, f.map[a]))
        if len(hits) != 1:
            raise InvariantViolation("an atom has no single preimage atom",
                                     witness=("cofunctor-anchor", (b, hits)))
        anchor.append(hits[0])
    F = _lifted_cofunctor(
        GS.category, GT.category, anchor, lambda j, x: GT.germ_index[
            T.mult[f.map[GS.germ_elems[j]]][GT.atoms[x]]])
    if classify(S).etale_range and classify(T).etale_range:
        Sp, Tp = with_inferred_plus(S), with_inferred_plus(T)
        bd_T = set(deterministic_sets(Tp)[2])
        if all(f.map[i] in bd_T for i in deterministic_sets(Sp)[2]):
            check_cofunctor(F).require(
                "action_injective", InvariantViolation,
                "cofunctor action is not injective",
                "cofunctor-action-injective")
    return F


def verify_adjunction(instance):
    """Check the triangle identity on a semigroup or a category.

    Semigroup side: the composite of the counit at the germ category with
    the germ cofunctor of the unit must be the identity cofunctor.
    Category side: pushing the counit forward and precomposing with the
    unit of the slice semigroup must give the identity map.
    """
    if isinstance(instance, BiUnaryAlgebra):
        S = instance
        rep = Report("triangle identity at a semigroup")
        eta = unit_eta(S)
        F = morphism_to_cofunctor(eta)
        eps = counit_epsilon(germ_category(S).category)
        comp = compose_cofunctors(eps, F)
        diff = _cofunctor_diff(comp, identity_cofunctor(comp.source))
        rep.check("counit-after-germ-of-unit-is-identity", diff is None, diff)
        return rep
    if isinstance(instance, FinCat):
        C = instance
        rep = Report("triangle identity at a category")
        S_C = slice_semigroup(C)
        eta = unit_eta(S_C)
        eps = counit_epsilon(C)
        eps_star = cofunctor_to_morphism(eps)
        composite = [eps_star.map[eta.map[i]] for i in range(S_C.n)]
        bad = next((i for i in range(S_C.n) if composite[i] != i), None)
        rep.check("pushforward-of-counit-after-unit-is-identity",
                  bad is None, None if bad is None else (bad, composite[bad]))
        return rep
    raise UnknownElement(f"cannot verify adjunction on {type(instance).__name__}")


def verify_birestriction_equivalence(S):
    """For Boolean birestriction S: the unit corestricts to a (2,1,1)-
    isomorphism onto the bideterministic part of the dual slice semigroup."""
    classify(S).require("boolean_birestriction", NotBooleanBirestriction,
                        "input is not a Boolean birestriction semigroup")
    rep = Report("birestriction equivalence")
    eta = unit_eta(S)
    sub, keep = bd_subalgebra(eta.target)
    pos = {e: i for i, e in enumerate(keep)}
    landed = all(m in pos for m in eta.map)
    rep.check("unit-lands-in-bideterministic-part", landed,
              None if landed else (next(i for i, m in enumerate(eta.map)
                                        if m not in pos),))
    if not landed:
        return rep
    m = [pos[v] for v in eta.map]
    rep.check("corestricted-unit-bijective",
              len(set(m)) == S.n and len(m) == sub.n, (S.n, sub.n))
    verdict = check_morphism(
        SemigroupMorphism(with_inferred_plus(S), sub, tuple(m)), 1,
        require_plus=True)
    rep.check("corestricted-unit-preserves-all-tables", verdict.ok,
              None if verdict.ok else (verdict.failed, verdict.witness))
    rep.info("bijection", tuple(m))
    return rep


def verify_groupoidal(instance):
    """Cross-check the groupoid property against its algebraic mirror.

    On a category: bideterministic slices always coincide with bislices,
    and the partial isomorphisms exhaust them exactly when the category is
    a groupoid.  On a semigroup: the groupoidal flag must match the germ
    category being a groupoid.
    """
    if isinstance(instance, FinCat):
        C = instance
        rep = Report("groupoid criterion at a category")
        inv, _ = is_groupoid(C)
        S_C = slice_semigroup(C)
        bd = set(deterministic_sets(S_C)[2])
        piso = set(partial_isomorphisms(S_C))
        # a bislice: its arrows have distinct ranges
        ranges = [[C.r[a] for a in A if a >= 0]
                  for A in semigroup_slices(C, S_C)]
        bis = {i for i, rs in enumerate(ranges) if len(set(rs)) == len(rs)}
        rep.check("bideterministic-equals-bislices", bd == bis,
                  tuple(sorted(bd ^ bis)) or None)
        agrees = (inv is not None) == (piso == bd)
        rep.check("groupoid-iff-partial-isos-exhaust-bideterministic",
                  agrees, tuple(sorted(bd ^ piso)) or None)
        if inv is not None:
            rep.info("inversion", inv)
        return rep
    if isinstance(instance, BiUnaryAlgebra):
        S = instance
        rep = Report("groupoid criterion at a semigroup")
        flag = classify(S).groupoidal_etale
        inv, wit = is_groupoid(germ_category(S).category)
        rep.check("groupoidal-flag-iff-germ-category-is-groupoid",
                  flag == (inv is not None), (flag, wit))
        if inv is not None:
            rep.info("inversion", inv)
        return rep
    raise UnknownElement(f"cannot check groupoidality of {type(instance).__name__}")

