"""Finite categories, their isomorphisms, local sections, slice semigroups,
and cofunctors.

A category is stored as dense index tables; comp[x][y] is the composite
"y then x" and carries -1 where d(x) != r(y).  Composability is always
decided from the d/r tables, never from the sentinel pattern.

A slice (local section) of C is a partial section of d, stored as its
choice: a tuple with one entry per object, an arrow of that object's
d-fibre or -1 for none.  Slices form a semigroup under composition, with
support = units over d(A) and cosupport = units over r(A).
Cofunctors C ~> D act on target objects by source arrows and are validated
eagerly; bijective-on-arrows cofunctors translate to covering functors
D -> C and back, exactly.
"""

from __future__ import annotations

from math import prod

from . import algebra
from .algebra import (AlgebraClassification, BiUnaryAlgebra, SemigroupMorphism,
                      _check_assoc, _check_size, _check_table, _find_iso,
                      _memo, _refine, _table_memo, check_morphism, classify,
                      deterministic_sets, make_algebra)
from .errors import (AxiomFail, BadTableShape, CompDomainMismatch,
                     CompositionMismatch, InputError, InvariantViolation,
                     NotAssociative, NotBijectiveOnArrows, NotStarBijective)


class FinCat:
    """Finite category as index tables over objects and arrows."""

    def __init__(self, objects, arrows, d, r, unit, comp):
        self.objects = tuple(objects)
        self.arrows = tuple(arrows)
        self.d = tuple(d)
        self.r = tuple(r)
        self.unit = tuple(unit)
        self.comp = tuple(tuple(row) for row in comp)
        self.n_obj = len(self.objects)
        self.n_arr = len(self.arrows)
        self.slice_sg = self.bislice_sg = None  # set by slice_semigroup
        # set by duality.germ_category: the algebra self is the germ
        # category of, and the first category built with self's tables
        self.germ_of = self.tables_of = None

    def __repr__(self):
        return f"FinCat({self.n_obj} objects, {self.n_arr} arrows)"

    def same_tables(self, other):
        return (self.objects == other.objects and self.arrows == other.arrows
                and self.d == other.d and self.r == other.r
                and self.unit == other.unit and self.comp == other.comp)

    def d_fiber(self, o):
        """Arrows starting at object o."""
        return self._d_fibers[o]

    @_table_memo
    def _d_fibers(self):
        fib = [[] for _ in range(self.n_obj)]
        for a in range(self.n_arr):
            fib[self.d[a]].append(a)
        return tuple(map(tuple, fib))

    @_table_memo
    def iso_structure(self):
        """The tables an isomorphism preserves: the unary tables
        a -> 1_d(a) and a -> 1_r(a), and comp."""
        return ([[self.unit[o] for o in self.d],
                 [self.unit[o] for o in self.r]], self.comp)

    @_table_memo
    def _iso_binary(self):
        """The binary table of iso_structure as a numpy array."""
        import numpy as np
        return np.array(self.comp, dtype=algebra._INDEX_DTYPE)

    @_table_memo
    def iso_codes(self):
        """Refinement codes of the arrows (see algebra._refine), computed
        once."""
        d, r, unit, comp = self.d, self.r, self.unit, self.comp
        prof = [(len(self.d_fiber(o)), r.count(o),
                 sum(1 for a in range(self.n_arr) if d[a] == o and r[a] == o))
                for o in range(self.n_obj)]
        return _refine(self, [
            (*prof[d[a]], *prof[r[a]], unit[d[a]] == a,
             comp[a][a] == a if d[a] == r[a] else -1)
            for a in range(self.n_arr)])


def category_signature(E):
    """E.iso_codes: equal sorted codes are necessary (not sufficient) for
    isomorphism, so they serve as dedup keys."""
    return E.iso_codes


def iso_categories(C, D):
    """Search for an isomorphism (object map, arrow map); None if there is
    none.  An arrow bijection preserving comp and the unit tables of
    iso_structure is exactly an isomorphism: it sends units to units, so
    the object map is read off them.
    """
    if C.n_obj != D.n_obj or C.n_arr != D.n_arr:
        return None
    amap = _find_iso(C, D)
    if amap is None:
        return None
    return tuple(D.d[amap[u]] for u in C.unit), amap


def make_category(objects, arrows, d, r, unit, comp):
    """Validate the axioms exhaustively and build the category.

    Checks, in order: arrows within the size bound; shapes and ranges; comp
    defined exactly on composable pairs; units anchored (DRU); domain and
    range of composites (DP, RP); associativity (A); unit laws (UL).
    """
    n_obj, n_arr = len(objects), len(arrows)
    _check_size(n_arr)
    if len(set(objects)) != n_obj or len(set(arrows)) != n_arr:
        raise BadTableShape("object or arrow names are not unique")
    _check_table("d", d, (n_arr,), n_obj)
    _check_table("r", r, (n_arr,), n_obj)
    _check_table("unit", unit, (n_obj,), n_arr)
    _check_table("comp", comp, (n_arr, n_arr), n_arr, low=-1)
    for x in range(n_arr):
        for y in range(n_arr):
            v = comp[x][y]
            if d[x] == r[y]:
                if v == -1:
                    raise CompDomainMismatch(
                        f"comp undefined on composable pair ({x},{y})")
            elif v != -1:
                raise CompDomainMismatch(
                    f"comp defined on non-composable pair ({x},{y})")
    for o in range(n_obj):
        u = unit[o]
        if d[u] != o or r[u] != o:
            raise AxiomFail("DRU", (o,))
    for x in range(n_arr):
        for y in range(n_arr):
            if d[x] != r[y]:
                continue
            xy = comp[x][y]
            if d[xy] != d[y]:
                raise AxiomFail("DP", (x, y))
            if r[xy] != r[x]:
                raise AxiomFail("RP", (x, y))
    # an adjoined zero n_arr stands for every undefined composite; given DP
    # and RP, only composable triples can then break associativity
    try:
        _check_assoc([[n_arr if v == -1 else v for v in row] + [n_arr]
                      for row in comp] + [[n_arr] * (n_arr + 1)])
    except NotAssociative as exc:
        raise AxiomFail("A", exc.witness) from None
    for x in range(n_arr):
        if comp[unit[r[x]]][x] != x or comp[x][unit[d[x]]] != x:
            raise AxiomFail("UL", (x,))
    return FinCat(objects, arrows, d, r, unit, comp)


def is_groupoid(C):
    """Per-arrow inverse table, or (None, witness arrow) when one is missing."""
    inv = []
    for a in range(C.n_arr):
        found = None
        for b in range(C.n_arr):
            if (C.d[b] == C.r[a] and C.r[b] == C.d[a]
                    and C.comp[a][b] == C.unit[C.r[a]]
                    and C.comp[b][a] == C.unit[C.d[a]]):
                found = b
                break
        if found is None:
            return None, a
        inv.append(found)
    return tuple(inv), None


def predicted_slice_count(C):
    return prod(1 + len(C.d_fiber(o)) for o in range(C.n_obj))


def enumerate_slices(C, bislices_only=False):
    """All local (bi)sections as choices, ordered by size then sorted
    arrows, grown one object at a time.  More than SIZE_BOUND predicted
    slices raise TooLarge before any is listed; every partial bislice
    extends to a bislice, so more than SIZE_BOUND partial bislices raise
    TooLarge at once."""
    r = C.r
    if not bislices_only:
        _check_size(predicted_slice_count(C))
    out = [()]
    for o in range(C.n_obj):
        out = [s + (-1,) for s in out] + [
            s + (a,) for s in out for a in C.d_fiber(o)
            if not bislices_only or all(b < 0 or r[b] != r[a] for b in s)]
        if bislices_only:
            _check_size(len(out))
    out.sort(key=lambda s: (-s.count(-1), sorted(s)))
    return out


def slice_semigroup(C, bislices_only=False):
    """The semigroup of all local (bi)sections with support and cosupport.

    Element 0 is the empty slice, the zero.  The result always classifies
    boolean_range and etale_range (boolean_birestriction when restricted to
    bisections); that is checked here, not assumed, and a failure raises
    InvariantViolation with the flag and its witness.  The predicted slice
    count, or the count of bislices as they are enumerated, must be within
    the size bound before the table is built.
    """
    memo = C.bislice_sg if bislices_only else C.slice_sg
    if memo is not None:
        return memo
    elems = enumerate_slices(C, bislices_only)
    S = _slice_algebra(C, elems, [_slice_name(C, s) for s in elems],
                       C.germ_of)
    S.slice_sets = tuple(elems)
    S.slice_parent = C
    cls = classify(S)
    for flag in (("boolean_birestriction",) if bislices_only
                 else ("boolean_range", "etale_range")):
        cls.require(flag, InvariantViolation, f"slice semigroup is not {flag}",
                    flag)
    if bislices_only:
        C.bislice_sg = S
    else:
        C.slice_sg = S
    return S


def _slice_algebra(C, slices, names, like=None):
    """The algebra of the given slices (choices) of C, which must be closed
    under the operations: (A*B)[x] is B[x], then the arrow of A at r(B[x]),
    where both exist; support and cosupport are the units over the domains
    and ranges.  The empty slice is the zero.  Above the numpy cutoff the
    tables come from _slice_tables.

    When the tables equal those of the algebra like, cell by cell, the
    result holds like's tables and reads like's table memos through
    tables_of, where make_algebra and every derivation would run again."""
    if len(slices) > algebra._NUMPY_THRESHOLD:
        import numpy as np
        mult, star, plus, zero = _slice_tables(C, slices)
        same_mult = lambda: np.array_equal(mult, like._mult_array)
    else:
        mult, star, plus, zero = _slice_table_rows(C, slices)
        same_mult = lambda: like.mult == tuple(mult)
    # the cheap tables first: a rebuild that differs costs little more
    if like is not None and (like.n, like.zero, like.star, like.plus) == (
            len(star), zero, tuple(star), tuple(plus)) and same_mult():
        S = BiUnaryAlgebra(names, like.mult, like.star, like.plus, zero)
        S.tables_of = like.tables_of or like
        return S
    return make_algebra(names, mult, star, plus, zero=zero)


def _slice_table_rows(C, slices):
    """_slice_algebra's four tables in Python, mult as rows of tuples."""
    objects, unit = range(C.n_obj), C.unit
    # -1 ranges to the extra object n_obj, where every choice has no arrow,
    # and composes through the extra all -1 row and column to -1
    none = (-1,) * (C.n_arr + 1)
    comp = [row + (-1,) for row in C.comp] + [none]
    r_of = C.r + (C.n_obj,)
    index = {s: i for i, s in enumerate(slices)}
    ends = [[(r_of[b], b) for b in B] for B in slices]
    mult = []
    # a KeyError is a result that is not among the slices
    try:
        for A in slices:
            # after[o][b]: b, then the arrow of A at o
            after = [comp[a] for a in A] + [none]
            mult.append(tuple([index[tuple(after[o][b] for o, b in B)]
                               for B in ends]))
        star = [index[tuple(-1 if a < 0 else unit[x] for x, a in enumerate(A))]
                for A in slices]
        plus = []
        for A in slices:
            ranges = {r_of[a] for a in A}
            plus.append(index[tuple(unit[y] if y in ranges else -1
                                    for y in objects)])
        zero = index[(-1,) * C.n_obj]
    except KeyError:
        raise _unclosed_slices() from None
    return mult, star, plus, zero


def _unclosed_slices():
    """What both slice table builders raise on slices not closed under
    the operations."""
    return InvariantViolation("the slices are not closed under the "
                              "operations", witness=("closed",))


def _slice_tables(C, slices):
    """(mult, star, plus, zero) of _slice_algebra, mult as an int16 array.

    A slice's code is the mixed-radix number whose digit at an object is
    0 for no arrow or 1 + the arrow's place in the fibre, so a code is the
    sum of the values of the slice's arrows.  (A*B) chooses at x the arrow
    A(r(B(x))) after B(x): for every pair (A, B) that is one gather per
    object.  Sorted codes map products back to the order of slices."""
    import numpy as np
    n, n_obj, n_arr = len(slices), C.n_obj, C.n_arr
    fibres = [C.d_fiber(o) for o in range(n_obj)]
    space = prod(1 + len(f) for f in fibres)
    # every set of units is a bislice, so a family within SIZE_BOUND comes
    # from at most 9 objects; with at most SIZE_BOUND arrows among them,
    # its codes fit in 64 bits
    code_dtype = np.int32 if space < 1 << 31 else np.int64
    place = np.cumprod([1] + [1 + len(f) for f in fibres[:-1]],
                       dtype=code_dtype)
    # value[a]: arrow a's share of a code; value[-1] = 0 stands for no arrow
    value = np.zeros(n_arr + 1, dtype=code_dtype)
    for o, fibre in enumerate(fibres):
        value[list(fibre)] = place[o] * np.arange(1, len(fibre) + 1)
    # choice[i, o]: the arrow of slice i at object o, or -1; the last
    # column, all -1, is where "no arrow" ranges to, through r[-1] = n_obj
    choice = np.full((n, n_obj + 1), -1, dtype=algebra._INDEX_DTYPE)
    choice[:, :-1] = slices
    r = np.array(C.r + (n_obj,), dtype=algebra._INDEX_DTYPE)
    comp = np.full((n_arr + 1, n_arr + 1), -1, dtype=algebra._INDEX_DTYPE)
    comp[:-1, :-1] = C.comp
    after = value[comp]  # after[a, b]: the value of a after b, 0 if none
    codes = value[choice].sum(axis=1, dtype=code_dtype)
    order = np.argsort(codes, kind="stable").astype(algebra._INDEX_DTYPE)
    known = codes[order]

    def index(c):
        if n < space:  # some slices are left out: look each code up
            pos = np.minimum(np.searchsorted(known, c), n - 1)
            if (known[pos] != c).any():
                raise _unclosed_slices()
            c = pos
        return order[c]

    mult = np.empty((n, n), dtype=algebra._INDEX_DTYPE)
    for lo, hi in algebra._blocks(n, n):
        rows = np.zeros((hi - lo, n), dtype=code_dtype)
        for x in range(n_obj):
            b = choice[:, x]
            rows += after[choice[lo:hi, r[b]], b]
        mult[lo:hi] = index(rows)
    units = value[list(C.unit)]
    star = (choice[:, :-1] >= 0) @ units
    ranges = np.zeros((n, n_obj + 1), dtype=bool)
    ranges[np.arange(n)[:, None], r[choice[:, :-1]]] = True
    plus = ranges[:, :-1] @ units
    (zero,) = index(np.zeros(1, dtype=code_dtype)).tolist()
    return mult, index(star).tolist(), index(plus).tolist(), zero


def _slice_name(C, choice):
    return "{" + ",".join(C.arrows[a] for a in sorted(choice) if a >= 0) + "}"


def semigroup_slices(C, S):
    """The choices behind the elements of a slice semigroup of C.

    When S was built elsewhere (say, loaded from a file), each element name
    must be the name slice_semigroup gives to exactly one slice of C."""
    if S.slice_parent is C:
        return S.slice_sets
    by_name = {}
    for choice in enumerate_slices(C):
        name = _slice_name(C, choice)
        by_name[name] = None if name in by_name else choice
    slices = tuple(by_name.get(name) for name in S.names)
    if None in slices:
        raise InputError(f"element {S.names[slices.index(None)]} does not "
                         "name exactly one slice of the category")
    return slices


class Cofunctor:
    """An action (mu, f) of C on the objects of D plus its arrow lift rho1.

    mu[s][x] and rho1[s][x] are -1 exactly when d(s) != f(x); shapes and
    ranges are checked first, then every structural law.
    """

    def __init__(self, source, target, anchor, mu, rho1):
        C, D = source, target
        self.source, self.target = C, D
        self.anchor = tuple(anchor)
        self.mu = tuple(tuple(row) for row in mu)
        self.rho1 = tuple(tuple(row) for row in rho1)
        _check_table("anchor", self.anchor, (D.n_obj,), C.n_obj)
        _check_table("mu", self.mu, (C.n_arr, D.n_obj), D.n_obj, low=-1)
        _check_table("rho1", self.rho1, (C.n_arr, D.n_obj), D.n_arr, low=-1)
        self._validate()

    def defined(self, s, x):
        return self.source.d[s] == self.anchor[x]

    def _validate(self):
        C, D, f = self.source, self.target, self.anchor
        mu, rho1 = self.mu, self.rho1
        # locals: on CPython 3.11 a filled cached property slows attribute reads
        dC, rC, compC = C.d, C.r, C.comp
        dD, rD, compD = D.d, D.r, D.comp
        for s in range(C.n_arr):
            for x in range(D.n_obj):
                if dC[s] != f[x]:
                    if mu[s][x] != -1 or rho1[s][x] != -1:
                        raise CompDomainMismatch(
                            f"action defined off its domain at ({s},{x})")
                    continue
                sx, rx = mu[s][x], rho1[s][x]
                if sx == -1 or rx == -1:
                    raise CompDomainMismatch(
                        f"action undefined on its domain at ({s},{x})")
                if f[sx] != rC[s]:
                    raise AxiomFail("A1", (s, x))
                if dD[rx] != x:
                    raise AxiomFail("rho-d", (s, x))
                if rD[rx] != sx:
                    raise AxiomFail("rho-r", (s, x))
        for x in range(D.n_obj):
            u = C.unit[f[x]]
            if mu[u][x] != x:
                raise AxiomFail("A3", (x,))
            if rho1[u][x] != D.unit[x]:
                raise AxiomFail("rho-unit", (x,))
        for t in range(C.n_arr):
            for x in range(D.n_obj):
                if dC[t] != f[x]:
                    continue
                tx = mu[t][x]
                for s in range(C.n_arr):
                    if dC[s] != rC[t]:
                        continue
                    st = compC[s][t]
                    if mu[s][tx] != mu[st][x]:
                        raise AxiomFail("A2", (s, t, x))
                    if compD[rho1[s][tx]][rho1[t][x]] != rho1[st][x]:
                        raise AxiomFail("rho-comp", (s, t, x))

    def pairs(self):
        for s in range(self.source.n_arr):
            for x in range(self.target.n_obj):
                if self.defined(s, x):
                    yield s, x

    def pushforward(self, A):
        """F_*(A): at each object x, the lift at x of A's arrow at the
        anchor of x, or -1 where A has none.  By rho-d the lift starts at
        x, so the result is a slice."""
        rho1 = self.rho1
        return tuple(-1 if A[o] < 0 else rho1[A[o]][x]
                     for x, o in enumerate(self.anchor))

    def equal_tables(self, other):
        return _cofunctor_diff(self, other) is None

    @_memo
    def classification(self):
        """check_cofunctor's flags of self, each decided when first read."""
        return AlgebraClassification([
            ("injective_on_arrows", (), lambda: _lift_collision(self)),
            ("surjective_on_arrows", (), lambda: _unlifted_arrow(self)),
            ("bijective_on_arrows",
             ("injective_on_arrows", "surjective_on_arrows"), None),
            ("action_injective", (), lambda: _action_collision(self)),
        ])


def _cofunctor_diff(A, B):
    """The first place where two cofunctors' tables differ, or None."""
    if not A.source.same_tables(B.source) or not A.target.same_tables(B.target):
        return ("categories",)
    if A.anchor != B.anchor:
        x = next(i for i, (p, q) in enumerate(zip(A.anchor, B.anchor)) if p != q)
        return ("anchor", x)
    for s in range(len(A.mu)):
        for x in range(len(A.mu[s])):
            if A.mu[s][x] != B.mu[s][x]:
                return ("mu", s, x)
            if A.rho1[s][x] != B.rho1[s][x]:
                return ("rho1", s, x)
    return None


def _lifted_cofunctor(C, D, anchor, lift):
    """The cofunctor C ~> D whose arrow lift at (s, x), defined where
    d(s) = anchor[x], is lift(s, x); the action is the range of the lift."""
    objects, r = range(D.n_obj), D.r
    rho1 = [[lift(s, x) if ds == anchor[x] else -1 for x in objects]
            for s, ds in enumerate(C.d)]
    mu = [[-1 if t == -1 else r[t] for t in row] for row in rho1]
    return Cofunctor(C, D, anchor, mu, rho1)


def identity_cofunctor(C):
    return _lifted_cofunctor(C, C, range(C.n_obj), lambda s, x: s)


def check_cofunctor(F):
    """F.classification: injectivity/surjectivity of the lift and action."""
    return F.classification


def _lift_collision(F):
    """First (s, s2, x) with s < s2 lifted at x to one arrow, or None."""
    d, f, rho1 = F.source.d, F.anchor, F.rho1
    for x in range(F.target.n_obj):
        seen = {}
        for s in range(F.source.n_arr):
            if d[s] == f[x] and seen.setdefault(rho1[s][x], s) != s:
                return (seen[rho1[s][x]], s, x)
    return None


def _unlifted_arrow(F):
    """First target arrow t that no source arrow lifts to at d(t), as (t,),
    or None."""
    D = F.target
    lifted = {(x, F.rho1[s][x]) for s, x in F.pairs()}
    return next(((t,) for t in range(D.n_arr) if (D.d[t], t) not in lifted), None)


def _action_collision(F):
    """First (s, x, x2) with x < x2 that s moves to one object, or None."""
    d, f, mu = F.source.d, F.anchor, F.mu
    for s in range(F.source.n_arr):
        seen = {}
        for x in range(F.target.n_obj):
            if d[s] == f[x] and seen.setdefault(mu[s][x], x) != x:
                return (s, seen[mu[s][x]], x)
    return None


def compose_cofunctors(G, F):
    """The composite of F: C ~> D followed by G: D ~> E, acting through D."""
    if F.target is not G.source and not F.target.same_tables(G.source):
        raise CompositionMismatch("inner categories do not match")
    anchor = [F.anchor[y] for y in G.anchor]
    return _lifted_cofunctor(F.source, G.target, anchor,
                             lambda s, x: G.rho1[F.rho1[s][G.anchor[x]]][x])


def cofunctor_to_morphism(F):
    """The pushforward A -> F_*(A) between the slice semigroups.

    F_* is weakly meet preserving (type 2) exactly when F is injective on
    arrows, and proper (type 3) exactly when F is surjective on arrows.
    Each call checks the forward implications, and that an injective
    action keeps bideterministic elements bideterministic; a failure
    raises InvariantViolation with the theorem and its witness.
    """
    S = slice_semigroup(F.source)
    T = slice_semigroup(F.target)
    # T holds every slice of the target, and every pushforward is one
    index_T = {A: i for i, A in enumerate(semigroup_slices(F.target, T))}
    m = [index_T[F.pushforward(A)] for A in semigroup_slices(F.source, S)]
    f = SemigroupMorphism(S, T, tuple(m))
    cls = check_cofunctor(F)
    # type 4 is types 2 and 3 together
    mtype = 1 + cls.injective_on_arrows + 2 * cls.surjective_on_arrows
    verdict = check_morphism(f, mtype)
    if not verdict.ok:
        raise InvariantViolation(
            f"pushforward is not a type-{mtype} morphism", witness=(
                "pushforward-morphism", (mtype, verdict.failed, verdict.witness)))
    if cls.action_injective:
        _, _, bd_S = deterministic_sets(S)
        bd_T = set(deterministic_sets(T)[2])
        bad = next((i for i in bd_S if m[i] not in bd_T), None)
        if bad is not None:
            raise InvariantViolation(
                "pushforward sends a bideterministic slice outside the "
                "bideterministic part", witness=("pushforward-bideterministic",
                                                 (bad,)))
    return f


class CoveringFunctor:
    """A functor whose arrow map is a bijection on every d-fiber."""

    def __init__(self, source, target, f0, f1):
        D, C = source, target
        self.source, self.target = D, C
        self.f0 = tuple(f0)
        self.f1 = tuple(f1)
        _check_table("f0", self.f0, (D.n_obj,), C.n_obj)
        _check_table("f1", self.f1, (D.n_arr,), C.n_arr)
        self._validate()

    def _validate(self):
        D, C, f0, f1 = self.source, self.target, self.f0, self.f1
        # locals: on CPython 3.11 a filled cached property slows attribute reads
        dD, rD, compD, compC = D.d, D.r, D.comp, C.comp
        for t in range(D.n_arr):
            if C.d[f1[t]] != f0[dD[t]] or C.r[f1[t]] != f0[rD[t]]:
                raise AxiomFail("functor-dr", (t,))
        for x in range(D.n_obj):
            if f1[D.unit[x]] != C.unit[f0[x]]:
                raise AxiomFail("functor-unit", (x,))
        for t in range(D.n_arr):
            for u in range(D.n_arr):
                if dD[t] == rD[u] and f1[compD[t][u]] != compC[f1[t]][f1[u]]:
                    raise AxiomFail("functor-comp", (t, u))
        for x in range(D.n_obj):
            fiber = D.d_fiber(x)
            images = [f1[t] for t in fiber]
            if len(set(images)) != len(images):
                raise NotStarBijective("arrow map repeats on a d-fiber",
                                       witness=("injective", x))
            target_fiber = set(C.d_fiber(f0[x]))
            if set(images) != target_fiber:
                raise NotStarBijective("arrow map misses part of a d-fiber",
                                       witness=("surjective", x))

    def translate(self, s, x):
        """The unique source arrow over s starting at x."""
        for t in self.source.d_fiber(x):
            if self.f1[t] == s:
                return t
        raise NotStarBijective("no arrow over the requested one at this object",
                               witness=("missing", s, x))

    def equal_tables(self, other):
        return (self.source.same_tables(other.source)
                and self.target.same_tables(other.target)
                and self.f0 == other.f0 and self.f1 == other.f1)


def cofunctor_to_covering(F):
    """Repackage a bijective-on-arrows cofunctor as a functor D -> C."""
    check_cofunctor(F).require("bijective_on_arrows", NotBijectiveOnArrows,
                               "cofunctor is not bijective on arrows")
    D = F.target
    f1 = [-1] * D.n_arr
    for s, x in F.pairs():
        f1[F.rho1[s][x]] = s
    return CoveringFunctor(D, F.source, F.anchor, f1)


def covering_to_cofunctor(g):
    """Rebuild the cofunctor C ~> D whose arrow lift is g's fiber inverse."""
    return _lifted_cofunctor(g.target, g.source, g.f0, g.translate)
