"""Independent reference implementations used to freeze expected values.

Everything here works on different data structures than the package
(dict-based partial maps, raw subset enumeration, permutation search), so
agreement between the two is meaningful evidence rather than a tautology.
"""

import itertools
import json

from stonedual.category import (category_signature, iso_categories,
                                make_category, semigroup_slices)
from stonedual.errors import InputError, MathFail, ParentMismatch


# ---------------------------------------------------------------------------
# the canonical file layout, written by the standard library's pure-Python
# encoder


def dumps_canonical_reference(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# partial self-maps as dicts {point: image}, points are 1-based


def all_partial_maps(n):
    points = list(range(1, n + 1))
    out = []
    for dom in itertools.chain.from_iterable(
            itertools.combinations(points, k) for k in range(n + 1)):
        for image in itertools.product(points, repeat=len(dom)):
            out.append(dict(zip(dom, image)))
    return out


def compose_maps(s, t):
    # apply t first, then s
    return {x: s[t[x]] for x in t if t[x] in s}


def dom_id(s):
    return {x: x for x in s}


def ran_id(s):
    return {v: v for v in s.values()}


def inverse_map(s):
    # only meaningful when s is injective
    return {v: k for k, v in s.items()}


def is_injective(s):
    return len(set(s.values())) == len(s)


def is_increasing(s):
    return all(v >= x for x, v in s.items())


def map_name(s, n):
    return "".join(str(s[x]) if x in s else "-" for x in range(1, n + 1))


def parse_map(name):
    return {x: int(c) for x, c in enumerate(name, start=1) if c != "-"}


def expected_map_tables(names):
    """Rebuild mult/star/plus for a family of partial-map names; None on a
    composite or support that escapes the family."""
    n = len(names[0])
    maps = [parse_map(nm) for nm in names]
    index = {map_name(m, n): i for i, m in enumerate(maps)}
    mult = [[index[map_name(compose_maps(a, b), n)] for b in maps]
            for a in maps]
    star = [index[map_name(dom_id(a), n)] for a in maps]
    plus = [index[map_name(ran_id(a), n)] for a in maps]
    return mult, star, plus


# ---------------------------------------------------------------------------
# order, atoms, and the germ relation, straight from the definitions


def leq(S, a, b):
    # a <= b iff a = b restricted to the support of a
    return S.mult[b][S.star[a]] == a


def proj_atoms(S):
    proj = sorted(S.projections())
    zero = S.detected_zero()
    nonzero = [e for e in proj if e != zero]
    return [e for e in nonzero
            if not any(g != e and leq(S, g, e) for g in nonzero)]


def germ_relation_mismatch(S):
    """First (s, t, atom) where the common-lower-bound relation disagrees
    with equality of the canonical representatives, else None."""
    atoms = proj_atoms(S)
    for a in atoms:
        carriers = [s for s in range(S.n) if leq(S, a, S.star[s])]
        for s in carriers:
            for t in carriers:
                related = any(
                    leq(S, u, s) and leq(S, u, t) and leq(S, a, S.star[u])
                    for u in range(S.n))
                canonical = S.mult[s][a] == S.mult[t][a]
                if related != canonical:
                    return (s, t, a)
    return None


def brute_join(S, s, t):
    """Least common upper bound by scanning all elements; None if the set
    of upper bounds is empty or has no minimum."""
    ubs = [u for u in range(S.n) if leq(S, s, u) and leq(S, t, u)]
    least = [u for u in ubs if all(leq(S, u, v) for v in ubs)]
    return least[0] if least else None


def brute_meet(S, s, t):
    lbs = [u for u in range(S.n) if leq(S, u, s) and leq(S, u, t)]
    greatest = [u for u in lbs if all(leq(S, v, u) for v in lbs)]
    return greatest[0] if greatest else None


# first witnesses of the join axioms, scanning pairs (and then u) in
# lexicographic order straight from the definitions


def _join_table(S):
    return {(s, t): brute_join(S, s, t) for s in range(S.n) for t in range(S.n)}


def br1_witness_brute(S):
    """BR1: right-compatible elements (s t^* = t s^*) have a join."""
    joins = _join_table(S)
    for (s, t), j in joins.items():
        if S.mult[s][S.star[t]] == S.mult[t][S.star[s]] and j is None:
            return ("BR1", (s, t))
    return None


def br1prime_witness_brute(S):
    """BR1': elements with a common upper bound have a join."""
    joins = _join_table(S)
    for (s, t), j in joins.items():
        bounded = any(leq(S, s, u) and leq(S, t, u) for u in range(S.n))
        if bounded and j is None:
            return ("BR1'", (s, t))
    return None


def br3_witness_brute(S):
    """BR3: (s v t) u = su v tu whenever s v t exists."""
    joins = _join_table(S)
    for (s, t), j in joins.items():
        if j is None:
            continue
        for u in range(S.n):
            if joins[S.mult[s][u], S.mult[t][u]] != S.mult[j][u]:
                return ("BR3", (s, t, u))
    return None


def no_meet_witness_brute(S):
    for s in range(S.n):
        for t in range(S.n):
            if brute_meet(S, s, t) is None:
                return ("no-meet", (s, t))
    return None


def weak_meet_witness_brute(f):
    """Weak meet preservation of the map f: S -> T: the first (s, t, u), by
    u, then s, then t, with u <= f(s) and u <= f(t) but no r below both s
    and t with u <= f(r); None if there is none."""
    S, T, m = f.source, f.target, f.map
    for u in range(T.n):
        above = [s for s in range(S.n) if leq(T, u, m[s])]
        for s in above:
            for t in above:
                if not any(leq(S, r, s) and leq(S, r, t) for r in above):
                    return (s, t, u)
    return None


def nat_leq(S, a, b, side="star"):
    if side == "star":
        return S.leq(a, b)
    if side == "plus":
        return S.leq_plus(a, b)
    raise InputError(f"unknown order side {side!r}")


# ---------------------------------------------------------------------------
# category associativity by the composable-triple loop


def first_assoc_failure(d, r, comp):
    """First composable (x, y, z), in lexicographic order, with
    (x y) z != x (y z), or None."""
    n = len(d)
    for x in range(n):
        for y in range(n):
            if d[x] != r[y]:
                continue
            for z in range(n):
                if d[y] == r[z] and comp[comp[x][y]][z] != comp[x][comp[y][z]]:
                    return (x, y, z)
    return None


# ---------------------------------------------------------------------------
# slices by raw subset enumeration


def count_slices_brute(C):
    """(slices, bislices) over all 2^arrows subsets."""
    total = bis = 0
    for mask in range(1 << C.n_arr):
        arrows = [a for a in range(C.n_arr) if mask >> a & 1]
        doms = [C.d[a] for a in arrows]
        if len(set(doms)) != len(doms):
            continue
        total += 1
        rans = [C.r[a] for a in arrows]
        if len(set(rans)) == len(rans):
            bis += 1
    return total, bis


def slice_sets_brute(C):
    out = []
    for mask in range(1 << C.n_arr):
        arrows = frozenset(a for a in range(C.n_arr) if mask >> a & 1)
        doms = [C.d[a] for a in arrows]
        if len(set(doms)) == len(doms):
            out.append(arrows)
    return out


# ---------------------------------------------------------------------------
# slices as arrow sets, with the set rule for their operations: the
# package stores a slice as its choice of arrow per object instead


def choice_arrows(choice):
    """The arrow set of a package slice (a choice, -1 for no arrow)."""
    return frozenset(a for a in choice if a >= 0)


class Slice:
    """A set of arrows on which d is injective (a local section)."""

    __slots__ = ("parent", "arrows")

    def __init__(self, parent, arrows):
        arrows = frozenset(arrows)
        seen = {}
        for a in sorted(arrows):
            o = parent.d[a]
            if o in seen:
                raise MathFail("d is not injective on the subset",
                               witness=(seen[o], a))
            seen[o] = a
        self.parent = parent
        self.arrows = arrows

    def __eq__(self, other):
        return (isinstance(other, Slice) and self.parent is other.parent
                and self.arrows == other.arrows)

    def __hash__(self):
        return hash((id(self.parent), self.arrows))

    def __repr__(self):
        names = self.parent.arrows
        return "{" + ",".join(names[a] for a in sorted(self.arrows)) + "}"

    def is_bislice(self):
        return len({self.parent.r[a] for a in self.arrows}) == len(self.arrows)


def slice_product(A, B):
    if A.parent is not B.parent:
        raise ParentMismatch("slices live in different categories")
    C = A.parent
    out = {C.comp[a][b] for a in A.arrows for b in B.arrows
           if C.d[a] == C.r[b]}
    return Slice(C, out)


def slice_support(A):
    C = A.parent
    return Slice(C, {C.unit[C.d[a]] for a in A.arrows})


def slice_cosupport(A):
    C = A.parent
    return Slice(C, {C.unit[C.r[a]] for a in A.arrows})


def slice_of_index(C, S, i):
    """The arrow set behind element i of a slice semigroup of C."""
    return Slice(C, choice_arrows(semigroup_slices(C, S)[i]))


def theta_set(S, G, s):
    """{s a : a an atom of G with a <= s^*}, as germ arrow indices."""
    return frozenset(G.germ_index[S.mult[s][a]] for a in G.atoms
                     if leq(S, a, S.star[s]))


def pushforward_set(F, arrows):
    """{rho1[s][x] : s in arrows, d(s) = anchor[x]}."""
    return frozenset(F.rho1[s][x] for s in arrows
                     for x in range(F.target.n_obj)
                     if F.source.d[s] == F.anchor[x])


# ---------------------------------------------------------------------------
# monoid counting by exhaustive tables (small orders only)


def count_monoids_brute(n):
    """Isomorphism classes of monoids of order n, by filling every table
    with unit 0 and deduplicating under permutations fixing 0."""
    elems = range(n)
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    seen = set()
    count = 0
    for values in itertools.product(elems, repeat=len(cells)):
        t = [[0] * n for _ in range(n)]
        for i in elems:
            t[0][i] = i
            t[i][0] = i
        for (i, j), v in zip(cells, values):
            t[i][j] = v
        if any(t[t[i][j]][k] != t[i][t[j][k]]
               for i in elems for j in elems for k in elems):
            continue
        forms = []
        for perm in itertools.permutations(range(1, n)):
            p = (0,) + perm
            inv = [0] * n
            for old, new in enumerate(p):
                inv[new] = old
            forms.append(tuple(tuple(p[t[inv[i]][inv[j]]] for j in elems)
                               for i in elems))
        canon = min(forms)
        if canon not in seen:
            seen.add(canon)
            count += 1
    return count


# classical counts of monoids of order 1..7 (OEIS A058129); orders <= 3 are
# re-derived by count_monoids_brute in the tests, the larger four are frozen
# constants
MONOID_COUNTS = (1, 2, 7, 35, 228, 2237, 31559)


# ---------------------------------------------------------------------------
# category enumeration with pairwise isomorphism dedup afterwards: the plain
# completion search, without symmetry breaking, as the reference for the
# lex-leader search of stonedual.zoo


def complete_comp_reference(n_arr, d, r, unit):
    """Yield all associative completions of the composition table, in
    lexicographic order of the free cells.

    Unit rows and columns are forced; each remaining cell assignment
    triggers exactly the associativity comparisons it completes, so every
    composable triple is checked at the moment its last table entry lands.
    """
    comp = [[-1] * n_arr for _ in range(n_arr)]
    cells = []
    occ = [set() for _ in range(n_arr)]  # occ[z] = filled cells with value z
    for x in range(n_arr):
        for y in range(n_arr):
            if d[x] != r[y]:
                continue
            if y == unit[d[x]]:
                comp[x][y] = x
                occ[x].add((x, y))
            elif x == unit[r[y]]:
                comp[x][y] = y
                occ[y].add((x, y))
            else:
                cells.append((x, y))

    def consistent(x, y, z):
        # triples with (x, y) as the left inner pair: (x*y)*c vs x*(y*c)
        for c in range(n_arr):
            if d[y] != r[c]:
                continue
            bc = comp[y][c]
            if bc < 0:
                continue
            left, right = comp[z][c], comp[x][bc]
            if left >= 0 and right >= 0 and left != right:
                return False
        # triples with (x, y) as the right inner pair: (a*x)*y vs a*(x*y)
        for a in range(n_arr):
            if d[a] != r[x]:
                continue
            ab = comp[a][x]
            if ab < 0:
                continue
            left, right = comp[ab][y], comp[a][z]
            if left >= 0 and right >= 0 and left != right:
                return False
        # cell (x, y) as a left-outer value: x = a*b, y = c
        for a, b in occ[x]:
            if d[b] != r[y]:
                continue
            bc = comp[b][y]
            if bc >= 0:
                right = comp[a][bc]
                if right >= 0 and right != z:
                    return False
        # cell (x, y) as a right-outer value: x = a, y = b*c
        for b, c in occ[y]:
            if d[x] != r[b]:
                continue
            ab = comp[x][b]
            if ab >= 0:
                left = comp[ab][c]
                if left >= 0 and left != z:
                    return False
        return True

    def fill(k):
        if k == len(cells):
            yield [row[:] for row in comp]
            return
        x, y = cells[k]
        for z in range(n_arr):
            if d[z] != d[y] or r[z] != r[x]:
                continue
            comp[x][y] = z
            occ[z].add((x, y))
            if consistent(x, y, z):
                yield from fill(k + 1)
            occ[z].discard((x, y))
            comp[x][y] = -1

    yield from fill(0)


def enumerate_categories_reference(max_objects=3, max_arrows=5):
    """The enumeration without symmetry breaking: every completion of every
    nondecreasing (d, r) multiset, kept unless it is isomorphic to an
    earlier one with equal sorted codes."""
    found = []
    buckets = {}
    for n_obj in range(1, max_objects + 1):
        if n_obj > max_arrows:
            break
        unit = list(range(n_obj))
        for extra in range(max_arrows - n_obj + 1):
            n_arr = n_obj + extra
            # non-unit arrows get nondecreasing (d, r) pairs; isomorphic
            # relabelings are removed afterwards
            pair_choices = [(x, y) for x in range(n_obj) for y in range(n_obj)]
            for drs in itertools.combinations_with_replacement(pair_choices,
                                                                extra):
                d = unit[:] + [x for x, _ in drs]
                r = unit[:] + [y for _, y in drs]
                for comp in complete_comp_reference(n_arr, d, r, unit):
                    objects = [f"o{i + 1}" for i in range(n_obj)]
                    arrows = [f"u{i + 1}" for i in range(n_obj)] + \
                             [f"g{i + 1}" for i in range(extra)]
                    C = make_category(objects, arrows, d, r, unit, comp)
                    key = (n_obj, n_arr,
                           tuple(sorted(category_signature(C))))
                    bucket = buckets.setdefault(key, [])
                    if not any(iso_categories(C, D) for D in bucket):
                        bucket.append(C)
                        found.append(C)
    return found


# ---------------------------------------------------------------------------
# generalized Boolean algebras of sets


def closed_under_union_diff(universe, family):
    fam = set(family)
    for a in fam:
        for b in fam:
            if (a | b) not in fam or (a - b) not in fam:
                return False
    return frozenset() in fam


def brute_prime_filters(subsets):
    """All nonempty proper upward-closed meet-closed families F with the
    prime property: a∪b in F implies a in F or b in F."""
    subsets = list(subsets)
    n = len(subsets)
    out = []
    for mask in range(1, 1 << n):
        fam = [subsets[i] for i in range(n) if mask >> i & 1]
        famset = set(fam)
        if frozenset() in famset:
            continue
        ok = True
        for a in fam:
            for b in subsets:
                if a <= b and b not in famset:
                    ok = False
                if b in famset and (a & b) not in famset:
                    ok = False
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        for a in subsets:
            for b in subsets:
                if (a | b) in famset and a not in famset and b not in famset:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(frozenset(famset))
    return out


# filters of a package FinGBA by raw subset enumeration (2^n, small only)


def enumerate_filters(E):
    """All proper filters of E: non-empty, upward closed, meet closed, 0-free."""
    n = len(E.elements)
    filters = []
    for bits in range(1, 1 << n):
        members = [E.elements[i] for i in range(n) if bits >> i & 1]
        if 0 in members:
            continue
        ok = True
        for a in members:
            for b in E.elements:
                if a & b == a and b not in members:  # upward closure
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for a in members:
                for b in members:
                    if (a & b) not in members:  # meet closure
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            filters.append(frozenset(members))
    return filters


def filters_coincide(E):
    """Prime = ultra = principal-at-an-atom, by exhaustive enumeration.

    Enumerates all subsets, so only usable on small instances (<= 16 or so
    elements); the statement itself holds in every finite GBA.
    """
    filters = enumerate_filters(E)
    prime = set()
    for f in filters:
        if all((a | b) not in f or a in f or b in f
               for a in E.elements for b in E.elements):
            prime.add(f)
    ultra = {f for f in filters if not any(f < g for g in filters)}
    principal = {frozenset(e for e in E.elements if a & e == a)
                 for a in E.lattice_atoms()}
    return prime == ultra == principal


# ---------------------------------------------------------------------------
# isomorphisms by trying every bijection of elements or arrows

ISO_REFERENCE_LIMIT = 7


def is_isomorphism(X, Y, found):
    """Whether found is an isomorphism X -> Y: for algebras a bijection of
    elements preserving mult, star and plus; for categories a pair (object
    map, arrow map) of bijections preserving d, r, unit and the composites
    of composable pairs."""
    if hasattr(X, "comp"):
        omap, f = found
        return (sorted(omap) == list(range(X.n_obj))
                and sorted(f) == list(range(X.n_arr))
                and all(Y.unit[omap[o]] == f[X.unit[o]]
                        for o in range(X.n_obj))
                and all(Y.d[f[a]] == omap[X.d[a]] and Y.r[f[a]] == omap[X.r[a]]
                        for a in range(X.n_arr))
                and all(f[X.comp[x][y]] == Y.comp[f[x]][f[y]]
                        for x in range(X.n_arr) for y in range(X.n_arr)
                        if X.d[x] == X.r[y]))
    n = X.n
    tables = [(X.star, Y.star)]
    if X.plus is not None:
        tables.append((X.plus, Y.plus))
    return (sorted(found) == list(range(n))
            and all(found[u[i]] == v[found[i]] for u, v in tables
                    for i in range(n))
            and all(found[X.mult[i][j]] == Y.mult[found[i]][found[j]]
                    for i in range(n) for j in range(n)))


def iso_reference(X, Y):
    """The first isomorphism X -> Y in the lexicographic order of the
    element or arrow bijections, or None.  A category's object map is
    read off the units: it sends o to the domain of the image of 1_o.
    Only for structures of at most ISO_REFERENCE_LIMIT elements or arrows."""
    category = hasattr(X, "comp")
    if category:
        n = X.n_arr
        if (X.n_obj, n) != (Y.n_obj, Y.n_arr):
            return None
    else:
        n = X.n
        if n != Y.n or (X.plus is None) != (Y.plus is None):
            return None
    if n > ISO_REFERENCE_LIMIT:
        raise InputError(f"{n} elements is too many to try every bijection")
    for f in itertools.permutations(range(n)):
        found = (tuple(Y.d[f[u]] for u in X.unit), f) if category else f
        if is_isomorphism(X, Y, found):
            return found
    return None
