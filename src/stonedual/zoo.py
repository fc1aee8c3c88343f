"""Instance generators and the verification corpus.

The partial-map semigroups are slice semigroups of the pair groupoid K_n:
PT_n is its slice semigroup, I_n its bislice semigroup, and the triangular
semigroup the slices of the arrows x -> y with y >= x.  They are built by
the slice-table builder of category, under its size bound, in their own
element order (domains by bitmask ascending, images lexicographically
within a domain) and with value strings ("12", "2-", "--") as names.
PT_2 is therefore --, 1-, 2-, -1, -2, 11, 12, 21, 22 in indices 0..8.

Categories beyond the named ones come from a bounded exhaustive enumeration
(up to isomorphism) used as the adjunction test corpus.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations
from itertools import product as iproduct

from .algebra import _check_size
from .category import _slice_algebra, make_category
from .errors import InputError


def _map_algebra(n, keep):
    """The partial self-maps of {1..n} passing keep, as slices of K_n.

    A map m is the tuple of its images, with 0 where it is undefined, and
    the slice choosing the arrow x -> m(x) at each x in its domain, so s*t
    is s after t.  Maps are ordered by domain bitmask, then by images."""
    if not 1 <= n:
        raise InputError("point count must be at least 1")
    _check_size(n + 1)  # a lower bound first: the power may not print
    _check_size((n + 1) ** n)  # the slices of K_n
    maps = sorted(filter(keep, iproduct(range(n + 1), repeat=n)),
                  key=lambda m: (sum(1 << x for x, v in enumerate(m) if v), m))
    slices = [tuple(x * n + v - 1 if v else -1 for x, v in enumerate(m))
              for m in maps]
    names = ["".join(str(v) if v else "-" for v in m) for m in maps]
    return _slice_algebra(gen_pair_groupoid(n), slices, names)


def gen_pt(n):
    """All partial self-maps of an n-point set."""
    return _map_algebra(n, lambda m: True)


def gen_i(n):
    """All injective partial self-maps of an n-point set."""
    return _map_algebra(n, lambda m: len({v for v in m if v}) == n - m.count(0))


def gen_triangular(n):
    """All order-increasing partial self-maps: s(x) >= x on the domain."""
    return _map_algebra(n, lambda m: all(v == 0 or v >= x
                                          for x, v in enumerate(m, 1)))


def gen_pair_groupoid(n):
    """K_n: objects 1..n, one arrow between every ordered pair of objects.
    The arrow x -> y is named a<y><x>, with an underscore between the two
    numbers from n = 10 on."""
    if not 1 <= n:
        raise InputError("object count must be at least 1")
    _check_size(n)  # as in _map_algebra
    _check_size(n * n)
    objects = [str(o) for o in range(1, n + 1)]
    sep = "" if n < 10 else "_"  # a1_11 and a11_1, not a111 twice
    # the arrow x -> y is x * n + y; a after b is d(b) -> r(a)
    arrows = [f"a{y + 1}{sep}{x + 1}" for x in range(n) for y in range(n)]
    d = [a // n for a in range(n * n)]
    r = [a % n for a in range(n * n)]
    unit = [o * n + o for o in range(n)]
    comp = [[d[b] * n + r[a] if d[a] == r[b] else -1 for b in range(n * n)]
            for a in range(n * n)]
    return make_category(objects, arrows, d, r, unit, comp)


def gen_free_arrow():
    """The free category on a single arrow between two objects."""
    objects = ["1", "2"]
    arrows = ["id1", "id2", "a21"]
    d = [0, 1, 0]
    r = [0, 1, 1]
    unit = [0, 1]
    comp = [[0, -1, -1], [-1, 1, 2], [2, -1, -1]]
    return make_category(objects, arrows, d, r, unit, comp)


ZOO_SEMIGROUP_NAMES = ("pt_1", "pt_2", "i_2", "triangular_2", "triangular_3")
ZOO_CATEGORY_NAMES = ("k_1", "k_2", "k_3", "free_arrow")


def zoo_semigroups():
    return {"pt_1": gen_pt(1), "pt_2": gen_pt(2), "i_2": gen_i(2),
            "triangular_2": gen_triangular(2),
            "triangular_3": gen_triangular(3)}


def zoo_categories():
    return {"k_1": gen_pair_groupoid(1), "k_2": gen_pair_groupoid(2),
            "k_3": gen_pair_groupoid(3), "free_arrow": gen_free_arrow()}


def _complete_comp(n_arr, d, r, unit, relabellings):
    """Yield the associative completions of the composition table that are
    lex-leaders under relabellings, in lexicographic order of the free cells.

    Unit rows and columns are forced; each remaining cell assignment
    triggers exactly the associativity comparisons it completes, so every
    composable triple is checked at the moment its last table entry lands.
    Each relabelling phi is an arrow permutation that keeps d, r and unit;
    a branch is pruned as soon as phi applied to the decided cells reads
    lexicographically smaller than the table itself.
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
    vals = [-1] * len(cells)  # vals[k] = comp at cells[k]
    pos = {cell: k for k, cell in enumerate(cells)}
    # phi(T) at cells[k] is phi of T at cells[src[k]]; j is the length of
    # the prefix on which phi(T) is known to equal T
    undecided = []
    for phi in relabellings:
        inv = [0] * n_arr
        for a, b in enumerate(phi):
            inv[b] = a
        undecided.append((phi, [pos[inv[x], inv[y]] for x, y in cells], 0))

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
        # cell (x, y) as a left-outer value: x = a*b, y = c (d(b) = r(y))
        for a, b in occ[x]:
            bc = comp[b][y]
            if bc >= 0:
                right = comp[a][bc]
                if right >= 0 and right != z:
                    return False
        # cell (x, y) as a right-outer value: x = a, y = b*c (r(b) = d(x))
        for b, c in occ[y]:
            ab = comp[x][b]
            if ab >= 0:
                left = comp[ab][c]
                if left >= 0 and left != z:
                    return False
        return True

    def leading(live, k):
        """The relabellings still able to undercut the table once cells
        0..k are decided, or None if one already does."""
        out = []
        for phi, src, j in live:
            while j <= k and src[j] <= k:
                v = phi[vals[src[j]]]
                if v != vals[j]:
                    if v < vals[j]:
                        return None
                    break  # phi(T) > T on every completion
                j += 1
            else:
                out.append((phi, src, j))
        return out

    def fill(k, live):
        if k == len(cells):
            yield [row[:] for row in comp]
            return
        x, y = cells[k]
        for z in range(n_arr):
            if d[z] != d[y] or r[z] != r[x]:
                continue
            comp[x][y] = vals[k] = z
            occ[z].add((x, y))
            if consistent(x, y, z):
                still = leading(live, k)
                if still is not None:
                    yield from fill(k + 1, still)
            occ[z].discard((x, y))
            comp[x][y] = -1

    yield from fill(0, undecided)


def _relabellings(n_obj, drs):
    """The arrow relabellings of the (d, r) multiset drs, or None unless
    drs is the least multiset of its orbit under object permutations.

    Arrows 0..n_obj-1 are the units and arrow n_obj + i has (d, r) =
    drs[i].  The relabellings are those induced by the object permutations
    keeping drs, each combined with every bijection between the blocks of
    arrows with equal (d, r); the identity is left out."""
    least = list(drs)
    block = {}
    for i, pair in enumerate(drs, n_obj):
        block.setdefault(pair, []).append(i)
    pairs = list(block)
    out = []
    for p in permutations(range(n_obj)):
        image = sorted((p[x], p[y]) for x, y in drs)
        if image < least:
            return None
        if image != least:
            continue
        for targets in iproduct(*(permutations(block[p[x], p[y]])
                                  for x, y in pairs)):
            phi = list(p) + [0] * len(drs)
            for pair, target in zip(pairs, targets):
                for a, b in zip(block[pair], target):
                    phi[a] = b
            out.append(phi)
    return out[1:]  # the first is the identity


def enumerate_categories(max_objects=3, max_arrows=5):
    """All categories with at most the given objects and total arrows,
    one representative per isomorphism class.

    Non-unit arrows get nondecreasing (d, r) pairs.  Only the least (d, r)
    multiset of each orbit under object permutations is completed, and
    only its lex-leader tables, so each class is built once: as the first
    completion of the first multiset in which it occurs."""
    found = []
    for n_obj in range(1, min(max_objects, max_arrows) + 1):
        unit = list(range(n_obj))
        objects = [f"o{i + 1}" for i in range(n_obj)]
        pair_choices = [(x, y) for x in range(n_obj) for y in range(n_obj)]
        for extra in range(max_arrows - n_obj + 1):
            n_arr = n_obj + extra
            arrows = [f"u{i + 1}" for i in range(n_obj)] + \
                     [f"g{i + 1}" for i in range(extra)]
            for drs in combinations_with_replacement(pair_choices, extra):
                relabellings = _relabellings(n_obj, drs)
                if relabellings is None:
                    continue
                d = unit + [x for x, _ in drs]
                r = unit + [y for _, y in drs]
                for comp in _complete_comp(n_arr, d, r, unit, relabellings):
                    found.append(make_category(objects, arrows, d, r, unit,
                                               comp))
    return found


def corpus_semigroups():
    """Semigroup members of the verification corpus."""
    return list(zoo_semigroups().items())


def corpus_categories(max_objects=3, max_arrows=5):
    """Category members: the named zoo plus the bounded enumeration."""
    members = list(zoo_categories().items())
    for i, C in enumerate(enumerate_categories(max_objects, max_arrows)):
        members.append((f"enum_{i:03d}", C))
    return members
