"""Finite semigroups with a support operation (and optionally a cosupport).

Tables are lists of element indices, mult[i][j] being the product i*j in
written order.  Everything downstream (orders, joins, classification flags,
morphism typing) is derived from the three tables by exhaustive evaluation;
failed universal statements report the lexicographically first counterexample.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial, reduce
from itertools import chain, combinations, product
from numbers import Integral
from operator import add, and_, or_

from . import gba as gba_mod
from .errors import (BadTableShape, InputError, InvariantViolation, MathFail,
                     NoLeftUnit, NoPlusTable, NotAssociative, PlusStarMismatch,
                     TooLarge)
from .report import format_witness

# the most elements, arrows or predicted slices a table may index; on a
# 2-core machine make_algebra takes about 3s, and forcing every flag 2-4s,
# on the 1,000-element min and max chains
SIZE_BOUND = 1000
# above this many elements associativity and the whole-table axiom scans
# run in numpy; at or below it the pure Python scans are faster
_NUMPY_THRESHOLD = 14
# the most cells of one intermediate array in a chunked numpy scan
_CHUNK_CELLS = 1 << 16
# numpy element indices, and -1 for none: 16 bits hold every index below
# SIZE_BOUND and keep the tables a quarter the size of 64-bit ones
_INDEX_DTYPE = "int16"


class _memo:
    """A cached property: the first read stores func's value in the
    instance dict, where every later read finds it first; a read that
    raises stores nothing, so the next read derives again.  Unlike
    functools.cached_property it takes no lock on a first read (Python
    3.11 takes one); two threads racing on a first read may both derive
    the value, and the one stored last is kept.

    A table memo holds a value that the tables alone determine: on an
    object whose tables_of is set, a first read takes the value from that
    object, derived there if need be, and keeps it on both."""

    def __init__(self, func, tables=False):
        self.func, self.__doc__, self.tables = func, func.__doc__, tables

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        root = obj.tables_of if self.tables else None
        value = self.func(obj) if root is None else getattr(root, self.name)
        obj.__dict__[self.name] = value
        return value


# a _memo read through tables_of: it may read the tables of its object,
# never its names or its links to other objects
_table_memo = partial(_memo, tables=True)


class BiUnaryAlgebra:
    """Immutable (2,1)- or (2,1,1)-algebra given by explicit tables; what
    is derived from them is kept in cached properties."""

    def __init__(self, names, mult, star, plus=None, zero=None):
        self.names = tuple(names)
        self.n = len(self.names)
        self.mult = tuple(tuple(row) for row in mult)
        self.star = tuple(star)
        self.plus = tuple(plus) if plus is not None else None
        self.zero = zero
        self._projections = tuple(sorted(set(self.star)))
        # set by category.slice_semigroup, duality.germ_category and
        # duality.unit_eta
        self.slice_parent = self.slice_sets = self.germ = self.eta = None
        # set by category.slice_semigroup: the first algebra built with
        # self's tables, whose table memos self reads
        self.tables_of = None
        # set by make_algebra: generators proved associative (see _br3_witness)
        self._generating_set = None
        # (target, map) -> the flags of the map from self (see
        # SemigroupMorphism.classification)
        self._map_flags = {}

    def __len__(self):
        return self.n

    def __repr__(self):
        kind = "(2,1,1)" if self.plus is not None else "(2,1)"
        return f"BiUnaryAlgebra({self.n} elements, {kind})"

    def name(self, i):
        return self.names[i]

    def projections(self):
        return self._projections

    def detected_zero(self):
        """The two-sided zero element, if the multiplication has one."""
        return self._detected_zero

    @_table_memo
    def _detected_zero(self):
        mult = self.mult
        return next((z for z in range(self.n)
                     if all(mult[z][s] == z and mult[s][z] == z
                            for s in range(self.n))), None)

    def leq(self, a, b):
        # natural partial order: a <= b iff a = b * a^*
        return self.mult[b][self.star[a]] == a

    def leq_plus(self, a, b):
        if self.plus is None:
            raise NoPlusTable("the dual order needs a plus table")
        return self.mult[self.plus[a]][b] == a

    @property
    def up(self):
        """up[i] = bitmask of {j : i <= j}."""
        return self._order_masks[0]

    @property
    def down(self):
        """down[j] = bitmask of {i : i <= j}."""
        return self._order_masks[1]

    @_table_memo
    def _order_masks(self):
        """(up, down).  a <= b iff a = b e for the projection e = a^*: each b
        and projection e give one candidate b e, below b iff (b e)^* = e."""
        n, star, proj = self.n, self.star, self._projections
        up, down, bit = [0] * n, [0] * n, [1 << i for i in range(n)]
        for b, row in enumerate(self.mult):
            for e in proj:
                if star[a := row[e]] == e:
                    up[a] |= bit[b]
                    down[b] |= bit[a]
        return tuple(up), tuple(down)

    # up and down ranked for _least and _least_array (see _rank)
    @_table_memo
    def _up_rank(self):
        return _rank(self.up)

    @_table_memo
    def _down_rank(self):
        return _rank(self.down)

    @_table_memo
    def _holders(self):
        """(up, down): each up or down mask mapped to the lowest element
        whose mask it is, when the order is a preorder; else None (see
        join)."""
        if not _is_preorder(self.up):
            return None
        return _lowest_holders(self.up), _lowest_holders(self.down)

    @_table_memo
    def joins(self):
        """joins[s][t] = join(self, s, t), for every pair at once."""
        n = self.n
        table = [[None] * n for _ in range(n)]
        for s in range(n):
            for t in range(s, n):
                table[s][t] = table[t][s] = join(self, s, t)
        return tuple(map(tuple, table))

    # numpy forms; the join matrix is read above _NUMPY_THRESHOLD only

    @_table_memo
    def _mult_array(self):
        import numpy as np
        # reshaped, so that the empty table is 0 x 0 too
        return np.array(self.mult, dtype=_INDEX_DTYPE).reshape(self.n, self.n)

    @_table_memo
    def _join_arrays(self):
        """(joins, bounded): the join of every pair as an int matrix, -1
        where there is none, and whether it has an upper bound; read only
        on associative Ehresmann tables (see _least_array)."""
        return _least_array(self._up_rank)

    @_table_memo
    def _deterministic_sets(self):
        """deterministic_sets(self), computed once."""
        mult, star, plus = self.mult, self.star, self.plus
        proj = self.projections()
        det = tuple(a for a in range(self.n)
                    if all(mult[e][a] == mult[a][star[mult[e][a]]]
                           for e in proj))
        codet = tuple(a for a in range(self.n)
                      if all(mult[a][e] == mult[plus[mult[a][e]]][a]
                             for e in proj))
        return det, codet, tuple(sorted(set(det) & set(codet)))

    @_table_memo
    def classification(self):
        """classify(self), computed once."""
        return _classify(self)

    @_memo
    def _projection_gba(self):
        """projection_gba(self); raises why P(S) is not a GBA."""
        proj = self.projections()
        z = detected_zero_projection(self)
        if z is None:
            raise MathFail("P(S) has no zero projection",
                           witness=("MissingZeroProjection",))
        mult = self.mult
        nonzero = [e for e in proj if e != z]
        # e <= f on projections is e = f*e
        below = {e: [f for f in nonzero if mult[e][f] == f] for e in nonzero}
        atoms = [e for e in nonzero if below[e] == [e]]
        to_mask = {}
        for e in proj:
            mask = 0
            for i, a in enumerate(atoms):
                if mult[e][a] == a:
                    mask |= 1 << i
            to_mask[e] = mask
        from_mask = {}
        for e in proj:
            m = to_mask[e]
            if m in from_mask:
                raise MathFail(
                    f"projections {self.name(from_mask[m])} and {self.name(e)} "
                    "sit over the same atoms",
                    witness=("RepNotInjective", from_mask[m], e))
            from_mask[m] = e
        family = set(from_mask)
        for a, b in combinations(sorted(family), 2):
            for op, res in (("or", a | b), ("diff", a & ~b), ("diff", b & ~a)):
                if res not in family:
                    raise MathFail(
                        f"projection lattice not closed under {op}",
                        witness=("NotClosed", op, from_mask[a], from_mask[b]))
        # closure under diff gives closure under meet, a & b = a & ~(a & ~b),
        # and the zero projection has mask 0, so no second check is needed
        universe = [self.name(a) for a in atoms]
        return gba_mod.FinGBA(universe, family), to_mask, from_mask

    @_table_memo
    def iso_structure(self):
        """The tables an isomorphism preserves: ([star, plus], mult), with
        star standing in for a missing plus."""
        return [self.star, self.plus or self.star], self.mult

    @property
    def _iso_binary(self):
        """The binary table of iso_structure as a numpy array."""
        return self._mult_array

    @_table_memo
    def iso_codes(self):
        """Refinement codes of the elements (see _refine), computed once."""
        (star, plus), mult = self.iso_structure
        up, down, z = self.up, self.down, self.detected_zero()
        n_star, n_plus = Counter(star), Counter(plus)
        return _refine(self,
                       [(star[i] == i, plus[i] == i, mult[i][i] == i, i == z,
                         n_star[i], n_plus[i], up[i].bit_count(), down[i].bit_count())
                        for i in range(self.n)])

    @_memo
    def _cosupport(self):
        """(probe, witness): self's tables with the forced plus table (see
        infer_cosupport), and the probe's first failed cosupport or linking
        axiom, or None."""
        mult, star = self.mult, self.star
        proj = self.projections()
        cand = []
        for s in range(self.n):
            units = [f for f in proj if mult[f][s] == s]
            if not units:
                raise NoLeftUnit(s)
            m = units[0]
            for f in units[1:]:
                m = mult[m][f]
            if mult[m][s] != s:
                raise MathFail("left local units are not meet-closed",
                               witness=(s,))
            cand.append(m)
        probe = BiUnaryAlgebra(self.names, mult, star, cand, self.zero)
        return probe, _plus_axiom_witness(probe)


def _iter_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _rank(masks):
    """(order, ranked): the elements by descending mask size, ties by index,
    and each mask with the bit of element order[r] moved to bit r."""
    order = sorted(range(len(masks)), key=lambda m: -masks[m].bit_count())
    place = {m: 1 << r for r, m in enumerate(order)}
    return order, tuple(sum(map(place.__getitem__, _iter_bits(mask)))
                        for mask in masks)


def _least(rank, s, t):
    """The lowest-index element of masks[s] & masks[t] whose own mask
    covers that set, or None, on rank = _rank(masks): the join on up masks,
    the meet on down masks.  Any relation will do.  The set is scanned in
    rank order: a cover is no smaller than the set, so the scan stops at
    the first smaller mask, or at a cover of the set's own size, as later
    covers have higher indices.  On a partial order the first candidate is
    the bound if there is one, so it decides.  join and meet scan only
    relations that are not preorders; a preorder's bound is looked up."""
    order, masks = rank
    common = masks[s] & masks[t]
    size, best = common.bit_count(), None
    for r in _iter_bits(common):
        m = order[r]
        k = masks[m].bit_count()
        if k < size:
            break
        if common & ~masks[m] == 0:
            best = m if best is None else min(best, m)
            if k == size:
                break
    return best


def _lowest_holders(masks):
    """Each of the masks mapped to the lowest index whose mask it is."""
    return dict(zip(masks[::-1], range(len(masks) - 1, -1, -1)))


def _is_preorder(masks):
    """Whether the masks, of up (or down) sets, are a preorder's: each
    holds its own element and contains the mask of each element in it.
    Elements with one mask share the second test, so it runs once per
    distinct mask: the mask must be the union of its elements' masks."""
    return all(m >> i & 1 for i, m in enumerate(masks)) and all(
        reduce(or_, map(masks.__getitem__, _iter_bits(m))) == m
        for m in set(masks))


def _least_array(rank):
    """(least, shared) for every pair s, t of the ranked masks of a partial
    order (see _rank): least[s, t] = _least(rank, s, t), -1 for None, and
    shared[s, t] says whether masks s and t share a bit.

    On a partial order the bound _least seeks is the one element of the two
    masks' intersection whose own mask equals it; every other element of it
    has a smaller mask.  So it can only be the first common bit m in rank
    order.  As m lies in both masks, transitivity puts m's own mask inside
    their intersection, so m is the bound just when the two have the same
    number of bits: one popcount comparison.  The order must be partial,
    which the natural order of an associative Ehresmann table is (Lawson,
    "Semigroups and ordered categories I", J. Algebra 141, 1991);
    make_algebra checks associativity, and the classification flags the
    support axioms.  Projections e = z* have e* = e = e², as
    z* = (zz*)* = (z*z*)* = z*z*; a <= b, that is a = ba*, gives
    a* = (b*a*)* = b*a*; so a <= b <= a gives a* = b*a* = a*b* = b* and
    a = ba* = bb* = b; and a = ba*, b = cb* give, by associativity,
    a = (cb*)a* = c(b*a*) = ca*.  Both matrices are symmetric, so a block
    of rows s is computed for the columns t >= s only, and mirrored.
    """
    import numpy as np
    n, order = len(rank[1]), np.array(rank[0])
    sizes = np.array([m.bit_count() for m in rank[1]], dtype=_INDEX_DTYPE)
    # words[w, s] = bits 64w..64w+63 of mask s
    words = np.ascontiguousarray(np.frombuffer(b"".join(
        m.to_bytes(-(-n // 64) * 8, "little") for m in rank[1]),
        dtype="<u8").reshape(n, -1).T)
    one = np.uint64(1)
    least = np.empty((n, n), dtype=_INDEX_DTYPE)
    shared = np.empty((n, n), dtype=bool)
    for lo, hi in _blocks(n, n):
        # common word w of (s, t) is rows[w, s - lo] & cols[w, t - lo]
        rows, cols = words[:, lo:hi, None], words[:, lo:]
        word = np.zeros((hi - lo, n - lo), dtype=np.intp)
        bits = np.zeros((hi - lo, n - lo), dtype=np.uint64)
        count = np.zeros((hi - lo, n - lo), dtype=_INDEX_DTYPE)
        for w in reversed(range(len(words))):
            common = rows[w] & cols[w]
            nonzero = common != 0
            np.copyto(word, w, where=nonzero)
            np.copyto(bits, common, where=nonzero)
            count += np.bitwise_count(common)
        # the place of the lowest set bit of the first nonzero word: the
        # bits below it, counted; pairs with nothing in common are masked
        # out below
        low = np.bitwise_count((bits & (~bits + one)) - one)
        first = order[np.clip(64 * word + low, 0, n - 1)]
        # every mask holds its own element, so no pair without a common
        # bit passes
        block = np.where(count == sizes[first], first, -1)
        least[lo:hi, lo:], least[lo:, lo:hi] = block, block.T
        shared[lo:hi, lo:], shared[lo:, lo:hi] = count > 0, (count > 0).T
    return least, shared


def _check_size(n):
    if n > SIZE_BOUND:
        raise TooLarge(n, SIZE_BOUND)


def _check_table(what, table, shape, bound, low=0):
    """Raise BadTableShape unless table has shape[0] entries (rows of
    shape[1] entries, given a second length), each an integer in
    low..bound-1.  A numpy array, whose dtype must be an integer one, is
    checked in one vectorised pass."""
    if hasattr(table, "dtype"):
        if table.dtype.kind not in "iu" or table.shape != shape or (
                table.size and not low <= table.min() <= table.max() < bound):
            raise BadTableShape(f"{what} is not a {shape} table of entries "
                                f"in {low}..{bound - 1}")
        return
    if len(table) != shape[0]:
        raise BadTableShape(f"{what} has {len(table)} entries, "
                            f"expected {shape[0]}")
    width = shape[-1]
    # one C-level subset test per row, which an unhashable entry fails; the
    # loop only names the first integer out of range (its set is no larger
    # than the names the caller already holds)
    valid = frozenset(range(low, bound))
    rows = table if len(shape) == 2 else (table,)
    for row in rows:
        if len(row) != width:
            raise BadTableShape(f"{what} row has {len(row)} entries, "
                                f"expected {width}")
        try:
            inside = valid.issuperset(row)
        except TypeError:
            inside = False
        if not inside:
            for v in row:
                if isinstance(v, Integral) and not low <= v < bound:
                    raise BadTableShape(f"{what} entry {v} out of range")
    # an entry that is no integer, such as "0", None, a list, or one equal
    # to an index (0.0, Fraction(0)) that passes the subset test, leaves
    # its row's sum, and so the sum of them all, no integer, or there is
    # none.  An int total skips the slower test for any integer type
    try:
        total = sum(map(sum, rows))
    except TypeError:
        total = None
    if type(total) is not int and not isinstance(total, Integral):
        v = next(v for row in rows for v in row if not isinstance(v, Integral))
        raise BadTableShape(f"{what} entry {v!r} is not an integer")


def _assoc_pure(mult):
    n = len(mult)
    for i in range(n):
        mi = mult[i]
        for j in range(n):
            row_ij = mult[mi[j]]
            mj = mult[j]
            for k in range(n):
                if row_ij[k] != mi[mj[k]]:
                    raise NotAssociative(i, j, k)


def _assoc_numpy(a):
    """The full scan of the int matrix a, over blocks of rows i and j that
    hold at most one block of triples (i, j, k) between them: in one pass
    when all n**3 fit, else a block of rows i by every j, or one row i by
    a block of rows j, in row-major order."""
    import numpy as np
    n = len(a)
    js = _blocks(n, n)
    for i0, i1 in _blocks(n, n * js[0][1]):
        rows = a[i0:i1]
        for j0, j1 in js:
            # bad[i, j, k]: (ij)k against i(jk)
            bad = a[rows[:, j0:j1]] != np.take(rows, a[j0:j1], axis=1)
            first = int(bad.argmax())
            if bad.flat[first]:
                i, j, k = map(int, np.unravel_index(first, bad.shape))
                raise NotAssociative(i0 + i, j0 + j, k)


def _generators(a, rows):
    """A set of elements generating the semigroup with table a, given also
    as the Python rows, or None once it would exceed n // 8 elements.

    Greedy, least-factorable first: the next generator is the element not
    yet generated that occurs least often in the table.  In a semigroup
    every word in the generators is a shorter word times a generator, so
    adding g takes g and x*g for each x already generated, then closes the
    new elements under right products by every generator.  On a table that
    is not associative this reaches only the left-normed words and may
    pick other generators than a closure under all products; Light's test
    on them still proves associativity when it passes, and any failure
    falls back to the full scan, so _check_assoc's outcome is the same.
    """
    import numpy as np
    n = len(rows)
    inside = [False] * n
    members, gens = [], []
    counts = reduce(add, (np.bincount(a[lo:hi].ravel(), minlength=n)
                          for lo, hi in _blocks(n, n)))
    for g in np.argsort(counts, kind="stable").tolist():
        if len(members) == n:
            break
        if inside[g]:
            continue
        if len(gens) == n // 8:
            return None
        gens.append(g)
        todo = [g, *[rows[m][g] for m in members]]
        while todo:
            x = todo.pop()
            if not inside[x]:
                inside[x] = True
                members.append(x)
                todo += map(rows[x].__getitem__, gens)
    return gens


def _check_assoc(rows, a=None):
    """Raise NotAssociative at the lexicographically first triple (i, j, k)
    with (i*j)*k != i*(j*k) in the table given as Python rows; else return
    it as an array (a, if given; None up to _NUMPY_THRESHOLD elements) and
    the generators that passed Light's test (None if it did not run or a
    generator failed).

    Above _NUMPY_THRESHOLD elements the scan runs in numpy.  When it takes
    more than one block, Light's test comes first (Clifford & Preston, The
    Algebraic Theory of Semigroups I, 1.2): the elements g with
    (x*g)*y = x*(g*y) for all x and y are closed under product, so checking
    a generating set proves associativity.  The full scan, which finds the
    first triple, then runs only when a generator fails or no small
    generating set is found.
    """
    n = len(rows)
    if n <= _NUMPY_THRESHOLD:
        _assoc_pure(rows)
        return None, None
    import numpy as np
    if a is None:
        a = np.asarray(rows, dtype=_INDEX_DTYPE)
    if len(_blocks(n, n * n)) > 1:  # the full scan takes more than one block
        gens, blocks = _generators(a, rows), _blocks(n, n)
        # (x g) y against x (g y), for a block of rows x at a time
        if gens is not None and all(
                np.array_equal(a[a[lo:hi, g]], a[lo:hi, a[g]])
                for g in gens for lo, hi in blocks):
            return a, gens
    _assoc_numpy(a)
    return a, None


def make_algebra(names, mult, star, plus=None, zero=None):
    """Validate tables (shape, associativity, zero laws) and build the algebra;
    the size bound, then every shape and range check, run before any law.
    mult may be an int16 numpy array, which the algebra then keeps."""
    n = len(names)
    _check_size(n)
    if len(set(names)) != n:
        raise BadTableShape("element names are not unique")
    _check_table("mult", mult, (n, n), n)
    _check_table("star", star, (n,), n)
    if plus is not None:
        _check_table("plus", plus, (n,), n)
    if zero is not None and not (isinstance(zero, int) and 0 <= zero < n):
        raise BadTableShape(f"zero index {zero!r} out of range")
    rows, a = mult, None
    if hasattr(mult, "dtype"):
        # one shared int object per element: read cell by cell, the array
        # would give a fresh int for every cell; a row at a time, into the
        # tuples the algebra keeps, so no second whole table is held
        import numpy as np
        ints = np.array(range(n), dtype=object)
        rows, a = [tuple(ints[row].tolist()) for row in mult], mult
    a, gens = _check_assoc(rows, a)
    if zero is not None:
        for s in range(n):
            if rows[zero][s] != zero or rows[s][zero] != zero:
                raise MathFail(f"declared zero is not a zero at {names[s]}",
                               witness=(zero, s))
        if star[zero] != zero:
            raise MathFail("declared zero is not a projection", witness=(zero,))
    S = BiUnaryAlgebra(names, rows, star, plus, zero)
    if a is not None:
        S._mult_array, S._generating_set = a, gens
    return S


def projections(S):
    """P(S), the image of the star table; cross-checked against plus if present."""
    p = S.projections()
    if S.plus is not None and tuple(sorted(set(S.plus))) != p:
        raise PlusStarMismatch("images of star and plus tables differ")
    return p


def compatible(S, s, t, mode="right"):
    mult, star = S.mult, S.star
    if mode == "right":
        return mult[s][star[t]] == mult[t][star[s]]
    if mode in ("left", "bi"):
        if S.plus is None:
            raise NoPlusTable(f"mode {mode!r} needs a plus table")
        plus = S.plus
        left = mult[plus[t]][s] == mult[plus[s]][t]
        if mode == "left":
            return left
        return left and mult[s][star[t]] == mult[t][star[s]]
    raise InputError(f"unknown compatibility mode {mode!r}")


def join(S, s, t):
    """Least upper bound of s and t under <=, or None: the lowest-index
    element of up[s] & up[t] whose own up set covers it (see _least).

    When <= is a preorder, an element m of that common set has up[m]
    inside it, by transitivity, so m covers it just when up[m] equals it,
    and by reflexivity an element whose up set equals it lies in it: the
    bound is the lowest element holding that mask, one lookup.  The
    natural order of an associative Ehresmann table is a partial order
    (see _least_array); any other relation is scanned by _least."""
    holders, up = S._holders, S.up
    if holders is None:
        return _least(S._up_rank, s, t)
    return holders[0].get(up[s] & up[t])


def meet(S, s, t):
    """Greatest lower bound of s and t under <=, or None: join's lookup,
    or scan, on the down sets."""
    holders, down = S._holders, S.down
    if holders is None:
        return _least(S._down_rank, s, t)
    return holders[1].get(down[s] & down[t])


def join_all(S, elems):
    """Fold of binary joins; None as soon as one join is missing."""
    acc = None
    for e in elems:
        acc = e if acc is None else join(S, acc, e)
        if acc is None:
            return None
    return acc


def has_local_units(S):
    mult = S.mult
    proj = S.projections()
    for s in range(S.n):
        if not any(mult[e][s] == s for e in proj):
            return False, (s,)
    return True, None


def detected_zero_projection(S):
    z = S.detected_zero()
    if z is not None and S.star[z] == z:
        return z
    return None


def projection_gba(S):
    """(P(S), <=) as an explicit GBA over the minimal non-zero projections.

    Returns (gba, to_mask, from_mask).  Raises MathFail when the poset is not
    a GBA: no zero projection, atom map not injective, or image not closed
    under union / difference.  Diagnoses, never repairs.
    """
    return S._projection_gba


def deterministic_sets(S):
    """(D, CD, BD): deterministic, codeterministic, bideterministic elements."""
    if S.plus is None:
        raise NoPlusTable("codeterminism needs a plus table")
    return S._deterministic_sets


def bd_subalgebra(S):
    """The induced algebra on the bideterministic elements, with its embedding."""
    _, _, bidet = deterministic_sets(S)
    keep = list(bidet)
    pos = {e: i for i, e in enumerate(keep)}
    for a in keep:
        for b in keep:
            if S.mult[a][b] not in pos:
                raise MathFail("bideterministic set is not closed under product",
                               witness=(a, b))
        if S.star[a] not in pos or S.plus[a] not in pos:
            raise MathFail("bideterministic set is not closed under star/plus",
                           witness=(a,))
    e = next((e for e in S.projections() if e not in pos), None)
    if e is not None:
        raise MathFail(f"projection {S.name(e)} is not bideterministic",
                       witness=(e,))
    sub = make_algebra(
        [S.names[e] for e in keep],
        [[pos[S.mult[a][b]] for b in keep] for a in keep],
        [pos[S.star[a]] for a in keep],
        [pos[S.plus[a]] for a in keep])
    if set(sub.projections()) != {pos[e] for e in S.projections()}:
        raise MathFail("projections changed when passing to the subalgebra")
    return sub, tuple(keep)


def partial_isomorphisms(S):
    """All elements with a partial inverse, as a dict s -> partner.

    Verifies the expected structure: partners are unique, the set is closed
    under product and star, and its idempotents commute (an inverse
    semigroup sitting inside S).
    """
    mult, star = S.mult, S.star
    partner = {}
    for s in range(S.n):
        mates = [t for t in range(S.n)
                 if mult[s][t] == star[t] and mult[t][s] == star[s]]
        if len(mates) > 1:
            raise MathFail(f"element {S.name(s)} has two partial inverses",
                           witness=(s, mates[0], mates[1]))
        if mates:
            partner[s] = mates[0]
    # partner holds its keys in ascending order, so each scan below
    # reports its first witness
    for s in partner:
        if star[s] not in partner:
            raise MathFail("partial isomorphisms not closed under star",
                           witness=(s,))
        for t in partner:
            if mult[s][t] not in partner:
                raise MathFail("partial isomorphisms not closed under product",
                               witness=(s, t))
    for s, t in partner.items():
        if mult[mult[s][t]][s] != s or mult[mult[t][s]][t] != t:
            raise MathFail("partial inverse fails regularity", witness=(s, t))
    idem = [s for s in partner if mult[s][s] == s]
    for e in idem:
        for f in idem:
            if mult[e][f] != mult[f][e]:
                raise MathFail("idempotent partial isomorphisms do not commute",
                               witness=(e, f))
    return partner


@dataclass
class CosupportResult:
    table: tuple | None
    axiom: str | None = None
    witness: tuple | None = None

    def __bool__(self):
        return self.table is not None


def infer_cosupport(S):
    """Forced candidate for the plus table, verified against the dual axioms.

    s^+ must be the least projection f with f*s = s, so compute that product
    and check the candidate satisfies the coEhresmann and linking axioms.
    Raises NoLeftUnit when some element has no left local unit at all.
    """
    probe, wit = S._cosupport
    return CosupportResult(probe.plus) if wit is None else CosupportResult(
        None, *wit)


def with_inferred_plus(S):
    """S itself if it has a plus table, else S extended by the forced one, or
    None if that fails the cosupport axioms; raises what infer_cosupport does."""
    if S.plus is not None:
        return S
    probe, wit = S._cosupport
    return probe if wit is None else None


def _blocks(count, width):
    """The ranges (lo, hi), in order, that split count items of width cells
    each into blocks of at most max(1, _CHUNK_CELLS // width) items: the
    one rule by which every numpy kernel bounds its temporaries."""
    step = max(1, _CHUNK_CELLS // width)
    return [(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _first_cell(checks, lo=0):
    """The first (name, witness) among checks, pairs of a name and a bool
    array over elements or element pairs: the witness is the least failing
    index in row-major order, lo added to its first entry, and at one
    index the earlier check wins.  On a symmetric pair array the first
    failing pair (s, t) has s <= t."""
    import numpy as np
    fails = reduce(or_, (bad for _, bad in checks))
    k = int(fails.argmax())
    if not fails.flat[k]:
        return None
    name = next(name for name, bad in checks if bad.flat[k])
    i, *rest = map(int, np.unravel_index(k, fails.shape))
    return (name, (lo + i, *rest))


def _first_failure(n, checks):
    """The first failure of an n-by-n scan, a block of rows at a time:
    checks(lo, hi) gives the checks of rows lo..hi-1 for _first_cell.
    Blocks run in row order, so the first block with a failure holds the
    first failure of the whole table."""
    for lo, hi in _blocks(n, n):
        if w := _first_cell(checks(lo, hi), lo):
            return w
    return None


def _star_axiom_witness(S):
    """First failure among the support axioms, or None."""
    mult, star = S.mult, S.star
    n = S.n
    if n > _NUMPY_THRESHOLD:
        import numpy as np
        a, x = S._mult_array, np.arange(n)
        st = np.array(star, dtype=a.dtype)
        if w := _first_cell([("x*support(x)=x", a[x, st] != x)]):
            return w

        def pairs(lo, hi):
            sx = st[lo:hi]
            # p[x - lo, y] = x^* y^* and q[x - lo, y] = y^* x^*
            p, q = a[sx][:, st], a.T[sx][:, st]
            return [("supports-commute-and-are-projections",
                     (p != q) | (st[p] != p)),
                    ("support(xy)=support(support(x)y)",
                     st[a[lo:hi]] != st[a[sx]])]
        return _first_failure(n, pairs)
    for x in range(n):
        if mult[x][star[x]] != x:
            return ("x*support(x)=x", (x,))
    for x in range(n):
        sx = star[x]
        for y in range(n):
            sy = star[y]
            p = mult[sx][sy]
            if p != mult[sy][sx] or p != star[p]:
                return ("supports-commute-and-are-projections", (x, y))
            if star[mult[x][y]] != star[mult[sx][y]]:
                return ("support(xy)=support(support(x)y)", (x, y))
    return None


def _plus_axiom_witness(S):
    """First failure among the cosupport and linking axioms, or None."""
    mult, star, plus = S.mult, S.star, S.plus
    n = S.n
    if n > _NUMPY_THRESHOLD:
        import numpy as np
        a = S._mult_array
        st, pl = np.array(star, dtype=a.dtype), np.array(plus, dtype=a.dtype)
        if w := _first_cell([
                ("cosupport(x)*x=x", a[pl, np.arange(n)] != np.arange(n)),
                ("support(cosupport(x))=cosupport(x)", st[pl] != pl),
                ("cosupport(support(x))=support(x)", pl[st] != st)]):
            return w

        def pairs(lo, hi):
            px, rows = pl[lo:hi], a[lo:hi]
            # p[x - lo, y] = x^+ y^+ and q[x - lo, y] = y^+ x^+
            p, q = a[px][:, pl], a.T[px][:, pl]
            return [("cosupports-commute-and-are-projections",
                     (p != q) | (pl[p] != p)),
                    ("cosupport(xy)=cosupport(x cosupport(y))",
                     pl[rows] != pl[rows[:, pl]])]
        return _first_failure(n, pairs)
    for x in range(n):
        if mult[plus[x]][x] != x:
            return ("cosupport(x)*x=x", (x,))
        if star[plus[x]] != plus[x]:
            return ("support(cosupport(x))=cosupport(x)", (x,))
        if plus[star[x]] != star[x]:
            return ("cosupport(support(x))=support(x)", (x,))
    for x in range(n):
        px = plus[x]
        for y in range(n):
            py = plus[y]
            p = mult[px][py]
            if p != mult[py][px] or p != plus[p]:
                return ("cosupports-commute-and-are-projections", (x, y))
            if plus[mult[x][y]] != plus[mult[x][py]]:
                return ("cosupport(xy)=cosupport(x cosupport(y))", (x, y))
    return None


def _restriction_witness(S):
    mult, star = S.mult, S.star
    n = S.n
    if n > _NUMPY_THRESHOLD:
        import numpy as np
        a = S._mult_array
        st, at_y = np.array(star, dtype=a.dtype), np.arange(0, n * n, n)
        # y support(xy) and support(x)y at [x - lo, y], the former read from
        # the flat table at y n + support(xy)
        return _first_failure(n, lambda lo, hi: [(
            "support(x)y=y support(xy)",
            a.ravel().take(st[a[lo:hi]] + at_y) != a[st[lo:hi]])])
    for x in range(n):
        sx = star[x]
        for y in range(n):
            if mult[sx][y] != mult[y][star[mult[x][y]]]:
                return ("support(x)y=y support(xy)", (x, y))
    return None


def _corestriction_witness(S):
    # no numpy form: stopping at the first failure is faster on failing tables
    mult, plus = S.mult, S.plus
    n = S.n
    for x in range(n):
        for y in range(n):
            if mult[x][plus[y]] != mult[plus[mult[x][y]]][x]:
                return ("x cosupport(y)=cosupport(xy)x", (x, y))
    return None


class AlgebraClassification:
    """Named flags in report order, with a witness for each failed one.

    classify returns it for algebras, check_cofunctor for cofunctors and
    SemigroupMorphism.classification for maps, each from (flag,
    prerequisites, check) rules.  A flag is evaluated when first read, as
    an attribute (cls.range) or through witness: it holds when every
    prerequisite holds and its check, if any, returns no witness; the
    check runs only when the prerequisites hold.  A flag failing on a
    prerequisite carries the first failed prerequisite's witness.  Flags
    named _... are shared steps, kept out of the result.  flags, witnesses
    and render evaluate every rule, in order.
    """

    def __init__(self, rules, plus_inferred=False):
        self._rules = {flag: (prereqs, check) for flag, prereqs, check in rules}
        self._wit = {}  # flag -> its witness, None when it holds
        self.plus_inferred = plus_inferred

    def _eval(self, flag):
        if flag not in self._wit:
            prereqs, check = self._rules[flag]
            for p in prereqs:
                if (w := self._eval(p)) is not None:
                    break
            else:
                w = check() if check else None
            self._wit[flag] = w
        return self._wit[flag]

    def __getattr__(self, flag):
        if flag[0] == "_" or flag not in self._rules:
            raise AttributeError(flag)
        return self._eval(flag) is None

    @property
    def flags(self):
        return {f: self._eval(f) is None for f in self._rules if f[0] != "_"}

    @property
    def witnesses(self):
        return {f: w for f in self.flags if (w := self.witness(f)) is not None}

    def witness(self, flag):
        return self._eval(flag)

    def require(self, flag, error, message, *tag):
        """Raise error(message) unless flag holds, with the flag's witness
        after the tag, if one is given."""
        if not getattr(self, flag):
            w = self.witness(flag)
            raise error(message, witness=(*tag, w) if tag else w)

    def render(self, names=None):
        out = []
        for flag, ok in self.flags.items():
            line = f"{flag}={str(ok).lower()}"
            w = self.witness(flag)
            if w is not None:
                if names is not None:
                    axiom, tup = w
                    tup = tuple(names[i] if isinstance(i, int) and 0 <= i < len(names)
                                else i for i in tup)
                    w = (axiom, tup)
                line += f" witness={format_witness(w)}"
            out.append(line)
        if self.plus_inferred:
            out.append("plus_inferred=true")
        return "\n".join(out)


def classify(S):
    """The structural flags of S, each decided by exhaustive axiom
    evaluation when first read.

    Plus-dependent flags are evaluated against the stored plus table; when
    none is stored but a compatible cosupport is forced by the star reduct,
    the inferred table is used and plus_inferred is set.
    """
    return S.classification


def _classify(S):
    star_wit = _star_axiom_witness(S)
    probe = None
    if star_wit is None and S.plus is None:
        try:
            probe = with_inferred_plus(S)
        except MathFail:
            pass
    # None where no table is forced or it fails the cosupport axioms; an
    # algebra of no elements is falsy, so the test is "is None"
    if probe is None:
        probe = S
    base_r, base_b = ("restriction", "_BR2"), ("birestriction", "_BR2")
    cls = AlgebraClassification([
        ("ehresmann", (), lambda: star_wit),
        # an inferred plus table passed the scan when it was forced
        ("coehresmann", (), lambda: ("no-plus-table", ()) if probe.plus is None
         else _plus_axiom_witness(S) if probe is S else None),
        ("biehresmann", ("ehresmann", "coehresmann"), None),
        ("restriction", ("ehresmann",), lambda: _restriction_witness(S)),
        ("corestriction", ("coehresmann",), lambda: _corestriction_witness(probe)),
        ("birestriction", ("restriction", "corestriction", "biehresmann"), None),
        ("range", ("biehresmann", "restriction"), None),
        ("has_zero_projection", (), lambda: ("MissingZeroProjection", ())
         if detected_zero_projection(S) is None else None),
        ("has_local_units", (), lambda: _local_units_witness(S)),
        # (BR2) P(S) is a GBA; (BR1), (BR1') and (BR3) are the join axioms
        ("_BR2", (), lambda: _br2_witness(S)),
        ("_BR1", base_r, lambda: _br1_witness(S, "BR1")),
        ("_BR1'", base_r, lambda: _br1_witness(S, "BR1'")),
        ("_BR3", base_r, lambda: _br3_witness(S)),
        ("preboolean_restriction", ("_BR1'", "_BR3"), None),
        ("boolean_restriction", ("_BR1", "_BR3"),
         lambda: _check_preboolean(cls, "boolean_restriction")),
        ("preboolean_birestriction", (*base_b, "_BR1'", "_BR3"), None),
        ("boolean_birestriction", base_b,
         lambda: _br1_witness(S, "BBR1", probe)
         or _check_preboolean(cls, "boolean_birestriction")),
        ("boolean_range", ("range", "boolean_restriction"), None),
        ("etale_range", ("boolean_range",), lambda: _join_cover_witness(
            S, sum(1 << b for b in deterministic_sets(probe)[2]))),
        # join cover by partial isomorphisms; unlike etale this needs no
        # boolean_range prerequisite (a projection semilattice qualifies)
        ("groupoidal_etale", (), lambda: _groupoidal_witness(S)),
        ("inverse", (), lambda: _inverse_witness(S)),
        ("has_binary_meets", (), lambda: _meets_witness(S)),
    ], plus_inferred=probe is not S)
    return cls


def _local_units_witness(S):
    ok, w = has_local_units(S)
    return None if ok else ("no-left-unit", w)


def _br2_witness(S):
    if detected_zero_projection(S) is None:
        return ("has_zero_projection", ())
    try:
        S._projection_gba
    except MathFail as exc:
        return ("BR2", exc.witness)
    return None


def _groupoidal_witness(S):
    try:
        piso = sum(1 << s for s in partial_isomorphisms(S))
    except MathFail as exc:
        return ("partial-isomorphisms", exc.witness)
    return _join_cover_witness(S, piso)


def _br1_witness(S, axiom, probe=None):
    """First pair (s, t) that is related but has no join, as a witness.

    Related means right-compatible for BR1, bounded above for BR1', and
    compatible on both sides, by the plus table of probe, for BBR1.  The
    relation and joins are symmetric, so the first failing pair in
    row-major order has s <= t, and the Python scan visits only those
    pairs; the same holds for the meets scan."""
    n = S.n
    if n > _NUMPY_THRESHOLD:
        import numpy as np
        a, (joins, bounded) = S._mult_array, S._join_arrays
        st = np.array(S.star) if axiom != "BR1'" else None
        pl = np.array(probe.plus) if axiom == "BBR1" else None

        def unjoined(lo, hi):
            related = bounded[lo:hi]
            if axiom != "BR1'":
                # s t^* against t s^*, for the rows s of the block
                related = a[lo:hi][:, st] == a[:, st[lo:hi]].T
                if axiom == "BBR1":  # and s^+ t against t^+ s
                    related &= a[pl[lo:hi]] == a[:, lo:hi][pl].T
            return [(axiom, related & (joins[lo:hi] < 0))]
        return _first_failure(n, unjoined)
    up, joins = S.up, S.joins
    related = {"BR1": lambda s, t: compatible(S, s, t, "right"),
               "BR1'": lambda s, t: up[s] & up[t],
               "BBR1": lambda s, t: compatible(probe, s, t, "bi")}[axiom]
    return next(((axiom, (s, t)) for s in range(S.n) for t in range(s, S.n)
                 if related(s, t) and joins[s][t] is None), None)


def _meets_witness(S):
    """First pair (s, t), s <= t, with no meet, as a witness."""
    return next((("no-meet", (s, t)) for s in range(S.n)
                 for t in range(s, S.n) if meet(S, s, t) is None), None)


def _br3_witness(S):
    """First (s, t, u) with s v t defined and (s v t)u != su v tu, as a
    witness; (s, t) and (t, s) fail at the same u, so it has s <= t.

    Above _NUMPY_THRESHOLD elements the scan runs in numpy.  On a table
    whose associativity make_algebra proved by Light's test, the columns u
    of that test's generating set are checked first.  The columns u that
    pass for every pair are closed under product, by associativity: if u
    and w pass, then (s v t)uw = (su v tu)w = suw v tuw, since su v tu
    exists once u passes.  So passing generators prove BR3, and the full
    scan, which finds the first witness, runs only when one fails.
    """
    n, mult = S.n, S.mult
    if n > _NUMPY_THRESHOLD:
        gens = S._generating_set
        if gens is not None and _br3_scan(S, gens) is None:
            return None
        return _br3_scan(S, slice(None))
    joins = S.joins
    for s in range(n):
        ms = mult[s]
        for t in range(s, n):
            j = joins[s][t]
            if j is None:
                continue
            row = [joins[a][b] for a, b in zip(ms, mult[t])]
            if row != list(mult[j]):
                u = next(u for u in range(n) if row[u] != mult[j][u])
                return ("BR3", (s, t, u))
    return None


def _br3_scan(S, columns):
    """The first BR3 failure over the joinable pairs (s, t), s <= t, in
    row-major order, then the given columns u (a list, or a slice of
    them), or None."""
    import numpy as np
    a, joins = S._mult_array[:, columns], S._join_arrays[0]
    n, us = S.n, np.arange(S.n)[columns]
    for r, r_hi in _blocks(n, n):
        # the pairs of a block of rows, then a chunk of them at a time;
        # bad[p, k] says whether (s v t)u differs from su v tu for the
        # p-th pair (s, t) and the k-th column u
        ss, ts = np.nonzero(np.triu(joins[r:r_hi] >= 0, r))
        ss += r
        for lo, hi in _blocks(len(ss), len(us)):
            s, t = ss[lo:hi], ts[lo:hi]
            bad = joins[a[s], a[t]] != a[joins[s, t]]
            k = int(bad.argmax())
            if bad.flat[k]:
                p, u = divmod(k, len(us))
                return ("BR3", (int(s[p]), int(t[p]), int(us[u])))
    return None


def _join_cover_witness(S, lower):
    """First s that is not the join of the elements of the bitmask lower
    that lie below it."""
    down = S.down
    for s in range(S.n):
        if join_all(S, _iter_bits(down[s] & lower)) != s:
            return ("join-cover", (s,))
    return None


def _inverse_witness(S):
    mult = S.mult
    n = S.n
    for s in range(n):
        count = 0
        for t in range(n):
            if mult[mult[s][t]][s] == s and mult[mult[t][s]][t] == t:
                count += 1
        if count != 1:
            return ("unique-inverse", (s,))
    return None


def _check_preboolean(cls, flag):
    """Raise InvariantViolation if the Boolean flag, whose other checks
    hold, lacks its preBoolean form; the other implications between flags
    are prerequisites in the rules."""
    weak = "pre" + flag
    if not getattr(cls, weak):
        raise InvariantViolation(f"{flag} holds but {weak} fails",
                                 witness=(flag, weak))


@dataclass(frozen=True)
class SemigroupMorphism:
    source: BiUnaryAlgebra
    target: BiUnaryAlgebra
    map: tuple

    def __post_init__(self):
        _check_table("morphism map", self.map, (self.source.n,), self.target.n)

    @property
    def classification(self):
        """check_morphism's flags of self, each decided when first read.
        They are kept on the source, keyed by target and map, so maps with
        equal fields share one classification."""
        memo, key = self.source._map_flags, (self.target, tuple(self.map))
        if key in memo:
            return memo[key]
        S, T, m = self.source, self.target, self.map
        image = lambda: reduce(or_, map(T.down.__getitem__, set(m)))  # down-set
        cls = memo[key] = AlgebraClassification([
            ("homomorphism", (),
             lambda: _unpreserved(S, T, m, [("star", S.star, T.star)])),
            # read only when both have plus tables; homomorphism proved mult
            ("_plus", ("homomorphism",), lambda: next(
                (("plus", (x,)) for x in range(S.n)
                 if m[S.plus[x]] != T.plus[m[x]]), None)),
            ("projection_morphism", ("homomorphism",),
             lambda: _projection_map_witness(self)),
            ("weakly_meet_preserving", ("projection_morphism",), lambda: (
                w := _weak_meet_witness(self)) and ("weakly-meet-preserving", w)),
            ("proper", ("projection_morphism",), lambda: (
                w := _join_cover_witness(T, image())) and ("proper", w[1])),
        ])
        return cls


@dataclass
class MorphismVerdict:
    ok: bool
    mtype: int
    failed: str | None = None
    witness: tuple | None = None


def _unpreserved(X, Y, m, unary):
    """The first entry that the map m does not carry from X to Y, as
    (name, index), or None: the binary table of iso_structure, named
    "mult", row-major, then each (name, table of X, table of Y) in unary.
    An undefined entry (-1) must map to -1.  Above _NUMPY_THRESHOLD
    elements one gather per table, Y's binary table by rows and then by
    columns, a block of rows at a time; at or below it whole rows are
    compared, and the column is sought only in a failing row."""
    n = len(m)
    if n > _NUMPY_THRESHOLD:
        import numpy as np
        ext = np.array([*m, -1], dtype=_INDEX_DTYPE)  # ext[-1] = -1
        f, binX, binY = ext[:n], X._iso_binary, Y._iso_binary
        if w := _first_failure(n, lambda lo, hi: [
                ("mult", ext.take(binX[lo:hi]) != binY[f[lo:hi]][:, f])]):
            return w
        for name, a, b in unary:
            if w := _first_cell([(name, ext[list(a)] != np.array(b)[f])]):
                return w
        return None
    # row i of the binary table is checked as a table of its own, whose
    # failing column j gives the witness (i, j)
    get, binY = [*m, -1].__getitem__, Y.iso_structure[1]
    rows = (("mult", (i,), row, binY[m[i]])
            for i, row in enumerate(X.iso_structure[1]))
    for name, at, a, b in chain(rows, ((name, (), a, b) for name, a, b in unary)):
        image, target = list(map(get, a)), list(map(b.__getitem__, m))
        if image != target:
            return name, (*at, next(j for j in range(n) if image[j] != target[j]))
    return None


def check_morphism(f, mtype, require_plus=False):
    """Decide whether f is a morphism of the requested type (1..4).

    Type 1 is the base: a (2,1)-homomorphism whose projection restriction is
    a proper GBA morphism.  Type 2 adds weak meet preservation, type 3 adds
    properness (decided by a normalized join criterion), type 4 adds both.
    With require_plus the map must preserve the cosupport as well.  The
    verdict is the first witness among the flags of f.classification, read
    after a check for plus tables: _plus (require_plus), then
    projection_morphism (1), weakly_meet_preserving (2), proper (3) or both (4).
    """
    if mtype not in (1, 2, 3, 4):
        raise InputError(f"unknown morphism type {mtype}")
    if require_plus and (f.source.plus is None or f.target.plus is None):
        raise NoPlusTable("plus preservation requested without plus tables")
    flags = ("_plus",) if require_plus else ()
    flags += (("projection_morphism",), ("weakly_meet_preserving",), ("proper",),
              ("weakly_meet_preserving", "proper"))[mtype - 1]
    w = next(filter(None, map(f.classification.witness, flags)), None)
    return MorphismVerdict(w is None, mtype, *w or ())


def _projection_map_witness(f):
    """The first failure of f on projections as a proper GBA map; raises
    InputError unless both projection lattices are GBAs."""
    S, T, m = f.source, f.target, f.map
    try:
        (_, to_S, from_S), (_, to_T, from_T) = (S._projection_gba,
                                                T._projection_gba)
    except MathFail as fail:
        raise InputError(f"projection lattices must be GBAs: {fail}") from fail
    if m[from_S[0]] != from_T[0]:  # the zero projections
        return ("proj-zero", (from_S[0],))
    projS, diff = S.projections(), lambda a, b: a & ~b
    for e, g in product(projS, projS):
        for name, op in (("proj-join", or_), ("proj-diff", diff)):
            if m[from_S[op(to_S[e], to_S[g])]] != from_T[op(to_T[m[e]], to_T[m[g]])]:
                return (name, (e, g))
    return next((("proj-proper", (t,)) for t in T.projections()
                 if not any(T.leq(t, m[e]) for e in projS)), None)


def _weak_meet_witness(f):
    """First (s, t, u), by u, then s, then t, where u <= f(s) and u <= f(t)
    but no r below both s and t has u <= f(r); None if there is none.

    For each u the down-sets of the elements of pre[u], cut to pre[u], are
    ANDed together first: a common bit is an r in pre[u] below all of them,
    which settles every pair at u, and only otherwise are the pairs
    scanned.  When the order of S is transitive, a u where no pair fails
    always has such an r (fold the pairwise lower bounds one element at a
    time), so the pairs are scanned only at the first failing u.
    """
    S, T, m = f.source, f.target, f.map
    downT, downS = T.down, S.down
    pre = [0] * T.n  # pre[u] = bitmask of {s in S : u <= f(s)}
    for s in range(S.n):
        for u in _iter_bits(downT[m[s]]):
            pre[u] |= 1 << s
    for u, cand in enumerate(pre):
        if reduce(and_, map(downS.__getitem__, _iter_bits(cand)), cand):
            continue
        for s in _iter_bits(cand):
            for t in _iter_bits(cand):
                if not downS[s] & downS[t] & cand:
                    return (s, t, u)
    return None


def _refine(X, init):
    """Colour refinement of the structure of the algebra or category X
    until its class count stops growing.

    X.iso_structure is a pair (unary tables, binary table), the binary
    table holding -1 where it is undefined; init gives one tuple of ints
    per element as its first colour.  Codes rank signatures within the one
    structure and no step reads how elements are numbered, so any
    isomorphism preserves codes, however separately they were computed.
    Above _NUMPY_THRESHOLD elements the rounds run in numpy on
    X._iso_binary, with the same codes.
    """
    if len(init) > _NUMPY_THRESHOLD:
        return _refine_array(X, init)
    unary, binary = X.iso_structure
    col = list(zip(*binary))
    sig, classes = init, 0
    while True:
        ids = {s: k for k, s in enumerate(sorted(set(sig)))}
        c = [ids[s] for s in sig]
        if len(ids) == classes:
            return tuple(c)
        classes = len(ids)
        del sig, ids  # hold one round of signatures at a time
        # element i meets j in the triple (c[j], c[i*j], c[j*i]), packed as
        # one int in base classes + 1 with an undefined entry read as digit 0;
        # ints sort several times faster than tuples
        base = classes + 1
        high = [(x + 1) * base * base for x in c]
        mid = [(x + 1) * base for x in c] + [0]
        low = [x + 1 for x in c] + [0]
        sig = [(c[i], *[c[u[i]] for u in unary],
                tuple(sorted(map(add, high, map(add, map(mid.__getitem__, binary[i]),
                                                map(low.__getitem__, col[i]))))))
               for i in range(len(c))]


def _refine_array(X, init):
    """_refine's rounds in numpy.  Row i of one int32 matrix holds the
    signature of element i: c[i], its colours under the unary tables, then
    its packed triples sorted.  The rows, ranked lexicographically, give
    the codes that the Python tuples give.  A packed triple is below
    base**3, and base is at most SIZE_BOUND + 1, so below 2**31.  The
    triples are gathered a block of rows at a time, and every round
    writes the whole matrix anew, so it is ranked in place."""
    import numpy as np
    unary, _ = X.iso_structure
    b = X._iso_binary
    n, k = len(b), len(unary)
    u = np.array(unary, dtype=np.intp)
    c, classes = _rank_rows(np.array(init, dtype=np.int32))
    sig = np.empty((n, 1 + k + n), dtype=np.int32)
    packed = sig[:, 1 + k:]
    lifted = np.zeros(n + 1, dtype=np.int32)  # c + 1, and 0 at index -1
    blocks = _blocks(n, n)
    while True:
        base = classes + 1
        lifted[:n] = c + 1
        sig[:, 0] = c
        sig[:, 1:1 + k] = c[u].T
        # packed[i, j] = (c[j]+1) base^2 + (c[i*j]+1) base + (c[j*i]+1)
        mid, high = lifted * base, lifted[:n] * base * base
        for lo, hi in blocks:
            block = packed[lo:hi]
            np.take(mid, b[lo:hi], out=block, mode="wrap")
            block += np.take(lifted, b.T[lo:hi], mode="wrap")
            block += high
        packed.sort(axis=1)
        c, count = _rank_rows(sig)
        if count == classes:
            return tuple(c.tolist())
        classes = count


def _rank_rows(sig):
    """(ranks, count): each row's rank among the distinct rows of the
    C-ordered int32 matrix sig in lexicographic order, and how many
    distinct rows it has; sig's words are overwritten.  A row read as the
    bytes of its words, big-endian with the sign bit flipped, compares as
    bytes just as the row compares as ints.  So the rows become bytes
    objects, a set keeps one of each, and one sort of those ranks them;
    equal rows never meet in the sort."""
    import numpy as np
    words = sig.view(np.uint32)
    words ^= np.uint32(1 << 31)
    if np.little_endian:
        words.byteswap(inplace=True)
    rows = words.view(np.dtype((np.void, 4 * sig.shape[1]))).ravel().tolist()
    ranks = {row: k for k, row in enumerate(sorted(set(rows)))}
    codes = np.fromiter(map(ranks.__getitem__, rows), np.intp, len(rows))
    return codes, len(ranks)


def _find_iso(X, Y):
    """An isomorphism between two algebras or two categories: a bijection
    preserving every table of their iso_structure, or None.

    Each element maps only into its own colour class.  The search takes the
    elements with the fewest candidates first, singleton classes before
    all others, and tries each candidate in ascending order.  A choice
    s -> t is closed at once: s times every element already assigned, and
    then each element newly assigned times every choice, on both sides,
    and under each unary table, forces the image of the product.  The
    choice fails when a forced pair is undefined on one side only, changes
    colour or breaks the bijection.  An element forced before the search
    reaches it is skipped.  Only partial maps that no isomorphism extends
    are cut and candidates run in order, so the map returned is the first
    isomorphism in that order.  A complete map gets check_morphism's
    exhaustive check, _unpreserved.

    When X and Y hold one table (one root through tables_of), the
    identity is returned at once, the map the search returns: order is
    stable, so a colour class comes in ascending index; if every element
    assigned so far is assigned to itself, the next one, s, finds each
    smaller member of its class taken, so s is its first free candidate,
    and closing s -> s forces only pairs (x, x), which never conflict.
    The identity then passes _unpreserved on equal tables."""
    if (X.tables_of or X) is (Y.tables_of or Y):
        return tuple(range(len(X.iso_structure[1])))
    sigA, sigB = X.iso_codes, Y.iso_codes
    if sorted(sigA) != sorted(sigB):
        return None
    (unaryA, binA), (unaryB, binB) = X.iso_structure, Y.iso_structure
    n = len(sigA)
    by_colour = {}
    for t, c in enumerate(sigB):
        by_colour.setdefault(c, []).append(t)
    unary = [("unary", a, b) for a, b in zip(unaryA, unaryB)]
    if len(by_colour) == n:  # every class a singleton: the map is forced
        fwd = [by_colour[c][0] for c in sigA]
        return tuple(fwd) if _unpreserved(X, Y, fwd, unary) is None else None
    order = sorted(range(n), key=lambda s: len(by_colour[sigA[s]]))
    fwd, back = [-1] * n, [-1] * n
    trail, chosen = [], []  # the elements assigned, in order; the choices

    def assign(x, y):
        # x -> y, for entries x of X and y of Y
        if x < 0 or y < 0:
            return x == y
        if fwd[x] >= 0 or back[y] >= 0:
            return fwd[x] == y
        if sigA[x] != sigB[y]:
            return False
        fwd[x], back[y] = y, x
        trail.append(x)
        return True

    def choose(s, t, mark):
        # s -> t, closed as the docstring says; trail[:mark] was assigned
        assign(s, t)
        chosen.append((s, t))
        rowA, rowB = binA[s], binB[t]
        for x in trail[:mark]:
            y = fwd[x]
            if not (assign(binA[x][s], binB[y][t]) and assign(rowA[x], rowB[y])):
                return False
        i = mark
        while i < len(trail):  # runs on over what the loop appends
            x = trail[i]
            y = fwd[x]
            i += 1
            rowA, rowB = binA[x], binB[y]
            for g, h in chosen:
                if not (assign(rowA[g], rowB[h]) and assign(binA[g][x], binB[h][y])):
                    return False
            for _, u, v in unary:
                if not assign(u[x], v[y]):
                    return False
        return True

    # depth-first without recursion, so the depth is not bounded by the
    # interpreter's stack; a frame holds the position in order of a choice,
    # its candidates not yet tried and the number of elements assigned
    # before it
    frames = []
    k = 0
    while True:
        while k < n and fwd[order[k]] >= 0:
            k += 1
        if k < n:
            frames.append((k, iter(by_colour[sigA[order[k]]]), len(trail)))
        elif _unpreserved(X, Y, fwd, unary) is None:
            return tuple(fwd)
        while frames:
            k, its, mark = frames[-1]
            for t in its:
                if len(trail) > mark:  # undo the choice tried last
                    for x in trail[mark:]:
                        back[fwd[x]] = fwd[x] = -1
                    del trail[mark:], chosen[len(frames) - 1:]
                if back[t] < 0 and choose(order[k], t, mark):
                    break
            else:
                frames.pop()
                continue
            break
        else:
            return None


def iso_algebras(S, T):
    """Search for an isomorphism S -> T preserving mult, star and plus;
    None when there is none."""
    if S.n != T.n or (S.plus is None) != (T.plus is None):
        return None
    return _find_iso(S, T)
