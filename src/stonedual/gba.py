"""Finite generalized Boolean algebras and their classical Stone duality.

Elements are bitmasks over a declared universe of atom identifiers.  A family
of masks containing the empty mask and closed under union, intersection and
set difference is exactly a finite GBA (automatically an atomic Boolean
algebra), so representing elements extensionally is lossless.  Closure is
validated, never completed silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from operator import and_, or_

from .errors import MissingBottom, NotClosed, UnknownElement
from .report import Report


class FinGBA:
    """Finite GBA over a universe of named atoms; elements are bitmasks.

    The lattice order is mask inclusion, join/meet/difference are the mask
    operations.  Lattice atoms (minimal non-zero elements) need not be
    mask singletons when the family is a proper subfamily of the power set.
    """

    def __init__(self, universe, masks):
        self.universe = tuple(universe)
        self.elements = tuple(sorted(set(masks)))
        self.index = {m: i for i, m in enumerate(self.elements)}
        self.bottom = 0
        self.top = 0
        for m in self.elements:
            self.top |= m

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"FinGBA({len(self.universe)} atoms, {len(self.elements)} elements)"

    def require(self, mask):
        if mask not in self.index:
            raise UnknownElement(f"mask {mask} is not an element")
        return mask

    def join(self, a, b):
        return self.require(self.require(a) | self.require(b))

    def meet(self, a, b):
        return self.require(self.require(a) & self.require(b))

    def diff(self, a, b):
        return self.require(self.require(a) & ~self.require(b))

    def mask_of(self, atom_names):
        pos = {name: i for i, name in enumerate(self.universe)}
        mask = 0
        for name in atom_names:
            if name not in pos:
                raise UnknownElement(f"unknown atom identifier {name!r}")
            mask |= 1 << pos[name]
        return mask

    def names_of(self, mask):
        return tuple(name for i, name in enumerate(self.universe) if mask >> i & 1)

    def lattice_atoms(self):
        """Minimal non-zero elements, in mask order."""
        out = []
        for m in self.elements:
            if m == 0:
                continue
            if all(n == 0 or n == m or n & m != n for n in self.elements):
                out.append(m)
        return tuple(out)


@dataclass(frozen=True)
class PrimeCharacter:
    """Evaluation at one lattice atom: phi(e) = 1 iff atom <= e."""
    atom: int

    def __call__(self, e):
        return 1 if self.atom & e == self.atom else 0


def make_gba(universe, subsets):
    """Validate a family of atom-subsets as a finite GBA.

    Accepts subsets as iterables of atom identifiers from `universe`, or as
    ready-made bitmasks.  Raises MissingBottom or NotClosed; never completes
    the closure, so defects in a candidate projection lattice stay visible.
    """
    universe = tuple(universe)
    # mask_of reads only the universe, so an empty family will do
    blank = FinGBA(universe, ())
    family = {sub if isinstance(sub, int) else blank.mask_of(sub)
              for sub in subsets}
    if 0 not in family:
        raise MissingBottom("bottom (empty subset) is missing")
    gba = FinGBA(universe, family)
    _require_closed(gba)
    return gba


def _require_closed(E, ops=("or", "and", "diff")):
    """Raise NotClosed at the first pair of elements of E, in mask order,
    whose union, intersection or differences, in that order and as far as
    ops names them, are not all in E."""
    family = E.index
    for a, b in combinations(E.elements, 2):
        for op, res in (("or", a | b), ("and", a & b), ("diff", a & ~b), ("diff", b & ~a)):
            if op in ops and res not in family:
                raise NotClosed(op, E.names_of(a), E.names_of(b), E.names_of(res))


def atoms(E):
    """Prime characters of E, one per lattice atom."""
    return tuple(PrimeCharacter(a) for a in E.lattice_atoms())


def char_eval(phi, e):
    return phi(e)


def basic_set(E, e):
    """D_e: the prime characters sending e to 1."""
    E.require(e)
    return frozenset(phi for phi in atoms(E) if char_eval(phi, e))


def verify_stone_duality(E):
    """Check the finite Stone duality statements on E.

    (i) e -> D_e is a bijection of E onto all subsets of the character space,
    (ii) D respects joins and meets, (iii) evaluation at a point recovers the
    point (counit identity).  All three are theorems for valid instances;
    failures would carry witnesses.  A FinGBA built directly, not by
    make_gba, may not be closed: (ii) needs every join and meet in E, so a
    missing one raises NotClosed, as make_gba would, before any character
    is computed.  A missing difference shows in the report.
    """
    _require_closed(E, ("or", "and"))
    rpt = Report("stone-duality")
    chars, elems, names = atoms(E), E.elements, E.names_of
    # basic_set(E, e) for every e, from the one list of characters
    d = {e: frozenset(phi for phi in chars if char_eval(phi, e))
         for e in elems}
    bad = None
    if len(set(d.values())) < len(elems):
        bad = next((names(a), names(b)) for a, b in combinations(elems, 2)
                   if d[a] == d[b])
    rpt.check("eta-bijective", bad is None and len(elems) == 2 ** len(chars),
              bad or (len(elems), len(chars)))
    for name, op in (("D-preserves-join", or_), ("D-preserves-meet", and_)):
        bad = next(((names(a), names(b)) for a, b in product(elems, elems)
                    if d[op(a, b)] != op(d[a], d[b])), None)
        rpt.check(name, bad is None, bad)
    bad = next(((names(phi.atom), names(e)) for phi in chars for e in elems
                if char_eval(phi, e) != (phi in d[e])), None)
    rpt.check("counit-point-identity", bad is None, bad)
    return rpt
