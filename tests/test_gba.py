import pytest

from oracles import brute_prime_filters, enumerate_filters, filters_coincide
from stonedual.algebra import projection_gba
from stonedual.errors import MissingBottom, NotClosed, UnknownElement
from stonedual.gba import (FinGBA, atoms, basic_set, char_eval, make_gba,
                           verify_stone_duality)
from stonedual.zoo import gen_pt


def powerset(names):
    out = [[]]
    for name in names:
        out += [sub + [name] for sub in out]
    return out


def test_powerset_construction():
    E = make_gba("abc", powerset("abc"))
    assert len(E) == 8
    assert len(E.lattice_atoms()) == 3
    assert E.top == E.mask_of("abc")
    assert E.bottom == 0


def test_coarse_family():
    # a 4-element Boolean algebra whose lattice atoms are not singletons
    E = make_gba("xyz", [[], ["x", "y"], ["z"], ["x", "y", "z"]])
    assert len(E) == 4
    assert E.lattice_atoms() == (E.mask_of("xy"), E.mask_of("z"))
    assert verify_stone_duality(E).passed


def test_missing_bottom():
    with pytest.raises(MissingBottom):
        make_gba("ab", [["a"], ["a", "b"]])


def test_not_closed_reports_witness():
    with pytest.raises(NotClosed) as exc:
        make_gba("ab", [[], ["a"], ["a", "b"]])
    assert exc.value.witness[0] in ("or", "and", "diff")


def test_unknown_atom():
    with pytest.raises(UnknownElement):
        make_gba("ab", [[], ["c"]])


def test_lattice_operations_stay_inside():
    E = make_gba("ab", [[], ["a"], ["b"], ["a", "b"]])
    a, b = E.mask_of("a"), E.mask_of("b")
    assert E.join(a, b) == E.mask_of("ab")
    assert E.meet(a, b) == 0
    assert E.diff(E.mask_of("ab"), a) == b
    with pytest.raises(UnknownElement):
        E.join(a, 1 << 10)


def test_basic_sets():
    E = make_gba("abc", powerset("abc"))
    chars = atoms(E)
    assert basic_set(E, 0) == frozenset()
    assert basic_set(E, E.top) == frozenset(chars)
    a = E.mask_of("a")
    assert {phi.atom for phi in basic_set(E, a)} == {a}
    phi = next(p for p in chars if p.atom == a)
    assert char_eval(phi, a) == 1 and phi(a) == 1
    assert char_eval(phi, E.mask_of("bc")) == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stone_duality_powersets(n):
    names = "abcd"[:n]
    E = make_gba(names, powerset(names))
    rpt = verify_stone_duality(E)
    assert rpt.passed, rpt.render()
    assert len(atoms(E)) == n


def test_stone_duality_lists_the_characters_once(monkeypatch):
    # every basic set D_e comes from one list of characters: one scan for
    # the lattice atoms, not one per element
    calls = []
    scan = FinGBA.lattice_atoms
    monkeypatch.setattr(FinGBA, "lattice_atoms",
                        lambda E: calls.append(E) or scan(E))
    E = make_gba("abcd", powerset("abcd"))
    assert verify_stone_duality(E).passed and calls == [E]
    # FinGBA does not check closure: {a} and {a, b} have one character
    bad = FinGBA("ab", [0, 1, 3])
    assert verify_stone_duality(bad).render() == (
        "# stone-duality\nFAIL eta-bijective witness=((a),(a,b))\n"
        "PASS D-preserves-join\nPASS D-preserves-meet\n"
        "PASS counit-point-identity")
    assert calls == [E, bad]


def test_stone_duality_needs_joins_and_meets(monkeypatch):
    # a FinGBA missing a union or an intersection has no report: its first
    # such pair, in make_gba's order, raises NotClosed before any
    # character is listed
    calls = []
    monkeypatch.setattr(FinGBA, "lattice_atoms",
                        lambda E: calls.append(E) or ())
    for masks, witness, missing in (([0, 1, 2, 4, 7], ("or", ("a",), ("b",)),
                                     ("a", "b")),
                                    ([0, 3, 5, 7], ("and", ("a", "b"),
                                                    ("a", "c")), ("a",))):
        with pytest.raises(NotClosed) as exc:
            verify_stone_duality(FinGBA("abc", masks))
        assert exc.value.witness == witness and exc.value.missing == missing
        assert str(exc.value) == (
            f"family not closed under {witness[0]}: {witness[0]}"
            f"({witness[1]}, {witness[2]}) = {missing} is absent")
    assert calls == []


def test_filters_against_oracle():
    E = make_gba("abc", powerset("abc"))
    as_sets = [frozenset(E.names_of(m)) for m in E.elements]
    oracle = brute_prime_filters(as_sets)
    assert len(oracle) == len(atoms(E)) == 3
    package = enumerate_filters(E)
    as_oracle = {frozenset(frozenset(E.names_of(m)) for m in f)
                 for f in package}
    # every oracle prime filter is among the package's proper filters
    assert set(oracle) <= as_oracle
    assert filters_coincide(E)


def test_filters_coincide_on_coarse_family():
    E = make_gba("xyz", [[], ["x", "y"], ["z"], ["x", "y", "z"]])
    assert filters_coincide(E)


@pytest.mark.parametrize("n,size,chars", [(1, 2, 1), (2, 4, 2)])
def test_projection_lattices_are_dual(n, size, chars):
    E, _, _ = projection_gba(gen_pt(n))
    assert len(E) == size
    assert len(atoms(E)) == chars
    assert verify_stone_duality(E).passed
