"""Raw instance tables, seeded relabelling, and the benchmark's own checks.

A raw semigroup is ``(names, mult, star, plus, zero)`` and a raw category
``(objects, arrows, d, r, unit, comp)``, exactly the arguments of
``make_algebra`` and ``make_category``.  The checks below read only these
tables, never stonedual code, so a wrong answer from the program cannot
also fool the check.
"""

from __future__ import annotations


class Mismatch(Exception):
    """The program's output failed one of the benchmark's checks."""


def expect(ok, message):
    if not ok:
        raise Mismatch(message)


def raw_algebra(S):
    return (S.names, S.mult, S.star, S.plus, S.zero)


def raw_category(C):
    return (C.objects, C.arrows, C.d, C.r, C.unit, C.comp)


def _inverse(p):
    inv = [0] * len(p)
    for old, new in enumerate(p):
        inv[new] = old
    return inv


def permutation(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return p


def relabel_algebra(raw, p):
    """Rename element i to p[i]; the result is isomorphic via p."""
    names, mult, star, plus, zero = raw
    inv = _inverse(p)
    return ([names[inv[i]] for i in range(len(p))],
            [[p[mult[inv[i]][inv[j]]] for j in range(len(p))]
             for i in range(len(p))],
            [p[star[inv[i]]] for i in range(len(p))],
            None if plus is None else [p[plus[inv[i]]] for i in range(len(p))],
            None if zero is None else p[zero])


def relabel_category(raw, q, p):
    """Rename object o to q[o] and arrow a to p[a]."""
    objects, arrows, d, r, unit, comp = raw
    qi, pi = _inverse(q), _inverse(p)
    n = len(p)
    return ([objects[qi[o]] for o in range(len(q))],
            [arrows[pi[a]] for a in range(n)],
            [q[d[pi[a]]] for a in range(n)],
            [q[r[pi[a]]] for a in range(n)],
            [p[unit[qi[o]]] for o in range(len(q))],
            [[-1 if comp[pi[x]][pi[y]] < 0 else p[comp[pi[x]][pi[y]]]
              for y in range(n)] for x in range(n)])


def _is_bijection(m, n):
    return len(m) == n and sorted(m) == list(range(n))


def check_algebra_iso(src, dst, m):
    """m must be a bijection preserving every table of src onto dst."""
    names, mult, star, plus, zero = src
    _, mult2, star2, plus2, zero2 = dst
    n = len(names)
    expect(m is not None, "no isomorphism returned")
    expect(_is_bijection(m, n), "map is not a bijection")
    for i in range(n):
        expect(m[star[i]] == star2[m[i]], f"star not preserved at {i}")
        if plus is not None:
            expect(m[plus[i]] == plus2[m[i]], f"plus not preserved at {i}")
        row, row2 = mult[i], mult2[m[i]]
        for j in range(n):
            expect(m[row[j]] == row2[m[j]], f"mult not preserved at {i},{j}")
    expect(zero is None or m[zero] == zero2, "zero not preserved")


def check_category_iso(src, dst, iso):
    """iso = (object map, arrow map) must be a functor bijective on
    objects and arrows, from the src tables onto the dst tables."""
    objects, arrows, d, r, unit, comp = src
    _, _, d2, r2, unit2, comp2 = dst
    expect(iso is not None, "no isomorphism returned")
    omap, amap = iso
    expect(_is_bijection(omap, len(objects)), "object map is not a bijection")
    expect(_is_bijection(amap, len(arrows)), "arrow map is not a bijection")
    for o in range(len(objects)):
        expect(amap[unit[o]] == unit2[omap[o]], f"unit not preserved at {o}")
    for x in range(len(arrows)):
        expect(omap[d[x]] == d2[amap[x]] and omap[r[x]] == r2[amap[x]],
               f"d/r not preserved at {x}")
        for y in range(len(arrows)):
            if d[x] == r[y]:
                expect(amap[comp[x][y]] == comp2[amap[x]][amap[y]],
                       f"comp not preserved at {x},{y}")


def mult_violation(src, dst, m):
    """First (i, j) with m(i*j) != m(i)*m(j), or None."""
    mult, mult2 = src[1], dst[1]
    for i, row in enumerate(mult):
        row2 = mult2[m[i]]
        for j, v in enumerate(row):
            if m[v] != row2[m[j]]:
                return (i, j)
    return None


def corrupt(src, dst, m, rng):
    """Swap the images of a seeded pair of elements so that the map stops
    preserving products; the pairs tried follow the seed."""
    n = len(m)
    for _ in range(64):
        a, b = rng.sample(range(n), 2)
        bad = list(m)
        bad[a], bad[b] = m[b], m[a]
        if mult_violation(src, dst, bad) is not None:
            return tuple(bad)
    raise Mismatch("no corrupting swap found")


def check_rejection(src, dst, bad, verdict):
    """A corrupted map must be rejected with a witness that re-checks on
    the raw tables."""
    expect(not verdict.ok, f"corrupted map accepted at type {verdict.mtype}")
    mult, star = src[1], src[2]
    mult2, star2 = dst[1], dst[2]
    w = verdict.witness
    if verdict.failed == "mult":
        i, j = w
        expect(bad[mult[i][j]] != mult2[bad[i]][bad[j]],
               f"mult witness {w} does not re-check")
    elif verdict.failed == "star":
        (i,) = w
        expect(bad[star[i]] != star2[bad[i]],
               f"star witness {w} does not re-check")
    else:
        raise Mismatch(f"witness kind {verdict.failed!r} cannot be re-checked")
