"""Traced memory peaks of the numpy kernels.

Apart from the tables an algebra keeps (its int16 product table and join
matrices) and the refinement's signature matrix, no kernel holds a
temporary of more than _CHUNK_CELLS cells: a whole-table scan takes a
block of rows at a time (README "Bounded temporaries").  The peaks are
those tracemalloc sees above what was traced before the call.  A table
given as lists is held as rows sharing one int object per element.
"""

import json
import random
import tracemalloc

import pytest

from stonedual.algebra import (SemigroupMorphism, check_morphism, classify,
                               iso_algebras, make_algebra)
from stonedual.io import load_instance, save_instance
from stonedual.zoo import gen_pt


def traced_peak_mb(call):
    """The most memory traced while call() ran, in MB."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - before) / 1e6
    finally:
        tracemalloc.stop()


def fresh(X):
    """The algebra X built anew by make_algebra from list tables, with
    nothing derived yet."""
    return make_algebra(X.names, [list(row) for row in X.mult], list(X.star),
                        None if X.plus is None else list(X.plus), X.zero)


def relabelled_pair(S, seed):
    """(S, T, bad): S, a copy T relabelled by a seeded permutation p, and
    p with two images swapped so that it is no homomorphism."""
    rng = random.Random(seed)
    n = S.n
    p = rng.sample(range(n), n)
    inv = sorted(range(n), key=p.__getitem__)
    T = make_algebra([S.names[i] for i in inv],
                     [[p[S.mult[i][j]] for j in inv] for i in inv],
                     [p[S.star[i]] for i in inv], [p[S.plus[i]] for i in inv],
                     None if S.zero is None else p[S.zero])
    a, b = rng.sample(range(n), 2)
    bad = list(p)
    bad[a], bad[b] = p[b], p[a]
    return S, T, tuple(bad)


def relabel_query(S, T, bad):
    """The relabel workload's query: an isomorphism, then whether it and
    the failing map pass each morphism type."""
    m = iso_algebras(S, T)
    return [check_morphism(SemigroupMorphism(S, T, f), t).ok
            for f in (m, bad) for t in (1, 2, 3, 4)]


def zero_adjoined_cyclic(n):
    """Z_n with a zero adjoined, star and plus sending the group to 0."""
    z = n
    mult = [[(i + j) % n for j in range(n)] + [z] for i in range(n)]
    unary = [0] * n + [z]
    return make_algebra([str(i) for i in range(n + 1)],
                        mult + [[z] * (n + 1)], unary, unary, z)


@pytest.fixture(scope="module")
def pt4_pair():
    return relabelled_pair(gen_pt(4), 7)


def test_relabel_query_on_pt4_stays_bounded(numpy_kernel, pt4_pair):
    # what is left is the refinement's signature matrix (625 x 628 int32)
    # and its row strings, about 1.6 MB each
    S, T, bad = pt4_pair
    S, T, verdicts = fresh(S), fresh(T), []
    peak = traced_peak_mb(lambda: verdicts.extend(relabel_query(S, T, bad)))
    assert verdicts == [True] * 4 + [False] * 4
    assert peak <= 3.6


def test_classify_on_pt4_stays_at_its_order_blocks(numpy_kernel, pt4_pair):
    # every flag forced; the peak is set by _least_array's blocks and the
    # join matrices it keeps, and no other scan rises above it
    S = fresh(pt4_pair[0])
    assert traced_peak_mb(lambda: classify(S).flags) <= 4.9


def test_list_tables_keep_one_int_per_element(pt4_pair):
    # decoded from JSON, every cell above 256 is its own int object; the
    # rows are rebuilt from the int16 table, one int object per element
    S = pt4_pair[1]
    rows = json.loads(json.dumps([list(row) for row in S.mult]))
    assert len({id(v) for row in rows for v in row}) > 100_000
    T = make_algebra(S.names, rows, S.star, S.plus, S.zero)
    assert T.mult == S.mult
    assert len({id(v) for row in T.mult for v in row}) <= T.n


def test_tuple_rows_are_kept_as_given(pt4_pair):
    # a tuple of tuples is kept whole, and tuple rows one by one
    S = pt4_pair[0]
    for rows in (S.mult, list(S.mult)):
        T = make_algebra(S.names, rows, S.star, S.plus, S.zero)
        assert (T.mult is rows) == (type(rows) is tuple)
        assert all(a is b for a, b in zip(T.mult, rows, strict=True))


def test_loaded_table_holds_one_int_per_element(tmp_path, pt4_pair):
    # what load_instance holds once it returns: the rows (about 3.2 MB of
    # tuples) and the int16 table (0.8 MB), where rows of decoded ints held
    # about 9.3 MB.  numpy is imported first, so that its import is not
    # counted
    import numpy
    path = tmp_path / "pt4.json"
    save_instance(pt4_pair[1], path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        T = load_instance(path)
        held = (tracemalloc.get_traced_memory()[0] - before) / 1e6
    finally:
        tracemalloc.stop()
    assert T.mult == pt4_pair[1].mult
    assert held <= 5


@pytest.mark.slow
def test_relabel_query_at_the_size_bound_stays_bounded():
    # 1,000 elements: the signature matrix and its row strings take
    # about 4 MB each
    S, T, bad = relabelled_pair(zero_adjoined_cyclic(999), 11)
    verdicts = []
    peak = traced_peak_mb(lambda: verdicts.extend(relabel_query(S, T, bad)))
    assert verdicts == [True] * 4 + [False] * 4
    assert peak <= 9
