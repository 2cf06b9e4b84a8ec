import random

import pytest
from hypothesis import given, strategies as st

from heavycol import (
    UniverseSpec,
    branch_set,
    conjugate_of,
    consistent_rows,
    enumerate_universe,
    find_unpaired,
    heavy_columns,
    parse_matrix,
    reduce,
    sequential_reduction,
)
from heavycol.matrix import ColumnOutOfRange, IndexOutOfRange
from heavycol.structure import BadOrder, NoColumnLeft

from conftest import matrices

CUBE2 = parse_matrix("00\n10\n01\n11")


def test_reduce_examples():
    m = parse_matrix("10\n01")
    assert reduce(m, 1, 0).rows == (1,)
    assert reduce(m, 1, 1).rows == (0,)
    assert reduce(parse_matrix("11\n10"), 2, 0).rows == (1,)
    assert reduce(parse_matrix("11\n01"), 2, 0) is None  # all-ones column


def test_reduce_errors():
    with pytest.raises(ColumnOutOfRange):
        reduce(parse_matrix("10"), 3, 0)
    with pytest.raises(NoColumnLeft):
        reduce(parse_matrix("0"), 1, 0)
    assert reduce(parse_matrix("0"), 1, 1) is None  # no match, no error


def test_branch_set_examples():
    bs = branch_set(parse_matrix("10\n01"), 1)
    assert [(b, s.rows) for b, s in bs.branches] == [(0, (1,)), (1, (0,))]
    bs = branch_set(parse_matrix("11\n01"), 2)
    assert [(b, s.rows) for b, s in bs.branches] == [(1, (1, 0))]
    bs = branch_set(parse_matrix("00\n01"), 1)
    assert [(b, s.rows) for b, s in bs.branches] == [(0, (0, 1))]


def test_conjugate_examples():
    assert conjugate_of(parse_matrix("00\n10"), 1, 1) == 2
    assert conjugate_of(parse_matrix("00\n01\n10"), 2, 1) is None
    assert conjugate_of(parse_matrix("00\n11"), 1, 1) is None
    with pytest.raises(IndexOutOfRange):
        conjugate_of(parse_matrix("00\n10"), 3, 1)


def test_conjugate_duplicates_smallest_index():
    m = parse_matrix("0\n1\n1")
    assert conjugate_of(m, 1, 1) == 2


def test_find_unpaired_examples():
    assert find_unpaired(parse_matrix("00\n01\n10")) == (2, 1)
    assert find_unpaired(CUBE2) is None
    assert find_unpaired(parse_matrix("0")) == (1, 1)


def test_consistent_rows_examples():
    assert consistent_rows(parse_matrix("00\n01"), 1, 2) == {1, 2}
    assert consistent_rows(parse_matrix("00\n01\n10"), 2, 1) == {2}
    assert consistent_rows(parse_matrix("00\n11"), 1, 1) == {1}


def test_sequential_reduction_examples():
    t = sequential_reduction(parse_matrix("00\n01\n10"), 2, 1)
    assert t.steps == ((2, 1, 1),)
    assert t.terminal.rows == (0,) and t.survivors == (2,)

    t = sequential_reduction(CUBE2, 1, 2)
    assert set(t.survivors) == consistent_rows(CUBE2, 1, 2)
    assert sorted(t.terminal.rows) == [0, 1]

    t = sequential_reduction(parse_matrix("0"), 1, 1)
    assert t.steps == () and t.terminal.rows == (0,)


def test_sequential_reduction_bad_order():
    m = parse_matrix("00\n01\n10")
    with pytest.raises(BadOrder):
        sequential_reduction(m, 1, 1, order=(1,))
    with pytest.raises(BadOrder):
        sequential_reduction(parse_matrix("0"), 1, 1, order=(1,))
    with pytest.raises(IndexOutOfRange):
        sequential_reduction(m, 9, 1)


def _reduction_chain(matrix, i, order):
    """The reference trace: one literal row-filter/column-delete per step,
    through `reduce`, tracking where each original column now sits."""
    source = matrix.rows[i - 1]
    remaining = list(range(1, matrix.n + 1))
    current = matrix
    counts = []
    for k in order:
        current = reduce(current, remaining.index(k) + 1, (source >> (k - 1)) & 1)
        remaining.remove(k)
        counts.append(current.m)
    return current, counts


def _check_against_chain(matrix, i, l, order=None):
    t = sequential_reduction(matrix, i, l, order=order)
    ascending = [k for k in range(1, matrix.n + 1) if k != l]
    chain, counts = _reduction_chain(matrix, i, ascending if order is None else order)
    assert t.terminal == chain
    assert [left for _, _, left in t.steps] == counts
    assert set(t.survivors) == consistent_rows(matrix, i, l)


def test_sequential_reduction_matches_reduce_chain():
    # every anchor of U(1..3) in ascending and in shuffled order, then the
    # no-heavy U(4) matrices at the anchor the claim scan reduces from
    rng = random.Random(20)
    for n in (1, 2, 3):
        for matrix in enumerate_universe(UniverseSpec(n=n)):
            for i in range(1, matrix.m + 1):
                for l in range(1, n + 1):
                    _check_against_chain(matrix, i, l)
                    order = [k for k in range(1, n + 1) if k != l]
                    rng.shuffle(order)
                    _check_against_chain(matrix, i, l, order)
    no_heavy = [m for m in enumerate_universe(UniverseSpec(n=4)) if not heavy_columns(m)]
    assert len(no_heavy) == 2304
    for matrix in no_heavy:
        _check_against_chain(matrix, *find_unpaired(matrix))


@given(matrices())
def test_partition_across_branches(m):
    for k in range(1, m.n + 1):
        if m.n == 1:
            continue
        bs = branch_set(m, k)
        assert sum(sub.m for _, sub in bs.branches) == m.m
        for b, sub in bs.branches:
            assert sub.n == m.n - 1
            assert sub.m >= 1


@given(matrices(distinct_rows=True))
def test_branches_preserve_distinct_rows(m):
    if m.n == 1:
        return
    for k in range(1, m.n + 1):
        for _, sub in branch_set(m, k).branches:
            assert len(set(sub.rows)) == sub.m


@given(matrices(distinct_rows=True))
def test_conjugacy_symmetric(m):
    for i in range(1, m.m + 1):
        for k in range(1, m.n + 1):
            j = conjugate_of(m, i, k)
            if j is not None:
                assert conjugate_of(m, j, k) == i


@given(matrices(distinct_rows=True))
def test_zero_row_conjugates_injective(m):
    for k in range(1, m.n + 1):
        images = [
            conjugate_of(m, i, k)
            for i in range(1, m.m + 1)
            if m.entry(i, k) == 0 and conjugate_of(m, i, k) is not None
        ]
        assert len(images) == len(set(images))


@given(matrices(), st.integers(0, 2**32))
def test_terminal_is_order_independent(m, seed):
    rng = random.Random(seed)
    i = rng.randrange(1, m.m + 1)
    l = rng.randrange(1, m.n + 1)
    order = [k for k in range(1, m.n + 1) if k != l]
    rng.shuffle(order)
    base = sequential_reduction(m, i, l)
    other = sequential_reduction(m, i, l, order=order)
    assert base.terminal.rows == other.terminal.rows
    assert base.survivors == other.survivors
    assert set(base.survivors) == consistent_rows(m, i, l)


@given(matrices(distinct_rows=True))
def test_unpaired_witness_gives_all_zero_terminal(m):
    pair = find_unpaired(m)
    if pair is None:
        return
    i, l = pair
    t = sequential_reduction(m, i, l)
    assert t.terminal.rows == (0,) * len(t.survivors)
