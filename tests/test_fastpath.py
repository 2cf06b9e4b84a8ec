"""Differential test: the raw-row recursion against the listings over matrices.

`run_a1`/`run_a2` recurse on raw row bit patterns below a validated root.
The reference here transcribes the two listings over `BinaryMatrix` with the
library's own matrix primitives (`branch_set`, `reduce`, `has_heavy_column`,
`is_heavy`, `column_weight`), one validated matrix per frame.  Both must agree
on the verdict, the witness (tag, column, line) and the recursion statistics
(calls, max_depth, cache_hits) on every input below.
"""

import random

import pytest

from heavycol import AlgoConfig, BinaryMatrix, enumerate_universe, UniverseSpec
from heavycol.algorithms import (
    ASCENDING,
    CHILD_FALSE,
    EXHAUSTED_TRUE,
    KEY_CONDITION,
    M1_BASE,
    N1_BASE,
    NOHEAVY_CHILD,
    _A1_LINES,
    _A2_LINES,
    _order_for,
    run_a1,
    run_a2,
    shuffled_order,
)
from heavycol.matrix import column_weight, has_heavy_column, is_heavy
from heavycol.structure import branch_set, reduce


class _RefRun:
    def __init__(self, order, memoize):
        self.calls = 0
        self.max_depth = 0
        self.cache_hits = 0
        self.cache = {} if memoize else None
        self.order = order
        self.witness = None

    def enter(self, depth):
        self.calls += 1
        self.max_depth = max(self.max_depth, depth)


def _ref_a1(matrix, depth, ctx):
    ctx.enter(depth)
    if matrix.n == 1:
        value = is_heavy(matrix, 1)
        if depth == 0:
            ctx.witness = (N1_BASE, 1)
        return value

    key = None
    if ctx.cache is not None:
        key = ("a1", matrix.n, tuple(sorted(matrix.rows)), ctx.order)
        if key in ctx.cache:
            ctx.cache_hits += 1
            return ctx.cache[key]

    value, tag, col = True, EXHAUSTED_TRUE, None
    for k in _order_for(ctx.order, matrix.n):
        branches = branch_set(matrix, k).branches
        if any(not has_heavy_column(sub) for _, sub in branches):
            value, tag, col = False, NOHEAVY_CHILD, k
            break
        if any(not _ref_a1(sub, depth + 1, ctx) for _, sub in branches):
            value, tag, col = False, CHILD_FALSE, k
            break

    if ctx.cache is not None:
        ctx.cache[key] = value
    if depth == 0:
        ctx.witness = (tag, col)
    return value


def _ref_a2(matrix, depth, ctx):
    ctx.enter(depth)
    if matrix.m == 1 and matrix.n > 1:
        if depth == 0:
            ctx.witness = (M1_BASE, None)
        return True
    if matrix.n == 1:
        value = is_heavy(matrix, 1)
        if depth == 0:
            ctx.witness = (N1_BASE, 1)
        return value

    key = None
    if ctx.cache is not None:
        key = ("a2", matrix.n, tuple(sorted(matrix.rows)))
        if key in ctx.cache:
            ctx.cache_hits += 1
            return ctx.cache[key]

    value, tag, col = True, EXHAUSTED_TRUE, None
    for k in range(1, matrix.n + 1):
        sub0 = reduce(matrix, k, 0)
        sub1 = reduce(matrix, k, 1)
        if matrix.m - column_weight(matrix, k) == 1:
            value, tag, col = True, KEY_CONDITION, k
            break
        branches = [sub for sub in (sub0, sub1) if sub is not None]
        if any(not has_heavy_column(sub) for sub in branches):
            value, tag, col = False, NOHEAVY_CHILD, k
            break
        if any(not _ref_a2(sub, depth + 1, ctx) for sub in branches):
            value, tag, col = False, CHILD_FALSE, k
            break

    if ctx.cache is not None:
        ctx.cache[key] = value
    if depth == 0:
        ctx.witness = (tag, col)
    return value


def _reference(algo, matrix, order=ASCENDING, memoize=False):
    ctx = _RefRun(order, memoize)
    recurse, lines = (_ref_a1, _A1_LINES) if algo == "a1" else (_ref_a2, _A2_LINES)
    value = recurse(matrix, 0, ctx)
    tag, col = ctx.witness
    return (value, tag, col, lines[(tag, value)], ctx.calls, ctx.max_depth, ctx.cache_hits)


def _fast(algo, matrix, order=ASCENDING, memoize=False):
    if algo == "a1":
        v = run_a1(matrix, AlgoConfig(column_order=order, memoize=memoize))
    else:
        v = run_a2(matrix, memoize=memoize)
    w, s = v.witness, v.stats
    return (v.value, w.tag, w.column, w.line, s.calls, s.max_depth, s.cache_hits)


def _mismatches(matrices, runs):
    bad = []
    for matrix in matrices:
        for algo, order, memoize in runs:
            ref = _reference(algo, matrix, order, memoize)
            got = _fast(algo, matrix, order, memoize)
            if got != ref:
                bad.append((matrix.rows, matrix.n, algo, order, memoize, ref, got))
    return bad


PLAIN_AND_MEMO = [(algo, ASCENDING, memo) for algo in ("a1", "a2") for memo in (False, True)]


def _u4_slice(count, seed):
    ranks = random.Random(seed).sample(range(1, 2**16), count)
    return [BinaryMatrix(tuple(v for v in range(16) if (rank >> v) & 1), 4) for rank in ranks]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_all_of_small_universes(n):
    universe = list(enumerate_universe(UniverseSpec(n=n)))
    assert len(universe) == 2 ** (2**n) - 1
    shuffled = [("a1", shuffled_order(seed), memo) for seed in range(3) for memo in (False, True)]
    assert _mismatches(universe, PLAIN_AND_MEMO + shuffled) == []


def test_seeded_slice_of_u4():
    assert _mismatches(_u4_slice(2000, 3), PLAIN_AND_MEMO) == []


def test_full_cube_up_to_6():
    cubes = [BinaryMatrix(tuple(range(2**n)), n) for n in range(1, 7)]
    assert _mismatches(cubes, PLAIN_AND_MEMO) == []


def test_duplicate_rows_and_row_order():
    # the recursion must keep repeated rows and any row order, as the
    # matrix-based listings do
    rng = random.Random(11)
    matrices = []
    for _ in range(300):
        n = rng.randint(1, 4)
        rows = tuple(rng.randrange(2**n) for _ in range(rng.randint(1, 9)))
        matrices.append(BinaryMatrix(rows, n))
    explicit = [("a1", ("explicit", (3, 1, 4, 2)), False)]
    assert _mismatches(matrices, PLAIN_AND_MEMO) == []
    wide = [m for m in matrices if m.n == 4]
    assert wide and _mismatches(wide, explicit) == []
