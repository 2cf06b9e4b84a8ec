"""Differential test: the mask recursion against the listings over row tuples.

`run_a1`/`run_a2` recurse on a bitmask below a validated root: of root rows
in general, and of row values for a plain run of a distinct-row root with at
most 7 columns, whose sub-frames of 3 or 2 columns the process-wide tables
serve.  The reference here transcribes the two listings over plain sorted
row tuples, with its own reduce and column count and no library matrix
primitive.  Both must agree on the verdict, the witness (tag, column, line)
and the recursion statistics (calls, max_depth, cache_hits) on every input
below, and the tables must stay within their per-width key bound.
"""

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import cache
from itertools import permutations
from math import comb

import pytest

from heavycol import BinaryMatrix, enumerate_universe, parse_matrix, UniverseSpec
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
    _value_plan,
    explicit_order,
    run_a1,
    run_a2,
    shuffled_order,
)
from heavycol.structure import reduce


def _reduce(rows, k, v):
    """The v-reduction of column k: rows with v there, column k deleted.  Order
    is kept, so sorted rows give sorted rows."""
    low = (1 << (k - 1)) - 1
    return tuple([r & low | r >> 1 & ~low for r in rows if r >> (k - 1) & 1 == v])


def _ones(rows, k):
    """Ones in column k."""
    return [r >> (k - 1) & 1 for r in rows].count(1)


def _no_heavy(rows, n):
    """Has every column more zeros than ones?"""
    m = len(rows)
    for k in range(1, n + 1):
        if 2 * _ones(rows, k) >= m:
            return False
    return True


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
        if depth > self.max_depth:
            self.max_depth = depth


def _ref_a1(rows, n, depth, ctx):
    ctx.enter(depth)
    if n == 1:
        if depth == 0:
            ctx.witness = (N1_BASE, 1)
        return 2 * _ones(rows, 1) >= len(rows)

    key = None
    if ctx.cache is not None:
        key = ("a1", n, rows, ctx.order)
        if key in ctx.cache:
            ctx.cache_hits += 1
            return ctx.cache[key]

    value, tag, col = True, EXHAUSTED_TRUE, None
    for k in _order_for(ctx.order, n):
        branches = [sub for sub in (_reduce(rows, k, 0), _reduce(rows, k, 1)) if sub]
        if any(_no_heavy(sub, n - 1) for sub in branches):
            value, tag, col = False, NOHEAVY_CHILD, k
            break
        if not all(_ref_a1(sub, n - 1, depth + 1, ctx) for sub in branches):
            value, tag, col = False, CHILD_FALSE, k
            break

    if ctx.cache is not None:
        ctx.cache[key] = value
    if depth == 0:
        ctx.witness = (tag, col)
    return value


def _ref_a2(rows, n, depth, ctx):
    ctx.enter(depth)
    if len(rows) == 1 and n > 1:
        if depth == 0:
            ctx.witness = (M1_BASE, None)
        return True
    if n == 1:
        if depth == 0:
            ctx.witness = (N1_BASE, 1)
        return 2 * _ones(rows, 1) >= len(rows)

    key = None
    if ctx.cache is not None:
        key = ("a2", n, rows)
        if key in ctx.cache:
            ctx.cache_hits += 1
            return ctx.cache[key]

    value, tag, col = True, EXHAUSTED_TRUE, None
    for k in range(1, n + 1):
        sub0 = _reduce(rows, k, 0)
        # line 12 is formed after the key test: it changes nothing on a frame
        # that returns at line 14
        if len(sub0) == 1:
            value, tag, col = True, KEY_CONDITION, k
            break
        branches = [sub for sub in (sub0, _reduce(rows, k, 1)) if sub]
        if any(_no_heavy(sub, n - 1) for sub in branches):
            value, tag, col = False, NOHEAVY_CHILD, k
            break
        if not all(_ref_a2(sub, n - 1, depth + 1, ctx) for sub in branches):
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
    # sorted, so each frame's rows are the sorted multiset the memo cache keys on
    value = recurse(tuple(sorted(matrix.rows)), matrix.n, 0, ctx)
    tag, col = ctx.witness
    return (value, tag, col, lines[(tag, value)], ctx.calls, ctx.max_depth, ctx.cache_hits)


def _fast(algo, matrix, order=ASCENDING, memoize=False):
    if algo == "a1":
        v = run_a1(matrix, order=order, memoize=memoize)
    else:
        v = run_a2(matrix, memoize=memoize)
    w, s = v.witness, v.stats
    return (v.value, w.tag, w.column, w.line, s.calls, s.max_depth, s.cache_hits)


def _mismatches(matrices, runs, accepted=None):
    """The runs where the recursion and the reference differ; the matrices
    that the reference's plain a2 run accepts go into `accepted`, if given."""
    bad = []
    for matrix in matrices:
        for algo, order, memoize in runs:
            ref = _reference(algo, matrix, order, memoize)
            got = _fast(algo, matrix, order, memoize)
            if got != ref:
                bad.append((matrix.rows, matrix.n, algo, order, memoize, ref, got))
            if accepted is not None and ref[0] and (algo, memoize) == ("a2", False):
                accepted.append(matrix)
    return bad


def _constrained(matrix):
    """Has the matrix distinct columns and no all-zero column?"""
    columns = [tuple(r >> k & 1 for r in matrix.rows) for k in range(matrix.n)]
    return len(set(columns)) == len(columns) and all(map(any, columns))


# a2's True verdicts under the listings over all of U(n), and over the
# constrained matrices of U(n) alone
_A2_ACCEPTS = {1: (2, 2), 2: (14, 7), 3: (184, 127), 4: (17_283, 15_790)}


def _assert_a2_accepts(accepted, n):
    assert (len(accepted), sum(map(_constrained, accepted))) == _A2_ACCEPTS[n]


PLAIN_AND_MEMO = [(algo, ASCENDING, memo) for algo in ("a1", "a2") for memo in (False, True)]


def _u4_slice(count, seed):
    ranks = random.Random(seed).sample(range(1, 2**16), count)
    return [BinaryMatrix(tuple(v for v in range(16) if (rank >> v) & 1), 4) for rank in ranks]


def _up_closure(generators, n):
    rows = set()
    for g in generators:
        free = [1 << b for b in range(n) if not g >> b & 1]
        for pick in range(1 << len(free)):
            rows.add(g | sum(bit for j, bit in enumerate(free) if pick >> j & 1))
    return sorted(rows)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_all_of_small_universes(n):
    universe = list(enumerate_universe(UniverseSpec(n=n)))
    assert len(universe) == 2 ** (2**n) - 1
    shuffled = [("a1", shuffled_order(seed), memo) for seed in range(3) for memo in (False, True)]
    accepted = []
    assert _mismatches(universe, PLAIN_AND_MEMO + shuffled, accepted) == []
    _assert_a2_accepts(accepted, n)


def test_seeded_slice_of_u4():
    assert _mismatches(_u4_slice(2000, 3), PLAIN_AND_MEMO) == []


@cache
def _u4():
    return list(enumerate_universe(UniverseSpec(n=4)))


@pytest.mark.parametrize("algo", ["a1", "a2"])
def test_all_of_u4(algo):
    accepted = []
    assert _mismatches(_u4(), [(algo, ASCENDING, False)], accepted) == []
    if algo == "a2":
        _assert_a2_accepts(accepted, 4)


def test_fresh_and_warm_tables_agree():
    # a warm table, filled in reverse rank order, must give what an empty one
    # gives; a1's frames over U(4) are the benchmark's pinned 404,661
    def runs(matrices):
        return [(_fast("a1", m), _fast("a2", m)) for m in matrices]

    _value_plan.cache_clear()
    fresh = runs(_u4())
    _value_plan.cache_clear()
    backwards = runs(reversed(_u4()))
    assert runs(_u4()) == fresh == backwards[::-1]
    assert sum(a1[4] for a1, _ in fresh) == 404_661
    assert _value_plan.cache_info().currsize == 2
    for a2 in (False, True):
        assert 0 < len(_value_plan(a2, ASCENDING, 4)[1]) <= _table_bound(4) == 2_400


def _table_bound(n):
    """Most keys a table of n-column roots can hold: a tabled frame has 3 or 2
    columns and a nonempty set of the 8 or 4 values of one subcube (the
    deleted columns' values fixed)."""
    return comb(n, 3) * 2 ** (n - 3) * 255 + comb(n, 2) * 2 ** (n - 2) * 15


def _wide_runs(n):
    explicit = explicit_order(tuple(k for k in (4, 7, 1, 6, 2, 5, 3) if k <= n))
    return [
        ("a1", ASCENDING), ("a2", ASCENDING),
        ("a1", shuffled_order(1)), ("a1", shuffled_order(2)), ("a1", explicit),
    ]


@cache
def _wide_cases():
    # distinct-row roots of 5-7 columns, which recurse on values: sparse and
    # half-cube random row sets, which mostly stop a few levels down, and a
    # few up-closures plus one stray row, which recurse to the 2-column frames
    rng = random.Random(5)
    roots = []
    for n, closures in ((5, 4), (6, 3), (7, 2)):
        for m in (n + 2, 2 ** (n - 1)):
            roots += [BinaryMatrix(tuple(sorted(rng.sample(range(2**n), m))), n) for _ in range(8)]
        generators = [g for g in range(2**n) if g.bit_count() >= n - 2]
        for _ in range(closures):
            rows = set(_up_closure(rng.sample(generators, 3), n)) | {rng.randrange(2**n)}
            roots.append(BinaryMatrix(tuple(sorted(rows)), n))
    return [(matrix, algo, order) for matrix in roots for algo, order in _wide_runs(matrix.n)]


def test_wide_roots_fresh_and_warm_tables():
    # below a root of n <= 7 columns, frames of 3 or 2 columns come from the
    # table and wider ones run; an empty table and a warm one, read in the
    # other order, must both give the listings' results
    pairs = [((m, algo, order), _reference(algo, m, order)) for m, algo, order in _wide_cases()]
    _value_plan.cache_clear()
    for sweep in (pairs, pairs[::-1]):
        bad = [
            (matrix.rows, matrix.n, algo, order)
            for (matrix, algo, order), want in sweep
            if _fast(algo, matrix, order) != want
        ]
        assert bad == []


def test_tables_hold_frames_of_at_most_3_columns():
    _value_plan.cache_clear()
    for matrix, algo, order in _wide_cases():
        _fast(algo, matrix, order)
    for n in (5, 6, 7):
        cube = BinaryMatrix(tuple(range(2**n)), n)
        _fast("a1", cube), _fast("a2", cube)
    plans = {(algo == "a2", order, matrix.n) for matrix, algo, order in _wide_cases()}
    assert _value_plan.cache_info().currsize == len(plans)
    for a2, order, n in plans:
        table = _value_plan(a2, order, n)[1]
        assert table and max(len(cols) for _, cols in table) <= 3
        assert len(table) <= _table_bound(n)
    assert [_table_bound(n) for n in (5, 6, 7)] == [11_400, 44_400, 152_880]


def test_tables_never_serve_duplicate_rows_or_memoized_runs():
    _value_plan.cache_clear()
    for m in enumerate_universe(UniverseSpec(n=3)):
        run_a1(m), run_a2(m)
    tables = {a2: dict(_value_plan(a2, ASCENDING, 3)[1]) for a2 in (False, True)}
    assert all(tables.values())
    rng = random.Random(5)
    for _ in range(300):
        # duplicate rows and memoized runs up to 7 columns, and any root of 8
        n = rng.randint(2, 8)
        rows = [rng.randrange(2**n) for _ in range(rng.randint(1, 8))]
        distinct = BinaryMatrix(tuple(set(rows)), n)
        runs = [(BinaryMatrix(tuple(rows + rows[:1]), n), False), (distinct, True)]
        if n == 8:
            runs.append((distinct, False))
        for matrix, memoize in runs:
            run_a1(matrix, memoize=memoize), run_a2(matrix, memoize=memoize)
            run_a1(matrix, order=shuffled_order(1), memoize=memoize)
    for _ in range(5):
        # more rows than the 128 values of 7 columns: repeated by count alone
        tall = BinaryMatrix(tuple(rng.randrange(128) for _ in range(rng.randint(129, 200))), 7)
        for memoize in (False, True):
            run_a1(tall, memoize=memoize), run_a2(tall, memoize=memoize)
    assert _value_plan.cache_info().currsize == 2
    assert {a2: _value_plan(a2, ASCENDING, 3)[1] for a2 in (False, True)} == tables


def test_threads_sharing_a_table_agree():
    # entries are immutable and equal whichever run writes them, so runs
    # that miss the same key at once may both store it; none sees a wrong one
    matrices = _u4_slice(1500, 8)
    _value_plan.cache_clear()
    expected = [_fast("a2", m) for m in matrices]
    _value_plan.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(lambda ms: [_fast("a2", m) for m in ms], matrices[i:] + matrices[:i])
                for i in (0, 400, 800, 1200)
            ]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for i, got in zip((0, 400, 800, 1200), results):
        assert got == expected[i:] + expected[:i]


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a1_every_explicit_order(n):
    universe = list(enumerate_universe(UniverseSpec(n=n)))
    runs = [
        ("a1", explicit_order(perm), memo)
        for perm in permutations(range(1, n + 1))
        for memo in (False, True)
    ]
    assert _mismatches(universe, runs) == []


def test_wide_and_tall_matrices_with_duplicates():
    # more than 64 rows, so every root mask is wider than a machine word;
    # half are drawn from a few distinct rows, half from up-closures (plus
    # one stray row), which recurse deeper before an exit
    rng = random.Random(23)
    matrices = []
    for i in range(60):
        if i % 2:
            n = rng.randint(5, 7)
            pool = _up_closure([rng.randrange(2**n) for _ in range(rng.randint(1, 3))], n)
            pool.append(rng.randrange(2**n))
        else:
            n = rng.randint(5, 10)
            pool = [rng.randrange(2**n) for _ in range(rng.randint(2, 40))]
        rows = tuple(rng.choice(pool) for _ in range(rng.randint(65, 200)))
        matrices.append(BinaryMatrix(rows, n))
    assert min(m.m for m in matrices) > 64
    assert any(len(set(m.rows)) < m.m for m in matrices)
    assert _mismatches(matrices, PLAIN_AND_MEMO) == []


def test_memo_key_is_the_projected_row_multiset():
    # the 0-reductions of columns 1 and 2 keep different root rows (011 and
    # 101) but both project to the one row 11; likewise their 1-reductions,
    # and column 3's.  A cache keyed on the root-row mask would hit nothing.
    matrix = parse_matrix("011\n101\n110\n111")
    zero_in = [{i for i, r in enumerate(matrix.rows) if not r >> (k - 1) & 1} for k in (1, 2, 3)]
    assert len({frozenset(z) for z in zero_in}) == 3
    assert reduce(matrix, 1, 0).rows == reduce(matrix, 2, 0).rows == reduce(matrix, 3, 0).rows
    assert sorted(reduce(matrix, 1, 1).rows) == sorted(reduce(matrix, 2, 1).rows)

    memo = _fast("a1", matrix, memoize=True)
    assert memo == _reference("a1", matrix, memoize=True)
    assert memo[:2] == (True, EXHAUSTED_TRUE)
    # the root computes column 1's children {11} (3 calls) and {01, 10, 11}
    # (5 calls); the four children of columns 2 and 3 are one-call hits
    assert memo[4:] == (1 + 3 + 5 + 4, 2, 4)
    assert _fast("a1", matrix)[4] == 1 + 3 * (3 + 5)


def test_full_cube_growth_follows_its_recurrences():
    # Every reduction of the n-cube, on any column and either value, is the
    # (n-1)-cube, and every cube column is heavy.  So no exit fires early (the
    # key condition needs one zero, a cube column has 2^(n-1)), every frame
    # visits all 2n children, and both procedures count alike:
    #   plain:     c(1) = 1, c(n) = 1 + 2n c(n-1);
    #   memoized:  the first child computes the (n-1)-cube and the other 2n-1
    #              are cache hits, except that n = 1 frames return before the
    #              cache lookup; so M(n) = M(n-1) + 2n = n(n+1) - 1, with
    #              hits h(2) = 0, h(n) = h(n-1) + 2n - 1;
    #   depth:     one level per deleted column, n - 1.
    plain, hits = 1, 0
    for n in range(1, 8):
        if n > 1:
            plain = 1 + 2 * n * plain
        if n > 2:
            hits += 2 * n - 1
        cube = BinaryMatrix(tuple(range(2**n)), n)
        for algo in ("a1", "a2"):
            got = _fast(algo, cube)
            assert got[:2] == (True, N1_BASE if n == 1 else EXHAUSTED_TRUE)
            assert got[4:] == (plain, n - 1, 0)
            assert _fast(algo, cube, memoize=True)[4:] == (n * (n + 1) - 1, n - 1, hits)
    assert plain == 418_503
