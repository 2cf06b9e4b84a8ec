import dataclasses
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from heavycol import (
    BinaryMatrix,
    UniverseSpec,
    enumerate_universe,
    heavy_columns,
    is_heavy,
    matrix_properties,
    parse_matrix,
    permute_columns,
    run_a1,
    run_a2,
    run_memoized,
)
from heavycol.algorithms import (
    BudgetExceeded,
    CHILD_FALSE,
    EXHAUSTED_TRUE,
    KEY_CONDITION,
    M1_BASE,
    N1_BASE,
    NOHEAVY_CHILD,
    RecursionStats,
    Verdict,
    Witness,
    explicit_order,
    shuffled_order,
)

from conftest import matrices, shuffled_rows

CUBE3 = BinaryMatrix(tuple(range(8)), 3)


def test_a1_single_column_bases():
    v = run_a1(parse_matrix("1"))
    assert v.value is True and (v.witness.tag, v.witness.line, v.witness.column) == (N1_BASE, 3, 1)
    v = run_a1(parse_matrix("0"))
    assert v.value is False and v.witness.line == 5


def test_a1_rejects_despite_heavy_columns():
    # both columns are heavy, yet the 1-branch of column 1 is the all-zero [0]
    m = parse_matrix("10\n01")
    assert heavy_columns(m) == {1, 2}
    v = run_a1(m)
    assert v.value is False
    assert (v.witness.tag, v.witness.column, v.witness.line) == (NOHEAVY_CHILD, 1, 11)


def test_a1_no_heavy_matrix_is_false():
    assert run_a1(parse_matrix("00\n01\n10")).value is False


def test_a1_full_cube_counts():
    v = run_a1(BinaryMatrix((0, 1), 1))
    assert v.value is True and v.stats.calls == 1 and v.stats.max_depth == 0
    v = run_a1(BinaryMatrix((0, 1, 2, 3), 2))
    assert v.value is True and v.stats.calls == 5 and v.stats.max_depth == 1
    assert v.witness.tag == EXHAUSTED_TRUE and v.witness.line == 18


def test_a2_key_condition():
    v = run_a2(parse_matrix("10\n01"))
    assert v.value is True
    assert (v.witness.tag, v.witness.column, v.witness.line) == (KEY_CONDITION, 1, 14)

    m = parse_matrix("11\n01\n10")
    v = run_a2(m)
    assert (v.witness.tag, v.witness.column) == (KEY_CONDITION, 1)
    assert is_heavy(m, 1)


def test_a2_single_row_base_ignores_heaviness():
    m = parse_matrix("00")
    v = run_a2(m)
    assert v.value is True and (v.witness.tag, v.witness.line) == (M1_BASE, 1)
    assert heavy_columns(m) == set()


def test_a2_no_heavy_matrix_is_false():
    v = run_a2(parse_matrix("00\n01\n10"))
    assert v.value is False
    assert (v.witness.tag, v.witness.column, v.witness.line) == (NOHEAVY_CHILD, 1, 21)


def test_a2_single_cell_bases():
    assert run_a2(parse_matrix("1")).value is True
    v = run_a2(parse_matrix("0"))
    assert v.value is False and v.witness.tag == N1_BASE and v.witness.line == 7


def test_child_false_witness():
    # every branch of "010" survives the no-heavy screen, so the False can
    # only surface through a recursive call
    v = run_a1(parse_matrix("010"))
    assert v.value is False
    assert (v.witness.tag, v.witness.column, v.witness.line) == (CHILD_FALSE, 1, 15)


def test_memoized_matches_plain_on_cube():
    plain = run_a1(CUBE3)
    memo = run_memoized("a1", CUBE3)
    assert plain.value == memo.value
    assert memo.stats.cache_hits > 0
    assert memo.stats.calls <= plain.stats.calls

    plain2 = run_a2(CUBE3)
    memo2 = run_memoized("a2", CUBE3)
    assert plain2.value == memo2.value and memo2.stats.calls <= plain2.stats.calls


def test_memoized_single_cell_bypasses_cache():
    v = run_memoized("a1", parse_matrix("1"))
    assert v.value is True and v.stats.cache_hits == 0 and v.stats.calls == 1


def test_run_memoized_rejects_unknown_algo():
    with pytest.raises(ValueError):
        run_memoized("a3", CUBE3)


def test_order_validation():
    with pytest.raises(ValueError):
        run_a1(CUBE3, order=("explicit", (1, 2)))
    with pytest.raises(ValueError):
        run_a1(CUBE3, order="downhill")


def test_budget_exceeded():
    # two all-ones rows of 9 columns: no table serves them, and a plain run
    # visits 623,530 frames, far more than 10 ms of them
    ones = BinaryMatrix((511, 511), 9)
    with pytest.raises(BudgetExceeded):
        run_a1(ones, budget_ns=10_000_000)
    # a 1 ns budget is spent before any frame runs, also on value positions:
    # the 7-cube below its 5- to 7-column frames and a 4-column root
    for matrix in (BinaryMatrix(tuple(range(2**7)), 7), BinaryMatrix((1, 2, 4, 8, 15), 4)):
        for run in (run_a1, run_a2):
            with pytest.raises(BudgetExceeded):
                run(matrix, budget_ns=1)


@given(matrices(max_n=4, max_m=6), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_row_permutation_invariance(m, seed):
    other = shuffled_rows(m, seed)
    assert run_a1(m).value == run_a1(other).value
    assert run_a2(m).value == run_a2(other).value


@given(matrices(max_n=4, max_m=6), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_a1_order_invariance(m, seed):
    base = run_a1(m).value
    assert run_a1(m, order=shuffled_order(seed)).value == base


@given(matrices(max_n=4, max_m=8))
@settings(max_examples=60, deadline=None)
def test_memoized_equivalence_property(m):
    assert run_a1(m).value == run_memoized("a1", m).value
    assert run_a2(m).value == run_memoized("a2", m).value


@given(matrices(max_n=5, max_m=8))
@settings(max_examples=60, deadline=None)
def test_depth_and_stats_bounds(m):
    for verdict in (run_a1(m), run_a2(m)):
        assert verdict.stats.calls >= 1
        assert verdict.stats.max_depth <= m.n
        assert verdict.stats.cache_hits <= verdict.stats.calls


@given(matrices(max_n=4, max_m=6))
@settings(max_examples=60, deadline=None)
def test_witness_tag_consistency(m):
    for verdict in (run_a1(m), run_a2(m)):
        tag, value = verdict.witness.tag, verdict.value
        if tag in (KEY_CONDITION, M1_BASE, EXHAUSTED_TRUE):
            assert value is True
        if tag in (NOHEAVY_CHILD, CHILD_FALSE):
            assert value is False
        if tag in (KEY_CONDITION, NOHEAVY_CHILD, CHILD_FALSE):
            assert verdict.witness.column is not None


@given(matrices(max_n=4, max_m=6, distinct_rows=True))
@settings(max_examples=80, deadline=None)
def test_a1_soundness_on_distinct_rows(m):
    if run_a1(m).value:
        assert heavy_columns(m)
    if not heavy_columns(m):
        assert run_a1(m).value is False


def test_explicit_order_runs_every_permutation():
    from itertools import permutations

    m = parse_matrix("00\n01\n10")
    values = {run_a1(m, order=explicit_order(p)).value for p in permutations((1, 2))}
    assert values == {False}


def _up_closed(matrix) -> bool:
    """Does every row with a 0 in some column have the row with a 1 there?"""
    rows = set(matrix.rows)
    return all(r | 1 << k in rows for r in rows for k in range(matrix.n))


def _up_closure(generators, n: int) -> list[int]:
    """Every row of {0,1}^n at or above some generator, ascending."""
    return [r for r in range(2**n) if any(r & g == g for g in generators)]


def test_a1_true_exactly_on_up_closed_row_sets():
    # on distinct rows a1 accepts exactly the upward-closed row sets, and a2
    # accepts every matrix a1 accepts (see the README for both proofs)
    universe = [m for n in (1, 2, 3, 4) for m in enumerate_universe(UniverseSpec(n=n))]
    accepted = [m for m in universe if run_a1(m).value]
    assert len(universe) == 3 + 15 + 255 + 65_535
    assert accepted == [m for m in universe if _up_closed(m)]
    assert len(accepted) == 2 + 5 + 19 + 167
    assert [m for m in accepted if not run_a2(m).value] == []

    # beyond U(4): seeded up-closures, each also with one random row removed
    rng = random.Random(8)
    for n in range(5, 9):
        for _ in range(30):
            closed = _up_closure(rng.sample(range(2**n), rng.randint(1, 4)), n)
            cut = [r for r in closed if r != rng.choice(closed)] or closed
            for rows in (closed, cut):
                m = BinaryMatrix(tuple(rows), n)
                assert run_a1(m, memoize=True).value == _up_closed(m)


@given(matrices(max_n=5, max_m=8))
@settings(max_examples=150, deadline=None)
def test_a2_accepts_whatever_a1_accepts(m):
    # duplicate rows included: a2 runs a1's frames with two more True exits
    if run_a1(m).value:
        assert run_a2(m).value


def _meets_theorem2_preconditions(matrix):
    props = matrix_properties(matrix)
    return props.distinct_rows and props.distinct_columns and not props.has_all_zero_column


def _column_ones(matrix):
    """Each column's count of ones, counted here, not by the library."""
    return [sum(r >> k & 1 for r in matrix.rows) for k in range(matrix.n)]


def test_a2_rejects_every_no_heavy_matrix_of_at_most_4_rows():
    # Theorem 2 by row count (README): under the preconditions a column that is
    # not heavy is not all-zero and has fewer than m/2 ones, so at m <= 4 it has
    # exactly one one (and at m <= 2 there is none); distinct columns then give
    # n <= m.  Build every such matrix from that: columns drawn in order from
    # the candidates, kept when the rows are distinct.
    built = []
    for m in range(1, 5):
        # a candidate column as an m-bit mask over the rows
        candidates = [c for c in range(1, 2**m) if 2 * bin(c).count("1") < m]
        assert all(bin(c).count("1") == 1 for c in candidates)
        for n in range(1, len(candidates) + 1):
            for cols in itertools.permutations(candidates, n):
                rows = tuple(sum((c >> i & 1) << k for k, c in enumerate(cols)) for i in range(m))
                if len(set(rows)) == m:
                    built.append(BinaryMatrix(rows, n))
    # distinct rows leave at most one row outside every column, so n >= m - 1,
    # and there are m!/(m - n)! ordered choices of n of the m unit columns
    assert len(built) == sum(math.factorial(m) // math.factorial(m - n)
                             for m in range(3, 5) for n in (m - 1, m))
    for matrix in built:
        assert matrix.n <= matrix.m <= 4 and _meets_theorem2_preconditions(matrix)
        assert all(0 < 2 * ones < matrix.m for ones in _column_ones(matrix))
        assert not heavy_columns(matrix)
        assert run_a2(matrix).value is False
    # the same row sets, up to row order, are all that the exhaustive universes hold
    scanned = {
        (m.n, m.rows) for n in range(1, 5)
        for m in enumerate_universe(UniverseSpec(n=n, m_max=min(4, 2**n)))
        if _meets_theorem2_preconditions(m) and not heavy_columns(m)
    }
    assert scanned == {(m.n, tuple(sorted(m.rows))) for m in built}


def test_a2_accepts_k52_under_every_sampled_column_order():
    # K(5,2): one row per point of {1..5}, one column per 2-subset, so 2 ones
    # against 3 zeros in every column.  It meets Theorem 2's preconditions and
    # has no heavy column, yet a2 accepts it: a measured leak, pinned here.
    pairs = list(itertools.combinations(range(5), 2))
    k52 = BinaryMatrix(tuple(sum(1 << k for k, pair in enumerate(pairs) if i in pair)
                             for i in range(5)), len(pairs))
    assert (k52.m, k52.n) == (5, 10) and _meets_theorem2_preconditions(k52)
    assert _column_ones(k52) == [2] * 10 and not heavy_columns(k52)
    assert run_a2(k52).value is True
    rng = random.Random(20240801)
    for _ in range(60):
        order = rng.sample(range(1, 11), 10)
        assert run_a2(permute_columns(k52, order)).value is True


_RUNS = [
    (run_a1, {}),
    (run_a2, {}),
    (run_a1, {"memoize": True}),
    (run_a2, {"memoize": True}),
    (run_a1, {"order": shuffled_order(3)}),
    (run_a1, {"order": shuffled_order(3), "memoize": True}),
]


def test_runs_of_one_matrix_give_equal_verdicts():
    # a verdict holds no timing, so two runs of one matrix give equal verdicts,
    # with or without a budget
    for matrix in (m for n in (1, 2, 3) for m in enumerate_universe(UniverseSpec(n=n))):
        for run, kwargs in _RUNS:
            first = run(matrix, **kwargs)
            assert run(matrix, **kwargs) == first
            assert run(matrix, budget_ns=10**12, **kwargs) == first


def test_run_values_stay_frozen_dataclasses():
    # verdicts are shared between runs, so their fields must stay frozen
    stats = RecursionStats(5, 2, 1)
    assert dataclasses.asdict(stats) == {"calls": 5, "max_depth": 2, "cache_hits": 1}
    assert repr(stats) == "RecursionStats(calls=5, max_depth=2, cache_hits=1)"
    same = RecursionStats(calls=5, max_depth=2, cache_hits=1)
    assert stats == same and hash(stats) == hash(same)
    assert stats != RecursionStats(5, 2, 2)
    assert dataclasses.replace(stats, calls=6) == RecursionStats(6, 2, 1)
    verdict = run_a2(parse_matrix("10\n01"))
    assert dataclasses.asdict(verdict) == {
        "value": True,
        "witness": {"tag": KEY_CONDITION, "column": 1, "line": 14},
        "stats": dataclasses.asdict(verdict.stats),
    }
    copy = Verdict(True, Witness(KEY_CONDITION, 1, 14), RecursionStats(*dataclasses.astuple(verdict.stats)))
    assert copy == verdict and hash(copy) == hash(verdict)
    assert pickle.loads(pickle.dumps(verdict)) == verdict
    for value, field in ((stats, "calls"), (verdict, "value"), (verdict, "stats")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, field)
