import dataclasses

import pytest

from heavycol import (
    BinaryMatrix,
    GrowthTable,
    UniverseSpec,
    enumerate_universe,
    profile_family,
    run_a1,
    run_a2,
    snapshot_compare,
)
from heavycol.algorithms import BudgetExceeded
from heavycol.profiling import _family_matrix, harvest_worst, rerun_spec


@pytest.fixture(scope="module")
def cube_table():
    return profile_family("full_cube", range(1, 4))


def test_full_cube_exact_call_counts(cube_table):
    km = cube_table.key_map()
    assert km[("full_cube", 1, "a1", "plain")].calls == 1
    assert km[("full_cube", 2, "a1", "plain")].calls == 5
    assert km[("full_cube", 3, "a1", "plain")].calls == 31
    assert km[("full_cube", 3, "a1", "memoized")].calls == 11
    assert km[("full_cube", 3, "a1", "memoized")].cache_hits == 5


def test_memoized_never_exceeds_plain(cube_table):
    km = cube_table.key_map()
    for row in cube_table.rows:
        if row.variant == "memoized":
            plain = km[(row.family, row.n, row.algo, "plain")]
            assert row.calls <= plain.calls


def test_max_depth_bounds(cube_table):
    for row in cube_table.rows:
        assert row.max_depth <= row.n


def test_counts_are_deterministic():
    a = profile_family("full_cube", [3]).key_map()
    b = profile_family("full_cube", [3]).key_map()
    for key, row in a.items():
        assert row.calls == b[key].calls
        assert row.cache_hits == b[key].cache_hits


def test_random_half_family_reproducible():
    a = profile_family(("random_half", 9), [3, 4])
    b = profile_family(("random_half", 9), [3, 4])
    assert [r.calls for r in a.rows] == [r.calls for r in b.rows]
    assert a.rows[0].family == "random_half:9"
    assert a.key_map()[("random_half:9", 4, "a1", "plain")].m == 8


def test_range_validation():
    with pytest.raises(ValueError):
        profile_family("full_cube", [11])


def test_empty_range_rejected():
    # an empty range used to give a header-only table, and a min() error
    # when the table was saved or compared
    for empty in (range(3, 2), []):
        with pytest.raises(ValueError, match="empty column-count range"):
            profile_family("full_cube", empty)


def test_budget_must_be_positive():
    # a budget of 0 or less would time out every row before its first frame
    for budget in (0, -1_000_000):
        with pytest.raises(ValueError, match="budget must be positive"):
            profile_family("full_cube", [1], budget_ns=budget)
    assert profile_family("full_cube", [1], budget_ns=None).rows[0].calls == 1


def test_timeout_marks_row_and_keeps_table():
    table = profile_family("full_cube", [8], algos=("a1",), budget_ns=20_000_000)
    row = table.key_map()[("full_cube", 8, "a1", "plain")]
    assert row.calls is None
    assert len(table.rows) == 2  # memoized row still present
    assert ",a1,plain,,,," in table.to_csv()
    assert GrowthTable.from_csv(table.to_csv()) == table


def test_budget_counts_the_root_build():
    # the deadline used to start once the root's column patterns were built:
    # building them for these 32,768 rows alone outlasts 1 ms, and the 13
    # frames after it finished inside the budget, so the run returned normally
    matrix = _family_matrix(("random_half", 1), 16, "a1")
    with pytest.raises(BudgetExceeded):
        run_a1(matrix, budget_ns=1_000_000)
    table = profile_family(("random_half", 1), [16], algos=("a1",), budget_ns=1_000_000)
    assert table.key_map()[("random_half:1", 16, "a1", "plain")].calls is None


def test_budget_checked_at_a_root_that_ends_at_a_base_case():
    # these roots run no frame below their base case (n = 1, or a2's m = 1),
    # so the one check of the deadline is the one after the root build
    for run, matrix in (
        (run_a1, BinaryMatrix((1,), 1)),
        (run_a2, BinaryMatrix((1, 0, 1), 1)),
        (run_a2, BinaryMatrix((5,), 3)),
    ):
        assert run(matrix, budget_ns=10**12).stats.calls == 1
        with pytest.raises(BudgetExceeded):
            run(matrix, budget_ns=1)


def test_csv_roundtrip(cube_table):
    again = GrowthTable.from_csv(cube_table.to_csv())
    assert again == cube_table
    header = cube_table.to_csv().splitlines()[0]
    assert header == "n,family,m,algo,variant,calls,cache_hits,max_depth,elapsed_ns"


def test_snapshot_compare_clean_and_flags(cube_table):
    identical = GrowthTable.from_csv(cube_table.to_csv())
    diff = snapshot_compare(identical, cube_table)
    assert diff.clean and not diff.behavioral

    bumped = GrowthTable(tuple(
        dataclasses.replace(r, calls=r.calls + 1)
        if r.key() == ("full_cube", 2, "a1", "plain") else r
        for r in cube_table.rows
    ))
    diff = snapshot_compare(bumped, cube_table)
    assert not diff.clean
    assert [(e.field, e.baseline, e.current) for e in diff.behavioral] == [("calls", 5, 6)]

    deeper = GrowthTable(tuple(
        dataclasses.replace(r, max_depth=r.max_depth + 1)
        if r.key() == ("full_cube", 3, "a2", "memoized") else r
        for r in cube_table.rows
    ))
    diff = snapshot_compare(deeper, cube_table)
    assert [(e.key, e.field, e.baseline, e.current) for e in diff.behavioral] == [
        (("full_cube", 3, "a2", "memoized"), "max_depth", 2, 3)
    ]

    drifted = GrowthTable(tuple(
        dataclasses.replace(r, elapsed_ns=(r.elapsed_ns or 0) + 1) for r in cube_table.rows
    ))
    diff = snapshot_compare(drifted, cube_table)
    assert diff.clean and len(diff.informational) == len(cube_table.rows)


def test_missing_baseline(cube_table):
    # a row the baseline lacks is malformed input, like any other
    with pytest.raises(ValueError, match=r"baseline has no row for \('full_cube', 4, 'a1', 'plain'\)"):
        snapshot_compare(profile_family("full_cube", [4], algos=("a1",)), cube_table)


def test_baseline_store_roundtrip(cube_table):
    # a baseline is the table's own CSV, and its rows name what to rerun
    loaded = GrowthTable.from_csv(cube_table.to_csv())
    assert rerun_spec(loaded) == ("full_cube", [1, 2, 3], ("a1", "a2"))
    assert snapshot_compare(profile_family(*rerun_spec(loaded)[:2]), loaded).clean
    half = profile_family(("random_half", 9), [2, 4], algos=("a2",))
    assert rerun_spec(half) == (("random_half", 9), [2, 4], ("a2",))


def test_unknown_algorithm_rejected():
    # "a3" used to run a2's plain recursion under a3's name
    for algos in (("a3",), ("a1", "a3"), ()):
        with pytest.raises(ValueError, match="algorithms must be a1 or a2"):
            profile_family("full_cube", [1], algos=algos)


def test_worst_found_family(tmp_path, monkeypatch):
    # each row measures its procedure's harvested matrix, which is the first
    # U(n) matrix in rank order with the most plain calls under that
    # procedure; nothing is written, since no specimen file is kept
    monkeypatch.chdir(tmp_path)
    table = profile_family("worst_found", range(1, 4), budget_ns=None).key_map()
    for n in range(1, 4):
        universe = list(enumerate_universe(UniverseSpec(n=n)))
        for algo, run in (("a1", run_a1), ("a2", run_a2)):
            calls = [run(matrix).stats.calls for matrix in universe]
            matrix = harvest_worst(n, algo)
            assert matrix == universe[calls.index(max(calls))]
            for variant, memoize in (("plain", False), ("memoized", True)):
                want = run(matrix, memoize=memoize).stats
                row = table[("worst_found", n, algo, variant)]
                assert (row.m, row.calls, row.cache_hits, row.max_depth) == (
                    matrix.m, want.calls, want.cache_hits, want.max_depth
                )
    assert list(tmp_path.iterdir()) == []
