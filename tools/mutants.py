"""Mutation checks: named defects that the test suite must catch.

    python tools/mutants.py

Each mutant is one exact old -> new string in one file under `src/`, and
the test node ids that must fail once it is applied.  For each mutant the
runner copies `src/`, `tests/` and `pyproject.toml` to a temporary
directory, applies the string (an old string that is not present exactly
once is a stale entry, reported as such), and runs the mutant's tests with
pytest.  The mutant is killed when a test fails; pytest ending any other
way (a collection error, a node id it cannot find) is reported as an error.
The same tests are first run on the unmutated copy, which must pass.  Exit
status 1 means a mutant survived or errored, an entry is stale, or the
unmutated tests failed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/heavycol
    old: str
    new: str
    tests: tuple[str, ...]


ALGOS = "tests/test_algorithms.py"
CLI = "tests/test_cli.py"
FAST = "tests/test_fastpath.py"
MATRIX = "tests/test_matrix.py"
PROF = "tests/test_profiling.py"
STRUCT = "tests/test_structure.py"
VERIFY = "tests/test_verification.py"

MUTANTS = [
    Mutant(
        "key-condition-on-m1", "algorithms.py",
        "if a2 and m0.bit_count() == 1:", "if a2 and m1.bit_count() == 1:",
        (f"{ALGOS}::test_a2_key_condition",),
    ),
    Mutant(
        # the same on row positions, which memoized and duplicate-row runs take
        "key-condition-on-m1-row-positions", "algorithms.py",
        "if a2 and zeros == 1:", "if a2 and count - zeros == 1:",
        (f"{FAST}::test_duplicate_rows_and_row_order",),
    ),
    Mutant(
        "key-condition-at-depth-0-only", "algorithms.py",
        "if a2 and zeros == 1:", "if a2 and zeros == 1 and n == len(ctx.orders) - 1:",
        (f"{FAST}::test_all_of_small_universes[3]", f"{FAST}::test_duplicate_rows_and_row_order"),
    ),
    Mutant(
        "strict-heavy-test", "algorithms.py",
        "if 2 * (mask & c).bit_count() >= count:", "if 2 * (mask & c).bit_count() > count:",
        (f"{ALGOS}::test_a1_full_cube_counts", f"{FAST}::test_all_of_small_universes[2]"),
    ),
    Mutant(
        # the memoized root keeps its input order, so repeated frames can key apart
        "memo-root-unsorted", "algorithms.py",
        "column_patterns(sorted(rows) if memoize else rows, n)", "column_patterns(rows, n)",
        (f"{FAST}::test_duplicate_rows_and_row_order",
         f"{FAST}::test_memoized_runs_on_unsorted_roots_with_many_hits"),
    ),
    Mutant(
        # each column is read over every root position, so the key names root rows
        "memo-key-uncompressed", "algorithms.py",
        '"".join(compress(format(mask & c, width), keep))', "format(mask & c, width)",
        (f"{FAST}::test_memo_key_is_the_projected_row_multiset",
         f"{FAST}::test_full_cube_growth_follows_its_recurrences"),
    ),
    Mutant(
        # a memo hit returns its verdict as no call
        "memo-hit-not-counted", "algorithms.py",
        "ctx.table[key] = (True, 1, 0, None, None) if entry[0] else (False, 1, 0, None, None)",
        "ctx.table[key] = (True, 0, 0, None, None) if entry[0] else (False, 0, 0, None, None)",
        (f"{FAST}::test_memo_key_is_the_projected_row_multiset",
         f"{FAST}::test_full_cube_growth_follows_its_recurrences"),
    ),
    Mutant(
        "memo-miss-not-stored", "algorithms.py",
        "    ctx.table[key] = (True, 1, 0, None, None) if entry[0] else (False, 1, 0, None, None)\n",
        "",
        (f"{FAST}::test_memo_key_is_the_projected_row_multiset",
         f"{FAST}::test_full_cube_growth_follows_its_recurrences",
         f"{FAST}::test_all_of_small_universes[3]"),
    ),
    Mutant(
        # a memo hit returns the subtree totals of the miss that stored it
        "memo-hit-replays-subtree", "algorithms.py",
        "ctx.table[key] = (True, 1, 0, None, None) if entry[0] else (False, 1, 0, None, None)",
        "ctx.table[key] = entry",
        (f"{FAST}::test_memo_key_is_the_projected_row_multiset",
         f"{FAST}::test_full_cube_growth_follows_its_recurrences"),
    ),
    Mutant(
        # one frame function serves a1 and a2, so both visit 1 before 0
        "children-1-before-0", "algorithms.py",
        "            if m0:\n"
        "                value, sub_calls, h, _, _ = recurse(m0, child, ctx)\n"
        "                calls += sub_calls\n"
        "                if h >= height:\n"
        "                    height = h + 1\n"
        "            if value and m1 and not leaves:\n"
        "                value, sub_calls, h, _, _ = recurse(m1, child, ctx)\n",
        "            if m1 and not leaves:\n"
        "                value, sub_calls, h, _, _ = recurse(m1, child, ctx)\n"
        "                calls += sub_calls\n"
        "                if h >= height:\n"
        "                    height = h + 1\n"
        "            if value and m0:\n"
        "                value, sub_calls, h, _, _ = recurse(m0, child, ctx)\n",
        (f"{FAST}::test_all_of_small_universes[3]", f"{FAST}::test_a1_every_explicit_order[3]"),
    ),
    Mutant(
        # value positions read the one child's entry in the zero child's place
        "entries-1-before-0", "algorithms.py",
        "            e0 = entries[m0]\n            e1 = entries[m1]\n",
        "            e0 = entries[m1]\n            e1 = entries[m0]\n",
        (f"{FAST}::test_all_of_small_universes[3]", f"{FAST}::test_a1_every_explicit_order[3]"),
    ),
    Mutant(
        # a child without a heavy column ends the frame only when its sibling has none too
        "no-heavy-needs-both-children", "algorithms.py",
        "if e0 is None or e1 is None:", "if e0 is None and e1 is None:",
        (f"{FAST}::test_all_of_small_universes[2]",),
    ),
    Mutant(
        # the zero child's height is taken as the parent's
        "child-height-not-raised", "algorithms.py",
        "recurse(m0, child, ctx)\n"
        "                calls += sub_calls\n"
        "                if h >= height:\n"
        "                    height = h + 1\n",
        "recurse(m0, child, ctx)\n"
        "                calls += sub_calls\n"
        "                if h >= height:\n"
        "                    height = h\n",
        (f"{FAST}::test_all_of_small_universes[3]", f"{FAST}::test_full_cube_up_to_6"),
    ),
    Mutant(
        "leaf-children-not-counted", "algorithms.py",
        "calls += leaves", "calls += 0",
        (f"{FAST}::test_all_of_small_universes[2]", f"{FAST}::test_full_cube_up_to_6"),
    ),
    Mutant(
        "leaf-depth-not-raised", "algorithms.py",
        "            if not height:\n                height = 1\n", "",
        (f"{FAST}::test_all_of_small_universes[2]", f"{FAST}::test_full_cube_up_to_6"),
    ),
    Mutant(
        "leaf-entry-not-counted", "algorithms.py",
        "_LEAF = (True, 1, 0)", "_LEAF = (True, 0, 0)",
        (f"{FAST}::test_all_of_small_universes[2]", f"{FAST}::test_full_cube_up_to_6"),
    ),
    Mutant(
        "leaf-entry-depth-not-raised", "algorithms.py",
        "_LEAF = (True, 1, 0)", "_LEAF = (True, 1, -1)",
        (f"{FAST}::test_all_of_small_universes[2]", f"{FAST}::test_full_cube_up_to_6"),
    ),
    Mutant(
        # an empty child reads as a leaf's height; no count shows it, as the
        # other child raises the parent at least as far, but the entry does
        "empty-entry-height-0", "algorithms.py",
        "_EMPTY = (True, 0, -1)", "_EMPTY = (True, 0, 0)",
        (f"{FAST}::test_table_entries_are_their_frames_run_as_roots",),
    ),
    Mutant(
        # a2's one-row child runs its frame instead of returning True at line 1
        "a2-one-row-leaf-entry-dropped", "algorithms.py",
        "elif len(child) == 1 or a2 and count == 1:", "elif len(child) == 1:",
        (f"{FAST}::test_all_of_small_universes[3]", f"{FAST}::test_all_of_u4[a2]"),
    ),
    Mutant(
        # the deadline is taken again once the root is built, so that build runs free
        "budget-clock-after-root-build", "algorithms.py",
        "        cols = column_patterns(sorted(rows) if memoize else rows, n)\n",
        "        cols = column_patterns(sorted(rows) if memoize else rows, n)\n"
        "        if deadline is not None:\n"
        "            deadline = ctx.deadline = time.perf_counter_ns() + budget_ns\n",
        (f"{PROF}::test_budget_counts_the_root_build",),
    ),
    Mutant(
        # a root that ends at a base case runs no frame, so nothing reads the deadline
        "budget-unchecked-at-base-case-root", "algorithms.py",
        "    if deadline is not None and time.perf_counter_ns() >= deadline:\n"
        "        raise BudgetExceeded(\"run exceeded its wall-clock budget\")\n",
        "",
        (f"{PROF}::test_budget_checked_at_a_root_that_ends_at_a_base_case",),
    ),
    Mutant(
        # 4-column frames below 5- to 7-column roots go into the table too
        "wide-frames-tabled", "algorithms.py",
        "_TABLE_MAX_N = 3", "_TABLE_MAX_N = 4",
        (f"{FAST}::test_tables_hold_frames_of_at_most_3_columns",),
    ),
    Mutant(
        # 4-column frames run `_certify`: 3-column children are never read from entries
        "table-width-off-by-one", "algorithms.py",
        "if len(cols) > _TABLE_MAX_N + 1:", "if len(cols) >= _TABLE_MAX_N + 1:",
        (f"{FAST}::test_tables_hold_frames_of_at_most_3_columns",),
    ),
    Mutant(
        # children with the same value set but other columns share an entry
        "table-key-drops-cols", "algorithms.py",
        "entries.setdefault(child, {0: _EMPTY})", "entries.setdefault(len(child), {0: _EMPTY})",
        (f"{FAST}::test_all_of_small_universes[3]", f"{FAST}::test_fresh_and_warm_tables_agree"),
    ),
    Mutant(
        "table-entry-drops-height", "algorithms.py",
        "entries[side] = _valued(side, child, ctx)[:3]",
        "entries[side] = _valued(side, child, ctx)[:2] + (0,)",
        (f"{FAST}::test_all_of_small_universes[3]", f"{FAST}::test_a1_every_explicit_order[3]"),
    ),
    Mutant(
        # a memoized root recurses on value positions, where no memo cache is hit
        "memoized-root-on-values", "algorithms.py",
        "if n <= _VALUE_MAX_N and not memoize:", "if n <= _VALUE_MAX_N:",
        (f"{FAST}::test_roots_that_never_read_a_handed_rank",
         f"{FAST}::test_full_cube_growth_follows_its_recurrences"),
    ),
    Mutant(
        # the walk hands over a rank with row 0 added
        "walk-hands-rank-or-1", "verification.py",
        "high[rank >> 8], n, rank)", "high[rank >> 8], n, rank | 1)",
        (f"{VERIFY}::test_walk_matrices_hand_over_their_rank", f"{FAST}::test_all_of_u4[a1]"),
    ),
    Mutant(
        # a constrained draw keeps its rank to itself
        "draw-hands-no-rank", "verification.py",
        "return _valid_matrix(rows, spec.n, rank)", "return _valid_matrix(rows, spec.n)",
        (f"{VERIFY}::test_walk_matrices_hand_over_their_rank",),
    ),
    Mutant(
        # the walk yields every rank in the row-count range, constraints or not
        "walk-ignores-constraint", "verification.py",
        "if not rank & mask:\n                        break",
        "if not rank & mask:\n                        continue",
        (f"{VERIFY}::test_constraints_filter", f"{VERIFY}::test_theorem2_scan_n2"),
    ),
    Mutant(
        # a names tuple seen many times in a range bumps its tallies once
        "tally-counts-once", "verification.py",
        "tallies[name] = tallies.get(name, 0) + count", "tallies[name] = tallies.get(name, 0) + 1",
        (f"{VERIFY}::test_witness_cap_commutes_with_partitioning",),
    ),
    Mutant(
        # the verdict cache keyed without max_depth: a run gets the first
        # verdict that differs from its own in max_depth alone
        "verdict-key-drops-max-depth", "algorithms.py",
        "@lru_cache(maxsize=1024)\ndef _verdict(\n",
        "def _verdict(a2, value, tag, col, calls, max_depth, cache_hits, _seen={}):\n"
        "    key = (a2, value, tag, col, calls, cache_hits)\n"
        "    if key not in _seen:\n"
        "        _seen[key] = _verdict_of(a2, value, tag, col, calls, max_depth, cache_hits)\n"
        "    return _seen[key]\n\n\ndef _verdict_of(\n",
        (f"{FAST}::test_all_of_small_universes[3]", f"{FAST}::test_a1_every_explicit_order[3]"),
    ),
    Mutant(
        # a1 witnesses read a2's line numbers and a2's read a1's
        "witness-lines-swapped", "algorithms.py",
        "(_A2_LINES if a2 else _A1_LINES)[tag, value]", "(_A1_LINES if a2 else _A2_LINES)[tag, value]",
        (f"{ALGOS}::test_a2_key_condition", f"{ALGOS}::test_child_false_witness"),
    ),
    Mutant(
        # column 1's all-zero test dropped from the rank filter
        "rank-filter-skips-zero-column", "verification.py",
        "masks += cols\n", "masks += cols[1:]\n",
        (f"{VERIFY}::test_rank_filter_matches_matrix_properties[False-True]",
         f"{VERIFY}::test_rank_filter_matches_matrix_properties[True-True]"),
    ),
    Mutant(
        # two equal columns that hold a one somewhere pass as distinct
        "distinct-mask-or", "verification.py",
        "[a ^ b for a, b in combinations(cols, 2)]", "[a | b for a, b in combinations(cols, 2)]",
        (f"{VERIFY}::test_rank_filter_matches_matrix_properties[True-False]",),
    ),
    Mutant(
        "bisect-left-size-draw", "verification.py",
        "from bisect import bisect_right", "from bisect import bisect_left as bisect_right",
        (f"{VERIFY}::test_random_draws_keep_their_stream[spec3]",
         f"{VERIFY}::test_random_draws_keep_their_stream[spec4]"),
    ),
    Mutant(
        # a `globals` default built at import: the scans as they were bound then
        "scans-bound-at-import", "cli.py",
        "def _cmd_scan(args) -> int:",
        "def _cmd_scan(args, globals=lambda g=dict(globals()): g) -> int:",
        (f"{CLI}::test_scans_dispatch_through_module_names",),
    ),
    Mutant(
        "remark-offered-n", "cli.py",
        '"remark": ("remark_counterexamples", _SCAN),',
        '"remark": ("remark_counterexamples", (*_SCAN, "--n")),',
        (f"{CLI}::test_flag_the_target_does_not_read_is_usage_error[verify remark --n 99]",
         f"{CLI}::test_help_exits_0_and_names_only_the_targets_flags"),
    ),
    Mutant(
        # the lanes start from 2^(w-1) - floor(m/2): an odd m's floor(m/2) ones read as heavy
        "oracle-bias-floor", "matrix.py",
        "((1 << w - 1) - (m + 1) // 2)", "((1 << w - 1) - m // 2)",
        (f"{MATRIX}::test_heavy_columns_at_lane_boundaries[byte-lanes]",),
    ),
    Mutant(
        # lanes sized for m <= 2^w: one byte at m = 256, where an all-one column carries out
        "oracle-lane-byte-short", "matrix.py",
        "while m >> w:", "while m > 1 << w:",
        (f"{MATRIX}::test_heavy_columns_at_lane_boundaries[byte-lanes]",),
    ),
    Mutant(
        # the shared answer for up to 8 columns serves 9: column 9 is never counted
        "oracle-shared-set-at-9-columns", "matrix.py",
        "    if n <= 8:\n        return _HEAVY[", "    if n <= 9:\n        return _HEAVY[",
        (f"{MATRIX}::test_heavy_columns_at_lane_boundaries[byte-lanes]",),
    ),
    Mutant(
        # the terminal reads the column after the preserved one
        "terminal-column-off-by-one", "structure.py",
        "shift = l - 1", "shift = l",
        (f"{STRUCT}::test_sequential_reduction_matches_reduce_chain",),
    ),
    Mutant(
        "survivors-keep-other-value", "structure.py",
        "(matrix.rows[j - 1] >> (k - 1)) & 1 == b]", "(matrix.rows[j - 1] >> (k - 1)) & 1 != b]",
        (f"{STRUCT}::test_sequential_reduction_matches_reduce_chain",),
    ),
    Mutant(
        # only the first n is range-checked up front; a later one reaches the work
        "range-checked-at-first-n-only", "profiling.py",
        "    for n in ns:\n        if not 1 <= n <= cap:", "    for n in ns[:1]:\n        if not 1 <= n <= cap:",
        (f"{CLI}::test_bench_range_checked_before_work",),
    ),
    Mutant(
        # worst_found capped at 16 like random_half: n = 5 reaches the harvest
        "worst-found-cap-16", "profiling.py",
        '"worst_found": EXHAUSTIVE_MAX_N', '"worst_found": OTHER_MAX_N',
        (f"{CLI}::test_bench_worst_found_range_checked_before_work",),
    ),
    Mutant(
        # a2's worst_found matrix is the one with the most a1 calls
        "worst-found-ignores-algo", "profiling.py",
        'run = run_a1 if algo == "a1" else run_a2', "run = run_a1",
        (f"{PROF}::test_worst_found_family",),
    ),
    Mutant(
        # a row with some counts blank reads as a behavioural change, exit 1
        "baseline-partly-blank-row-read", "profiling.py",
        '    if "" in counts and any(counts):\n', "    if False:\n",
        (f"{CLI}::test_malformed_baseline_is_usage_error_before_work[partly blank counts]",),
    ),
    Mutant(
        # a max_depth change passes compare as clean
        "compare-ignores-max-depth", "profiling.py",
        '_BEHAVIORAL_FIELDS = ("m", "calls", "cache_hits", "max_depth")',
        '_BEHAVIORAL_FIELDS = ("m", "calls", "cache_hits")',
        (f"{PROF}::test_snapshot_compare_clean_and_flags",),
    ),
    Mutant(
        # a baseline with a row deleted reaches the rerun, one with a row
        # duplicated compares clean
        "baseline-shape-unchecked", "profiling.py",
        "    if sorted(r.key() for r in baseline.rows) != sorted(want):",
        "    if False:",
        (f"{CLI}::test_malformed_baseline_is_usage_error_before_work[row deleted]",
         f"{CLI}::test_malformed_baseline_is_usage_error_before_work[row duplicated]"),
    ),
    Mutant(
        # --n-min above --n-max reaches profile_family, whose message names no flag
        "growth-range-flags-unchecked", "cli.py",
        "        if args.n_min > args.n_max:", "        if False:",
        (f"{CLI}::test_bench_empty_range_is_usage_error",),
    ),
    Mutant(
        # analyze's row index keeps the last of repeated rows, not the first
        "analyze-last-occurrence", "cli.py",
        "first.setdefault(r, i)", "first[r] = i",
        (f"{CLI}::test_analyze_text_is_golden[repeated]",),
    ),
    Mutant(
        "parser-error-not-overridden", "cli.py",
        "    def error(self, message):\n        raise ValueError(message)\n", "",
        (f"{CLI}::test_argparse_error_returns_2_with_one_line",),
    ),
]


def _copy(dest: Path) -> None:
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(where: Path, tests) -> int:
    """pytest's exit status for `tests` in the copy at `where`: 0 all passed,
    1 some test failed."""
    env = {**os.environ, "PYTHONPATH": str(where / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=where, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return run.returncode


def main() -> int:
    started = time.monotonic()
    failed = 0
    with tempfile.TemporaryDirectory(prefix="heavycol-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        if _pytest(clean, tests) != 0:
            print("unmutated: FAIL (the mutants' tests must pass before mutation)")
            return 1
        for i, mutant in enumerate(MUTANTS):
            where = Path(tmp) / f"mutant-{i}"
            _copy(where)
            target = where / "src" / "heavycol" / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                print(f"{mutant.name}: STALE (old string found {text.count(mutant.old)} times)")
                failed += 1
                continue
            target.write_text(text.replace(mutant.old, mutant.new))
            status = _pytest(where, mutant.tests)
            failed += status != 1
            print(f"{mutant.name}: " + {0: "SURVIVED", 1: "killed"}.get(status, f"ERROR (pytest exit {status})"))
    print(f"{len(MUTANTS) - failed}/{len(MUTANTS)} killed in {time.monotonic() - started:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
