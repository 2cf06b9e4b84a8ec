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
PROF = "tests/test_profiling.py"
VERIFY = "tests/test_verification.py"

MUTANTS = [
    Mutant(
        "key-condition-on-m1", "algorithms.py",
        "if a2 and zeros == 1:", "if a2 and count - zeros == 1:",
        (f"{ALGOS}::test_a2_key_condition",),
    ),
    Mutant(
        "key-condition-at-depth-0-only", "algorithms.py",
        "if a2 and zeros == 1:", "if a2 and zeros == 1 and depth == 0:",
        (f"{FAST}::test_all_of_small_universes[3]", f"{FAST}::test_duplicate_rows_and_row_order"),
    ),
    Mutant(
        "strict-heavy-test", "algorithms.py",
        "if 2 * (mask & c).bit_count() >= count:", "if 2 * (mask & c).bit_count() > count:",
        (f"{ALGOS}::test_a1_full_cube_counts", f"{FAST}::test_all_of_small_universes[2]"),
    ),
    Mutant(
        "memo-key-without-n", "algorithms.py",
        "key = (len(cols), _memo_rows(mask, cols))", "key = _memo_rows(mask, cols)",
        (f"{FAST}::test_duplicate_rows_and_row_order",),
    ),
    Mutant(
        "memo-hit-not-counted", "algorithms.py",
        "    else:\n        ctx.calls += 1\n        ctx.cache_hits += 1\n",
        "    else:\n        ctx.cache_hits += 1\n",
        (f"{FAST}::test_memo_key_is_the_projected_row_multiset",
         f"{FAST}::test_full_cube_growth_follows_its_recurrences"),
    ),
    Mutant(
        "memo-miss-not-stored", "algorithms.py",
        "value = ctx.table[key] = _certify(mask, cols, depth, ctx)",
        "value = _certify(mask, cols, depth, ctx)",
        (f"{FAST}::test_memo_key_is_the_projected_row_multiset",
         f"{FAST}::test_full_cube_growth_follows_its_recurrences",
         f"{FAST}::test_all_of_small_universes[3]"),
    ),
    Mutant(
        "unsorted-memo-rows", "algorithms.py",
        "return tuple(sorted(compress(rows, map(int, bin(mask)[:1:-1]))))",
        "return tuple(compress(rows, map(int, bin(mask)[:1:-1])))",
        (f"{FAST}::test_duplicate_rows_and_row_order",),
    ),
    Mutant(
        # one frame function serves a1 and a2, so both visit 1 before 0
        "children-1-before-0", "algorithms.py",
        "if (m0 and not recurse(m0, child, depth + 1, ctx)) or (\n"
        "                m1 and not leaves and not recurse(m1, child, depth + 1, ctx)\n"
        "            ):",
        "if (m1 and not leaves and not recurse(m1, child, depth + 1, ctx)) or (\n"
        "                m0 and not recurse(m0, child, depth + 1, ctx)\n"
        "            ):",
        (f"{FAST}::test_all_of_small_universes[3]", f"{FAST}::test_a1_every_explicit_order[3]"),
    ),
    Mutant(
        "leaf-children-not-counted", "algorithms.py",
        "ctx.calls += leaves", "ctx.calls += 0",
        (f"{FAST}::test_all_of_small_universes[2]", f"{FAST}::test_full_cube_up_to_6"),
    ),
    Mutant(
        "leaf-depth-not-raised", "algorithms.py",
        "ctx.max_depth = depth + 1", "ctx.max_depth = depth",
        (f"{FAST}::test_all_of_small_universes[2]", f"{FAST}::test_full_cube_up_to_6"),
    ),
    Mutant(
        # the budget starts once the root is built, so that build runs free
        "budget-clock-after-root-build", "algorithms.py",
        "deadline = None if budget_ns is None else started + budget_ns",
        "deadline = None if budget_ns is None else time.perf_counter_ns() + budget_ns",
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
        # frames with the same value set but other columns share an entry
        "table-key-drops-cols", "algorithms.py",
        "key = (mask, cols)", "key = mask",
        (f"{FAST}::test_all_of_small_universes[3]", f"{FAST}::test_fresh_and_warm_tables_agree"),
    ),
    Mutant(
        "table-hit-skips-height", "algorithms.py",
        "    if depth + height > ctx.max_depth:\n        ctx.max_depth = depth + height\n", "",
        (f"{FAST}::test_all_of_small_universes[3]", f"{FAST}::test_a1_every_explicit_order[3]"),
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
