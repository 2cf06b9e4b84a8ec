"""Exhaustive and seeded-random scans over small distinct-row universes.

A universe is the family of distinct-row binary matrices with a given column
count: exactly the nonempty row-subsets of {0,1}^n, enumerated here as sorted
row tuples in increasing subset-rank order.  Scanning them machine-checks the
certificate guarantees at desk scale:

  * theorem1 / theorem2 - a True verdict with an empty heavy set is a
    violation (none are expected);
  * lemma1 - if every zero entry has its conjugate, no column may have more
    zeros than ones;
  * claim  - every no-heavy matrix must yield an unpaired (row, column) pair
    whose sequential reduction terminates in an all-zero column, under the
    ascending order and one seeded shuffled order;
  * remark - the 1x2 all-zero matrix, the one member of a fixed-mode
    universe, shows a2's preconditions are essential (True verdict, no
    heavy column);
  * converse / order-sensitivity - exploratory tallies for the open
    questions; only a1's processing-order invariance is asserted.

Every scan runs through `_run_scan` and every report comes from one merge,
`_report`.  An inspector is module-level, takes the matrix last and returns
(a tuple of tally names to bump, witness cases), each case a (matrix,
property) pair.  `_scan_chunk` counts each distinct names tuple and bumps the
tallies from those counts once per range, and it renders a case as text only
if it keeps it under the witness cap.  A scan binds an inspector's other
parameters with `functools.partial`, so the process pool can pickle it.
Inspectors read the names they scan with (`run_a1`, `heavy_columns`,
`find_unpaired`, ...) from this module's globals on every call: the
benchmark's traced pass replaces them, and `BinaryMatrix` too, with plain
wrapper functions.  The walk and the random draws build their matrices with
`matrix._valid_matrix`, skipping checks that their rows meet by construction,
and hand over the row-set rank they already hold (a draw holds one only when
its spec has constraints), so the recursion does not rebuild it.

Reports are deterministic byte-for-byte for a fixed spec, whatever the
worker count: work is split into contiguous rank ranges, partial results are
merged in rank order, and witness caps commute with that merge.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, combinations, permutations
from typing import Iterator

from .algorithms import KEY_CONDITION, explicit_order, run_a1, run_a2
from .matrix import (
    VALUE_COLUMNS,
    BinaryMatrix,
    _valid_matrix,
    heavy_columns,
    matrix_properties,
    matrix_to_text,
    permute_columns,
)
from .structure import find_unpaired, sequential_reduction

EXHAUSTIVE_MAX_N = 4
DEFAULT_WITNESS_CAP = 20
# Seeds the claim's shuffled reduction order and the order-sensitivity sample.
SHUFFLE_SEED = 20240801
DEFAULT_PERM_BUDGET = 24
# Upper bound on scan worker processes, fixed so a flag can never ask the
# pool for an unbounded number of them.
MAX_WORKERS = 64


class UniverseTooLarge(ValueError):
    """Exhaustive enumeration requested beyond the n <= 4 cap."""


@dataclass(frozen=True)
class UniverseSpec:
    """Which matrices a scan visits.

    Exhaustive mode walks every nonempty row-subset of {0,1}^n with row
    count in [m_min, m_max] that passes the constraint flags.  Random mode
    draws `samples` independent uniform members of the same family,
    rejecting constraint failures; each draw is derived from (seed, index)
    so any worker partition reproduces the same stream.  Fixed mode walks
    rank 1 alone, the single all-zero row of width n.
    """

    n: int
    m_min: int = 1
    m_max: int | None = None
    require_distinct_columns: bool = False
    forbid_all_zero_column: bool = False
    mode: str = "exhaustive"
    samples: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.n <= 6:
            raise ValueError(f"universe column count must be in 1..6, got {self.n}")
        if self.m_max is None:
            object.__setattr__(self, "m_max", 2**self.n)
        if not 1 <= self.m_min <= self.m_max:
            raise ValueError(f"bad row-count range [{self.m_min}, {self.m_max}]")
        if self.m_min > 2**self.n:
            raise ValueError(f"m_min={self.m_min} exceeds the {2**self.n} distinct rows at n={self.n}")
        if self.mode == "exhaustive":
            if self.n > EXHAUSTIVE_MAX_N:
                raise UniverseTooLarge(
                    f"exhaustive scans stop at n = {EXHAUSTIVE_MAX_N}; use random mode"
                )
        elif self.mode == "random":
            if self.seed is None or not self.samples or self.samples < 1:
                raise ValueError("random mode needs a sample count and a seed")
        elif self.mode != "fixed":
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class ScanWitness:
    matrix: str
    property: str


@dataclass(frozen=True)
class ScanReport:
    """Aggregate scan outcome: exact tallies plus capped witness matrices.

    tallies["violations"] is always the exact violation count, even when
    the witness list was truncated at the cap.
    """

    spec: UniverseSpec
    tested: int
    tallies: dict[str, int]
    violations: tuple[ScanWitness, ...]

    @property
    def violation_count(self) -> int:
        return self.tallies.get("violations", 0)


@lru_cache(maxsize=64)
def _constraint_masks(spec: UniverseSpec) -> tuple[int, ...]:
    """The spec's column constraints as row sets a passing matrix must meet.

    A matrix of `spec.n` columns is a row set: its rank has bit v set for row
    encoding v.  Column k is all-zero exactly when the rank misses O_k, the
    rows with a one in column k (`VALUE_COLUMNS`); columns j and k are equal
    exactly when it misses O_j ^ O_k, the rows that differ there.
    """
    cols = VALUE_COLUMNS[spec.n]
    masks = []
    if spec.forbid_all_zero_column:
        masks += cols
    if spec.require_distinct_columns:
        masks += [a ^ b for a, b in combinations(cols, 2)]
    return tuple(masks)


def _passes_constraints(masks: tuple[int, ...], rank: int) -> bool:
    """Does the row set `rank` meet every mask of `_constraint_masks`?"""
    for mask in masks:
        if not rank & mask:
            return False
    return True


def _byte_rows(offset: int) -> tuple[tuple[int, ...], ...]:
    """Entry b: offset + v for each set bit v of byte b, ascending."""
    table = [()]
    for v in range(offset, offset + 8):
        table += [rows + (v,) for rows in table]
    return tuple(table)


# An exhaustive rank has at most 2^EXHAUSTIVE_MAX_N = 16 bits: two bytes.
_BYTE_ROWS = (_byte_rows(0), _byte_rows(8))


@lru_cache(maxsize=64)
def _size_bounds(space: int, m_min: int, m_max: int) -> tuple[int, ...]:
    """Running totals of the subset counts C(space, m) for m from m_min up."""
    return tuple(accumulate(math.comb(space, m) for m in range(m_min, min(m_max, space) + 1)))


def _draw_random(spec: UniverseSpec, index: int) -> BinaryMatrix:
    """Uniform member of the constrained family, derived from (seed, index).

    Size first (weighted by the number of subsets of that size), then a
    uniform subset of that size; constraint failures redraw.
    """
    rng = random.Random(f"{spec.seed}:{index}")
    space = 2**spec.n
    bounds = _size_bounds(space, spec.m_min, spec.m_max)
    masks = _constraint_masks(spec)
    for _ in range(100_000):
        m = spec.m_min + bisect_right(bounds, rng.randrange(bounds[-1]))
        rows = tuple(sorted(rng.sample(range(space), m)))
        if not masks:
            return _valid_matrix(rows, spec.n)
        rank = sum(1 << r for r in rows)
        if _passes_constraints(masks, rank):
            return _valid_matrix(rows, spec.n, rank)
    raise ValueError(f"constraints reject everything near seed {spec.seed}:{index}")


def _iter_range(spec: UniverseSpec, lo: int, hi: int) -> Iterator[BinaryMatrix]:
    if spec.mode == "random":
        for index in range(lo, hi):
            yield _draw_random(spec, index)
    else:
        # rank to rows: bit v of the rank selects row encoding v, read off
        # two bytes; the constraint test is `_passes_constraints` inline
        bottom, top, n = spec.m_min, spec.m_max, spec.n
        masks = _constraint_masks(spec)
        low, high = _BYTE_ROWS
        for rank in range(lo, hi):
            if bottom <= rank.bit_count() <= top:
                for mask in masks:
                    if not rank & mask:
                        break
                else:
                    yield _valid_matrix(low[rank & 255] + high[rank >> 8], n, rank)


def enumerate_universe(spec: UniverseSpec) -> Iterator[BinaryMatrix]:
    """Stream the whole universe in canonical order."""
    return _iter_range(spec, *_full_range(spec))


def _full_range(spec: UniverseSpec) -> tuple[int, int]:
    if spec.mode == "exhaustive":
        return 1, 2 ** (2**spec.n)
    if spec.mode == "random":
        return 0, spec.samples
    return 1, 2  # fixed: rank 1 alone


# --- per-matrix inspectors (contract in the module docstring) -------------


@lru_cache(maxsize=None)
def _guarantee_names(algo: str, value: bool, heavy: bool, key_hit: bool) -> tuple[str, ...]:
    """The tally names of one theorem1/theorem2 outcome, one tuple per outcome."""
    names = [f"{algo}_{'true' if value else 'false'}", "has_heavy" if heavy else "no_heavy"]
    if key_hit:
        names.append("key_condition_hits")
    if heavy and not value:
        names.append(f"converse_gap_{algo}")
    if not heavy and not value:
        names.append(f"no_heavy_and_{algo}_false")
    if value and not heavy:
        names.append("violations")
    return tuple(names)


def _inspect_guarantee(algo: str, matrix: BinaryMatrix):
    verdict = (run_a2 if algo == "a2" else run_a1)(matrix)
    value = verdict.value
    heavy = bool(heavy_columns(matrix))
    names = _guarantee_names(algo, value, heavy, verdict.witness.tag == KEY_CONDITION)
    if value and not heavy:
        return names, ((matrix, f"{algo}_true_without_heavy"),)
    return names, ()


def _inspect_lemma1(matrix: BinaryMatrix):
    if find_unpaired(matrix) is not None:
        return ("hypothesis_fails",), ()
    if len(heavy_columns(matrix)) < matrix.n:
        # some column has more zeros than ones despite full pairing
        return ("hypothesis_holds", "violations"), ((matrix, "paired_but_unbalanced"),)
    return ("hypothesis_holds",), ()


def _shuffled_reduction_order(matrix: BinaryMatrix, l: int) -> tuple[int, ...]:
    rng = random.Random(f"{SHUFFLE_SEED}:{matrix.n}:{','.join(map(str, matrix.rows))}")
    order = [k for k in range(1, matrix.n + 1) if k != l]
    rng.shuffle(order)
    return tuple(order)


def _inspect_claim(matrix: BinaryMatrix):
    if heavy_columns(matrix):
        return ("has_heavy",), ()
    pair = find_unpaired(matrix)
    if pair is None:
        return ("no_heavy", "violations"), ((matrix, "unpaired_missing"),)
    i, l = pair
    traces = (
        sequential_reduction(matrix, i, l),
        sequential_reduction(matrix, i, l, order=_shuffled_reduction_order(matrix, l)),
    )
    if any(any(t.terminal.rows) for t in traces):
        return ("no_heavy", "unpaired_found", "violations"), ((matrix, "nonzero_terminal"),)
    return ("no_heavy", "unpaired_found"), ()


def _inspect_remark(matrix: BinaryMatrix):
    verdict = run_a2(matrix)
    props = matrix_properties(matrix)
    confirmed = (
        verdict.value is True
        and verdict.witness.line == 1
        and not heavy_columns(matrix)
        and not props.distinct_columns
        and props.has_all_zero_column
    )
    if confirmed:
        return ("confirmed",), ((matrix, "remark_counterexample"),)
    return ("violations",), ((matrix, "remark_violation"),)


def _inspect_converse(matrix: BinaryMatrix):
    heavy = bool(heavy_columns(matrix))
    names = ["has_heavy" if heavy else "no_heavy"]
    cases = []
    if heavy and not run_a1(matrix).value:
        names.append("converse_gap_a1")
        cases.append((matrix, "converse_gap_a1"))
    props = matrix_properties(matrix)
    if props.distinct_columns and not props.has_all_zero_column:
        names.append("a2_checked")
        if heavy and not run_a2(matrix).value:
            names.append("converse_gap_a2")
            cases.append((matrix, "converse_gap_a2"))
    return tuple(names), cases


def _perm_sample(matrix: BinaryMatrix, budget: int) -> list[tuple[int, ...]]:
    all_perms = list(permutations(range(1, matrix.n + 1)))
    if matrix.n <= 4 or len(all_perms) <= budget:
        return all_perms
    rng = random.Random(f"{SHUFFLE_SEED}:{','.join(map(str, matrix.rows))}")
    return rng.sample(all_perms, budget)


def _inspect_order_sensitivity(perm_budget: int, matrix: BinaryMatrix):
    perms = _perm_sample(matrix, perm_budget)
    names = []
    cases = []
    base_a1 = run_a1(matrix).value
    if any(run_a1(matrix, order=explicit_order(p)).value != base_a1 for p in perms):
        names += ["a1_order_mismatch", "violations"]
        cases.append((matrix, "a1_order_mismatch"))
    base_a2 = run_a2(matrix).value
    if any(run_a2(permute_columns(matrix, p)).value != base_a2 for p in perms):
        names.append("a2_permutation_sensitive")
        cases.append((matrix, "a2_permutation_sensitive"))
    else:
        names.append("a2_permutation_stable")
    return tuple(names), cases


def _scan_chunk(task: tuple) -> tuple[int, dict, list]:
    """Inspect one range: (matrices tested, tallies, its first `cap` witnesses).
    Each distinct names tuple is counted, and the counts become tallies once."""
    spec, inspect, lo, hi, cap = task
    counts: dict[tuple[str, ...], int] = {}
    witnesses: list[ScanWitness] = []
    for matrix in _iter_range(spec, lo, hi):
        names, cases = inspect(matrix)
        counts[names] = counts.get(names, 0) + 1
        if cases:
            for case, prop in cases[: cap - len(witnesses)]:
                witnesses.append(ScanWitness(matrix_to_text(case), prop))
    tallies: dict[str, int] = {}
    for names, count in counts.items():
        for name in names:
            tallies[name] = tallies.get(name, 0) + count
    return sum(counts.values()), tallies, witnesses


def _chunk_ranges(lo: int, hi: int, pieces: int) -> list[tuple[int, int]]:
    span = hi - lo
    pieces = max(1, min(pieces, span))
    bounds = [lo + span * p // pieces for p in range(pieces + 1)]
    return list(zip(bounds, bounds[1:]))


def _report(spec: UniverseSpec, partials, keys: tuple[str, ...], witness_cap: int) -> ScanReport:
    """Merge (tested, tallies, witnesses) partials in order into one report."""
    tested = sum(part[0] for part in partials)
    tallies = {key: sum(part[1].get(key, 0) for part in partials) for key in keys}
    witnesses = tuple(case for _, _, cases in partials for case in cases)[:witness_cap]
    return ScanReport(spec=spec, tested=tested, tallies=tallies, violations=witnesses)


def ProcessPoolExecutor(max_workers: int):
    """`concurrent.futures.ProcessPoolExecutor`, imported on first call: only a
    scan with more than one worker loads it, and `multiprocessing` with it."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def _run_scan(
    spec: UniverseSpec, inspect, keys: tuple[str, ...], workers: int, witness_cap: int
) -> ScanReport:
    """Inspect every matrix of `spec` and tally the report's `keys`; a range
    of one chunk runs in this process, whatever `workers` says."""
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be in 1..{MAX_WORKERS}, got {workers}")
    if witness_cap < 0:
        raise ValueError(f"witness cap must be at least 0, got {witness_cap}")
    chunks = _chunk_ranges(*_full_range(spec), workers * 4)
    tasks = [(spec, inspect, lo, hi, witness_cap) for lo, hi in chunks]
    if workers == 1 or len(tasks) == 1:
        partials = [_scan_chunk(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_scan_chunk, tasks))
    return _report(spec, partials, keys, witness_cap)


# --- public scans ----------------------------------------------------------


def check_theorem1(
    spec: UniverseSpec, *, workers: int = 1, witness_cap: int = DEFAULT_WITNESS_CAP
) -> ScanReport:
    """Scan for a1 = True with an empty heavy set (expected count: zero)."""
    if spec.require_distinct_columns or spec.forbid_all_zero_column:
        raise ValueError("the a1 guarantee takes unconstrained columns")
    keys = (
        "a1_true", "a1_false", "has_heavy", "no_heavy",
        "no_heavy_and_a1_false", "converse_gap_a1", "violations",
    )
    return _run_scan(spec, partial(_inspect_guarantee, "a1"), keys, workers, witness_cap)


def check_theorem2(
    spec: UniverseSpec, *, workers: int = 1, witness_cap: int = DEFAULT_WITNESS_CAP
) -> ScanReport:
    """Scan for a2 = True with an empty heavy set on constrained universes."""
    if not (spec.require_distinct_columns and spec.forbid_all_zero_column):
        raise ValueError(
            "the a2 guarantee needs distinct columns and no all-zero column enabled"
        )
    keys = (
        "a2_true", "a2_false", "has_heavy", "no_heavy", "key_condition_hits",
        "no_heavy_and_a2_false", "converse_gap_a2", "violations",
    )
    return _run_scan(spec, partial(_inspect_guarantee, "a2"), keys, workers, witness_cap)


def check_lemma1(
    spec: UniverseSpec, *, workers: int = 1, witness_cap: int = DEFAULT_WITNESS_CAP
) -> ScanReport:
    """Scan for fully-paired matrices with a zeros-majority column."""
    keys = ("hypothesis_holds", "hypothesis_fails", "violations")
    return _run_scan(spec, _inspect_lemma1, keys, workers, witness_cap)


def check_reduction_claim(
    spec: UniverseSpec, *, workers: int = 1, witness_cap: int = DEFAULT_WITNESS_CAP
) -> ScanReport:
    """Check the all-zero-terminal path on every no-heavy matrix."""
    keys = ("has_heavy", "no_heavy", "unpaired_found", "violations")
    return _run_scan(spec, _inspect_claim, keys, workers, witness_cap)


def remark_counterexamples(
    *, workers: int = 1, witness_cap: int = DEFAULT_WITNESS_CAP
) -> ScanReport:
    """Re-run the fixed precondition-violating case: 1x2 all-zero matrix.

    a2 answers True through its single-row base even though no column is
    heavy; both dropped preconditions must be flagged.  A confirmed case is
    expected, not a violation.  `workers` is only checked: one matrix needs no pool.
    """
    spec = UniverseSpec(n=2, m_min=1, m_max=1, mode="fixed")
    return _run_scan(spec, _inspect_remark, ("confirmed", "violations"), workers, witness_cap)


def converse_scan(
    spec: UniverseSpec, *, workers: int = 1, witness_cap: int = DEFAULT_WITNESS_CAP
) -> ScanReport:
    """Collect matrices with heavy columns that the procedures still reject."""
    keys = (
        "has_heavy", "no_heavy", "a2_checked",
        "converse_gap_a1", "converse_gap_a2", "violations",
    )
    return _run_scan(spec, _inspect_converse, keys, workers, witness_cap)


def order_sensitivity_scan(
    spec: UniverseSpec,
    *,
    perm_budget: int = DEFAULT_PERM_BUDGET,
    workers: int = 1,
    witness_cap: int = DEFAULT_WITNESS_CAP,
) -> ScanReport:
    """Assert a1's processing-order invariance; probe a2 column permutations.

    All n! permutations are tried for n <= 4, a seeded sample of
    `perm_budget` otherwise.  a1 mismatches are violations; a2 sensitivity
    is tallied without judgement.
    """
    if perm_budget < 1:
        raise ValueError(f"perm budget must be at least 1, got {perm_budget}")
    keys = (
        "a1_order_mismatch", "a2_permutation_sensitive",
        "a2_permutation_stable", "violations",
    )
    inspect = partial(_inspect_order_sensitivity, perm_budget)
    return _run_scan(spec, inspect, keys, workers, witness_cap)
