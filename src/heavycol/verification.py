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
  * remark - the fixed 1x2 all-zero matrix shows a2's preconditions are
    essential (True verdict, no heavy column);
  * converse / order-sensitivity - exploratory tallies for the open
    questions; only a1's processing-order invariance is asserted.

Reports are deterministic byte-for-byte for a fixed spec, whatever the
worker count: work is split into contiguous rank ranges, partial results are
merged in rank order, and witness caps commute with that merge.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, permutations
from typing import Iterator

from .algorithms import KEY_CONDITION, explicit_order, run_a1, run_a2
from .matrix import (
    BinaryMatrix,
    heavy_columns,
    matrix_properties,
    matrix_to_text,
    permute_columns,
)
from .structure import find_unpaired, sequential_reduction

EXHAUSTIVE_MAX_N = 4
DEFAULT_WITNESS_CAP = 20
DEFAULT_SHUFFLE_SEED = 20240801
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
    so any worker partition reproduces the same stream.
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


def _passes_constraints(spec: UniverseSpec, matrix: BinaryMatrix) -> bool:
    if not (spec.require_distinct_columns or spec.forbid_all_zero_column):
        return True
    props = matrix_properties(matrix)
    if spec.require_distinct_columns and not props.distinct_columns:
        return False
    if spec.forbid_all_zero_column and props.has_all_zero_column:
        return False
    return True


def _matrix_from_rank(rank: int, n: int) -> BinaryMatrix:
    """Subset-rank to matrix: bit v of rank selects row encoding v."""
    rows = tuple(v for v in range(2**n) if (rank >> v) & 1)
    return BinaryMatrix(rows, n)


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
    for _ in range(100_000):
        m = spec.m_min + bisect_right(bounds, rng.randrange(bounds[-1]))
        rows = tuple(sorted(rng.sample(range(space), m)))
        matrix = BinaryMatrix(rows, spec.n)
        if _passes_constraints(spec, matrix):
            return matrix
    raise ValueError(f"constraints reject everything near seed {spec.seed}:{index}")


def _iter_range(spec: UniverseSpec, lo: int, hi: int) -> Iterator[BinaryMatrix]:
    if spec.mode == "exhaustive":
        top = spec.m_max
        for rank in range(lo, hi):
            m = rank.bit_count()
            if not spec.m_min <= m <= top:
                continue
            matrix = _matrix_from_rank(rank, spec.n)
            if _passes_constraints(spec, matrix):
                yield matrix
    else:
        for index in range(lo, hi):
            yield _draw_random(spec, index)


def enumerate_universe(spec: UniverseSpec) -> Iterator[BinaryMatrix]:
    """Stream the whole universe in canonical order."""
    lo, hi = _full_range(spec)
    return _iter_range(spec, lo, hi)


def _full_range(spec: UniverseSpec) -> tuple[int, int]:
    if spec.mode == "exhaustive":
        return 1, 2 ** (2**spec.n)
    if spec.mode == "random":
        return 0, spec.samples
    raise ValueError("fixed-mode reports are not enumerable")


# --- per-matrix inspectors ------------------------------------------------
#
# Each inspector returns (tally names to bump, witness cases).  They must be
# module-level so the process pool can pickle the dispatch.


def _inspect_guarantee(matrix: BinaryMatrix, params: dict):
    # run_a1/run_a2 are looked up per call: the benchmark's traced pass wraps them
    algo = params["algo"]
    verdict = (run_a2 if algo == "a2" else run_a1)(matrix)
    value = verdict.value
    heavy = bool(heavy_columns(matrix))
    names = [f"{algo}_{'true' if value else 'false'}", "has_heavy" if heavy else "no_heavy"]
    cases = []
    if value and verdict.witness.tag == KEY_CONDITION:
        names.append("key_condition_hits")
    if heavy and not value:
        names.append(f"converse_gap_{algo}")
    if not heavy and not value:
        names.append(f"no_heavy_and_{algo}_false")
    if value and not heavy:
        names.append("violations")
        cases.append(ScanWitness(matrix_to_text(matrix), f"{algo}_true_without_heavy"))
    return names, cases


def _inspect_lemma1(matrix: BinaryMatrix, params: dict):
    hypothesis = find_unpaired(matrix) is None
    names = ["hypothesis_holds" if hypothesis else "hypothesis_fails"]
    cases = []
    if hypothesis and len(heavy_columns(matrix)) < matrix.n:
        # some column has more zeros than ones despite full pairing
        names.append("violations")
        cases.append(ScanWitness(matrix_to_text(matrix), "paired_but_unbalanced"))
    return names, cases


def _shuffled_reduction_order(matrix: BinaryMatrix, l: int, seed: int) -> tuple[int, ...]:
    rng = random.Random(f"{seed}:{matrix.n}:{','.join(map(str, matrix.rows))}")
    order = [k for k in range(1, matrix.n + 1) if k != l]
    rng.shuffle(order)
    return tuple(order)


def _inspect_claim(matrix: BinaryMatrix, params: dict):
    if heavy_columns(matrix):
        return ["has_heavy"], []
    names = ["no_heavy"]
    cases = []
    pair = find_unpaired(matrix)
    if pair is None:
        names.append("violations")
        cases.append(ScanWitness(matrix_to_text(matrix), "unpaired_missing"))
        return names, cases
    names.append("unpaired_found")
    i, l = pair
    orders = [None, _shuffled_reduction_order(matrix, l, params["shuffle_seed"])]
    bad = False
    for order in orders:
        trace = sequential_reduction(matrix, i, l, order=order)
        if any(trace.terminal.rows):
            bad = True
    if bad:
        names.append("violations")
        cases.append(ScanWitness(matrix_to_text(matrix), "nonzero_terminal"))
    return names, cases


def _inspect_converse(matrix: BinaryMatrix, params: dict):
    heavy = bool(heavy_columns(matrix))
    names = ["has_heavy" if heavy else "no_heavy"]
    cases = []
    if heavy and not run_a1(matrix).value:
        names.append("converse_gap_a1")
        cases.append(ScanWitness(matrix_to_text(matrix), "converse_gap_a1"))
    props = matrix_properties(matrix)
    if props.distinct_columns and not props.has_all_zero_column:
        names.append("a2_checked")
        if heavy and not run_a2(matrix).value:
            names.append("converse_gap_a2")
            cases.append(ScanWitness(matrix_to_text(matrix), "converse_gap_a2"))
    return names, cases


def _perm_sample(matrix: BinaryMatrix, budget: int, seed: int) -> list[tuple[int, ...]]:
    all_perms = list(permutations(range(1, matrix.n + 1)))
    if matrix.n <= 4 or len(all_perms) <= budget:
        return all_perms
    rng = random.Random(f"{seed}:{','.join(map(str, matrix.rows))}")
    return rng.sample(all_perms, budget)


def _inspect_order_sensitivity(matrix: BinaryMatrix, params: dict):
    perms = _perm_sample(matrix, params["perm_budget"], params["perm_seed"])
    names = []
    cases = []
    base_a1 = run_a1(matrix).value
    if any(run_a1(matrix, order=explicit_order(p)).value != base_a1 for p in perms):
        names += ["a1_order_mismatch", "violations"]
        cases.append(ScanWitness(matrix_to_text(matrix), "a1_order_mismatch"))
    base_a2 = run_a2(matrix).value
    if any(run_a2(permute_columns(matrix, p)).value != base_a2 for p in perms):
        names.append("a2_permutation_sensitive")
        cases.append(ScanWitness(matrix_to_text(matrix), "a2_permutation_sensitive"))
    else:
        names.append("a2_permutation_stable")
    return names, cases


_INSPECTORS = {
    "theorem1": _inspect_guarantee,
    "theorem2": _inspect_guarantee,
    "lemma1": _inspect_lemma1,
    "claim": _inspect_claim,
    "converse": _inspect_converse,
    "order_sensitivity": _inspect_order_sensitivity,
}

_TALLY_KEYS = {
    "theorem1": (
        "a1_true", "a1_false", "has_heavy", "no_heavy",
        "no_heavy_and_a1_false", "converse_gap_a1", "violations",
    ),
    "theorem2": (
        "a2_true", "a2_false", "has_heavy", "no_heavy", "key_condition_hits",
        "no_heavy_and_a2_false", "converse_gap_a2", "violations",
    ),
    "lemma1": ("hypothesis_holds", "hypothesis_fails", "violations"),
    "claim": ("has_heavy", "no_heavy", "unpaired_found", "violations"),
    "converse": (
        "has_heavy", "no_heavy", "a2_checked",
        "converse_gap_a1", "converse_gap_a2", "violations",
    ),
    "order_sensitivity": (
        "a1_order_mismatch", "a2_permutation_sensitive",
        "a2_permutation_stable", "violations",
    ),
}


def _scan_chunk(task: tuple) -> tuple[int, dict, list]:
    spec, scan, params, lo, hi, cap = task
    inspect = _INSPECTORS[scan]
    tested = 0
    tallies: Counter = Counter()
    witnesses: list[ScanWitness] = []
    for matrix in _iter_range(spec, lo, hi):
        tested += 1
        names, cases = inspect(matrix, params)
        tallies.update(names)
        for case in cases:
            if len(witnesses) < cap:
                witnesses.append(case)
    return tested, dict(tallies), witnesses


def _chunk_ranges(lo: int, hi: int, pieces: int) -> list[tuple[int, int]]:
    span = hi - lo
    pieces = max(1, min(pieces, span))
    step = span // pieces
    extra = span % pieces
    ranges = []
    start = lo
    for p in range(pieces):
        end = start + step + (1 if p < extra else 0)
        ranges.append((start, end))
        start = end
    return ranges


def _run_scan(
    spec: UniverseSpec,
    scan: str,
    params: dict,
    workers: int = 1,
    witness_cap: int = DEFAULT_WITNESS_CAP,
) -> ScanReport:
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be in 1..{MAX_WORKERS}, got {workers}")
    if witness_cap < 0:
        raise ValueError(f"witness cap must be at least 0, got {witness_cap}")
    lo, hi = _full_range(spec)
    chunks = _chunk_ranges(lo, hi, workers * 4)
    tasks = [(spec, scan, params, clo, chi, witness_cap) for clo, chi in chunks]
    if workers == 1:
        partials = [_scan_chunk(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_scan_chunk, tasks))

    tested = 0
    tallies: Counter = Counter()
    witnesses: list[ScanWitness] = []
    for part_tested, part_tallies, part_witnesses in partials:
        tested += part_tested
        tallies.update(part_tallies)
        for case in part_witnesses:
            if len(witnesses) < witness_cap:
                witnesses.append(case)
    final = {key: tallies.get(key, 0) for key in _TALLY_KEYS[scan]}
    return ScanReport(spec=spec, tested=tested, tallies=final, violations=tuple(witnesses))


# --- public scans ----------------------------------------------------------


def check_theorem1(
    spec: UniverseSpec, *, workers: int = 1, witness_cap: int = DEFAULT_WITNESS_CAP
) -> ScanReport:
    """Scan for a1 = True with an empty heavy set (expected count: zero)."""
    if spec.require_distinct_columns or spec.forbid_all_zero_column:
        raise ValueError("the a1 guarantee takes unconstrained columns")
    return _run_scan(spec, "theorem1", {"algo": "a1"}, workers, witness_cap)


def check_theorem2(
    spec: UniverseSpec, *, workers: int = 1, witness_cap: int = DEFAULT_WITNESS_CAP
) -> ScanReport:
    """Scan for a2 = True with an empty heavy set on constrained universes."""
    if not (spec.require_distinct_columns and spec.forbid_all_zero_column):
        raise ValueError(
            "the a2 guarantee needs distinct columns and no all-zero column enabled"
        )
    return _run_scan(spec, "theorem2", {"algo": "a2"}, workers, witness_cap)


def check_lemma1(
    spec: UniverseSpec, *, workers: int = 1, witness_cap: int = DEFAULT_WITNESS_CAP
) -> ScanReport:
    """Scan for fully-paired matrices with a zeros-majority column."""
    return _run_scan(spec, "lemma1", {}, workers, witness_cap)


def check_reduction_claim(
    spec: UniverseSpec,
    *,
    shuffle_seed: int = DEFAULT_SHUFFLE_SEED,
    workers: int = 1,
    witness_cap: int = DEFAULT_WITNESS_CAP,
) -> ScanReport:
    """Check the all-zero-terminal path on every no-heavy matrix."""
    return _run_scan(spec, "claim", {"shuffle_seed": shuffle_seed}, workers, witness_cap)


def remark_counterexamples() -> ScanReport:
    """Re-run the fixed precondition-violating case: 1x2 all-zero matrix.

    a2 answers True through its single-row base even though no column is
    heavy; both dropped preconditions must be flagged.  A confirmed case is
    expected, not a violation.
    """
    matrix = BinaryMatrix((0,), 2)
    verdict = run_a2(matrix)
    props = matrix_properties(matrix)
    confirmed = (
        verdict.value is True
        and verdict.witness.line == 1
        and not heavy_columns(matrix)
        and not props.distinct_columns
        and props.has_all_zero_column
    )
    spec = UniverseSpec(n=2, m_min=1, m_max=1, mode="fixed")
    tallies = {"confirmed": int(confirmed), "violations": int(not confirmed)}
    text = matrix_to_text(matrix)
    if confirmed:
        witnesses = (ScanWitness(text, "remark_counterexample"),)
    else:
        witnesses = (ScanWitness(text, "remark_violation"),)
    return ScanReport(spec=spec, tested=1, tallies=tallies, violations=witnesses)


def converse_scan(
    spec: UniverseSpec, *, workers: int = 1, witness_cap: int = DEFAULT_WITNESS_CAP
) -> ScanReport:
    """Collect matrices with heavy columns that the procedures still reject."""
    return _run_scan(spec, "converse", {}, workers, witness_cap)


def order_sensitivity_scan(
    spec: UniverseSpec,
    *,
    perm_budget: int = DEFAULT_PERM_BUDGET,
    perm_seed: int = DEFAULT_SHUFFLE_SEED,
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
    params = {"perm_budget": perm_budget, "perm_seed": perm_seed}
    return _run_scan(spec, "order_sensitivity", params, workers, witness_cap)
