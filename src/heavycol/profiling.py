"""Recursion-cost measurement for the certificate procedures.

Growth tables record exact call counts for plain and memoized runs across
matrix families; counts are a pure function of (algorithm, matrix, variant),
so they double as behavioral regression gates.  Wall times are carried for
context but never asserted.

Families:
  * full_cube     - all 2^n rows; the classic blow-up case for plain runs.
  * random_half   - a seeded half-of-the-cube sample per n.
  * worst_found   - the highest-call-count matrix of each exhaustive (n <= 4)
                    universe, harvested on every run.

A run that outlives its wall-clock budget is marked (empty metrics) and the
table is still emitted.  A baseline is a table's own CSV, and its rows name
what `rerun_spec` reruns for `snapshot_compare` to diff against it.
"""

from __future__ import annotations

import csv
import io
import random
import time
from contextlib import suppress
from dataclasses import astuple, dataclass, fields

from .algorithms import BudgetExceeded, run_a1, run_a2, run_memoized
from .matrix import BinaryMatrix
from .verification import EXHAUSTIVE_MAX_N, UniverseSpec, enumerate_universe

DEFAULT_BUDGET_NS = 2_000_000_000

FULL_CUBE_MAX_N = 10
OTHER_MAX_N = 16

# a growth row's variant names and whether it runs memoized
_VARIANTS = (("plain", False), ("memoized", True))


@dataclass(frozen=True)
class GrowthRow:
    """One (matrix, algorithm, variant) measurement; None metrics = timed out."""

    n: int
    family: str
    m: int
    algo: str
    variant: str
    calls: int | None
    cache_hits: int | None
    max_depth: int | None
    elapsed_ns: int | None

    def key(self) -> tuple:
        return (self.family, self.n, self.algo, self.variant)


# The CSV columns are GrowthRow's fields in declaration order; an empty cell
# is a None metric.
CSV_HEADER = [f.name for f in fields(GrowthRow)]


@dataclass(frozen=True)
class GrowthTable:
    rows: tuple[GrowthRow, ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(astuple(r) for r in self.rows)
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "GrowthTable":
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected growth CSV header: {header}")
        rows = []
        for rec in reader:
            if rec:
                rows.append(GrowthRow(*(
                    cell if f.type == "str" else int(cell) if cell or f.type == "int" else None
                    for f, cell in zip(fields(GrowthRow), rec, strict=True)
                )))
        return cls(tuple(rows))

    def key_map(self) -> dict[tuple, GrowthRow]:
        return {r.key(): r for r in self.rows}


def family_label(family) -> str:
    if isinstance(family, tuple):
        kind, seed = family
        return f"{kind}:{seed}"
    return family


def parse_family(text: str, source: str = "--family"):
    """The family that `family_label` writes as `text`; `source` names where
    `text` came from in the error."""
    if text in ("full_cube", "worst_found"):
        return text
    with suppress(ValueError):
        kind, seed = text.split(":")
        if kind == "random_half":
            return ("random_half", int(seed))
    raise ValueError(f"bad {source} {text!r}; use full_cube, random_half:SEED or worst_found")


def _family_matrix(family, n: int, algo: str) -> BinaryMatrix:
    if family == "full_cube":
        return BinaryMatrix(tuple(range(2**n)), n)
    if isinstance(family, tuple) and family[0] == "random_half":
        seed = family[1]
        m = max(1, 2 ** (n - 1))
        rng = random.Random(f"{seed}:{n}")
        return BinaryMatrix(tuple(sorted(rng.sample(range(2**n), m))), n)
    if family == "worst_found":
        return harvest_worst(n, algo)
    raise ValueError(f"unknown family {family!r}")


def harvest_worst(n: int, algo: str) -> BinaryMatrix:
    """Exhaustively find the matrix with the highest plain call count, the
    first in rank order among equals."""
    run = run_a1 if algo == "a1" else run_a2
    best = None
    best_calls = -1
    for matrix in enumerate_universe(UniverseSpec(n=n)):
        calls = run(matrix).stats.calls
        if calls > best_calls:
            best, best_calls = matrix, calls
    return best


def _measure(algo: str, matrix: BinaryMatrix, memoize: bool, budget_ns: int | None) -> tuple:
    """One run's (calls, cache_hits, max_depth, elapsed_ns), timed here; all
    None if it outlived its budget."""
    started = time.perf_counter_ns()
    try:
        if memoize:
            verdict = run_memoized(algo, matrix, budget_ns=budget_ns)
        elif algo == "a1":
            verdict = run_a1(matrix, budget_ns=budget_ns)
        else:
            verdict = run_a2(matrix, budget_ns=budget_ns)
    except BudgetExceeded:
        return (None,) * 4
    elapsed_ns = time.perf_counter_ns() - started
    s = verdict.stats
    return s.calls, s.cache_hits, s.max_depth, elapsed_ns


def profile_family(
    family,
    n_range,
    *,
    algos: tuple[str, ...] = ("a1", "a2"),
    budget_ns: int | None = DEFAULT_BUDGET_NS,
) -> GrowthTable:
    """Run plain and memoized variants over one family, one row per variant.

    `family` is "full_cube", ("random_half", seed), or "worst_found";
    n_range is any iterable of column counts.
    """
    if budget_ns is not None and budget_ns <= 0:
        raise ValueError(f"budget must be positive or None, got {budget_ns} ns")
    if not algos or not set(algos) <= {"a1", "a2"}:
        raise ValueError(f"algorithms must be a1 or a2, got {algos!r}")
    ns = tuple(n_range)
    if not ns:
        raise ValueError(f"empty column-count range {n_range!r}")
    label = family_label(family)
    # worst_found matrices come from exhaustive scans, which stop at n = 4
    cap = {"full_cube": FULL_CUBE_MAX_N, "worst_found": EXHAUSTIVE_MAX_N}.get(family, OTHER_MAX_N)
    for n in ns:
        if not 1 <= n <= cap:
            raise ValueError(f"n={n} outside 1..{cap} for family {label}")
    rows = []
    for n in ns:
        for algo in algos:
            matrix = _family_matrix(family, n, algo)
            for variant, memoize in _VARIANTS:
                metrics = _measure(algo, matrix, memoize, budget_ns)
                rows.append(GrowthRow(n, label, matrix.m, algo, variant, *metrics))
    return GrowthTable(tuple(rows))


# --- baselines and regression diffs ----------------------------------------


def rerun_spec(baseline: GrowthTable) -> tuple:
    """The (family, n values, algorithms) that `profile_family` reruns for a
    baseline, whose rows must be exactly one per n, algorithm and variant."""
    labels = {r.family for r in baseline.rows}
    if len(labels) != 1:
        raise ValueError(f"baseline must hold the rows of one family, got {sorted(labels)}")
    family = parse_family(labels.pop(), "baseline family")
    ns = sorted({r.n for r in baseline.rows})
    algos = tuple(sorted({r.algo for r in baseline.rows}))
    want = [(family_label(family), n, a, v) for n in ns for a in algos for v, _ in _VARIANTS]
    if sorted(r.key() for r in baseline.rows) != sorted(want):
        raise ValueError(f"baseline rows are not one per n in {ns}, algo in {list(algos)} and variant")
    return family, ns, algos


@dataclass(frozen=True)
class DiffEntry:
    key: tuple
    field: str
    baseline: int | None
    current: int | None


@dataclass(frozen=True)
class DiffReport:
    """Behavioral changes (call counts and friends) vs time-only drift."""

    behavioral: tuple[DiffEntry, ...]
    informational: tuple[DiffEntry, ...]

    @property
    def clean(self) -> bool:
        return not self.behavioral


_BEHAVIORAL_FIELDS = ("m", "calls", "cache_hits", "max_depth")


def snapshot_compare(current: GrowthTable, baseline: GrowthTable) -> DiffReport:
    """Diff a fresh table against a baseline, row-matched by key."""
    base = baseline.key_map()
    behavioral = []
    informational = []
    for row in current.rows:
        old = base.get(row.key())
        if old is None:
            raise ValueError(f"baseline has no row for {row.key()}")
        for fld in _BEHAVIORAL_FIELDS:
            a, b = getattr(old, fld), getattr(row, fld)
            if a != b:
                behavioral.append(DiffEntry(row.key(), fld, a, b))
        if old.elapsed_ns != row.elapsed_ns:
            informational.append(DiffEntry(row.key(), "elapsed_ns", old.elapsed_ns, row.elapsed_ns))
    return DiffReport(tuple(behavioral), tuple(informational))
