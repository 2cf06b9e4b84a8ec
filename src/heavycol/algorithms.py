"""The two recursive certificate procedures, a1 and a2.

Both take an m-by-n binary matrix and return True or False.  A True verdict
certifies that a heavy column exists (a1 needs distinct rows; a2 additionally
needs distinct columns and no all-zero column).  The converse fails: a matrix
can have heavy columns yet earn False, so True is sufficient, not necessary.

a1, with the column loop order configurable:

     1  if n = 1:
     2      if ones in the single column >= zeros:
     3          return True
     4      else:
     5          return False
     8  for each column k:
     9      form S_k, the non-empty reductions of column k
    10      if some K in S_k has every column with more zeros than ones:
    11          return False
    13      for each K in S_k:
    14          B = a1(K)
    15          if B = False: return False
    18  return True

a2, with the column loop fixed to ascending order:

     0  if m = 1 and n > 1:
     1      return True
     3  if n = 1:
     4      if ones in the single column >= zeros:
     5          return True
     6      else:
     7          return False
    10  for k = 1 to n:
    11      form the 0-reduction of column k
    12      form the 1-reduction of column k
    13      if exactly one row has 0 in column k:
    14          return True                         # key condition
    16      S_k = the non-empty reductions
    19      for each K in S_k:
    20          if every column of K has more zeros than ones:
    21              return False
    24      for each K in S_k:
    26          B = a2(K)
    27          if B = False:
    28              return False
    32  return True

Verdicts carry a witness naming the return site above (tag plus line number
and the triggering column where one exists) and recursion statistics.

``run_a1``/``run_a2`` take one validated ``BinaryMatrix``; below that root the
recursion runs on raw rows (a sequence of row bit patterns plus the column
count), so no frame builds or re-validates a matrix.  One pass over the rows
forms both reductions of a column (``_split``), a2's key condition reads as
"the 0-reduction has one row", and the line-10/20 test is one private
predicate on raw rows, ``_has_heavy`` negated, since "every column has more
zeros than ones" is exactly "no column is heavy".

Memoized runs produce identical verdict values; the cache is private to one
invocation and keyed on (algorithm, n, sorted row multiset, column-order
class), which is sound because verdicts are row-permutation invariant.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Union

from .matrix import BinaryMatrix

# The recursion calls none of these.  They stay importable under this module
# because the benchmark's traced pass (perfbench/layers.py) wraps them here.
from .matrix import column_weight, has_heavy_column, is_heavy  # noqa: F401
from .structure import branch_set, reduce  # noqa: F401

N1_BASE = "N1_BASE"
M1_BASE = "M1_BASE"
KEY_CONDITION = "KEY_CONDITION"
NOHEAVY_CHILD = "NOHEAVY_CHILD"
CHILD_FALSE = "CHILD_FALSE"
EXHAUSTED_TRUE = "EXHAUSTED_TRUE"

ASCENDING = "ascending"

# Return-site line numbers in the listings above, per (tag, verdict value).
_A1_LINES = {
    (N1_BASE, True): 3,
    (N1_BASE, False): 5,
    (NOHEAVY_CHILD, False): 11,
    (CHILD_FALSE, False): 15,
    (EXHAUSTED_TRUE, True): 18,
}
_A2_LINES = {
    (M1_BASE, True): 1,
    (N1_BASE, True): 5,
    (N1_BASE, False): 7,
    (KEY_CONDITION, True): 14,
    (NOHEAVY_CHILD, False): 21,
    (CHILD_FALSE, False): 28,
    (EXHAUSTED_TRUE, True): 32,
}

ColumnOrder = Union[str, tuple]


class BudgetExceeded(RuntimeError):
    """A run outlived its optional wall-clock budget."""


def shuffled_order(seed: int) -> tuple:
    """Column-order spec: seeded shuffle, re-derived at each recursion level."""
    return ("shuffled", seed)


def explicit_order(perm) -> tuple:
    """Column-order spec: a fixed permutation of the root columns; deeper
    levels use the relative order it induces on their smaller index range."""
    return ("explicit", tuple(perm))


@dataclass(frozen=True)
class AlgoConfig:
    """Run options: a1's column-processing order, and memoization.

    a2 ignores column_order; its loop order is part of the procedure.
    """

    column_order: ColumnOrder = ASCENDING
    memoize: bool = False


@dataclass(frozen=True)
class RecursionStats:
    calls: int
    max_depth: int
    cache_hits: int
    elapsed_ns: int


@dataclass(frozen=True)
class Witness:
    """Where the top-level call returned: tag, listing line, column if any."""

    tag: str
    column: int | None
    line: int


@dataclass(frozen=True)
class Verdict:
    value: bool
    witness: Witness | None
    stats: RecursionStats


def _validate_order(order: ColumnOrder, n: int) -> None:
    if order == ASCENDING:
        return
    if isinstance(order, tuple) and len(order) == 2:
        kind, arg = order
        if kind == "shuffled" and isinstance(arg, int):
            return
        if kind == "explicit" and sorted(arg) == list(range(1, n + 1)):
            return
    raise ValueError(f"bad column order {order!r}")


def _order_for(order: ColumnOrder, n_cols: int) -> tuple[int, ...]:
    """Processing order of 1..n_cols at one recursion level."""
    if order == ASCENDING:
        return tuple(range(1, n_cols + 1))
    kind, arg = order
    if kind == "shuffled":
        rng = random.Random(f"{arg}:{n_cols}")
        cols = list(range(1, n_cols + 1))
        rng.shuffle(cols)
        return tuple(cols)
    # explicit: relative order induced on 1..n_cols
    return tuple(k for k in arg if k <= n_cols)


class _Run:
    """Mutable per-invocation context: statistics, cache, witness, budget."""

    __slots__ = ("calls", "max_depth", "cache_hits", "cache", "order", "deadline", "witness")

    def __init__(self, order: ColumnOrder, memoize: bool, budget_ns: int | None):
        self.calls = 0
        self.max_depth = 0
        self.cache_hits = 0
        self.cache: dict | None = {} if memoize else None
        self.order = order
        self.deadline = None if budget_ns is None else time.monotonic_ns() + budget_ns
        self.witness: tuple[str, int | None, bool] | None = None

    def enter(self, depth: int) -> None:
        self.calls += 1
        if depth > self.max_depth:
            self.max_depth = depth
        if self.deadline is not None and time.monotonic_ns() >= self.deadline:
            raise BudgetExceeded("run exceeded its wall-clock budget")


def _split(rows, k: int) -> tuple[list[int], list[int]]:
    """The 0- and 1-reduction of column k in one pass: the rows holding each
    value there, with column k deleted (``structure.reduce`` without the
    matrix).  An absent reduction is an empty list."""
    bit = 1 << (k - 1)
    low = bit - 1
    shift = k - 1
    sub0: list[int] = []
    sub1: list[int] = []
    for r in rows:
        dropped = ((r >> k) << shift) | (r & low)
        if r & bit:
            sub1.append(dropped)
        else:
            sub0.append(dropped)
    return sub0, sub1


def _has_heavy(rows, n: int) -> bool:
    """Does some column of the n-column rows have ones >= zeros?"""
    m = len(rows)
    bit = 1
    for _ in range(n):
        ones = 0
        for r in rows:
            if r & bit:
                ones += 1
        if 2 * ones >= m:
            return True
        bit <<= 1
    return False


def _a1(rows, n: int, depth: int, ctx: _Run) -> bool:
    ctx.enter(depth)
    if n == 1:
        value = 2 * sum(rows) >= len(rows)
        if depth == 0:
            ctx.witness = (N1_BASE, 1, value)
        return value

    key = None
    if ctx.cache is not None:
        key = ("a1", n, tuple(sorted(rows)), ctx.order)
        cached = ctx.cache.get(key)
        if cached is not None:
            ctx.cache_hits += 1
            return cached

    value, tag, col = True, EXHAUSTED_TRUE, None
    sub_n = n - 1
    for k in _order_for(ctx.order, n):
        sub0, sub1 = _split(rows, k)
        if (sub0 and not _has_heavy(sub0, sub_n)) or (sub1 and not _has_heavy(sub1, sub_n)):
            value, tag, col = False, NOHEAVY_CHILD, k
            break
        if (sub0 and not _a1(sub0, sub_n, depth + 1, ctx)) or (
            sub1 and not _a1(sub1, sub_n, depth + 1, ctx)
        ):
            value, tag, col = False, CHILD_FALSE, k
            break

    if ctx.cache is not None:
        ctx.cache[key] = value
    if depth == 0:
        ctx.witness = (tag, col, value)
    return value


def _a2(rows, n: int, depth: int, ctx: _Run) -> bool:
    ctx.enter(depth)
    if len(rows) == 1 and n > 1:
        if depth == 0:
            ctx.witness = (M1_BASE, None, True)
        return True
    if n == 1:
        value = 2 * sum(rows) >= len(rows)
        if depth == 0:
            ctx.witness = (N1_BASE, 1, value)
        return value

    key = None
    if ctx.cache is not None:
        key = ("a2", n, tuple(sorted(rows)))
        cached = ctx.cache.get(key)
        if cached is not None:
            ctx.cache_hits += 1
            return cached

    value, tag, col = True, EXHAUSTED_TRUE, None
    sub_n = n - 1
    for k in range(1, n + 1):
        sub0, sub1 = _split(rows, k)
        if len(sub0) == 1:
            value, tag, col = True, KEY_CONDITION, k
            break
        if (sub0 and not _has_heavy(sub0, sub_n)) or (sub1 and not _has_heavy(sub1, sub_n)):
            value, tag, col = False, NOHEAVY_CHILD, k
            break
        if (sub0 and not _a2(sub0, sub_n, depth + 1, ctx)) or (
            sub1 and not _a2(sub1, sub_n, depth + 1, ctx)
        ):
            value, tag, col = False, CHILD_FALSE, k
            break

    if ctx.cache is not None:
        ctx.cache[key] = value
    if depth == 0:
        ctx.witness = (tag, col, value)
    return value


def _finish(ctx: _Run, value: bool, lines: dict, started_ns: int) -> Verdict:
    tag, col, wvalue = ctx.witness
    assert wvalue == value
    witness = Witness(tag=tag, column=col, line=lines[(tag, value)])
    stats = RecursionStats(
        calls=ctx.calls,
        max_depth=ctx.max_depth,
        cache_hits=ctx.cache_hits,
        elapsed_ns=time.perf_counter_ns() - started_ns,
    )
    return Verdict(value=value, witness=witness, stats=stats)


def run_a1(
    matrix: BinaryMatrix,
    config: AlgoConfig | None = None,
    *,
    budget_ns: int | None = None,
) -> Verdict:
    """Run a1 on the matrix under the given configuration."""
    cfg = config or AlgoConfig()
    _validate_order(cfg.column_order, matrix.n)
    ctx = _Run(cfg.column_order, cfg.memoize, budget_ns)
    started = time.perf_counter_ns()
    value = _a1(matrix.rows, matrix.n, 0, ctx)
    return _finish(ctx, value, _A1_LINES, started)


def run_a2(
    matrix: BinaryMatrix,
    *,
    memoize: bool = False,
    budget_ns: int | None = None,
) -> Verdict:
    """Run a2 on the matrix; the column loop is always ascending."""
    ctx = _Run(ASCENDING, memoize, budget_ns)
    started = time.perf_counter_ns()
    value = _a2(matrix.rows, matrix.n, 0, ctx)
    return _finish(ctx, value, _A2_LINES, started)


def run_memoized(
    algo: str,
    matrix: BinaryMatrix,
    config: AlgoConfig | None = None,
    *,
    budget_ns: int | None = None,
) -> Verdict:
    """Memoized variant of either procedure; verdict values never change."""
    if algo == "a1":
        cfg = replace(config or AlgoConfig(), memoize=True)
        return run_a1(matrix, cfg, budget_ns=budget_ns)
    if algo == "a2":
        return run_a2(matrix, memoize=True, budget_ns=budget_ns)
    raise ValueError(f"unknown algorithm {algo!r}")
