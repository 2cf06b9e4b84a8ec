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

a2 is a1 plus two True exits, line 0 and the key condition at lines 13-14,
with its loop fixed ascending; a1's other return sites 3, 5, 11, 15 and 18
are a2's 5, 7, 21, 28 and 32.  One frame function, ``_certify``, runs both,
and it is the listings alone: the two frame caches below, the sub-frame
table and the memo cache, are wrappers that a run's plan puts between a
frame and its children.

Verdicts carry a witness naming the return site above (tag plus line number
and the triggering column where one exists) and recursion statistics.
Witnesses are frozen, so one instance serves every run that returns at the
same site: a run looks it up once, by (procedure, verdict, tag, column), in
a cache that picks the line from the procedure's listing.

``run_a1``/``run_a2`` take one validated ``BinaryMatrix``; below that root a
frame is an int ``mask`` of root row positions (bit i for root row i+1) plus
the tuple of root column patterns still present (a pattern has bit i set when
root row i+1 has a one there).  Every step of the listings is a popcount:
column k splits into ``m1 = mask & cols[k]`` and ``m0 = mask ^ m1``, a2's key
condition is ``m0.bit_count() == 1``, deleting column k drops ``cols[k]``, and
the line-10/20 test is ``_heavy`` negated ("every column has more zeros than
ones" is exactly "no column is heavy").  No frame copies a row.  The mask
names root positions, not row values, so duplicate rows are counted once per
occurrence and row order plays no part, exactly as with explicit row lists.

Leaf children are counted, not called.  A child with one column returns the
line-10/20 heavy test its parent has just passed (True), and under a2 a child
with one row and more than one column returns True at line 1; neither goes
through a frame cache.  So the parent adds such a child to ``calls`` at
depth + 1 (raising ``max_depth`` to it) and goes on, and ``_certify`` only
ever runs on frames with at least two columns (and, under a2, at least two
rows) below the root.  ``calls`` still counts every frame of the listings,
leaves included, and ``max_depth``, ``cache_hits``, verdicts and witnesses
are those of the listings' recursion.

Value positions.  A plain run (no ``memoize``) of a root with distinct rows
and n <= 7 columns recurses on row values instead: ``mask`` is the row-set
rank, bit v set for each row value v (the rows are distinct exactly when its
popcount is m; a root of more than 2^n rows is not ranked), and ``cols`` is
the constant tuple of ``O_k``, the values in 0..2^n - 1 with a one in column
k, from ``matrix.VALUE_COLUMNS``, the table the scans' constraint filter
reads too.  Every popcount is the one the row positions give, so verdicts,
witnesses, ``calls`` and ``max_depth`` are unchanged by construction.  A
non-root frame ``(mask, cols)`` is then the same whichever root of that width
it sits under, and a frame of at most 3 columns keys one table per process
for each (procedure, column order, n).  An
entry is ``(value, calls, height)``: the verdict, the frames of the subtree
and its depth below the frame.  A hit adds ``calls`` and raises ``max_depth``
to depth + height; a miss runs the frame and stores its entry only once the
subtree has finished, so a ``BudgetExceeded`` leaves no partial entry.  Wider
frames below the root run ``_certify`` each time (tabling them too was
measured no faster, and its table grows with the scan); which of the two a
child goes through is fixed per width in the run's plan, so no frame tests
its width.  A table's keys lie in the 3- and 2-column subcubes of its root,
C(n,3) * 2^(n-3) subcubes of 8 values and C(n,2) * 2^(n-2) of 4, so it holds
at most C(n,3) * 2^(n-3) * 255 + C(n,2) * 2^(n-2) * 15 entries: 2,400 at
n = 4, 11,400 at n = 5, 44,400 at n = 6 and 152,880 at n = 7.  Memoized runs
(whose ``cache_hits`` must not move), duplicate-row roots and roots wider
than 7 columns never use a table and keep the row-position recursion: a
plain run's children all go through ``_certify``, a memoized run's through
``_memoized``.

Memoized runs produce identical verdict values.  The cache is private to one
run, whose algorithm and column order are fixed, and keyed on (n, projected
rows): the sorted multiset of the frame's rows projected onto its columns,
not the mask, which is sound because verdicts are row-permutation invariant.
The root is not keyed, since no other frame has its width.  The width fixes
the depth (root n minus n), so the frame that stored a key has already
raised ``max_depth`` to the depth of every frame that hits it, and a hit is
one call plus one cache hit at that depth and nothing else: it runs no
frame, so it does not read the budget clock, which its parent has just read.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Union

from .matrix import MAX_COLUMNS, VALUE_COLUMNS, BinaryMatrix, column_patterns

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


# RecursionStats and Verdict write their fields straight into the instance
# dict: a frozen dataclass's generated __init__ sets each one through
# object.__setattr__, about twice the cost, and every run builds one of each.
# Equality, hashing, repr, asdict and FrozenInstanceError are the dataclass's.
@dataclass(frozen=True, init=False)
class RecursionStats:
    calls: int
    max_depth: int
    cache_hits: int
    elapsed_ns: int

    def __init__(self, calls: int, max_depth: int, cache_hits: int, elapsed_ns: int):
        fields = self.__dict__
        fields["calls"] = calls
        fields["max_depth"] = max_depth
        fields["cache_hits"] = cache_hits
        fields["elapsed_ns"] = elapsed_ns


@dataclass(frozen=True)
class Witness:
    """Where the top-level call returned: tag, listing line, column if any."""

    tag: str
    column: int | None
    line: int


@dataclass(frozen=True, init=False)
class Verdict:
    value: bool
    witness: Witness | None
    stats: RecursionStats

    def __init__(self, value: bool, witness: Witness | None, stats: RecursionStats):
        fields = self.__dict__
        fields["value"] = value
        fields["witness"] = witness
        fields["stats"] = stats


def _validate_order(order: ColumnOrder, n: int) -> None:
    """Reject any order but a shuffled or explicit one (ASCENDING is checked
    by the caller, so the common run makes no call here)."""
    if isinstance(order, tuple) and len(order) == 2:
        kind, arg = order
        if kind == "shuffled" and isinstance(arg, int):
            return
        if kind == "explicit" and isinstance(arg, tuple) and sorted(arg) == list(range(1, n + 1)):
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


@lru_cache(maxsize=1024)
def _orders(order: ColumnOrder, n: int) -> tuple[tuple[int, ...], ...]:
    """The processing order of every width up to n, indexed by width."""
    return tuple(_order_for(order, w) for w in range(n + 1))


@lru_cache(maxsize=None)
def _witness(a2: bool, value: bool, tag: str, col: int | None) -> Witness:
    """The witness of a return site, one shared instance per site and column."""
    return Witness(tag, col, (_A2_LINES if a2 else _A1_LINES)[tag, value])


class _Run:
    """Mutable per-run context: a1 or a2, statistics, the root's (tag, column)
    witness, budget deadline, and the run's plan: its column orders, its one
    frame cache (a value-position run's sub-frame table, a memoized run's
    private memo cache, or None) and, at index n, the frame function that the
    children of an n-column frame go through.  `_run` fills every slot itself:
    an ``__init__`` call costs about a twentieth of a U(4) run."""

    __slots__ = (
        "a2", "calls", "max_depth", "cache_hits", "orders", "deadline", "witness",
        "table", "recurse",
    )


def _heavy(mask: int, count: int, cols) -> bool:
    """Has some column ones in at least half of the `count` rows in `mask`?"""
    for c in cols:
        if 2 * (mask & c).bit_count() >= count:
            return True
    return False


def _memo_rows(mask: int, cols) -> tuple[int, ...]:
    """The frame's rows projected onto its columns, sorted: equal for frames
    that different reduction paths reach with the same row multiset.  Reads
    each pattern's bits off its binary string, so the cost is O(m*n)."""
    rows = [0] * mask.bit_length()
    for j, c in enumerate(cols):
        for i, bit in enumerate(bin(mask & c)[:1:-1]):
            if bit == "1":
                rows[i] |= 1 << j
    return tuple(sorted(compress(rows, map(int, bin(mask)[:1:-1]))))


def _certify(mask: int, cols: tuple, depth: int, ctx: _Run) -> bool:
    """One frame of a1, or of a2 when ``ctx.a2`` adds lines 13-14, with at
    least two columns; its leaf children are counted without a call."""
    ctx.calls += 1
    if depth > ctx.max_depth:
        ctx.max_depth = depth
    if ctx.deadline is not None and time.perf_counter_ns() >= ctx.deadline:
        raise BudgetExceeded("run exceeded its wall-clock budget")
    a2 = ctx.a2
    count = mask.bit_count()
    n = len(cols)
    value, tag, col = True, EXHAUSTED_TRUE, None
    recurse = ctx.recurse[n]
    for k in ctx.orders[n]:
        m1 = mask & cols[k - 1]
        m0 = mask ^ m1
        zeros = m0.bit_count()
        if a2 and zeros == 1:
            value, tag, col = True, KEY_CONDITION, k
            break
        ones = count - zeros
        child = cols[: k - 1] + cols[k:]
        if (m0 and not _heavy(m0, zeros, child)) or (m1 and not _heavy(m1, ones, child)):
            value, tag, col = False, NOHEAVY_CHILD, k
            break
        if n == 2:
            # one-column children: each returns the heavy test just passed
            leaves = (zeros > 0) + (ones > 0)
        else:
            # a2's one-row child returns True at line 1; its zero side never
            # has one row here, since that is the key condition
            leaves = a2 and ones == 1
            if (m0 and not recurse(m0, child, depth + 1, ctx)) or (
                m1 and not leaves and not recurse(m1, child, depth + 1, ctx)
            ):
                value, tag, col = False, CHILD_FALSE, k
                break
        if leaves:
            ctx.calls += leaves
            if depth >= ctx.max_depth:
                ctx.max_depth = depth + 1
    if depth == 0:
        ctx.witness = (tag, col)
    return value


def _tabled(mask: int, cols: tuple, depth: int, ctx: _Run) -> bool:
    """A non-root frame of a value-position run, served from the run's table:
    a hit adds the subtree's frames and height as if it had run; a miss runs
    ``_certify`` and stores the entry once the subtree has finished."""
    key = (mask, cols)
    entry = ctx.table.get(key)
    if entry is None:
        outer, calls = ctx.max_depth, ctx.calls
        ctx.max_depth = depth
        value = _certify(mask, cols, depth, ctx)
        ctx.table[key] = (value, ctx.calls - calls, ctx.max_depth - depth)
        if outer > ctx.max_depth:
            ctx.max_depth = outer
        return value
    value, calls, height = entry
    ctx.calls += calls
    if depth + height > ctx.max_depth:
        ctx.max_depth = depth + height
    return value


def _memoized(mask: int, cols: tuple, depth: int, ctx: _Run) -> bool:
    """A non-root frame of a memoized run, keyed on its width and projected
    rows: a miss runs ``_certify`` and stores its verdict; a hit is one call
    and one cache hit.  The width fixes the depth, so the frame that stored
    the key has already raised ``max_depth`` to this one, and the parent has
    just read the budget clock."""
    key = (len(cols), _memo_rows(mask, cols))
    value = ctx.table.get(key)
    if value is None:
        value = ctx.table[key] = _certify(mask, cols, depth, ctx)
    else:
        ctx.calls += 1
        ctx.cache_hits += 1
    return value


# Roots up to this width with distinct rows recurse on value positions; below
# such a root, frames of up to _TABLE_MAX_N columns are served from the table.
_VALUE_MAX_N = 7
_TABLE_MAX_N = 3

# A plain row-position run's children all go through `_certify`, and a
# memoized run's through `_memoized`, whatever the width.
_CERTIFY_ALL = (_certify,) * (MAX_COLUMNS + 1)
_MEMOIZE_ALL = (_memoized,) * (MAX_COLUMNS + 1)


@lru_cache(maxsize=64)
def _value_plan(a2: bool, order: ColumnOrder, n: int) -> tuple[tuple, dict, tuple]:
    """The column orders, the sub-frame table and the frame function for the
    children of each width, shared by every value-position run of one
    procedure, column order and width."""
    recurse = tuple(_tabled if w - 1 <= _TABLE_MAX_N else _certify for w in range(n + 1))
    return _orders(order, n), {}, recurse


def _run(
    a2: bool, matrix: BinaryMatrix, order: ColumnOrder, memoize: bool, budget_ns: int | None
) -> Verdict:
    started = time.perf_counter_ns()
    if budget_ns is not None and budget_ns <= 0:
        raise ValueError(f"budget must be positive or None, got {budget_ns} ns")
    rows, n = matrix.rows, matrix.n
    m = len(rows)
    # the row-set rank, whose popcount is m exactly when the rows are
    # distinct, which more than 2^n rows never are
    mask = 0
    if n <= _VALUE_MAX_N and not memoize and m <= 1 << n:
        for r in rows:
            mask |= 1 << r
    if mask.bit_count() == m:
        orders, table, recurse = _value_plan(a2, order, n)
        cols = VALUE_COLUMNS[n]
    else:
        # a memoized run's cache is private to it, and its root is not keyed:
        # no other frame has the root's width
        orders = _orders(order, n)
        table, recurse = ({}, _MEMOIZE_ALL) if memoize else (None, _CERTIFY_ALL)
        mask = (1 << m) - 1
        cols = column_patterns(rows, n)
    # the budget counts from `started`, so the root build spends it too, and
    # it is checked here once, since a root that ends at a base case runs no frame
    deadline = None if budget_ns is None else started + budget_ns
    if deadline is not None and time.perf_counter_ns() >= deadline:
        raise BudgetExceeded("run exceeded its wall-clock budget")
    ctx = object.__new__(_Run)
    ctx.a2, ctx.orders, ctx.deadline, ctx.table, ctx.recurse = a2, orders, deadline, table, recurse
    ctx.calls = ctx.max_depth = ctx.cache_hits = 0
    ctx.witness = None
    # the root's own base cases (lines 0-7); no frame below the root meets them
    if a2 and m == 1 and n > 1:
        ctx.calls, value, tag, col = 1, True, M1_BASE, None
    elif n == 1:
        ctx.calls, value, tag, col = 1, _heavy(mask, m, cols), N1_BASE, 1
    else:
        value = _certify(mask, cols, 0, ctx)
        tag, col = ctx.witness
    stats = RecursionStats(ctx.calls, ctx.max_depth, ctx.cache_hits, time.perf_counter_ns() - started)
    return Verdict(value, _witness(a2, value, tag, col), stats)


def run_a1(
    matrix: BinaryMatrix,
    *,
    order: ColumnOrder = ASCENDING,
    memoize: bool = False,
    budget_ns: int | None = None,
) -> Verdict:
    """Run a1 on the matrix, its column loop in the given order."""
    if order != ASCENDING:
        _validate_order(order, matrix.n)
    return _run(False, matrix, order, memoize, budget_ns)


def run_a2(
    matrix: BinaryMatrix,
    *,
    memoize: bool = False,
    budget_ns: int | None = None,
) -> Verdict:
    """Run a2 on the matrix; the column loop is always ascending."""
    return _run(True, matrix, ASCENDING, memoize, budget_ns)


def run_memoized(algo: str, matrix: BinaryMatrix, *, budget_ns: int | None = None) -> Verdict:
    """Memoized variant of either procedure; verdict values never change."""
    if algo not in ("a1", "a2"):
        raise ValueError(f"unknown algorithm {algo!r}")
    run = run_a1 if algo == "a1" else run_a2
    return run(matrix, memoize=True, budget_ns=budget_ns)
