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
and it is the listings alone.  A run's plan names the one function that every
frame below its root goes through: ``_valued`` (value positions, below) for a
value-position run, ``_memoized`` (the memo cache) for a memoized run, and
``_certify`` itself for any other.  Every frame returns its subtree's
``(value, calls, height)``, the verdict, its frames with itself included and
the levels below it, followed by its own ``(tag, column)``.  A parent adds
each child's ``calls`` and raises its own height to the child's plus one, so
no frame knows its depth; the root's height is the run's max_depth, and the
root's (tag, column) is the run's witness.

Verdicts carry a witness naming the return site above (tag plus line number
and the triggering column where one exists) and recursion statistics (calls,
max_depth, cache_hits), and no time: a verdict is determined by the
procedure, the matrix and the column order, so two runs of one matrix give
equal verdicts.  Verdicts are frozen and shared: a run looks its own up once,
by (procedure, value, tag, column, calls, max_depth, cache_hits), in a
bounded cache that builds it, and its witness with the line from the
procedure's listing, on a miss.  A caller that reports a run's time measures
it itself, as the ``check`` and ``bench growth`` commands do; a run reads the
clock only under a budget.

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
with one row and more than one column returns True at line 1; neither runs
a frame or enters a memo cache (value positions read it as the constant
entry below).  So the parent adds such a child to its ``calls``, makes its
own height at least 1 and goes on, and a frame only ever runs with at least
two columns (and, under a2, at least two rows) below the root.  ``calls``,
``max_depth``, ``cache_hits``, verdicts and witnesses are still those of the
listings' recursion, leaves included.

Value positions.  A plain run (no ``memoize``) of a root with distinct rows
and n <= 7 columns recurses on row values instead: ``mask`` is the row-set
rank, bit v set for each row value v, and ``cols`` is the constant tuple of
``O_k``, the values in 0..2^n - 1 with a one in column k, from
``matrix.VALUE_COLUMNS``, the table the scans' constraint filter reads too.
The root's rows are distinct exactly when the rank's popcount is m (a root
of more than 2^n rows is not ranked); a scan's walk, whose rows are distinct
by construction, hands its rank over, and the run trusts it.  Every popcount
is the one the row positions give, so verdicts, witnesses, ``calls`` and
``max_depth`` are unchanged by construction.  A non-root frame
``(mask, cols)``, and so what it returns, is then the same whichever root of
that width it sits under.

So one plan per process for each (procedure, column order, n) serves every
such run, and every unbudgeted run of it shares one context, which no frame
writes.  ``_valued`` runs a frame of at most 4 columns from the plan's steps
for its column set, ``(k, O_k, child columns, child entries)`` in processing
order, and a wider one, which only roots of 5 to 7 columns have, through
``_certify``.  A child of at most 3 columns is one entry, keyed by its mask
in the entries of its column set: None when it has no heavy column (the
line-10/20 test), ``(True, 0, -1)`` when it is empty (no frame, no call, no
height), ``(True, 1, 0)`` when it is a leaf, and otherwise what its frame
returned.  So a column step reads both children's entries, then tests them.
The listings take the heavy test of both children before they run either,
and reading a child's whole entry first cannot change any returned count:
an entry is a pure function of its key, filled the same whichever frame
first reads it, and a parent adds only the entries that the listings would
have it add.  A miss stores the entry once its subtree has finished, so a
``BudgetExceeded`` leaves no partial entry.  The keys of a column set of w
columns lie in its 2^(n-w) subcubes of 2^w values, so the entries hold at
most the sum over w = 1, 2, 3 of C(n,w) * (2^(n-w) * (2^(2^w) - 1) + 1):
2,510 at n = 4, 11,665 at n = 5, 45,017 at n = 6 and 154,287 at n = 7.
Frames of 4 or more columns are no entries (tabling them was measured no
faster, and such a table grows with the scan).  Memoized runs (whose
``cache_hits`` must not move), duplicate-row roots and roots wider than 7
columns never use a plan.

Memoized runs produce identical verdict values.  The cache is private to one
run, whose algorithm and column order are fixed, and keyed on the frame
itself, each remaining column's bits at the frame's rows in root order: equal
keys are equal row multisets, and verdicts are row-permutation invariant.  A
memoized root's rows are sorted, so every repeated frame hits: a frame's rows
agree on each deleted column, and deleting bits on which two integers agree
keeps their order, so its rows in root order are its projected rows sorted.
The root is not keyed: no other frame has its width.  A hit is what the
listings count, one call and one cache hit with nothing below it, so a miss
stores the constant ``(value, 1, 0)`` for its hits to return.  A hit runs no
frame, so it skips the budget clock, which its parent has just read.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress
from typing import Union

from .matrix import VALUE_COLUMNS, BinaryMatrix, column_patterns

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
class RecursionStats:
    calls: int
    max_depth: int
    cache_hits: int


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


@lru_cache(maxsize=1024)
def _verdict(
    a2: bool, value: bool, tag: str, col: int | None, calls: int, max_depth: int, cache_hits: int
) -> Verdict:
    """A run's verdict: one shared instance per outcome and statistics while
    it is among the 1,024 most recently returned; a miss builds it.  The
    bound holds the 855 distinct verdicts of a2 over constrained U(4)."""
    witness = Witness(tag, col, (_A2_LINES if a2 else _A1_LINES)[tag, value])
    return Verdict(value, witness, RecursionStats(calls, max_depth, cache_hits))


class _Run:
    """A run's context: a1 or a2, memo cache hits, budget deadline, and the
    run's plan: its column orders, its frame cache (a value-position plan's
    steps, a memoized run's private memo cache, or None) and the frame
    function every frame below the root goes through (``_valued``,
    ``_memoized`` or ``_certify``).  Every unbudgeted value-position run of
    one plan shares one context, which no frame writes."""

    __slots__ = ("a2", "cache_hits", "orders", "deadline", "table", "recurse")

    def __init__(self, a2: bool, orders: tuple, deadline: int | None, table, recurse) -> None:
        self.a2, self.orders, self.deadline = a2, orders, deadline
        self.table, self.recurse, self.cache_hits = table, recurse, 0


def _heavy(mask: int, count: int, cols) -> bool:
    """Has some column ones in at least half of the `count` rows in `mask`?"""
    for c in cols:
        if 2 * (mask & c).bit_count() >= count:
            return True
    return False


def _memo_key(mask: int, cols) -> tuple[str, ...]:
    """Each column's bits at the frame's rows, in root order: the frame itself.
    ``keep`` is the mask's digits as bytes, its "0"s made NUL so they select none."""
    width, keep = f"0{mask.bit_length()}b", format(mask, "b").encode().replace(b"0", b"\0")
    return tuple(["".join(compress(format(mask & c, width), keep)) for c in cols])


def _certify(mask: int, cols: tuple, ctx: _Run) -> tuple:
    """One frame of a1, or of a2 when ``ctx.a2`` adds lines 13-14, with at
    least two columns: its subtree's ``(value, calls, height)`` and its own
    ``(tag, column)``.  Leaf children are counted without a call."""
    if ctx.deadline is not None and time.perf_counter_ns() >= ctx.deadline:
        raise BudgetExceeded("run exceeded its wall-clock budget")
    a2 = ctx.a2
    count = mask.bit_count()
    n = len(cols)
    value, tag, col = True, EXHAUSTED_TRUE, None
    calls, height = 1, 0
    recurse = ctx.recurse
    for k in ctx.orders[n]:
        m1 = mask & cols[k - 1]
        m0 = mask ^ m1
        zeros = m0.bit_count()
        if a2 and zeros == 1:
            tag, col = KEY_CONDITION, k
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
            if m0:
                value, sub_calls, h, _, _ = recurse(m0, child, ctx)
                calls += sub_calls
                if h >= height:
                    height = h + 1
            if value and m1 and not leaves:
                value, sub_calls, h, _, _ = recurse(m1, child, ctx)
                calls += sub_calls
                if h >= height:
                    height = h + 1
            if not value:
                tag, col = CHILD_FALSE, k
                break
        if leaves:
            calls += leaves
            if not height:
                height = 1
    return value, calls, height, tag, col


# A child's entry when it has a heavy column and is a leaf (one column, or
# one row under a2), and when it is empty: no frame, no call, and a height
# of -1, so that its parent's height is not raised.
_LEAF = (True, 1, 0)
_EMPTY = (True, 0, -1)


def _valued(mask: int, cols: tuple, ctx: _Run) -> tuple:
    """A frame of a value-position run, its root included.  One of more than
    _TABLE_MAX_N + 1 columns runs ``_certify``; a narrower one runs its
    plan's steps and reads each child from its one entry (see the module
    docstring), storing a missing entry once the child's subtree has
    finished."""
    if len(cols) > _TABLE_MAX_N + 1:
        return _certify(mask, cols, ctx)
    if ctx.deadline is not None and time.perf_counter_ns() >= ctx.deadline:
        raise BudgetExceeded("run exceeded its wall-clock budget")
    a2 = ctx.a2
    calls, height = 1, 0
    for k, column, child, entries in ctx.table[cols]:
        m1 = mask & column
        m0 = mask ^ m1
        if a2 and m0.bit_count() == 1:
            return True, calls, height, KEY_CONDITION, k
        try:
            e0 = entries[m0]
            e1 = entries[m1]
        except KeyError:
            for side in (m0, m1):
                if side not in entries:
                    count = side.bit_count()
                    if not _heavy(side, count, child):
                        entries[side] = None
                    elif len(child) == 1 or a2 and count == 1:
                        entries[side] = _LEAF
                    else:
                        entries[side] = _valued(side, child, ctx)[:3]
            e0, e1 = entries[m0], entries[m1]
        if e0 is None or e1 is None:
            return False, calls, height, NOHEAVY_CHILD, k
        value, sub_calls, h = e0
        calls += sub_calls
        if h >= height:
            height = h + 1
        if value:
            value, sub_calls, h = e1
            calls += sub_calls
            if h >= height:
                height = h + 1
        if not value:
            return False, calls, height, CHILD_FALSE, k
    return True, calls, height, EXHAUSTED_TRUE, None


def _memoized(mask: int, cols: tuple, ctx: _Run) -> tuple:
    """A non-root frame of a memoized run, keyed on its rows read column by
    column (equal keys always mean equal rows).  A miss runs ``_certify`` and
    stores what a hit returns: its verdict as one call with nothing below it."""
    key = _memo_key(mask, cols)
    hit = ctx.table.get(key)
    if hit is not None:
        ctx.cache_hits += 1
        return hit
    entry = _certify(mask, cols, ctx)
    ctx.table[key] = (True, 1, 0, None, None) if entry[0] else (False, 1, 0, None, None)
    return entry


# Roots up to this width with distinct rows recurse on value positions; below
# such a root, frames of up to _TABLE_MAX_N columns are read from entries.
_VALUE_MAX_N = 7
_TABLE_MAX_N = 3


@lru_cache(maxsize=64)
def _value_plan(a2: bool, order: ColumnOrder, n: int) -> _Run:
    """The unbudgeted context shared by every value-position run of one
    procedure, column order and width.  Its table maps each column set of 2
    to _TABLE_MAX_N + 1 of the root's ``O_k`` to its steps in processing
    order, ``(k, O_k, child columns, child entries)``; each child column set
    has one entries dict, keyed by the child's mask, that all its parents
    share."""
    orders = _orders(order, n)
    entries, steps = {}, {}
    for width in range(2, min(n, _TABLE_MAX_N + 1) + 1):
        for cols in combinations(VALUE_COLUMNS[n], width):
            column_steps = []
            for k in orders[width]:
                child = cols[: k - 1] + cols[k:]
                column_steps.append((k, cols[k - 1], child, entries.setdefault(child, {0: _EMPTY})))
            steps[cols] = tuple(column_steps)
    return _Run(a2, orders, None, steps, _valued)


def _run(
    a2: bool, matrix: BinaryMatrix, order: ColumnOrder, memoize: bool, budget_ns: int | None
) -> Verdict:
    deadline = None
    if budget_ns is not None:
        if budget_ns <= 0:
            raise ValueError(f"budget must be positive or None, got {budget_ns} ns")
        # taken at entry, so the root build spends the budget too
        deadline = time.perf_counter_ns() + budget_ns
    rows, n = matrix.rows, matrix.n
    m = len(rows)
    mask = None
    if n <= _VALUE_MAX_N and not memoize:
        # a scan's walk hands over the row-set rank; another root builds it,
        # and its popcount is m exactly when the rows are distinct, which
        # more than 2^n rows never are
        mask = matrix._rank
        if mask is None and m <= 1 << n:
            mask = 0
            for r in rows:
                mask |= 1 << r
            if mask.bit_count() != m:
                mask = None
    if mask is not None:
        ctx, frame, cols = _value_plan(a2, order, n), _valued, VALUE_COLUMNS[n]
        if deadline is not None:
            ctx = _Run(a2, ctx.orders, deadline, ctx.table, _valued)
    else:
        # a memoized run's cache is private to it, and its root is not keyed:
        # no other frame has the root's width; sorted rows make repeats hit
        table, recurse = ({}, _memoized) if memoize else (None, _certify)
        ctx, frame = _Run(a2, _orders(order, n), deadline, table, recurse), _certify
        mask = (1 << m) - 1
        cols = column_patterns(sorted(rows) if memoize else rows, n)
    # checked here once, since a root that ends at a base case runs no frame
    if deadline is not None and time.perf_counter_ns() >= deadline:
        raise BudgetExceeded("run exceeded its wall-clock budget")
    # the root's own base cases (lines 0-7); no frame below the root meets them
    if a2 and m == 1 and n > 1:
        return _verdict(a2, True, M1_BASE, None, 1, 0, 0)
    if n == 1:
        return _verdict(a2, _heavy(mask, m, cols), N1_BASE, 1, 1, 0, 0)
    value, calls, height, tag, col = frame(mask, cols, ctx)
    return _verdict(a2, value, tag, col, calls, height, ctx.cache_hits)


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
