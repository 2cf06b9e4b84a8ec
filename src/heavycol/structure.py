"""Row-filtering reductions, conjugate rows, and sequential reduction traces.

The central move is the reduction: keep the rows holding value b in column k,
then delete column k.  Branch sets bundle the (at most two) non-empty
reductions of a column.  Two rows are conjugate with respect to column k when
they differ exactly there; a row with a 0 entry and no conjugate is unpaired,
and filtering every other column by such a row's own values provably strands
an all-zero single-column matrix.  `sequential_reduction` records that path
as a filter over original row indices, one column per step, and reads the
terminal column off the rows that survive.

All indices in this module are 1-based and refer to the ORIGINAL matrix, so
traces stay checkable against the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .matrix import (
    BinaryMatrix,
    ColumnOutOfRange,
    IndexOutOfRange,
    MatrixError,
)


class NoColumnLeft(MatrixError):
    """Reducing a 1-column matrix would leave zero columns."""


class BadOrder(MatrixError):
    """Reduction order is not a permutation of the non-preserved columns."""


@dataclass(frozen=True)
class BranchSet:
    """The non-empty reductions of one column, value 0 before value 1."""

    column: int
    branches: tuple[tuple[int, BinaryMatrix], ...]


@dataclass(frozen=True)
class ReductionTrace:
    """A full reduction path and its single-column terminal matrix.

    steps holds (original column index, filter value, surviving row count)
    per reduction; survivors are the original row indices still present in
    the terminal matrix, in original order.
    """

    preserved_column: int
    source_row_index: int
    steps: tuple[tuple[int, int, int], ...]
    terminal: BinaryMatrix
    survivors: tuple[int, ...]


def _drop_bit(value: int, k: int) -> int:
    low = value & ((1 << (k - 1)) - 1)
    return ((value >> k) << (k - 1)) | low


def reduce(matrix: BinaryMatrix, k: int, b: int) -> BinaryMatrix | None:
    """Rows with value b at column k, with column k removed.

    Returns None when no row matches (the reduction does not exist).  Raises
    NoColumnLeft when a match exists but n = 1, since deleting the only
    column is rejected; callers never reduce single-column matrices.
    """
    if not 1 <= k <= matrix.n:
        raise ColumnOutOfRange(f"column {k} outside 1..{matrix.n}")
    shift = k - 1
    kept = [r for r in matrix.rows if (r >> shift) & 1 == b]
    if not kept:
        return None
    if matrix.n == 1:
        raise NoColumnLeft("cannot delete the only column")
    return BinaryMatrix(tuple(_drop_bit(r, k) for r in kept), matrix.n - 1)


def branch_set(matrix: BinaryMatrix, k: int) -> BranchSet:
    """Both reductions of column k, omitting the absent ones."""
    branches = []
    for b in (0, 1):
        sub = reduce(matrix, k, b)
        if sub is not None:
            branches.append((b, sub))
    return BranchSet(column=k, branches=tuple(branches))


def _check_row_col(matrix: BinaryMatrix, i: int, k: int) -> None:
    if not 1 <= i <= matrix.m:
        raise IndexOutOfRange(f"row {i} outside 1..{matrix.m}")
    if not 1 <= k <= matrix.n:
        raise IndexOutOfRange(f"column {k} outside 1..{matrix.n}")


def conjugate_of(matrix: BinaryMatrix, i: int, k: int) -> int | None:
    """Index of a row differing from row i exactly at column k, else None.

    With distinct rows at most one such row exists; with duplicates the
    smallest index is returned.
    """
    _check_row_col(matrix, i, k)
    # the target differs from row i at column k, so it is never row i itself
    try:
        return matrix.rows.index(matrix.rows[i - 1] ^ (1 << (k - 1))) + 1
    except ValueError:
        return None


def find_unpaired(matrix: BinaryMatrix) -> tuple[int, int] | None:
    """First (row, column) with a 0 entry and no conjugate, scanning columns
    then rows ascending; None when every zero entry is paired."""
    present = set(matrix.rows)
    for k in range(1, matrix.n + 1):
        bit = 1 << (k - 1)
        for i, r in enumerate(matrix.rows, start=1):
            if r & bit == 0 and (r ^ bit) not in present:
                return (i, k)
    return None


def consistent_rows(matrix: BinaryMatrix, i: int, l: int) -> set[int]:
    """Indices of rows agreeing with row i everywhere except possibly at l."""
    _check_row_col(matrix, i, l)
    off = ~(1 << (l - 1))
    base = matrix.rows[i - 1] & off
    return {j for j, r in enumerate(matrix.rows, start=1) if r & off == base}


def sequential_reduction(
    matrix: BinaryMatrix,
    i: int,
    l: int,
    order: Sequence[int] | None = None,
) -> ReductionTrace:
    """Reduce by row i's own values over every column except l.

    `order` fixes the processing order of the non-l columns (default
    ascending).  Row i survives every step, so the terminal matrix is a
    non-empty single column: column l restricted to the rows that agree
    with row i outside l.
    """
    _check_row_col(matrix, i, l)
    non_l = [k for k in range(1, matrix.n + 1) if k != l]
    if order is None:
        order = tuple(non_l)
    else:
        order = tuple(order)
        if sorted(order) != non_l:
            raise BadOrder(f"order must permute {non_l}, got {list(order)}")

    source = matrix.rows[i - 1]
    survivors = range(1, matrix.m + 1)
    steps: list[tuple[int, int, int]] = []
    for k in order:
        b = (source >> (k - 1)) & 1
        survivors = [j for j in survivors if (matrix.rows[j - 1] >> (k - 1)) & 1 == b]
        steps.append((k, b, len(survivors)))

    shift = l - 1
    return ReductionTrace(
        preserved_column=l,
        source_row_index=i,
        steps=tuple(steps),
        terminal=BinaryMatrix(tuple((matrix.rows[j - 1] >> shift) & 1 for j in survivors), 1),
        survivors=tuple(survivors),
    )
