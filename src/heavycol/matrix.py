"""Bit-packed binary matrices and heavy-column primitives.

A matrix is an ordered list of rows, each row an unsigned bit pattern over
columns 1..n (column k lives at bit k-1, so entry(i, k) is a cheap shift).
Row order is preserved exactly as given and duplicate rows are representable;
precondition checks (distinct rows/columns, all-zero columns) are reported,
never enforced.  Everything in this module is a pure function over immutable
values, safe for unrestricted concurrent use.

A column is *heavy* when its count of ones is at least its count of zeros,
equivalently at least ceil(m/2) for an m-row matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

MAX_COLUMNS = 63


class MatrixError(ValueError):
    """Base class for matrix construction and access errors."""


class EmptyInput(MatrixError):
    """Parsed text contained no data lines."""


class RaggedRows(MatrixError):
    """Data lines of unequal length."""


class BadCharacter(MatrixError):
    """A data line contained something other than 0/1/#/whitespace."""


class TooWide(MatrixError):
    """More than MAX_COLUMNS columns."""


class ColumnOutOfRange(MatrixError):
    """Column index outside 1..n."""


class IndexOutOfRange(MatrixError):
    """Row or column index outside the matrix."""


@dataclass(frozen=True)
class BinaryMatrix:
    """Ordered rows as bit patterns plus the column count.

    rows[i-1] holds row i; bit k-1 of a row is the entry in column k.
    m >= 1 and 1 <= n <= 63 are enforced at construction.
    """

    rows: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.rows, tuple):
            object.__setattr__(self, "rows", tuple(self.rows))
        if self.n > MAX_COLUMNS:
            raise TooWide(f"{self.n} columns exceeds the {MAX_COLUMNS}-column cap")
        if self.n < 1:
            raise MatrixError(f"column count must be at least 1, got {self.n}")
        if not self.rows:
            raise MatrixError("a matrix needs at least one row")
        mask = (1 << self.n) - 1
        acc = 0
        for r in self.rows:
            if r < 0:
                raise MatrixError(f"negative row encoding {r}")
            acc |= r
        if acc & ~mask:
            raise MatrixError(f"row uses bits beyond column {self.n}")

    @property
    def m(self) -> int:
        return len(self.rows)

    def entry(self, i: int, k: int) -> int:
        """Entry of row i at column k (both 1-based, caller-validated)."""
        return (self.rows[i - 1] >> (k - 1)) & 1


@dataclass(frozen=True)
class MatrixProperties:
    """Precondition flags plus per-column one-counts."""

    distinct_rows: bool
    distinct_columns: bool
    has_all_zero_column: bool
    column_weights: tuple[int, ...]


def parse_matrix(text: str) -> BinaryMatrix:
    """Parse the text format: one row of 0/1 per line.

    '#' starts a comment running to end of line; blank lines are skipped;
    whitespace inside a line is ignored.  All data lines must have equal
    length L with 1 <= L <= 63.
    """
    rows: list[int] = []
    n = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        line = "".join(line.split())
        if not line:
            continue
        bad = set(line) - {"0", "1"}
        if bad:
            raise BadCharacter(f"line {lineno}: unexpected character {sorted(bad)[0]!r}")
        if not rows:
            n = len(line)
            if n > MAX_COLUMNS:
                raise TooWide(f"line {lineno}: {n} columns exceeds the {MAX_COLUMNS}-column cap")
        elif len(line) != n:
            raise RaggedRows(f"line {lineno}: got {len(line)} columns, expected {n}")
        bits = 0
        for k, ch in enumerate(line):
            if ch == "1":
                bits |= 1 << k
        rows.append(bits)
    if not rows:
        raise EmptyInput("no data lines")
    return BinaryMatrix(tuple(rows), n)


def matrix_to_text(matrix: BinaryMatrix) -> str:
    """Inverse of parse_matrix modulo comments and whitespace."""
    lines = []
    for r in matrix.rows:
        lines.append("".join("1" if (r >> k) & 1 else "0" for k in range(matrix.n)))
    return "\n".join(lines)


def _check_column(matrix: BinaryMatrix, k: int) -> None:
    if not 1 <= k <= matrix.n:
        raise ColumnOutOfRange(f"column {k} outside 1..{matrix.n}")


def column_weight(matrix: BinaryMatrix, k: int) -> int:
    """Number of ones in column k."""
    _check_column(matrix, k)
    shift = k - 1
    return sum((r >> shift) & 1 for r in matrix.rows)


def is_heavy(matrix: BinaryMatrix, k: int) -> bool:
    """True when column k has at least as many ones as zeros."""
    # ones >= zeros  <=>  2*ones >= m  <=>  ones >= ceil(m/2)
    return 2 * column_weight(matrix, k) >= matrix.m


def has_heavy_column(matrix: BinaryMatrix) -> bool:
    """Shared early-exit predicate: does any column have ones >= zeros?"""
    m = matrix.m
    rows = matrix.rows
    for shift in range(matrix.n):
        if 2 * sum((r >> shift) & 1 for r in rows) >= m:
            return True
    return False


def heavy_columns(matrix: BinaryMatrix) -> set[int]:
    """All heavy column indices, by direct per-column counting."""
    m = matrix.m
    rows = matrix.rows
    return {
        shift + 1
        for shift in range(matrix.n)
        if 2 * sum((r >> shift) & 1 for r in rows) >= m
    }


def matrix_properties(matrix: BinaryMatrix) -> MatrixProperties:
    """Distinctness flags and per-column weights.

    One pass over the rows builds each column's pattern (bit i-1 set when
    row i has a one there); a column's weight is its pattern's popcount.
    """
    n = matrix.n
    columns = [0] * n
    for i, r in enumerate(matrix.rows):
        row_bit = 1 << i
        for shift in range(n):
            if (r >> shift) & 1:
                columns[shift] |= row_bit
    weights = tuple(c.bit_count() for c in columns)
    return MatrixProperties(
        distinct_rows=len(set(matrix.rows)) == matrix.m,
        distinct_columns=len(set(columns)) == n,
        has_all_zero_column=0 in weights,
        column_weights=weights,
    )


def permute_columns(matrix: BinaryMatrix, perm: Iterable[int]) -> BinaryMatrix:
    """Rebuild the matrix with new column j sourced from column perm[j-1]."""
    perm = tuple(perm)
    if sorted(perm) != list(range(1, matrix.n + 1)):
        raise ColumnOutOfRange(f"not a permutation of 1..{matrix.n}: {perm}")
    rows = []
    for r in matrix.rows:
        bits = 0
        for j, k in enumerate(perm):
            bits |= ((r >> (k - 1)) & 1) << j
        rows.append(bits)
    return BinaryMatrix(tuple(rows), matrix.n)


def report_dict(
    matrix: BinaryMatrix,
    algorithm: str,
    verdict=None,
    heavy: set[int] | None = None,
    properties: MatrixProperties | None = None,
    elapsed_ns: int = 0,
) -> dict:
    """Assemble the report structure shared by the CLI's check/oracle output.

    `verdict` is duck-typed (value/witness/stats) so algorithm runs can be
    attached without an import cycle; None means an oracle-only report.
    """
    if heavy is None:
        heavy = heavy_columns(matrix)
    if properties is None:
        properties = matrix_properties(matrix)
    if verdict is None:
        value = None
        witness = None
        stats = {"calls": 0, "max_depth": 0, "cache_hits": 0, "elapsed_ns": elapsed_ns}
    else:
        value = verdict.value
        w = verdict.witness
        witness = None if w is None else {"line": w.line, "column": w.column}
        stats = {
            "calls": verdict.stats.calls,
            "max_depth": verdict.stats.max_depth,
            "cache_hits": verdict.stats.cache_hits,
            "elapsed_ns": verdict.stats.elapsed_ns,
        }
    return {
        "m": matrix.m,
        "n": matrix.n,
        "algorithm": algorithm,
        "verdict": value,
        "heavy_columns": sorted(heavy),
        "witness": witness,
        "preconditions": {
            "distinct_rows": properties.distinct_rows,
            "distinct_columns": properties.distinct_columns,
            "all_zero_column": properties.has_all_zero_column,
        },
        "stats": stats,
    }


def serialize_report(
    matrix: BinaryMatrix,
    algorithm: str,
    verdict=None,
    heavy: set[int] | None = None,
    properties: MatrixProperties | None = None,
    elapsed_ns: int = 0,
) -> str:
    """Report as one JSON document (stable key order)."""
    return json.dumps(
        report_dict(matrix, algorithm, verdict, heavy, properties, elapsed_ns),
        sort_keys=True,
    )
