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

from dataclasses import dataclass
from functools import lru_cache
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


@dataclass(frozen=True, init=False)
class BinaryMatrix:
    """Ordered rows as bit patterns plus the column count.

    rows[i-1] holds row i; bit k-1 of a row is the entry in column k.
    m >= 1 and 1 <= n <= 63 are enforced at construction; any iterable of
    rows is stored as a tuple.
    """

    rows: tuple[int, ...]
    n: int

    def __init__(self, rows, n: int) -> None:
        # checked as locals, then written straight into the instance dict,
        # which costs about half of a frozen dataclass's generated __init__
        if not isinstance(rows, tuple):
            rows = tuple(rows)
        if n > MAX_COLUMNS:
            raise TooWide(f"{n} columns exceeds the {MAX_COLUMNS}-column cap")
        if n < 1:
            raise MatrixError(f"column count must be at least 1, got {n}")
        if not rows:
            raise MatrixError("a matrix needs at least one row")
        if min(rows) < 0:
            first = next(r for r in rows if r < 0)
            raise MatrixError(f"negative row encoding {first}")
        if max(rows) >> n:
            raise MatrixError(f"row uses bits beyond column {n}")
        fields = self.__dict__
        fields["rows"] = rows
        fields["n"] = n

    @property
    def m(self) -> int:
        return len(self.rows)

    def entry(self, i: int, k: int) -> int:
        """Entry of row i at column k (both 1-based, caller-validated)."""
        return (self.rows[i - 1] >> (k - 1)) & 1


def _valid_matrix(rows: tuple[int, ...], n: int) -> BinaryMatrix:
    """A BinaryMatrix built without ``__init__``'s checks, for a caller whose
    rows are by construction a non-empty tuple of values below 2^n, 1 <= n <= 63."""
    matrix = object.__new__(BinaryMatrix)
    fields = matrix.__dict__
    fields["rows"] = rows
    fields["n"] = n
    return matrix


@dataclass(frozen=True)
class MatrixProperties:
    """Precondition flags plus per-column one-counts."""

    distinct_rows: bool
    distinct_columns: bool
    has_all_zero_column: bool
    column_weights: tuple[int, ...]


def parse_matrix(text: str) -> BinaryMatrix:
    """Parse the text format: one row of 0/1 per line.

    Lines break only at LF, CRLF and CR.  '#' starts a comment running to
    end of line; blank lines are skipped; any other whitespace inside a line
    (form feed, vertical tab, NEL, U+2028, ...) is ignored.  All data lines
    must have equal length L with 1 <= L <= 63.
    """
    rows: list[int] = []
    n = 0
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
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
    """Does any column have ones >= zeros?"""
    return bool(heavy_columns(matrix))


# Gathered verdict byte b -> the heavy columns among 1..8 (bit j is column j+1).
_HEAVY = tuple(frozenset(j + 1 for j in range(8) if b >> j & 1) for b in range(256))
_SPREAD = {}  # w -> byte b spread into eight w-bit lanes, lane j bit j of b (a list maps faster)


@lru_cache(maxsize=64)
def _kernel(m: int):
    """For m rows: the spread lookup, lane bias, top bits, gathering multiplier and shift."""
    w = 8
    while m >> w:
        w += 8
    if w not in _SPREAD:
        _SPREAD[w] = [sum(1 << w * j for j in range(8) if b >> j & 1) for b in range(256)]
    ones, gather = _SPREAD[w][255], sum(1 << (w - 1) * j for j in range(8))
    return _SPREAD[w].__getitem__, ((1 << w - 1) - (m + 1) // 2) * ones, ones << w - 1, gather, 8 * w - 8


def heavy_columns(matrix: BinaryMatrix) -> frozenset[int]:
    """All heavy column indices, counted eight columns a word.  Lanes are w
    bits, w the bit length of m rounded up to a byte (m < 2^w).  Row bytes
    spread into the lanes sum from a bias of 2^(w-1) - ceil(m/2) per lane, so
    a top bit is set exactly when its column is heavy and no lane carries (a
    count less ceil(m/2) is at most floor(m/2) < 2^(w-1)).  One multiply gathers the
    top bits into a byte (for w >= 8 its 64 partial products fall on distinct bits),
    and a table names the columns: up to 8 columns its shared set is the answer.
    Nothing is shared with the recursion."""
    rows, n = matrix.rows, matrix.n
    spread, bias, top, gather, shift = _kernel(len(rows))
    if n <= 8:
        return _HEAVY[(sum(map(spread, rows), bias) & top) * gather >> shift & 255]
    heavy = []
    for base in range(0, n, 8):
        if base:
            rows = tuple(map((8).__rrshift__, rows))
        lanes = sum(map(spread, rows if n - base <= 8 else map((255).__and__, rows)), bias)
        heavy += map(base.__add__, _HEAVY[(lanes & top) * gather >> shift & 255])
    return frozenset(heavy)


# O_k per width n up to 7, at index k-1: the values in 0..2^n - 1 with a one
# in column k, as an int with bit v set for each.  The scans' constraint filter
# reads widths up to 6 and the value-position recursion widths up to 7.
VALUE_COLUMNS = tuple(
    tuple(sum(1 << v for v in range(2**n) if v >> k & 1) for k in range(n))
    for n in range(8)
)


def column_patterns(rows, n: int) -> tuple[int, ...]:
    """Each column's pattern, column k at index k-1: bit i set when rows[i]
    has a one in column k.  One pass over the rows, visiting only set bits."""
    columns = [0] * n
    row_bit = 1
    for r in rows:
        while r:
            low = r & -r
            columns[low.bit_length() - 1] |= row_bit
            r ^= low
        row_bit <<= 1
    return tuple(columns)


def matrix_properties(matrix: BinaryMatrix) -> MatrixProperties:
    """Distinctness flags and per-column weights (pattern popcounts)."""
    columns = column_patterns(matrix.rows, matrix.n)
    weights = tuple(c.bit_count() for c in columns)
    return MatrixProperties(
        distinct_rows=len(set(matrix.rows)) == matrix.m,
        distinct_columns=len(set(columns)) == matrix.n,
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

