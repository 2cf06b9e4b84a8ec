import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from heavycol import (
    BinaryMatrix,
    UniverseSpec,
    column_weight,
    enumerate_universe,
    heavy_columns,
    is_heavy,
    matrix_properties,
    matrix_to_text,
    parse_matrix,
    permute_columns,
)
from heavycol.matrix import (
    BadCharacter,
    ColumnOutOfRange,
    EmptyInput,
    MatrixError,
    RaggedRows,
    TooWide,
)

from conftest import matrices


def test_parse_basic():
    m = parse_matrix("10\n01")
    assert (m.m, m.n) == (2, 2)
    assert [m.entry(1, 1), m.entry(1, 2), m.entry(2, 1), m.entry(2, 2)] == [1, 0, 0, 1]


def test_parse_comment_and_blank_lines():
    m = parse_matrix("# c\n0")
    assert (m.m, m.n) == (1, 1) and m.rows == (0,)
    m = parse_matrix("\n 1 0 \n# x\n01  # trailing\n")
    assert m.rows == (1, 2)


@pytest.mark.parametrize(
    "text,err",
    [
        ("10\n011", RaggedRows),
        ("", EmptyInput),
        ("# only comments\n", EmptyInput),
        ("102", BadCharacter),
        ("1" * 64, TooWide),
    ],
)
def test_parse_errors(text, err):
    with pytest.raises(err):
        parse_matrix(text)


def test_parse_breaks_lines_only_at_newlines():
    # str.splitlines() used to start a new row at a form feed, \x1c, \x85, ...
    assert parse_matrix("10\x0c01").rows == (0b1001,)
    m = parse_matrix("1\x0c0\n11")
    assert (m.m, m.n) == (2, 2)
    assert parse_matrix("1\x0b0\r\n0\x851\r1\u2028\x1c1").rows == (1, 2, 3)
    # error line numbers count only \n, \r\n and \r
    with pytest.raises(RaggedRows, match="line 2:"):
        parse_matrix("1\x0c0\x1c01\r\n1\u20280")
    with pytest.raises(BadCharacter, match="line 3:"):
        parse_matrix("1 1\r\n0\x0b0\r2")


def test_construction_guards():
    with pytest.raises(ValueError):
        BinaryMatrix((), 1)
    with pytest.raises(ValueError):
        BinaryMatrix((4,), 2)  # stray high bit
    with pytest.raises(TooWide):
        BinaryMatrix((0,), 64)


def _row_error(rows, n):
    # the row checks as a loop: the first negative row wins over any
    # over-wide one, wherever it sits
    acc = 0
    for r in rows:
        if r < 0:
            return f"negative row encoding {r}"
        acc |= r
    return f"row uses bits beyond column {n}" if acc >> n else None


def test_row_check_messages():
    assert _row_error((5, -3, 9, -1), 2) == "negative row encoding -3"
    rng = random.Random(4)
    cases = [((5, -3, 9, -1), 2), ((1, 8, 2), 3), ((8, -2), 3), ((-7,), 1), ((3, 0, 1), 2)]
    for _ in range(300):
        n = rng.randint(1, 6)
        cases.append((tuple(rng.randint(-3, 2**n + 3) for _ in range(rng.randint(1, 6))), n))
    raised = 0
    for rows, n in cases:
        expected = _row_error(rows, n)
        if expected is None:
            assert BinaryMatrix(rows, n).rows == rows
            continue
        with pytest.raises(MatrixError) as caught:
            BinaryMatrix(rows, n)
        assert str(caught.value) == expected
        raised += 1
    assert raised > 100


def test_binary_matrix_stays_a_frozen_dataclass():
    # it fills its own fields after checking them; the dataclass API on it
    # is the generated one
    matrix = BinaryMatrix([1, 2, 3], 2)
    assert type(matrix.rows) is tuple and matrix.rows == (1, 2, 3)
    assert BinaryMatrix(iter([1, 2, 3]), 2).rows == (1, 2, 3)
    same = BinaryMatrix(rows=(1, 2, 3), n=2)
    assert matrix == same and hash(matrix) == hash(same)
    assert matrix != BinaryMatrix((1, 2, 3), 3) and matrix != BinaryMatrix((2, 1, 3), 2)
    assert repr(matrix) == "BinaryMatrix(rows=(1, 2, 3), n=2)"
    assert dataclasses.asdict(matrix) == {"rows": (1, 2, 3), "n": 2}
    assert dataclasses.replace(matrix, n=3) == BinaryMatrix((1, 2, 3), 3)
    with pytest.raises(TooWide):
        dataclasses.replace(matrix, n=64)
    assert pickle.loads(pickle.dumps(matrix)) == matrix
    for field, value in (("rows", (0,)), ("n", 3)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(matrix, field, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(matrix, field)
    assert matrix.rows == (1, 2, 3) and matrix.n == 2


def test_column_weight_examples():
    assert column_weight(parse_matrix("11\n01\n10"), 1) == 2
    assert column_weight(parse_matrix("0"), 1) == 0
    assert column_weight(parse_matrix("00\n01\n10\n11"), 2) == 2
    with pytest.raises(ColumnOutOfRange):
        column_weight(parse_matrix("0"), 2)


def test_is_heavy_examples():
    assert is_heavy(parse_matrix("11\n01\n10"), 1)  # weight 2 >= ceil(3/2)
    assert not is_heavy(parse_matrix("00\n01\n10"), 1)  # weight 1 < 2
    assert is_heavy(parse_matrix("10\n01"), 1)  # m=2, weight 1 >= 1


def test_heavy_columns_examples():
    assert heavy_columns(parse_matrix("10\n01")) == {1, 2}
    assert heavy_columns(parse_matrix("00\n01\n10")) == set()
    assert heavy_columns(parse_matrix("1")) == {1}


def test_matrix_properties_examples():
    p = matrix_properties(parse_matrix("00"))
    assert (p.distinct_rows, p.distinct_columns, p.has_all_zero_column) == (True, False, True)
    p = matrix_properties(parse_matrix("10\n01"))
    assert p.distinct_rows and p.distinct_columns and not p.has_all_zero_column
    assert not matrix_properties(parse_matrix("1\n1")).distinct_rows


def test_permute_columns():
    m = parse_matrix("10\n01")
    swapped = permute_columns(m, (2, 1))
    assert matrix_to_text(swapped) == "01\n10"
    with pytest.raises(ColumnOutOfRange):
        permute_columns(m, (1, 1))


@given(matrices())
def test_heavy_iff_double_weight(m):
    for k in range(1, m.n + 1):
        assert is_heavy(m, k) == (2 * column_weight(m, k) >= m.m)
        assert is_heavy(m, k) == (column_weight(m, k) >= (m.m + 1) // 2)


@given(matrices())
def test_heavy_set_row_permutation_invariant(m):
    reversed_rows = BinaryMatrix(tuple(reversed(m.rows)), m.n)
    assert heavy_columns(m) == heavy_columns(reversed_rows)


@given(matrices())
def test_text_roundtrip(m):
    assert parse_matrix(matrix_to_text(m)).rows == m.rows


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_full_cube_every_column_heavy(n):
    cube = BinaryMatrix(tuple(range(2**n)), n)
    assert all(column_weight(cube, k) == 2 ** (n - 1) for k in range(1, n + 1))
    assert heavy_columns(cube) == set(range(1, n + 1))


_FORMAT = st.sampled_from("01# \n\t")


@given(st.text(_FORMAT) | st.text(_FORMAT | st.characters(blacklist_categories=("Cs",))))
@settings(max_examples=300, deadline=None)
def test_parse_matrix_fuzz_raises_only_matrix_errors(text):
    # any text either parses or is rejected with a MatrixError, which the CLI
    # reports as one stderr line and exit 2
    try:
        m = parse_matrix(text)
    except MatrixError:
        return
    assert isinstance(m, BinaryMatrix)
    assert parse_matrix(matrix_to_text(m)) == m


def _heavy_by_weight(m):
    return {k for k in range(1, m.n + 1) if 2 * column_weight(m, k) >= m.m}


def test_heavy_columns_counts_as_column_weight_on_u4():
    # the lane sum against per-column counting on every matrix of U(n <= 4)
    universe = [m for n in range(1, 5) for m in enumerate_universe(UniverseSpec(n=n))]
    assert len(universe) == 3 + 15 + 255 + 65535
    assert [m for m in universe if heavy_columns(m) != _heavy_by_weight(m)] == []


def test_heavy_columns_counts_as_column_weight_when_wide_and_tall():
    # every lane of every byte, up to 63 columns and 300 rows; column
    # densities near one half give both verdicts and exact ties
    rng = random.Random(41)
    shapes = [(n, 300) for n in (7, 8, 9, 16, 17, 63)]
    shapes += [(rng.randint(1, 63), rng.randint(1, 300)) for _ in range(150)]
    for n, m in shapes:
        density = [rng.choice((0.0, 0.3, 0.5, 0.5, 0.7, 1.0)) for _ in range(n)]
        rows = tuple(
            sum(1 << k for k in range(n) if rng.random() < density[k]) for _ in range(m)
        )
        matrix = BinaryMatrix(rows, n)
        assert heavy_columns(matrix) == _heavy_by_weight(matrix), (n, m)
