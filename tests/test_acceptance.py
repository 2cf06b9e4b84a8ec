"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` (or `-rA`) to see the lines.

Criterion 2 pins the exact counterexample set to the a2 guarantee.  a2 is a
faithful transcription of its listing, and the guarantee as stated is false
at n=4: the exhaustive scan finds three 5x4 matrices with distinct rows,
distinct columns and no all-zero column on which a2 returns True although no
column is heavy (each column has 2 ones against 3 zeros).  Each is the zero
row joined with the pair rows of one 4-cycle over the columns.  The test
builds that set from the 4-cycle description, re-checks every witness by
counting, and fails if a counterexample appears, vanishes or changes, or if
n<=3 stops being clean.  Its PASS line prints the counterexamples.
"""

import itertools
import math
import random

from heavycol import (
    BinaryMatrix,
    UniverseSpec,
    check_lemma1,
    check_reduction_claim,
    check_theorem1,
    check_theorem2,
    converse_scan,
    enumerate_universe,
    heavy_columns,
    is_heavy,
    matrix_properties,
    parse_matrix,
    remark_counterexamples,
    run_a1,
    run_a2,
    run_memoized,
)
from heavycol.algorithms import KEY_CONDITION, shuffled_order
from heavycol.cli import to_json

EXHAUSTIVE_SIZES = {1: 3, 2: 15, 3: 255, 4: 65535}
# Sizes of the constrained universes: distinct columns, no all-zero column.
CONSTRAINED_SIZES = {1: 2, 2: 8, 3: 192, 4: 63384}


def _report(cid: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


def constrained(n: int, **kw) -> UniverseSpec:
    return UniverseSpec(
        n=n, require_distinct_columns=True, forbid_all_zero_column=True, **kw
    )


def _random_batch(total: int, seed: int, max_n: int = 6, m_max: int | None = None):
    """Seeded random matrices spread evenly over n = 1..max_n."""
    per = [total // max_n + (1 if i < total % max_n else 0) for i in range(max_n)]
    for n, count in zip(range(1, max_n + 1), per):
        spec = UniverseSpec(
            n=n, mode="random", samples=count, seed=seed + n,
            m_max=None if m_max is None else min(m_max, 2**n),
        )
        yield from enumerate_universe(spec)


def _up_set_count(n: int) -> int:
    """M(n), the number of up-sets of {0,1}^n (the empty one included).

    A subset S of the 2^n points, held as a 2^n-bit int, is an up-set when
    every member v with a 0 at bit k has v | 2^k in S too; shifting the
    members with bit k clear left by 2^k lands on exactly those points.
    """
    points = range(2**n)
    clear = [sum(1 << v for v in points if not v >> k & 1) for k in range(n)]
    return sum(
        all(not ((s & clear[k]) << (1 << k)) & ~s for k in range(n))
        for s in range(2 ** (2**n))
    )


def test_criterion_1_theorem1_exhaustive():
    # a1 accepts exactly the up-closed row sets, so its True tally is the
    # number of nonempty up-sets: M(n) - 1
    details = []
    ok = True
    for n, size in EXHAUSTIVE_SIZES.items():
        report = check_theorem1(UniverseSpec(n=n))
        up_sets = _up_set_count(n) - 1
        details.append(
            f"n={n} tested={report.tested} violations={report.violation_count} "
            f"a1_true={report.tallies['a1_true']} nonempty_up_sets={up_sets}"
        )
        ok = ok and report.tested == size and report.violation_count == 0
        ok = ok and report.tallies["a1_true"] == up_sets
    _report("1 (a1 guarantee, exhaustive n<=4; a1 True exactly on up-sets)", ok, "; ".join(details))


def _four_cycle_matrices() -> set[frozenset[str]]:
    """The zero row plus the four pair rows of each 4-cycle over columns 1..4.

    The 4-cycles of K4 are the complements of its three perfect matchings.
    Each matrix is the set of its row texts, column 1 leftmost.
    """
    cols = (1, 2, 3, 4)
    pairs = set(itertools.combinations(cols, 2))
    matchings = [{(1, k), tuple(c for c in cols if c not in (1, k))} for k in (2, 3, 4)]

    def row(ones):
        return "".join("1" if c in ones else "0" for c in cols)

    return {
        frozenset({row(())} | {row(pair) for pair in pairs - matching})
        for matching in matchings
    }


def _heavy_by_counting(rows: list[str]) -> list[int]:
    """Columns with at least ceil(m/2) ones, counted on the row texts."""
    half = math.ceil(len(rows) / 2)
    return [k + 1 for k in range(len(rows[0])) if sum(r[k] == "1" for r in rows) >= half]


def test_criterion_2_theorem2_exhaustive():
    expected = _four_cycle_matrices()
    details = []
    witnesses = []
    ok = True
    for n, size in CONSTRAINED_SIZES.items():
        report = check_theorem2(constrained(n))
        details.append(f"n={n} tested={report.tested} violations={report.violation_count}")
        witnesses += [w.matrix.split("\n") for w in report.violations]
        want = len(expected) if n == 4 else 0
        ok = ok and report.tested == size
        ok = ok and report.violation_count == len(report.violations) == want
    ok = ok and {frozenset(rows) for rows in witnesses} == expected
    for rows in witnesses:
        ok = ok and len(rows) == 5 and not _heavy_by_counting(rows)
        ok = ok and run_a2(parse_matrix("\n".join(rows))).value is True
    details.append(f"counterexamples: {['/'.join(rows) for rows in witnesses]}")
    _report(
        "2 (a2 guarantee, exhaustive n<=4: exactly the three 4-cycle counterexamples)",
        ok, "; ".join(details),
    )


def test_criterion_3_lemma1_exhaustive():
    ok = True
    details = []
    for n in EXHAUSTIVE_SIZES:
        report = check_lemma1(UniverseSpec(n=n))
        details.append(f"n={n} violations={report.violation_count}")
        ok = ok and report.violation_count == 0
    _report("3 (pairing lemma, exhaustive n<=4)", ok, "; ".join(details))


def test_criterion_4_reduction_claim():
    ok = True
    details = []
    for n in EXHAUSTIVE_SIZES:
        report = check_reduction_claim(UniverseSpec(n=n))
        details.append(
            f"n={n} no_heavy={report.tallies['no_heavy']} violations={report.violation_count}"
        )
        ok = ok and report.violation_count == 0
        ok = ok and report.tallies["unpaired_found"] == report.tallies["no_heavy"]
    _report("4 (unpaired witness + all-zero terminal, n<=4)", ok, "; ".join(details))


def test_criterion_5_remark_reproduction():
    matrix = BinaryMatrix((0,), 2)
    verdict = run_a2(matrix)
    props = matrix_properties(matrix)
    report = remark_counterexamples()
    ok = (
        verdict.value is True
        and verdict.witness.line == 1
        and heavy_columns(matrix) == set()
        and props.distinct_columns is False
        and props.has_all_zero_column is True
        and report.tallies == {"confirmed": 1, "violations": 0}
    )
    _report(
        "5 (fixed precondition-violation case '00')", ok,
        f"a2={verdict.value} heavy={sorted(heavy_columns(matrix))} "
        f"distinct_columns={props.distinct_columns} all_zero={props.has_all_zero_column}",
    )


def test_criterion_6_key_condition_soundness():
    checked = hits = unsound = 0

    def inspect(matrix):
        nonlocal checked, hits, unsound
        checked += 1
        verdict = run_a2(matrix)
        if verdict.value and verdict.witness.tag == KEY_CONDITION and matrix.m >= 2:
            hits += 1
            if not is_heavy(matrix, verdict.witness.column):
                unsound += 1

    for n in EXHAUSTIVE_SIZES:
        for matrix in enumerate_universe(constrained(n)):
            inspect(matrix)
    for matrix in _random_batch(10_000, seed=600):
        inspect(matrix)
    _report(
        "6 (key-condition column is heavy when m>=2)",
        unsound == 0 and checked >= 10_000,
        f"checked={checked} key_condition_hits={hits} unsound={unsound}",
    )


def test_criterion_7_invariance_suite():
    rng = random.Random(7001)
    mismatches = 0
    count = 0
    order_seeds = [11, 22, 33, 44, 55]
    for matrix in _random_batch(1_000, seed=700, m_max=12):
        count += 1
        base_a1 = run_a1(matrix).value
        base_a2 = run_a2(matrix).value
        base_heavy = heavy_columns(matrix)
        for _ in range(2):
            rows = list(matrix.rows)
            rng.shuffle(rows)
            other = BinaryMatrix(tuple(rows), matrix.n)
            if (
                run_a1(other).value != base_a1
                or run_a2(other).value != base_a2
                or heavy_columns(other) != base_heavy
            ):
                mismatches += 1
        for seed in order_seeds:
            if run_a1(matrix, order=shuffled_order(seed)).value != base_a1:
                mismatches += 1
    _report(
        "7 (row-shuffle and a1-order invariance, 1000 random)",
        mismatches == 0 and count == 1_000,
        f"matrices={count} mismatches={mismatches}",
    )


def test_criterion_8_memoization_equivalence():
    mismatches = 0
    count = 0

    def inspect(matrix):
        nonlocal mismatches, count
        count += 1
        for algo, plain in (("a1", run_a1(matrix)), ("a2", run_a2(matrix))):
            memo = run_memoized(algo, matrix)
            if memo.value != plain.value or memo.stats.calls > plain.stats.calls:
                mismatches += 1

    for n in (1, 2, 3):
        for matrix in enumerate_universe(UniverseSpec(n=n)):
            inspect(matrix)
    exhaustive = count
    for matrix in _random_batch(1_000, seed=800):
        inspect(matrix)
    _report(
        "8 (plain vs memoized verdicts and call counts)",
        mismatches == 0 and exhaustive == 273 and count == 1_273,
        f"matrices={count} mismatches={mismatches}",
    )


def test_criterion_9_converse_gap_witness():
    report = converse_scan(UniverseSpec(n=2))
    cases = {(w.matrix, w.property) for w in report.violations}
    ok = ("10\n01", "converse_gap_a1") in cases
    _report(
        "9 (converse gap contains rows {10,01} for a1)", ok,
        f"converse_gap_a1={report.tallies['converse_gap_a1']}",
    )


def test_criterion_10_determinism_across_workers():
    scans = [
        ("theorem1 n=3", lambda w: check_theorem1(UniverseSpec(n=3), workers=w)),
        ("theorem2 n=3", lambda w: check_theorem2(constrained(3), workers=w)),
        ("claim n=3", lambda w: check_reduction_claim(UniverseSpec(n=3), workers=w)),
        (
            "lemma1 random n=5",
            lambda w: check_lemma1(
                UniverseSpec(n=5, mode="random", samples=400, seed=10), workers=w
            ),
        ),
    ]
    diverging = []
    for name, make in scans:
        docs = {to_json(make(w)) for w in (1, 4, 8)}
        if len(docs) != 1:
            diverging.append(name)
    _report(
        "10 (byte-identical reports for workers 1/4/8)",
        not diverging,
        f"scans={len(scans)} diverging={diverging or 'none'}",
    )
