import dataclasses
import json
import pickle
import random
from collections import Counter
from functools import partial

import pytest

from heavycol import (
    check_lemma1,
    check_reduction_claim,
    check_theorem1,
    check_theorem2,
    converse_scan,
    enumerate_universe,
    order_sensitivity_scan,
    remark_counterexamples,
    UniverseSpec,
)
from heavycol import BinaryMatrix, matrix_properties, matrix_to_text, verification
from heavycol.algorithms import run_a1, run_a2, shuffled_order
from heavycol.cli import to_json
from heavycol.verification import MAX_WORKERS, ScanWitness, UniverseTooLarge


def constrained(n, **kw):
    return UniverseSpec(
        n=n, require_distinct_columns=True, forbid_all_zero_column=True, **kw
    )


@pytest.mark.parametrize("n,size", [(1, 3), (2, 15), (3, 255)])
def test_exhaustive_universe_sizes(n, size):
    assert sum(1 for _ in enumerate_universe(UniverseSpec(n=n))) == size


def test_universe_rows_are_sorted_distinct():
    for m in enumerate_universe(UniverseSpec(n=2)):
        assert list(m.rows) == sorted(set(m.rows))


def test_constraints_filter():
    mats = {m.rows for m in enumerate_universe(constrained(2))}
    assert (0,) not in mats  # the 1x2 all-zero matrix is excluded
    assert (1, 2) in mats


def test_m_range_filter():
    mats = list(enumerate_universe(UniverseSpec(n=2, m_min=2, m_max=2)))
    assert all(m.m == 2 for m in mats) and len(mats) == 6


def test_spec_validation():
    with pytest.raises(UniverseTooLarge):
        UniverseSpec(n=5, mode="exhaustive")
    with pytest.raises(ValueError):
        UniverseSpec(n=2, mode="random", samples=5)  # seed missing
    with pytest.raises(ValueError):
        UniverseSpec(n=0)
    with pytest.raises(ValueError):
        UniverseSpec(n=2, m_min=3, m_max=2)


def test_random_mode_is_reproducible_and_respects_spec():
    spec = UniverseSpec(n=5, mode="random", samples=40, seed=11, m_min=1, m_max=6)
    first = [m.rows for m in enumerate_universe(spec)]
    second = [m.rows for m in enumerate_universe(spec)]
    assert first == second
    assert len(first) == 40
    assert all(1 <= len(r) <= 6 for r in first)
    other = [m.rows for m in enumerate_universe(
        UniverseSpec(n=5, mode="random", samples=40, seed=12, m_min=1, m_max=6))]
    assert first != other


def test_theorem1_scan_n2():
    report = check_theorem1(UniverseSpec(n=2))
    assert report.tested == 15
    assert report.violation_count == 0
    assert report.tallies["converse_gap_a1"] >= 1
    assert report.tallies["a1_true"] + report.tallies["a1_false"] == 15
    # contrapositive tally matches the no-heavy count
    assert report.tallies["no_heavy_and_a1_false"] == report.tallies["no_heavy"]


def test_theorem1_rejects_constrained_spec():
    with pytest.raises(ValueError):
        check_theorem1(constrained(2))
    with pytest.raises(ValueError):
        check_theorem2(UniverseSpec(n=2))


def test_theorem2_scan_n2():
    report = check_theorem2(constrained(2))
    assert report.violation_count == 0
    assert report.tallies["key_condition_hits"] >= 1
    assert report.tallies["no_heavy_and_a2_false"] == report.tallies["no_heavy"]


def test_lemma1_scan_n2():
    report = check_lemma1(UniverseSpec(n=2))
    assert report.violation_count == 0
    # the full 2-cube is one of the fully paired matrices
    assert report.tallies["hypothesis_holds"] >= 1


def test_claim_scan_n2():
    report = check_reduction_claim(UniverseSpec(n=2))
    assert report.violation_count == 0
    assert report.tallies["unpaired_found"] == report.tallies["no_heavy"]


def test_remark_report():
    report = remark_counterexamples()
    assert report.tested == 1
    assert report.tallies == {"confirmed": 1, "violations": 0}
    assert report.violations[0].matrix == "00"
    assert report.spec.mode == "fixed"
    # the cap applies as in every other scan: no witness, same tallies
    capped = remark_counterexamples(witness_cap=0)
    assert capped.violations == () and capped.tallies == report.tallies


def test_converse_scan_collects_known_witness():
    report = converse_scan(UniverseSpec(n=2))
    cases = {(w.matrix, w.property) for w in report.violations}
    assert ("10\n01", "converse_gap_a1") in cases
    assert report.violation_count == 0  # exploratory, never a violation


def test_converse_never_collects_true_verdicts():
    report = converse_scan(UniverseSpec(n=1))
    assert all(w.matrix != "1" for w in report.violations)


def test_order_sensitivity_scan_n3():
    report = order_sensitivity_scan(UniverseSpec(n=3))
    assert report.tallies["a1_order_mismatch"] == 0
    assert report.violation_count == 0
    total = report.tallies["a2_permutation_sensitive"] + report.tallies["a2_permutation_stable"]
    assert total == report.tested


def test_reports_deterministic_across_workers():
    for make in (
        lambda w: check_theorem1(UniverseSpec(n=3), workers=w),
        lambda w: check_theorem2(constrained(3), workers=w),
        lambda w: check_lemma1(
            UniverseSpec(n=4, mode="random", samples=80, seed=5), workers=w
        ),
        # its bound perm_budget must reach the pool's workers
        lambda w: order_sensitivity_scan(
            UniverseSpec(n=5, mode="random", samples=12, seed=3), perm_budget=4, workers=w
        ),
    ):
        docs = {to_json(make(w)) for w in (1, 2)}
        assert len(docs) == 1


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records its size, starts nothing."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_workers_bounded(monkeypatch):
    monkeypatch.setattr(verification, "ProcessPoolExecutor", _SerialPool)
    _SerialPool.sizes.clear()
    for bad in (0, -3, MAX_WORKERS + 1, 100_000):
        with pytest.raises(ValueError, match="workers"):
            check_theorem1(UniverseSpec(n=2), workers=bad)
        with pytest.raises(ValueError, match="workers"):
            converse_scan(UniverseSpec(n=2), workers=bad)
    assert _SerialPool.sizes == []
    serial = to_json(check_theorem1(UniverseSpec(n=2)))
    assert to_json(check_theorem1(UniverseSpec(n=2), workers=MAX_WORKERS)) == serial
    assert _SerialPool.sizes == [MAX_WORKERS]
    # the remark's one matrix is one chunk, which needs no pool
    serial = to_json(remark_counterexamples())
    assert to_json(remark_counterexamples(workers=MAX_WORKERS)) == serial
    assert _SerialPool.sizes == [MAX_WORKERS]


def test_witness_cap_truncates_list_not_counts():
    capped = converse_scan(UniverseSpec(n=2), witness_cap=2)
    full = converse_scan(UniverseSpec(n=2))
    assert len(capped.violations) == 2
    assert capped.tallies == full.tallies
    assert capped.violations == full.violations[:2]


def test_witness_cap_commutes_with_partitioning():
    # eight collectible witnesses at n=2; a tight cap must pick the same
    # leading ones whatever the chunking
    docs = {to_json(converse_scan(UniverseSpec(n=2), workers=w, witness_cap=3))
            for w in (1, 2, 3)}
    assert len(docs) == 1


def test_negative_witness_cap_rejected():
    with pytest.raises(ValueError, match="witness cap"):
        check_theorem1(UniverseSpec(n=2), witness_cap=-1)
    with pytest.raises(ValueError, match="witness cap"):
        converse_scan(UniverseSpec(n=2), workers=2, witness_cap=-5)
    # 0 is valid: exact tallies, no witness matrices
    report = converse_scan(UniverseSpec(n=2), witness_cap=0)
    assert report.violations == () and report.tallies == converse_scan(UniverseSpec(n=2)).tallies


def test_perm_budget_below_one_rejected():
    # with no permutation to try, every matrix would count as order-stable
    spec = UniverseSpec(n=5, mode="random", samples=3, seed=1)
    for budget in (0, -2):
        with pytest.raises(ValueError, match="perm budget"):
            order_sensitivity_scan(spec, perm_budget=budget)
    assert order_sensitivity_scan(spec, perm_budget=1).tested == 3


def _draw_linear(spec, index):
    # the size pick as a linear walk over freshly computed subset counts
    import math

    rng = random.Random(f"{spec.seed}:{index}")
    space = 2**spec.n
    sizes = range(spec.m_min, min(spec.m_max, space) + 1)
    weights = [math.comb(space, m) for m in sizes]
    while True:
        pick = rng.randrange(sum(weights))
        for m, w in zip(sizes, weights):
            if pick < w:
                break
            pick -= w
        rows = tuple(sorted(rng.sample(range(space), m)))
        if _meets_by_properties(spec, rows):
            return rows


def _meets_by_properties(spec, rows, props=None):
    # the column constraints read off matrix_properties' two flags
    props = props or matrix_properties(BinaryMatrix(rows, spec.n))
    return not (
        (spec.require_distinct_columns and not props.distinct_columns)
        or (spec.forbid_all_zero_column and props.has_all_zero_column)
    )


@pytest.mark.parametrize("spec", [
    UniverseSpec(n=6, mode="random", samples=200, seed=7),
    UniverseSpec(n=5, m_min=3, m_max=9, mode="random", samples=200, seed=2),
    constrained(4, mode="random", samples=200, seed=11),
    # tiny spaces: the pick often lands exactly on a running total, where a
    # size search that broke ties the other way would draw one row fewer
    UniverseSpec(n=1, mode="random", samples=60, seed=1),
    UniverseSpec(n=2, mode="random", samples=60, seed=5),
])
def test_random_draws_keep_their_stream(spec):
    # cached running totals must pick the same size with the same RNG calls
    for index in range(spec.samples):
        assert verification._draw_random(spec, index).rows == _draw_linear(spec, index)


_FLAGS = [(True, False), (False, True), (True, True)]


def test_rank_rows_are_the_set_bits():
    # the walk of U(1..4) is every rank's set-bit rows, in rank order, kept
    # when the row count is in range and matrix_properties meets the flags
    for n in range(1, 5):
        every = [tuple(v for v in range(2**n) if rank >> v & 1) for rank in range(1, 2 ** (2**n))]
        props = [matrix_properties(BinaryMatrix(rows, n)) for rows in every]
        for distinct, nonzero in [(False, False), *_FLAGS]:
            flags = dict(require_distinct_columns=distinct, forbid_all_zero_column=nonzero)
            spec = UniverseSpec(n=n, **flags)
            met = [rows for rows, p in zip(every, props) if _meets_by_properties(spec, rows, p)]
            for m_min, m_max in [(1, 2**n), (2, max(2, 2**n - 1))]:
                spec = UniverseSpec(n=n, m_min=m_min, m_max=m_max, **flags)
                expected = [rows for rows in met if m_min <= len(rows) <= m_max]
                assert [m.rows for m in enumerate_universe(spec)] == expected


def test_walk_matrices_equal_checked_ones():
    # the walk and the random draws build their matrices without
    # BinaryMatrix's checks; each must equal the checked matrix of its rows
    for distinct, nonzero in [(False, False), *_FLAGS]:
        flags = dict(require_distinct_columns=distinct, forbid_all_zero_column=nonzero)
        specs = [UniverseSpec(n=n, **flags) for n in range(1, 5)]
        specs += [UniverseSpec(n=n, mode="random", samples=200, seed=n, **flags) for n in (5, 6)]
        for spec in specs:
            walked = list(enumerate_universe(spec))
            assert walked and [m for m in walked if m != BinaryMatrix(m.rows, m.n)] == []


def test_walk_matrices_hand_over_their_rank():
    # the walk, and the random draws of a constrained spec, hand the
    # recursion the row-set rank they hold; it is no field, so each matrix
    # stays the checked matrix of its rows as a value, and runs alike
    specs = [UniverseSpec(n=n) for n in (1, 2, 3)] + [constrained(3)]
    specs += [UniverseSpec(n=n, mode="random", samples=60, seed=n) for n in (4, 5)]
    specs += [constrained(n, mode="random", samples=60, seed=n) for n in (4, 5)]
    runs = [run_a1, run_a2, partial(run_a1, memoize=True), partial(run_a1, order=shuffled_order(2))]
    for spec in specs:
        handed = spec.mode == "exhaustive" or spec.forbid_all_zero_column
        for walked in enumerate_universe(spec):
            built = BinaryMatrix(walked.rows, walked.n)
            assert walked._rank == (sum(1 << r for r in walked.rows) if handed else None)
            assert walked == built and hash(walked) == hash(built) and repr(walked) == repr(built)
            assert dataclasses.asdict(walked) == dataclasses.asdict(built)
            copy = dataclasses.replace(walked)
            assert copy == built and copy._rank is None
            assert pickle.dumps(walked) == pickle.dumps(built)
            assert pickle.loads(pickle.dumps(walked)) == built
            assert [run(walked) for run in runs] == [run(built) for run in runs]


def _rank_filter_mismatches(spec, row_sets):
    masks = verification._constraint_masks(spec)
    return [
        rows for rows in row_sets
        if verification._passes_constraints(masks, sum(1 << r for r in rows))
        != _meets_by_properties(spec, rows)
    ]


@pytest.mark.parametrize("distinct, nonzero", _FLAGS)
def test_rank_filter_matches_matrix_properties(distinct, nonzero):
    flags = dict(require_distinct_columns=distinct, forbid_all_zero_column=nonzero)
    for n in range(1, 5):
        spec = UniverseSpec(n=n, **flags)
        every = [tuple(v for v in range(2**n) if rank >> v & 1) for rank in range(1, 2 ** (2**n))]
        assert _rank_filter_mismatches(spec, every) == []
    rng = random.Random(f"{distinct}:{nonzero}")
    for n in (5, 6):
        spec = UniverseSpec(n=n, mode="random", samples=1, seed=0, **flags)
        draws = [tuple(sorted(rng.sample(range(2**n), rng.randint(1, 12)))) for _ in range(500)]
        kept = [rows for rows in draws if _meets_by_properties(spec, rows)]
        assert 0 < len(kept) < len(draws)
        assert _rank_filter_mismatches(spec, draws) == []


# each scan with its inspector, and whether it takes unconstrained (False),
# constrained (True) or both kinds of universe (None)
_INSPECTED = [
    (check_theorem1, partial(verification._inspect_guarantee, "a1"), False),
    (check_theorem2, partial(verification._inspect_guarantee, "a2"), True),
    (check_lemma1, verification._inspect_lemma1, None),
    (check_reduction_claim, verification._inspect_claim, None),
    (converse_scan, verification._inspect_converse, None),
    (partial(order_sensitivity_scan, perm_budget=4),
     partial(verification._inspect_order_sensitivity, 4), None),
]


def _universes(constrain):
    flags = dict(require_distinct_columns=constrain, forbid_all_zero_column=constrain)
    yield from (UniverseSpec(n=n, **flags) for n in (1, 2, 3))
    yield UniverseSpec(n=5, mode="random", samples=200, seed=9, **flags)


@pytest.mark.parametrize(
    "scan, inspect, constrained", _INSPECTED,
    ids=["theorem1", "theorem2", "lemma1", "claim", "converse", "order-sensitivity"],
)
def test_tallies_count_every_inspected_name(scan, inspect, constrained):
    # a report's tallies and witnesses are a plain Counter over each matrix's
    # names and the leading cases, however `_scan_chunk` groups them
    for constrain in (False, True) if constrained is None else (constrained,):
        for spec in _universes(constrain):
            counts, cases, tested = Counter(), [], 0
            for matrix in enumerate_universe(spec):
                names, found = inspect(matrix)
                counts.update(names)
                cases += found
                tested += 1
            report = scan(spec, witness_cap=5)
            assert report.tested == tested
            assert set(counts) <= set(report.tallies)
            assert report.tallies == {key: counts[key] for key in report.tallies}
            assert report.violations == tuple(
                ScanWitness(matrix_to_text(matrix), prop) for matrix, prop in cases[:5]
            )


def test_chunk_ranges_partition_exactly():
    from heavycol.verification import _chunk_ranges

    for lo, hi, pieces in [(1, 16, 4), (0, 7, 3), (1, 4, 10), (0, 1, 5)]:
        ranges = _chunk_ranges(lo, hi, pieces)
        assert ranges[0][0] == lo and ranges[-1][1] == hi
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c and a < b
        assert sum(b - a for a, b in ranges) == hi - lo


def test_report_json_shape():
    doc = json.loads(to_json(check_theorem1(UniverseSpec(n=1))))
    assert set(doc) == {"spec", "tested", "tallies", "violations"}
    assert doc["tested"] == 3
    assert doc["spec"]["n"] == 1 and doc["spec"]["mode"] == "exhaustive"


def test_collected_witnesses_reproduce_their_condition():
    from heavycol import heavy_columns, parse_matrix, run_a1

    report = converse_scan(UniverseSpec(n=2))
    for w in report.violations:
        if w.property != "converse_gap_a1":
            continue
        m = parse_matrix(w.matrix)
        assert heavy_columns(m) and not run_a1(m).value


# The names in `verification` that the benchmark's traced pass replaces with
# plain wrapper functions while it runs the scans.
_TRACED_NAMES = (
    "BinaryMatrix", "run_a1", "run_a2", "heavy_columns", "find_unpaired",
    "sequential_reduction", "matrix_properties",
)


def test_scans_run_with_their_names_wrapped(monkeypatch):
    # a scan that used a wrapped name as anything but a callable (a class
    # attribute of BinaryMatrix, say) would fail only under the traced pass
    runs = [(check_theorem1, UniverseSpec(n=n), "run_a1") for n in (1, 2, 3)]
    runs += [(check_theorem2, constrained(n), "run_a2") for n in (1, 2, 3)]
    runs.append((check_theorem2, constrained(5, mode="random", samples=50, seed=4), "run_a2"))
    runs += [(scan, UniverseSpec(n=n), None)
             for scan in (check_lemma1, check_reduction_claim) for n in (1, 2, 3)]
    expected = [scan(spec) for scan, spec, _ in runs]
    tested = [list(enumerate_universe(spec)) for _, spec, _ in runs]
    remark = remark_counterexamples()

    seen = {name: [] for name in _TRACED_NAMES}
    called = Counter()

    def counting(name, fn):
        def call(*args, **kwargs):
            seen[name].append(args[0])
            called[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in _TRACED_NAMES:
        monkeypatch.setattr(verification, name, counting(name, getattr(verification, name)))
    for (scan, spec, algo), report, matrices in zip(runs, expected, tested):
        seen["run_a1"], seen["run_a2"] = [], []
        assert scan(spec) == report and len(matrices) == report.tested
        if algo:
            assert seen[algo] == matrices
    seen["run_a2"] = []
    assert remark_counterexamples() == remark
    assert seen["run_a2"] == [BinaryMatrix((0,), 2)]
    assert set(called) == set(_TRACED_NAMES) - {"BinaryMatrix"}
