"""The output checker, the stored expectations and BENCHMARK.json."""

import json
from pathlib import Path

import pytest

from layers import PER_LAYER
from run import END_TO_END, Ops
from workloads import GROWTH, RANDOM_SEEDS, WORKLOADS, check_output, load_expected, split_library_s

ROOT = Path(__file__).resolve().parents[2]

SCAN = {"exit": 1, "tested": 3, "tallies": {"violations": 1}, "violations": [{"matrix": "00", "property": "p"}]}
GROWTH_ROWS = {"exit": 0, "rows": [
    {"n": 1, "m": 2, "algo": "a1", "variant": "plain", "calls": 1, "cache_hits": 0, "max_depth": 0},
    {"n": 1, "m": 2, "algo": "a1", "variant": "memoized", "calls": 1, "cache_hits": 0, "max_depth": 0},
]}


def _scan_output(**changes):
    doc = {"spec": {}, **{k: v for k, v in SCAN.items() if k != "exit"}, **changes}
    return json.dumps(doc)


def _growth_output(*rows):
    return json.dumps({"rows": [dict(r, family="full_cube", elapsed_ns=5) for r in rows]})


def test_matching_scan_passes_and_counts_matrices():
    outcome = check_output(SCAN, "k", 1, _scan_output(), 0.5)
    assert (outcome.attempted, outcome.failed, outcome.matrices) == (1, 0, 3)


@pytest.mark.parametrize("code,stdout", [
    (0, _scan_output()),                                   # violations found, exit should be 1
    (1, _scan_output(tested=2)),
    (1, _scan_output(tallies={"violations": 0})),          # theorem2 over U(4) must report its witnesses
    (1, _scan_output(violations=[])),
    (1, "not json"),
    (2, ""),
])
def test_wrong_scan_fails_once(code, stdout):
    outcome = check_output(SCAN, "k", code, stdout, 0.5)
    assert (outcome.attempted, outcome.failed, outcome.matrices) == (1, 1, 0)
    assert outcome.problems


def test_growth_counts_each_row_and_fails_timed_out_rows():
    # Growth rows are operations but not matrices: matrices_per_s counts scans only.
    good, memo = GROWTH_ROWS["rows"]
    ok = check_output(GROWTH_ROWS, "g", 0, _growth_output(good, memo), 1.0)
    assert (ok.attempted, ok.failed, ok.matrices, len(ok.rows)) == (3, 0, 0, 2)
    timed_out = dict(memo, calls=None, cache_hits=None, max_depth=None)
    bad = check_output(GROWTH_ROWS, "g", 0, _growth_output(good, timed_out), 1.0)
    assert (bad.attempted, bad.failed) == (3, 1)
    assert "timed out" in bad.problems[0]
    wrong = check_output(GROWTH_ROWS, "g", 0, _growth_output(dict(good, calls=2)), 1.0)
    assert wrong.failed == 2
    broken = check_output(GROWTH_ROWS, "g", 2, "", 1.0)
    assert (broken.attempted, broken.failed) == (3, 3)


def test_unknown_command_fails():
    outcome = check_output(None, "k", 0, "{}", 0.1)
    assert (outcome.attempted, outcome.failed) == (1, 1)


def test_pooled_report_must_match_single_worker_bytes():
    ops = Ops()
    single = check_output(SCAN, "k", 1, _scan_output(), 0.5)
    pooled = check_output(SCAN, "k", 1, _scan_output() + " ", 0.5)
    ops.add(pooled)
    ops.expect_same(pooled, single)
    assert (ops.attempted, ops.failed) == (1, 1)


def test_library_time_is_read_from_the_last_stderr_line():
    assert split_library_s("warning\nlibrary_s 1.25\n") == ("warning", 1.25)
    assert split_library_s("library_s 0.5") == ("", 0.5)
    assert split_library_s("Traceback ...\nKeyError: x\n") == ("Traceback ...\nKeyError: x\n", None)
    assert split_library_s("") == ("", None)


def test_expected_outputs_hold_the_known_results():
    expected = load_expected()
    commands = expected["commands"]
    theorem2 = commands["verify theorem2 --n 4"]
    assert theorem2["exit"] == 1 and theorem2["tallies"]["violations"] == 3
    assert len(theorem2["violations"]) == 3 and theorem2["tested"] == 63384
    assert commands["verify theorem1 --n 4"]["tested"] == 65535
    # theorem1 and theorem2 over U(4), plus the remark's single a2 frame.
    assert expected["frames"]["u4-scans"] == {"a1": 404661, "a2": 1191627 + 1}
    n7 = [r for r in commands[GROWTH.key]["rows"] if r["n"] == 7]
    assert {(r["algo"], r["variant"]): r["calls"] for r in n7} == {
        ("a1", "plain"): 418503, ("a1", "memoized"): 55, ("a2", "plain"): 418503, ("a2", "memoized"): 55,
    }
    for name, make in WORKLOADS.items():
        for seed in range(RANDOM_SEEDS):
            assert all(cmd.key in commands for cmd in make(seed)), name


def test_benchmark_json_lists_what_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {k: u for k, (u, _) in PER_LAYER.items()}
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"]) <= 0.25
