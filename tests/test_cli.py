import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from heavycol import cli, profile_family
from heavycol.cli import main
from heavycol.verification import MAX_WORKERS


def run_cli(args, stdin=None, monkeypatch=None, capsys=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_check_a2_stdin(monkeypatch, capsys):
    code, out, err = run_cli(
        ["check", "--algo", "a2", "--json", "-"], "10\n01\n", monkeypatch, capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] is True
    assert doc["heavy_columns"] == [1, 2]
    assert doc["algorithm"] == "a2"
    assert doc["witness"] == {"line": 14, "column": 1}


def test_check_human_output(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["check", "--algo", "a1", "-"], "10\n01\n", monkeypatch, capsys
    )
    assert code == 0
    assert "verdict: False" in out
    assert "heavy columns: 1, 2" in out


def test_commands_time_their_own_runs(monkeypatch, capsys):
    # a verdict carries no time: check times its run for stats.elapsed_ns and
    # the stats line, and bench growth times each row
    for algo in ("a1", "a2"):
        for memo in ([], ["--memo"]):
            code, out, _ = run_cli(["check", "--algo", algo, *memo, "--json", "-"], "10\n01\n",
                                   monkeypatch, capsys)
            elapsed = json.loads(out)["stats"]["elapsed_ns"]
            assert code == 0 and type(elapsed) is int and elapsed >= 0
    code, out, _ = run_cli(["check", "--algo", "a1", "-"], "10\n01\n", monkeypatch, capsys)
    assert code == 0
    assert re.search(r"^stats: calls=1 max_depth=0 cache_hits=0 elapsed=\d+\.\d{3}ms$", out, re.M)
    code, out, _ = run_cli(["bench", "growth", "--n-max", "4", "--json"], None, monkeypatch, capsys)
    rows = json.loads(out)["rows"]
    assert code == 0 and len(rows) == 16
    assert all(type(row["elapsed_ns"]) is int and row["elapsed_ns"] >= 0 for row in rows)


def test_check_ragged_file_is_usage_error(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("10\n011\n")
    code, out, err = run_cli(["check", "--algo", "a1", str(bad)], None, monkeypatch, capsys)
    assert code == 2
    assert "RaggedRows" in err and out == ""


def test_check_missing_file(monkeypatch, capsys):
    code, _, err = run_cli(["check", "--algo", "a1", "/nonexistent"], None, monkeypatch, capsys)
    assert code == 2 and err


def test_order_rejected_for_a2(monkeypatch, capsys):
    code, out, err = run_cli(
        ["check", "--algo", "a2", "--order", "shuffle:5", "-"], "1\n", monkeypatch, capsys
    )
    assert code == 2
    assert "ascending" in err


def test_order_applies_to_a1(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["check", "--algo", "a1", "--order", "shuffle:5", "--json", "-"],
        "10\n01\n", monkeypatch, capsys,
    )
    assert code == 0 and json.loads(out)["verdict"] is False


def test_oracle(monkeypatch, capsys):
    code, out, _ = run_cli(["oracle", "--json", "-"], "00\n01\n10\n", monkeypatch, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["heavy_columns"] == [] and doc["verdict"] is None


def test_analyze_human(monkeypatch, capsys):
    code, out, _ = run_cli(["analyze", "--trace", "-"], "00\n01\n10\n", monkeypatch, capsys)
    assert code == 0
    assert "unpaired witness: row 2, column 1" in out
    assert "terminal column" in out


def test_analyze_json_is_report_schema(monkeypatch, capsys):
    code, out, _ = run_cli(["analyze", "--json", "-"], "10\n01\n", monkeypatch, capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {
        "m", "n", "algorithm", "verdict", "heavy_columns",
        "witness", "preconditions", "stats",
    }


def test_report_dict_schema():
    from heavycol import parse_matrix
    from heavycol.algorithms import EXHAUSTED_TRUE, RecursionStats, Verdict, Witness
    from heavycol.cli import report_dict, to_json

    m = parse_matrix("1")
    doc = json.loads(to_json(report_dict(m, "oracle")))
    assert doc["verdict"] is None and doc["heavy_columns"] == [1] and doc["witness"] is None
    doc = json.loads(to_json(report_dict(parse_matrix("00\n01\n10"), "oracle")))
    assert doc["heavy_columns"] == []
    assert doc["stats"] == {"calls": 0, "max_depth": 0, "cache_hits": 0, "elapsed_ns": 0}

    verdict = Verdict(True, Witness(EXHAUSTED_TRUE, None, 18), RecursionStats(7, 1, 0))
    doc = json.loads(to_json(report_dict(m, "a1", verdict, elapsed_ns=120)))
    assert doc["stats"] == {"calls": 7, "max_depth": 1, "cache_hits": 0, "elapsed_ns": 120}
    assert doc["witness"] == {"line": 18, "column": None} and doc["verdict"] is True


def test_analyze_trace_at_checked_before_output(monkeypatch, capsys):
    # a malformed or out-of-range anchor used to exit 0 under --json, and to
    # print the whole structure report before failing without it
    counterexample = "0000\n1010\n0110\n1001\n0101\n"
    for anchor, message in (("abc", "bad --trace-at 'abc'"), ("9:9", "row 9 outside 1..5"),
                            ("1:5", "column 5 outside 1..4"), ("1:2:3", "bad --trace-at")):
        for json_flag in ([], ["--json"]):
            code, out, err = run_cli(
                ["analyze", "--trace-at", anchor, *json_flag, "-"], counterexample,
                monkeypatch, capsys,
            )
            assert code == 2 and out == ""
            assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("flags", [["--trace"], ["--trace-at", "1:2"]], ids=["--trace", "--trace-at"])
def test_analyze_json_reads_no_trace_flag(flags, monkeypatch, capsys):
    # the JSON document is the oracle report, with no trace in it; both used
    # to exit 0 and print it, the anchor dropped
    code, out, err = run_cli(["analyze", "--json", *flags, "-"], "00\n01\n10\n", monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert err == f"ValueError: {flags[0]} is not read with --json\n"


def test_analyze_trace_at_in_range(monkeypatch, capsys):
    code, out, _ = run_cli(["analyze", "--trace-at", "1:2", "-"], "00\n01\n10\n", monkeypatch, capsys)
    assert code == 0
    assert "sequential reduction at row 1, preserving column 2:" in out


def test_verify_theorem1(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["verify", "theorem1", "--n", "2", "--json"], None, monkeypatch, capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["tested"] == 15 and doc["tallies"]["violations"] == 0


def test_verify_theorem1_n3(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["verify", "theorem1", "--n", "3", "--json"], None, monkeypatch, capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["tested"] == 255 and doc["tallies"]["violations"] == 0


def test_scan_witness_reproduces_through_check(monkeypatch, capsys):
    # every matrix collected by the a2 guarantee scan at n=4 must reproduce
    # its tallied condition when re-run standalone: verdict True, no heavy column
    code, out, _ = run_cli(
        ["verify", "theorem2", "--n", "4", "--json"], None, monkeypatch, capsys
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["tallies"]["violations"] == 3
    assert len(doc["violations"]) == 3

    for witness in doc["violations"]:
        code, out, _ = run_cli(
            ["check", "--algo", "a2", "--json", "-"], witness["matrix"] + "\n",
            monkeypatch, capsys,
        )
        assert code == 0
        rerun = json.loads(out)
        assert rerun["verdict"] is True and rerun["heavy_columns"] == []


def test_verify_all_human(monkeypatch, capsys):
    code, out, _ = run_cli(["verify", "all", "--n", "2"], None, monkeypatch, capsys)
    assert code == 0
    for name in ("theorem1", "theorem2", "lemma1", "claim", "remark"):
        assert f"{name}: ok" in out


def test_verify_random_mode(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["verify", "lemma1", "--n", "5", "--mode", "random:60:3", "--json"],
        None, monkeypatch, capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["tested"] == 60 and doc["spec"]["seed"] == 3


def test_verify_exhaustive_too_large(monkeypatch, capsys):
    code, _, err = run_cli(["verify", "theorem1", "--n", "5"], None, monkeypatch, capsys)
    assert code == 2 and "UniverseTooLarge" in err


def test_workers_out_of_range_is_usage_error(monkeypatch, capsys):
    # validated before any pool exists, so no process is started
    for workers in ("0", "-3", "100000"):
        for target in (["verify", "theorem1", "--n", "2"], ["explore", "converse", "--n", "2"],
                       ["verify", "remark"]):
            code, out, err = run_cli(target + ["--workers", workers], None, monkeypatch, capsys)
            assert code == 2 and out == ""
            assert err.count("\n") == 1 and f"workers must be in 1..{MAX_WORKERS}" in err


def test_negative_witness_cap_is_usage_error(monkeypatch, capsys):
    # a negative cap used to run the scan and print an empty witness list
    # (remark ignored the cap, --workers and --mode altogether)
    for target in (["verify", "theorem1", "--n", "2"], ["explore", "converse", "--n", "2"],
                   ["verify", "remark"]):
        code, out, err = run_cli(
            target + ["--witness-cap", "-5", "--json"], None, monkeypatch, capsys
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "witness cap must be at least 0" in err


def test_nonpositive_budget_is_usage_error(monkeypatch, capsys):
    # a budget of 0 or less used to time out every row and still exit 0
    for args, stdin in (
        (["bench", "growth", "--n-max", "2"], None),
        (["check", "--algo", "a1", "-"], "10\n01\n"),
        (["check", "--algo", "a2", "--memo", "-"], "1\n"),
    ):
        for budget in ("-1", "0"):
            code, out, err = run_cli([*args, "--budget-ms", budget], stdin, monkeypatch, capsys)
            assert code == 2 and out == ""
            assert err.count("\n") == 1 and "budget must be positive" in err


@pytest.mark.parametrize("algo", ["a1", "a2"])
def test_check_budget_exceeded_exits_2(algo, monkeypatch, capsys):
    # the 2x12 all-ones matrix needs about 1.3e9 a2 frames; check used to
    # have no bound at all
    started = time.monotonic()
    code, out, err = run_cli(
        ["check", "--algo", algo, "--budget-ms", "50", "--json", "-"], "1" * 12 + "\n" + "1" * 12,
        monkeypatch, capsys,
    )
    assert time.monotonic() - started < 5
    assert (code, out) == (2, "")
    assert err == "BudgetExceeded: run exceeded its wall-clock budget\n"


def test_commands_without_a_pool_or_store_load_neither(tmp_path):
    # the process pool (concurrent.futures, multiprocessing) and hashlib
    # (OpenSSL) cost memory in every process that imports them; compare
    # used to load hashlib to name its baseline file
    matrix = tmp_path / "matrix.txt"
    matrix.write_text(GOLDEN_MATRIX)
    baseline = tmp_path / "base.csv"
    baseline.write_text(GOLDEN_GROWTH)
    commands = [
        ["verify", "theorem1", "--n", "2", "--json"],
        ["verify", "remark", "--workers", "2", "--json"],
        ["check", "--algo", "a2", str(matrix)],
        ["oracle", str(matrix)],
        ["bench", "compare", str(baseline)],
    ]
    script = (
        "import contextlib, io, sys\n"
        "from heavycol.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(args) for args in {commands!r}]\n"
        "loaded = ('concurrent.futures', 'multiprocessing', 'hashlib')\n"
        "print(codes, [name for name in loaded if name in sys.modules])\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == "[0, 0, 0, 0, 0] []\n"


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    # str hashes, and so the iteration order of str sets and dicts, change with
    # PYTHONHASHSEED; no report byte may follow them, and a baseline written
    # under one seed reads clean under another
    src = str(Path(cli.__file__).resolve().parents[1])

    def run(seed, *args):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        return subprocess.run([sys.executable, "-m", "heavycol.cli", *args], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)

    for args in (["verify", "all", "--n", "3", "--json"],
                 ["explore", "order-sensitivity", "--n", "3", "--json"]):
        first, second = (run(seed, *args) for seed in ("0", "12345"))
        assert (first.returncode, first.stderr) == (0, "")
        assert (second.returncode, second.stdout, second.stderr) == (0, first.stdout, "")
    (tmp_path / "base.csv").write_text(run("0", "bench", "growth", "--n-max", "4").stdout)
    compared = run("12345", "bench", "compare", "base.csv")
    assert (compared.returncode, compared.stdout.splitlines()[-1], compared.stderr) == (0, "clean", "")


def test_perm_budget_below_one_is_usage_error(monkeypatch, capsys):
    # --perm-budget 0 used to check no permutation at all and report a clean scan
    for budget in ("0", "-2"):
        code, out, err = run_cli(
            ["explore", "order-sensitivity", "--n", "5", "--mode", "random:20:1",
             "--perm-budget", budget, "--json"],
            None, monkeypatch, capsys,
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "perm budget must be at least 1" in err


def test_explore_converse(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["explore", "converse", "--n", "2", "--json"], None, monkeypatch, capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert {"matrix": "10\n01", "property": "converse_gap_a1"} in doc["violations"]


def test_explore_order_sensitivity(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["explore", "order-sensitivity", "--n", "2", "--json"], None, monkeypatch, capsys
    )
    assert code == 0
    assert json.loads(out)["tallies"]["a1_order_mismatch"] == 0


def test_scans_dispatch_through_module_names(monkeypatch, capsys):
    # the benchmark wraps these names on `cli`; a handler that bound the
    # functions at import would call the originals and bypass the wrappers
    names = ("check_theorem1", "check_theorem2", "check_lemma1", "check_reduction_claim",
             "remark_counterexamples", "converse_scan", "order_sensitivity_scan")
    calls = []

    def recording(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    for args in (["verify", "all"], ["explore", "converse"], ["explore", "order-sensitivity"]):
        assert run_cli([*args, "--n", "1"], None, monkeypatch, capsys)[0] == 0
    assert sorted(calls) == sorted(names)


def test_verify_all_witness_cap_zero_keeps_no_witness(monkeypatch, capsys):
    # remark used to keep its '00' witness whatever the cap
    code, out, _ = run_cli(
        ["verify", "all", "--n", "2", "--witness-cap", "0", "--json"], None, monkeypatch, capsys
    )
    assert code == 0
    assert [len(doc["violations"]) for doc in json.loads(out)] == [0] * 5


def test_bench_growth_csv(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["bench", "growth", "--family", "full_cube", "--n-min", "1", "--n-max", "2"],
        None, monkeypatch, capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,family,m,algo,variant,calls,cache_hits,max_depth,elapsed_ns"
    assert len(lines) == 1 + 2 * 2 * 2  # two n, two algos, two variants


def _no_work(*args, **kwargs):
    raise AssertionError("a table was computed before the check")


def test_bench_empty_range_is_usage_error(monkeypatch, capsys):
    # --n-min above --n-max used to print a header-only table and exit 0, and
    # then to be reported as `empty column-count range range(3, 2)`, naming
    # neither flag
    monkeypatch.setattr(cli, "profile_family", _no_work)
    code, out, err = run_cli(
        ["bench", "growth", "--n-min", "3", "--n-max", "1"], None, monkeypatch, capsys,
    )
    assert (code, out, err) == (2, "", "ValueError: --n-min 3 is above --n-max 1\n")


def test_bench_save_and_compare(tmp_path, monkeypatch, capsys):
    # a baseline is the CSV growth prints, saved by redirecting it; compare
    # reruns exactly its rows, read from a file or from standard input
    reruns = []

    def recorded(family, ns, **kwargs):
        reruns.append((family, list(ns), kwargs["algos"]))
        return profile_family(family, ns, **kwargs)

    baseline = tmp_path / "base.csv"
    for growth, rerun in (
        (["--family", "full_cube", "--n-min", "1", "--n-max", "2"],
         ("full_cube", [1, 2], ("a1", "a2"))),
        (["--family", "random_half:5", "--n-min", "3", "--n-max", "4", "--algo", "a2"],
         (("random_half", 5), [3, 4], ("a2",))),
    ):
        code, table, _ = run_cli(["bench", "growth", *growth], None, monkeypatch, capsys)
        assert code == 0
        baseline.write_text(table)
        reruns.clear()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "profile_family", recorded)
            for source, stdin in ((str(baseline), None), ("-", table)):
                code, out, err = run_cli(["bench", "compare", "--json", source], stdin,
                                         monkeypatch, capsys)
                doc = json.loads(out)
                assert (code, err, doc["clean"], doc["behavioral"]) == (0, "", True, [])
        assert reruns == [rerun, rerun]


def test_bench_compare_missing_baseline(tmp_path, monkeypatch, capsys):
    code, out, err = run_cli(
        ["bench", "compare", str(tmp_path / "none.csv")], None, monkeypatch, capsys,
    )
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("FileNotFoundError: ")


def test_bench_store_checked_before_work(tmp_path, monkeypatch, capsys):
    # --store and --save are gone: a baseline is a file named to compare, and
    # each old form is a usage error before any table is computed
    monkeypatch.setattr(cli, "profile_family", _no_work)
    baseline = tmp_path / "base.csv"
    baseline.write_text(GOLDEN_GROWTH)
    store = str(tmp_path)
    for args, message in (
        (["growth", "--save"], "unrecognized arguments: --save"),
        (["growth", "--save", "--store", store], f"unrecognized arguments: --save --store {store}"),
        (["compare", str(baseline), "--store", store], f"unrecognized arguments: --store {store}"),
        # the old compare form: its family is taken for the baseline
        (["compare", "--family", "full_cube", "--store", store],
         f"unrecognized arguments: --family --store {store}"),
        (["compare"], "the following arguments are required: baseline"),
    ):
        code, out, err = run_cli(["bench", *args], None, monkeypatch, capsys)
        assert (code, out, err) == (2, "", f"ValueError: {message}\n")
    assert list(tmp_path.iterdir()) == [baseline] and baseline.read_text() == GOLDEN_GROWTH


def _families(h, rows, first, rest):
    return [h, *(r.replace("full_cube", first) for r in rows[:4]),
            *(r.replace("full_cube", rest) for r in rows[4:])]


_NOT_ONE_PER_KEY = "baseline rows are not one per n in [1, 2], algo in ['a1', 'a2'] and variant"

# name, GOLDEN_GROWTH's header and rows -> the baseline's lines, and the error
_BAD_BASELINES = [
    ("wrong header", lambda h, rows: [h.replace("calls", "frames"), *rows],
     "unexpected growth CSV header: ['n', 'family'"),
    ("non-integer cell", lambda h, rows: [h, rows[0].replace(",plain,1,", ",plain,x,"), *rows[1:]],
     "invalid literal for int() with base 10: 'x'"),
    ("empty file", lambda h, rows: [], "unexpected growth CSV header: None"),
    ("empty table", lambda h, rows: [h], "baseline must hold the rows of one family, got []"),
    ("two families", lambda h, rows: _families(h, rows, "full_cube", "random_half:1"),
     "baseline must hold the rows of one family, got ['full_cube', 'random_half:1']"),
    ("unknown family", lambda h, rows: _families(h, rows, "half_cube", "half_cube"),
     "bad baseline family 'half_cube'; use full_cube, random_half:SEED or worst_found"),
    ("family not as growth writes it",
     lambda h, rows: _families(h, rows, "random_half:07", "random_half:07"), _NOT_ONE_PER_KEY),
    ("row deleted", lambda h, rows: [h, *rows[:-1]], _NOT_ONE_PER_KEY),
    ("row duplicated", lambda h, rows: [h, *rows, rows[0]], _NOT_ONE_PER_KEY),
    ("row deleted and another duplicated", lambda h, rows: [h, *rows[:-1], rows[0]],
     _NOT_ONE_PER_KEY),
    ("unknown algorithm", lambda h, rows: [h, *(r.replace(",a2,", ",a3,") for r in rows)],
     "algorithms must be a1 or a2, got ('a1', 'a3')"),
    ("n out of range", lambda h, rows: [h, *rows[:4], *("11" + r[1:] for r in rows[4:])],
     "n=11 outside 1..10 for family full_cube"),
    # these three used to give a zip() message naming no line, and a
    # behavioural change `cache_hits: None -> 0` with exit 1
    ("too few cells", lambda h, rows: [h, rows[0], rows[1].rsplit(",", 1)[0], *rows[2:]],
     "row has 8 cells, not 9 (baseline line 3)"),
    ("too many cells", lambda h, rows: [h, *rows[:2], rows[2] + ",0", *rows[3:]],
     "row has 10 cells, not 9 (baseline line 4)"),
    ("partly blank counts", lambda h, rows: [h, rows[0].replace(",plain,1,0,", ",plain,1,,"), *rows[1:]],
     "row has blank and set counts ['1', '', '0'] (baseline line 2)"),
]


@pytest.mark.parametrize(
    "edit, message", [case[1:] for case in _BAD_BASELINES], ids=[case[0] for case in _BAD_BASELINES]
)
def test_malformed_baseline_is_usage_error_before_work(edit, message, tmp_path, monkeypatch, capsys):
    # a baseline comes from outside the program, so every row is checked
    # before any row is rerun
    header, *rows = GOLDEN_GROWTH.splitlines()
    baseline = tmp_path / "base.csv"
    baseline.write_text("".join(line + "\n" for line in edit(header, rows)))
    monkeypatch.setattr("heavycol.profiling._measure", _no_work)
    code, out, err = run_cli(["bench", "compare", str(baseline)], None, monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("ValueError: " + message)


def test_bench_range_checked_before_work(monkeypatch, capsys):
    # n=11 used to surface only after the rows for n=1..10 were measured
    def no_work(*args, **kwargs):
        raise AssertionError("a row was measured before the range check")

    monkeypatch.setattr("heavycol.profiling._measure", no_work)
    code, out, err = run_cli(
        ["bench", "growth", "--family", "full_cube", "--n-min", "1", "--n-max", "11"],
        None, monkeypatch, capsys,
    )
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "n=11 outside 1..10" in err


def test_bench_worst_found_range_checked_before_work(tmp_path, monkeypatch, capsys):
    # worst_found matrices come from exhaustive scans, which stop at n=4; n=5 used to
    # surface only after n=1..4 were harvested, measured and stored
    def no_work(*args, **kwargs):
        raise AssertionError("a row was measured before the range check")

    monkeypatch.setattr("heavycol.profiling._measure", no_work)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        ["bench", "growth", "--family", "worst_found", "--n-min", "1", "--n-max", "5"],
        None, monkeypatch, capsys,
    )
    assert (code, out) == (2, "")
    assert err == "ValueError: n=5 outside 1..4 for family worst_found\n"
    assert list(tmp_path.iterdir()) == []


# `bench growth --family worst_found --n-min 1 --n-max 4`, elapsed_ns masked:
# each procedure's worst U(n) matrix, harvested by that run
GOLDEN_WORST_FOUND = (
    "n,family,m,algo,variant,calls,cache_hits,max_depth,elapsed_ns\n"
    "1,worst_found,1,a1,plain,1,0,0,0\n"
    "1,worst_found,1,a1,memoized,1,0,0,0\n"
    "1,worst_found,1,a2,plain,1,0,0,0\n"
    "1,worst_found,1,a2,memoized,1,0,0,0\n"
    "2,worst_found,3,a1,plain,5,0,1,0\n"
    "2,worst_found,3,a1,memoized,5,0,1,0\n"
    "2,worst_found,4,a2,plain,5,0,1,0\n"
    "2,worst_found,4,a2,memoized,5,0,1,0\n"
    "3,worst_found,7,a1,plain,31,0,2,0\n"
    "3,worst_found,7,a1,memoized,15,4,2,0\n"
    "3,worst_found,8,a2,plain,31,0,2,0\n"
    "3,worst_found,8,a2,memoized,11,5,2,0\n"
    "4,worst_found,15,a1,plain,249,0,3,0\n"
    "4,worst_found,15,a1,memoized,29,16,3,0\n"
    "4,worst_found,16,a2,plain,249,0,3,0\n"
    "4,worst_found,16,a2,memoized,19,12,3,0\n"
)


def test_bench_worst_found_needs_no_store(monkeypatch, capsys):
    # n=4 used to exit 2, asking for a --store to keep specimen files in
    args = ["bench", "growth", "--family", "worst_found", "--n-min", "1", "--n-max", "4"]
    code, out, err = run_cli(args, None, monkeypatch, capsys)
    assert (code, _masked(out), err) == (0, GOLDEN_WORST_FOUND, "")


def test_bench_growth_writes_no_file(tmp_path, monkeypatch, capsys):
    # growth prints its table and writes nothing (a --save once wrote it to a
    # digest-named file in a --store directory); compare reads that output
    # back, harvesting worst_found's matrices again
    monkeypatch.chdir(tmp_path)
    args = ["bench", "growth", "--family", "worst_found", "--n-min", "1", "--n-max", "3"]
    code, out, err = run_cli(args, None, monkeypatch, capsys)
    golden = "".join(GOLDEN_WORST_FOUND.splitlines(keepends=True)[:13])
    assert (code, _masked(out), err) == (0, golden, "")
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "worst.csv").write_text(out)
    code, out, err = run_cli(["bench", "compare", "worst.csv"], None, monkeypatch, capsys)
    assert (code, out.splitlines()[-1], err) == (0, "clean", "")
    assert list(tmp_path.iterdir()) == [tmp_path / "worst.csv"]


@pytest.mark.parametrize("args, stdin, message", [
    (["verify", "theorem1", "--n", "2", "--mode", "random:5"], None, "bad --mode 'random:5'"),
    (["explore", "converse", "--n", "2", "--mode", "random:x:1"], None, "bad --mode 'random:x:1'"),
    (["check", "--algo", "a1", "--order", "shuffle:", "-"], "10\n01\n", "bad --order 'shuffle:'"),
    (["check", "--algo", "a1", "--order", "shuffle:1:2", "-"], "1\n", "bad --order 'shuffle:1:2'"),
    (["bench", "growth", "--family", "random_half:x", "--n-max", "2"], None,
     "bad --family 'random_half:x'"),
])
def test_malformed_flag_value_names_its_flag(args, stdin, message, monkeypatch, capsys):
    code, out, err = run_cli(args, stdin, monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("ValueError: " + message + "; use ")


_UNREAD_FLAGS = [
    (["verify", "remark", "--n", "99"], "--n"),
    (["verify", "remark", "--m-min", "7"], "--m-min"),
    (["verify", "remark", "--m-max", "1"], "--m-max"),
    (["verify", "remark", "--mode", "random:5:1"], "--mode"),
    (["verify", "remark", "--mode", "bogus"], "--mode"),
    (["explore", "converse", "--perm-budget", "-3"], "--perm-budget"),
    (["explore", "converse", "--perm-budget", "5"], "--perm-budget"),
    (["bench", "compare", "--save"], "--save"),
    (["bench", "compare", "--family", "full_cube"], "--family"),
    (["bench", "compare", "--n-max", "2"], "--n-max"),
    (["bench", "compare", "--algo", "a1"], "--algo"),
    (["bench", "growth"], "--store"),
]


@pytest.mark.parametrize(
    "args, flag", _UNREAD_FLAGS, ids=[" ".join(args) for args, _ in _UNREAD_FLAGS]
)
def test_flag_the_target_does_not_read_is_usage_error(args, flag, tmp_path, monkeypatch, capsys):
    # each of these used to be accepted and ignored (remark scans one fixed
    # matrix, converse permutes nothing, compare saved nothing and takes its
    # rows from the baseline, growth keeps no store), exiting 0; bench growth's
    # case is the --store below
    baseline = tmp_path / "base.csv"
    baseline.write_text(GOLDEN_GROWTH)
    extra = {"compare": [str(baseline)], "growth": ["--n-max", "2", "--store", str(tmp_path)]}
    code, out, err = run_cli([*args, *extra.get(args[1], [])], None, monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and flag in err
    assert list(tmp_path.iterdir()) == [baseline] and baseline.read_text() == GOLDEN_GROWTH


_ARGPARSE_ERRORS = [
    ["check", "--algo", "a3", "-"],
    ["verify", "bogus"],
    ["verify", "theorem1", "--workers", "x"],
    [],
]


@pytest.mark.parametrize(
    "args", _ARGPARSE_ERRORS, ids=[" ".join(args) or "no command" for args in _ARGPARSE_ERRORS]
)
def test_argparse_error_returns_2_with_one_line(args, monkeypatch, capsys):
    # argparse used to print its usage text and leave main through SystemExit
    code, out, err = run_cli(args, None, monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("ValueError: ")


def test_help_exits_0_and_names_only_the_targets_flags(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["verify", "remark", "--help"])
    assert exited.value.code == 0
    usage = capsys.readouterr().out
    assert set(re.findall(r"--[a-z-]+", usage)) == {"--help", "--workers", "--witness-cap", "--json"}


# Matrix-ish text: the format's own characters plus any stray character.
# Lines stay short because the recursion's cost grows with the factorial of
# the column count, and the contract under test is about input handling.
_FORMAT = st.sampled_from("01# \t")
_LINE = st.text(_FORMAT, max_size=6) | st.text(
    _FORMAT | st.characters(blacklist_categories=("Cs",)), max_size=6
)


@given(st.lists(_LINE, max_size=8).map("\n".join))
@settings(max_examples=150, deadline=None)
def test_check_exit_contract_on_fuzzed_stdin(text):
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["check", "--algo", "a2", "-"])
    finally:
        sys.stdin = saved
    if code == 0:
        assert out.getvalue().startswith("matrix: ") and err.getvalue() == ""
    else:
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


# --- golden output ---------------------------------------------------------
#
# The exact stdout of each --json command (and of one CSV table), timings
# masked to 0.  Key order, spacing, null/true spelling and list order are all
# pinned, so a change to how reports are serialized shows up here even when
# every value survives.

GOLDEN_MATRIX = "0000\n1010\n0110\n1001\n0101\n"

_ORACLE_REPORT = (
    '{"algorithm": "oracle", "heavy_columns": [], "m": 5, "n": 4, '
    '"preconditions": {"all_zero_column": false, "distinct_columns": true, '
    '"distinct_rows": true}, "stats": {"cache_hits": 0, "calls": 0, "elapsed_ns": 0, '
    '"max_depth": 0}, "verdict": null, "witness": null}\n'
)

GOLDEN_STDOUT = [
    (["check", "--algo", "a1", "--json", "-"], 0, (
        '{"algorithm": "a1", "heavy_columns": [], "m": 5, "n": 4, '
        '"preconditions": {"all_zero_column": false, "distinct_columns": true, '
        '"distinct_rows": true}, "stats": {"cache_hits": 0, "calls": 2, "elapsed_ns": 0, '
        '"max_depth": 1}, "verdict": false, "witness": {"column": 1, "line": 15}}\n'
    )),
    (["check", "--algo", "a2", "--json", "-"], 0, (
        '{"algorithm": "a2", "heavy_columns": [], "m": 5, "n": 4, '
        '"preconditions": {"all_zero_column": false, "distinct_columns": true, '
        '"distinct_rows": true}, "stats": {"cache_hits": 0, "calls": 19, "elapsed_ns": 0, '
        '"max_depth": 2}, "verdict": true, "witness": {"column": null, "line": 32}}\n'
    )),
    (["oracle", "--json", "-"], 0, _ORACLE_REPORT),
    (["analyze", "--json", "-"], 0, _ORACLE_REPORT),
    (["verify", "theorem2", "--n", "3", "--json"], 0, (
        '{"spec": {"forbid_all_zero_column": true, "m_max": 8, "m_min": 1, "mode": "exhaustive", '
        '"n": 3, "require_distinct_columns": true, "samples": null, "seed": null}, '
        '"tallies": {"a2_false": 65, "a2_true": 127, "converse_gap_a2": 55, "has_heavy": 182, '
        '"key_condition_hits": 77, "no_heavy": 10, "no_heavy_and_a2_false": 10, '
        '"violations": 0}, "tested": 192, "violations": []}\n'
    )),
    (["verify", "all", "--n", "2", "--json"], 0, (
        '[{"spec": {"forbid_all_zero_column": false, "m_max": 4, "m_min": 1, '
        '"mode": "exhaustive", "n": 2, "require_distinct_columns": false, "samples": null, '
        '"seed": null}, "tallies": {"a1_false": 10, "a1_true": 5, "converse_gap_a1": 8, '
        '"has_heavy": 13, "no_heavy": 2, "no_heavy_and_a1_false": 2, "violations": 0}, '
        '"tested": 15, "violations": []}, {"spec": {"forbid_all_zero_column": true, "m_max": 4, '
        '"m_min": 1, "mode": "exhaustive", "n": 2, "require_distinct_columns": true, '
        '"samples": null, "seed": null}, "tallies": {"a2_false": 1, "a2_true": 7, '
        '"converse_gap_a2": 0, "has_heavy": 7, "key_condition_hits": 6, "no_heavy": 1, '
        '"no_heavy_and_a2_false": 1, "violations": 0}, "tested": 8, "violations": []}, '
        '{"spec": {"forbid_all_zero_column": false, "m_max": 4, "m_min": 1, '
        '"mode": "exhaustive", "n": 2, "require_distinct_columns": false, "samples": null, '
        '"seed": null}, "tallies": {"hypothesis_fails": 10, "hypothesis_holds": 5, '
        '"violations": 0}, "tested": 15, "violations": []}, '
        '{"spec": {"forbid_all_zero_column": false, "m_max": 4, "m_min": 1, '
        '"mode": "exhaustive", "n": 2, "require_distinct_columns": false, "samples": null, '
        '"seed": null}, "tallies": {"has_heavy": 13, "no_heavy": 2, "unpaired_found": 2, '
        '"violations": 0}, "tested": 15, "violations": []}, '
        '{"spec": {"forbid_all_zero_column": false, "m_max": 1, "m_min": 1, "mode": "fixed", '
        '"n": 2, "require_distinct_columns": false, "samples": null, "seed": null}, '
        '"tallies": {"confirmed": 1, "violations": 0}, "tested": 1, '
        '"violations": [{"matrix": "00", "property": "remark_counterexample"}]}]\n'
    )),
    (["explore", "converse", "--n", "2", "--json"], 0, (
        '{"spec": {"forbid_all_zero_column": false, "m_max": 4, "m_min": 1, '
        '"mode": "exhaustive", "n": 2, "require_distinct_columns": false, "samples": null, '
        '"seed": null}, "tallies": {"a2_checked": 8, "converse_gap_a1": 8, "converse_gap_a2": 0, '
        '"has_heavy": 13, "no_heavy": 2, "violations": 0}, "tested": 15, '
        '"violations": [{"matrix": "10", "property": "converse_gap_a1"}, {"matrix": "00\\n10", '
        '"property": "converse_gap_a1"}, {"matrix": "01", "property": "converse_gap_a1"}, '
        '{"matrix": "00\\n01", "property": "converse_gap_a1"}, {"matrix": "10\\n01", '
        '"property": "converse_gap_a1"}, {"matrix": "00\\n11", "property": "converse_gap_a1"}, '
        '{"matrix": "00\\n10\\n11", "property": "converse_gap_a1"}, {"matrix": "00\\n01\\n11", '
        '"property": "converse_gap_a1"}]}\n'
    )),
    (["explore", "order-sensitivity", "--n", "2", "--json"], 0, (
        '{"spec": {"forbid_all_zero_column": false, "m_max": 4, "m_min": 1, '
        '"mode": "exhaustive", "n": 2, "require_distinct_columns": false, "samples": null, '
        '"seed": null}, "tallies": {"a1_order_mismatch": 0, "a2_permutation_sensitive": 0, '
        '"a2_permutation_stable": 15, "violations": 0}, "tested": 15, "violations": []}\n'
    )),
    (["verify", "all", "--n", "2"], 0, (
        "theorem1: tested=15 a1_false=10 a1_true=5 converse_gap_a1=8 has_heavy=13 no_heavy=2 "
        "no_heavy_and_a1_false=2 violations=0\n"
        "theorem1: ok (0 violations)\n"
        "theorem2: tested=8 a2_false=1 a2_true=7 converse_gap_a2=0 has_heavy=7 "
        "key_condition_hits=6 no_heavy=1 no_heavy_and_a2_false=1 violations=0\n"
        "theorem2: ok (0 violations)\n"
        "lemma1: tested=15 hypothesis_fails=10 hypothesis_holds=5 violations=0\n"
        "lemma1: ok (0 violations)\n"
        "claim: tested=15 has_heavy=13 no_heavy=2 unpaired_found=2 violations=0\n"
        "claim: ok (0 violations)\n"
        "remark: tested=1 confirmed=1 violations=0\n"
        "  [remark_counterexample] '00'\n"
        "remark: ok (0 violations)\n"
    )),
    (["explore", "converse", "--n", "2"], 0, (
        "converse: tested=15 a2_checked=8 converse_gap_a1=8 converse_gap_a2=0 has_heavy=13 "
        "no_heavy=2 violations=0\n"
        "  [converse_gap_a1] '10'\n"
        "  [converse_gap_a1] '00\\n10'\n"
        "  [converse_gap_a1] '01'\n"
        "  [converse_gap_a1] '00\\n01'\n"
        "  [converse_gap_a1] '10\\n01'\n"
        "  [converse_gap_a1] '00\\n11'\n"
        "  [converse_gap_a1] '00\\n10\\n11'\n"
        "  [converse_gap_a1] '00\\n01\\n11'\n"
        "converse: ok (0 violations)\n"
    )),
    (["bench", "growth", "--n-max", "3", "--json"], 0, (
        '{"rows": [{"algo": "a1", "cache_hits": 0, "calls": 1, "elapsed_ns": 0, '
        '"family": "full_cube", "m": 2, "max_depth": 0, "n": 1, "variant": "plain"}, '
        '{"algo": "a1", "cache_hits": 0, "calls": 1, "elapsed_ns": 0, "family": "full_cube", '
        '"m": 2, "max_depth": 0, "n": 1, "variant": "memoized"}, {"algo": "a2", "cache_hits": 0, '
        '"calls": 1, "elapsed_ns": 0, "family": "full_cube", "m": 2, "max_depth": 0, "n": 1, '
        '"variant": "plain"}, {"algo": "a2", "cache_hits": 0, "calls": 1, "elapsed_ns": 0, '
        '"family": "full_cube", "m": 2, "max_depth": 0, "n": 1, "variant": "memoized"}, '
        '{"algo": "a1", "cache_hits": 0, "calls": 5, "elapsed_ns": 0, "family": "full_cube", '
        '"m": 4, "max_depth": 1, "n": 2, "variant": "plain"}, {"algo": "a1", "cache_hits": 0, '
        '"calls": 5, "elapsed_ns": 0, "family": "full_cube", "m": 4, "max_depth": 1, "n": 2, '
        '"variant": "memoized"}, {"algo": "a2", "cache_hits": 0, "calls": 5, "elapsed_ns": 0, '
        '"family": "full_cube", "m": 4, "max_depth": 1, "n": 2, "variant": "plain"}, '
        '{"algo": "a2", "cache_hits": 0, "calls": 5, "elapsed_ns": 0, "family": "full_cube", '
        '"m": 4, "max_depth": 1, "n": 2, "variant": "memoized"}, {"algo": "a1", "cache_hits": 0, '
        '"calls": 31, "elapsed_ns": 0, "family": "full_cube", "m": 8, "max_depth": 2, "n": 3, '
        '"variant": "plain"}, {"algo": "a1", "cache_hits": 5, "calls": 11, "elapsed_ns": 0, '
        '"family": "full_cube", "m": 8, "max_depth": 2, "n": 3, "variant": "memoized"}, '
        '{"algo": "a2", "cache_hits": 0, "calls": 31, "elapsed_ns": 0, "family": "full_cube", '
        '"m": 8, "max_depth": 2, "n": 3, "variant": "plain"}, {"algo": "a2", "cache_hits": 5, '
        '"calls": 11, "elapsed_ns": 0, "family": "full_cube", "m": 8, "max_depth": 2, "n": 3, '
        '"variant": "memoized"}]}\n'
    )),
    (["bench", "growth", "--n-max", "2"], 0, (
        "n,family,m,algo,variant,calls,cache_hits,max_depth,elapsed_ns\n"
        "1,full_cube,2,a1,plain,1,0,0,0\n"
        "1,full_cube,2,a1,memoized,1,0,0,0\n"
        "1,full_cube,2,a2,plain,1,0,0,0\n"
        "1,full_cube,2,a2,memoized,1,0,0,0\n"
        "2,full_cube,4,a1,plain,5,0,1,0\n"
        "2,full_cube,4,a1,memoized,5,0,1,0\n"
        "2,full_cube,4,a2,plain,5,0,1,0\n"
        "2,full_cube,4,a2,memoized,5,0,1,0\n"
    )),
]

# `bench growth --n-max 2`, elapsed_ns masked: a well-formed baseline
GOLDEN_GROWTH = dict((" ".join(args), out) for args, _, out in GOLDEN_STDOUT)["bench growth --n-max 2"]

GOLDEN_COMPARE = (
    '{"behavioral": [{"baseline": 99, "current": 1, "field": "calls", "key": ["full_cube", '
    '1, "a1", "plain"]}], "clean": false, "informational": [{"baseline": null, "current": 0, '
    '"field": "elapsed_ns", "key": ["full_cube", 1, "a1", "plain"]}, {"baseline": null, '
    '"current": 0, "field": "elapsed_ns", "key": ["full_cube", 1, "a1", "memoized"]}, '
    '{"baseline": null, "current": 0, "field": "elapsed_ns", "key": ["full_cube", 2, "a1", '
    '"plain"]}, {"baseline": null, "current": 0, "field": "elapsed_ns", "key": ["full_cube", '
    '2, "a1", "memoized"]}]}\n'
)


def _masked(out: str) -> str:
    """Stdout with every elapsed_ns value set to 0: JSON fields, compare's
    time-drift entries and the last CSV column."""
    out = re.sub(r'"elapsed_ns": \d+', '"elapsed_ns": 0', out)
    out = re.sub(r'"current": \d+, "field": "elapsed_ns"', '"current": 0, "field": "elapsed_ns"', out)
    return re.sub(r",\d+$", ",0", out, flags=re.M)


@pytest.mark.parametrize(
    "args, code, expected", GOLDEN_STDOUT, ids=[" ".join(args) for args, _, _ in GOLDEN_STDOUT]
)
def test_output_bytes_are_golden(args, code, expected, monkeypatch, capsys):
    stdin = GOLDEN_MATRIX if args[-1] == "-" else None
    got, out, _ = run_cli(args, stdin, monkeypatch, capsys)
    assert (got, _masked(out)) == (code, expected)


def test_bench_compare_bytes_are_golden(tmp_path, monkeypatch, capsys):
    # the baseline loses its timings and gains one wrong call count, so both
    # entry lists are fixed: one behavioral change, one null-based drift per row
    code, out, _ = run_cli(["bench", "growth", "--algo", "a1", "--n-max", "2"], None, monkeypatch, capsys)
    assert code == 0
    header, *rows = out.splitlines()
    rows = [row.rsplit(",", 1)[0] + "," for row in rows]
    rows[0] = rows[0].replace(",plain,1,", ",plain,99,")
    path = tmp_path / "base.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    code, out, _ = run_cli(["bench", "compare", "--json", str(path)], None, monkeypatch, capsys)
    assert (code, _masked(out)) == (1, GOLDEN_COMPARE)


# The exact text of plain `analyze` and `analyze --trace`, on the 5x4
# counterexample and on a matrix with repeated rows: row 1's column-1 target
# 100 is rows 2 and 4, and the smallest index is the conjugate.
_CEX_ANALYZE = (
    "matrix: 5 x 4\n"
    "  row 1: 0000\n"
    "  row 2: 1010\n"
    "  row 3: 0110\n"
    "  row 4: 1001\n"
    "  row 5: 0101\n"
    "properties: distinct_rows=True distinct_columns=True all_zero_column=False\n"
    "column weights: [2, 2, 2, 2]\n"
    "heavy columns: (none)\n"
    "zero entries (row, column -> conjugate row):\n"
    "  (1, 1) -> unpaired\n"
    "  (3, 1) -> unpaired\n"
    "  (5, 1) -> unpaired\n"
    "  (1, 2) -> unpaired\n"
    "  (2, 2) -> unpaired\n"
    "  (4, 2) -> unpaired\n"
    "  (1, 3) -> unpaired\n"
    "  (4, 3) -> unpaired\n"
    "  (5, 3) -> unpaired\n"
    "  (1, 4) -> unpaired\n"
    "  (2, 4) -> unpaired\n"
    "  (3, 4) -> unpaired\n"
    "unpaired witness: row 1, column 1\n"
)

_REPEATED_MATRIX = "000\n100\n110\n100\n011\n000\n"

_REPEATED_ANALYZE = (
    "matrix: 6 x 3\n"
    "  row 1: 000\n"
    "  row 2: 100\n"
    "  row 3: 110\n"
    "  row 4: 100\n"
    "  row 5: 011\n"
    "  row 6: 000\n"
    "properties: distinct_rows=False distinct_columns=True all_zero_column=False\n"
    "column weights: [3, 2, 1]\n"
    "heavy columns: 1\n"
    "zero entries (row, column -> conjugate row):\n"
    "  (1, 1) -> 2\n"
    "  (5, 1) -> unpaired\n"
    "  (6, 1) -> 2\n"
    "  (1, 2) -> unpaired\n"
    "  (2, 2) -> 3\n"
    "  (4, 2) -> 3\n"
    "  (6, 2) -> unpaired\n"
    "  (1, 3) -> unpaired\n"
    "  (2, 3) -> unpaired\n"
    "  (3, 3) -> unpaired\n"
    "  (4, 3) -> unpaired\n"
    "  (6, 3) -> unpaired\n"
    "unpaired witness: row 5, column 1\n"
)

GOLDEN_ANALYZE = [
    ([], GOLDEN_MATRIX, _CEX_ANALYZE),
    (["--trace"], GOLDEN_MATRIX, _CEX_ANALYZE + (
        "sequential reduction at row 1, preserving column 1:\n"
        "  step  column  value  survivors\n"
        "     1       2      0          3\n"
        "     2       3      0          2\n"
        "     3       4      0          1\n"
        "  terminal column (rows [1]): [0]\n"
    )),
    ([], _REPEATED_MATRIX, _REPEATED_ANALYZE),
    (["--trace"], _REPEATED_MATRIX, _REPEATED_ANALYZE + (
        "sequential reduction at row 5, preserving column 1:\n"
        "  step  column  value  survivors\n"
        "     1       2      1          2\n"
        "     2       3      1          1\n"
        "  terminal column (rows [5]): [0]\n"
    )),
]


@pytest.mark.parametrize(
    "flags, stdin, expected", GOLDEN_ANALYZE,
    ids=["counterexample", "counterexample --trace", "repeated", "repeated --trace"],
)
def test_analyze_text_is_golden(flags, stdin, expected, monkeypatch, capsys):
    assert run_cli(["analyze", *flags, "-"], stdin, monkeypatch, capsys)[:2] == (0, expected)


# The U(4) scans and the two seeded random scans, pinned as the CLI prints
# them with --json: the exit code, each report's `tested` and full tallies
# (so a failure names the tally that moved), then the SHA-256 of stdout.  The
# two random scans and `verify all` must print the same bytes at 2 workers.
# A change that moves these bytes on purpose updates the pins and says why.
_U4_THEOREM1 = (65535, {
    "a1_false": 65368, "a1_true": 167, "converse_gap_a1": 63064, "has_heavy": 63231,
    "no_heavy": 2304, "no_heavy_and_a1_false": 2304, "violations": 0,
})
_U4_THEOREM2 = (63384, {
    "a2_false": 47594, "a2_true": 15790, "converse_gap_a2": 45419, "has_heavy": 61206,
    "key_condition_hits": 4785, "no_heavy": 2178, "no_heavy_and_a2_false": 2175, "violations": 3,
})
_U4_LEMMA1 = (65535, {"hypothesis_fails": 65368, "hypothesis_holds": 167, "violations": 0})
_U4_CLAIM = (65535, {"has_heavy": 63231, "no_heavy": 2304, "unpaired_found": 2304, "violations": 0})
_REMARK = (1, {"confirmed": 1, "violations": 0})

U4_PINS = {
    "verify all --n 4": (
        1, [_U4_THEOREM1, _U4_THEOREM2, _U4_LEMMA1, _U4_CLAIM, _REMARK],
        "8fed17384764dcb1faf8e1f6dd1cfd31ba0292cec6d4a0fd7c641b008095084e",
    ),
    "explore converse --n 4": (
        0, [(65535, {
            "a2_checked": 63384, "converse_gap_a1": 63064, "converse_gap_a2": 45419,
            "has_heavy": 63231, "no_heavy": 2304, "violations": 0,
        })],
        "98a2ed34b157f1cabce83839f2cb194c0d86bbc2d11b5d88aacc854ef95507f7",
    ),
    "explore order-sensitivity --n 4 --m-max 5": (
        0, [(6884, {
            "a1_order_mismatch": 0, "a2_permutation_sensitive": 1204,
            "a2_permutation_stable": 5680, "violations": 0,
        })],
        "32b31b3c1ab6091b4f201bd9a5ac687bac1dcdc81bfaa49005bf8d6c54383788",
    ),
    "verify theorem2 --n 5 --mode random:5000:1": (
        0, [(5000, {
            "a2_false": 4941, "a2_true": 59, "converse_gap_a2": 4876, "has_heavy": 4935,
            "key_condition_hits": 2, "no_heavy": 65, "no_heavy_and_a2_false": 65, "violations": 0,
        })],
        "187b201e9627323eb35e3427ef366f9d2490ec8c7d3108dbd94942739716c833",
    ),
    "verify theorem1 --n 6 --mode random:5000:1": (
        0, [(5000, {
            "a1_false": 5000, "a1_true": 0, "converse_gap_a1": 4941, "has_heavy": 4941,
            "no_heavy": 59, "no_heavy_and_a1_false": 59, "violations": 0,
        })],
        "b1af81a0c0a98b5002b4c709acadd9a725083aa4aba762e1b3403c40d0a24667",
    ),
}
U4_PIN_RUNS = [(command, 1) for command in U4_PINS] + [
    (command, 2) for command in U4_PINS if command.startswith("verify")
]


@pytest.mark.parametrize(
    "command, workers", U4_PIN_RUNS, ids=[f"{c} --workers {w}" for c, w in U4_PIN_RUNS]
)
def test_u4_report_bytes_are_pinned(command, workers, monkeypatch, capsys):
    code, reports, digest = U4_PINS[command]
    got, out, _ = run_cli([*command.split(), "--workers", str(workers), "--json"],
                          None, monkeypatch, capsys)
    doc = json.loads(out)
    assert got == code
    assert [(r["tested"], r["tallies"]) for r in (doc if isinstance(doc, list) else [doc])] == reports
    assert hashlib.sha256(out.encode()).hexdigest() == digest
