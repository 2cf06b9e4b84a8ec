import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from heavycol import cli
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

    verdict = Verdict(True, Witness(EXHAUSTED_TRUE, None, 18), RecursionStats(7, 1, 0, 120))
    doc = json.loads(to_json(report_dict(m, "a1", verdict)))
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
        for target in (["verify", "theorem1"], ["explore", "converse"], ["verify", "remark"]):
            code, out, err = run_cli(
                target + ["--n", "2", "--workers", workers], None, monkeypatch, capsys
            )
            assert code == 2 and out == ""
            assert err.count("\n") == 1 and f"workers must be in 1..{MAX_WORKERS}" in err


def test_negative_witness_cap_is_usage_error(monkeypatch, capsys):
    # a negative cap used to run the scan and print an empty witness list
    # (remark ignored the cap, --workers and --mode altogether)
    for target in (["verify", "theorem1"], ["explore", "converse"], ["verify", "remark"]):
        code, out, err = run_cli(
            target + ["--n", "2", "--witness-cap", "-5", "--json"], None, monkeypatch, capsys
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "witness cap must be at least 0" in err


def test_nonpositive_budget_is_usage_error(monkeypatch, capsys):
    # a budget of 0 or less used to time out every row and still exit 0
    for budget in ("-1", "0"):
        code, out, err = run_cli(
            ["bench", "growth", "--n-max", "2", "--budget-ms", budget], None, monkeypatch, capsys
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "budget must be positive" in err


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


def test_bench_empty_range_is_usage_error(tmp_path, monkeypatch, capsys):
    # --n-min above --n-max used to print a header-only table and exit 0,
    # or fail inside min() with --save or compare
    for action in (["growth"], ["growth", "--save"], ["compare"]):
        code, out, err = run_cli(
            ["bench", *action, "--n-min", "3", "--n-max", "1", "--store", str(tmp_path)],
            None, monkeypatch, capsys,
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "empty column-count range range(3, 2)" in err


def test_bench_save_and_compare(tmp_path, monkeypatch, capsys):
    base = ["--family", "full_cube", "--n-min", "1", "--n-max", "2",
            "--store", str(tmp_path)]
    code, _, err = run_cli(["bench", "growth", "--save", *base], None, monkeypatch, capsys)
    assert code == 0 and "baseline written" in err
    code, out, _ = run_cli(["bench", "compare", "--json", *base], None, monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["clean"] is True


def test_bench_compare_missing_baseline(tmp_path, monkeypatch, capsys):
    code, _, err = run_cli(
        ["bench", "compare", "--family", "full_cube", "--n-min", "1", "--n-max", "2",
         "--store", str(tmp_path)],
        None, monkeypatch, capsys,
    )
    assert code == 2 and "MissingBaseline" in err


def test_bench_store_checked_before_work(monkeypatch, capsys):
    # the missing --store used to surface only after the whole table was built
    def no_work(*args, **kwargs):
        raise AssertionError("profile_family ran before the --store check")

    monkeypatch.setattr(cli, "profile_family", no_work)
    for action, message in ((["compare"], "compare needs --store"),
                            (["growth", "--save"], "--save needs --store")):
        code, out, err = run_cli(
            ["bench", *action, "--family", "full_cube", "--n-min", "8", "--n-max", "9"],
            None, monkeypatch, capsys,
        )
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("args, stdin, message", [
    (["verify", "theorem1", "--n", "2", "--mode", "random:5"], None, "bad --mode 'random:5'"),
    (["explore", "converse", "--n", "2", "--mode", "random:x:1"], None, "bad --mode 'random:x:1'"),
    (["check", "--algo", "a1", "--order", "shuffle:", "-"], "10\n01\n", "bad --order 'shuffle:'"),
    (["check", "--algo", "a1", "--order", "shuffle:1:2", "-"], "1\n", "bad --order 'shuffle:1:2'"),
    (["bench", "growth", "--family", "random_half:x", "--n-max", "2"], None,
     "bad --family 'random_half:x'"),
    (["verify", "remark", "--mode", "bogus"], None, "bad --mode 'bogus'"),
])
def test_malformed_flag_value_names_its_flag(args, stdin, message, monkeypatch, capsys):
    code, out, err = run_cli(args, stdin, monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("ValueError: " + message + "; use ")


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
    base = ["--algo", "a1", "--n-max", "2", "--store", str(tmp_path)]
    assert run_cli(["bench", "growth", "--save", *base], None, monkeypatch, capsys)[0] == 0
    (path,) = tmp_path.glob("growth_*.csv")
    header, *rows = path.read_text().splitlines()
    rows = [row.rsplit(",", 1)[0] + "," for row in rows]
    rows[0] = rows[0].replace(",plain,1,", ",plain,99,")
    path.write_text("\n".join([header, *rows]) + "\n")
    code, out, _ = run_cli(["bench", "compare", "--json", *base], None, monkeypatch, capsys)
    assert (code, _masked(out)) == (1, GOLDEN_COMPARE)
