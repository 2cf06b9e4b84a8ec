import io
import json

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
        for target in (["verify", "theorem1"], ["explore", "converse"]):
            code, out, err = run_cli(
                target + ["--n", "2", "--workers", workers], None, monkeypatch, capsys
            )
            assert code == 2 and out == ""
            assert err.count("\n") == 1 and f"workers must be in 1..{MAX_WORKERS}" in err


def test_negative_witness_cap_is_usage_error(monkeypatch, capsys):
    # a negative cap used to run the scan and print an empty witness list
    for target in (["verify", "theorem1"], ["explore", "converse"]):
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


def test_bench_growth_csv(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["bench", "growth", "--family", "full_cube", "--n-min", "1", "--n-max", "2"],
        None, monkeypatch, capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,family,m,algo,variant,calls,cache_hits,max_depth,elapsed_ns"
    assert len(lines) == 1 + 2 * 2 * 2  # two n, two algos, two variants


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
