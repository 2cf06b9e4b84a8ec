"""Command-line front end.

Subcommands: check (run a1/a2), oracle (heavy columns by counting), analyze
(structure report), verify (guarantee scans), explore (open-question scans),
bench (recursion growth tables, and diffs against one saved as a baseline).

Exit codes: 0 success (for verify/explore, zero violations); 1 violations or
behavioral regressions found; 2 usage or input errors, or a check that ran
out of its --budget-ms, reported as one line on standard error.  --json
emits exactly one JSON document on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import suppress
from dataclasses import asdict
from pathlib import Path

from .algorithms import (
    ASCENDING,
    BudgetExceeded,
    RecursionStats,
    Verdict,
    run_a1,
    run_a2,
    shuffled_order,
)
from .matrix import (
    BinaryMatrix,
    heavy_columns,
    matrix_properties,
    matrix_to_text,
    parse_matrix,
)
from .structure import find_unpaired, sequential_reduction
from .profiling import (
    DEFAULT_BUDGET_NS,
    GrowthTable,
    parse_family,
    profile_family,
    rerun_spec,
    snapshot_compare,
)
from .verification import (
    ScanReport,
    UniverseSpec,
    check_lemma1,
    check_reduction_claim,
    check_theorem1,
    check_theorem2,
    converse_scan,
    order_sensitivity_scan,
    remark_counterexamples,
    DEFAULT_PERM_BUDGET,
    DEFAULT_WITNESS_CAP,
    MAX_WORKERS,
)


class _Parser(argparse.ArgumentParser):
    """Raises every usage error as a ValueError, which `main` reports in one line."""

    def error(self, message):
        raise ValueError(message)


# flag or positional -> its add_argument keywords, for verify, explore and
# bench (and --json, --budget-ms and input for check, oracle and analyze)
_FLAGS = {
    "--n": dict(type=int, default=3, help="column count of the universe"),
    "--m-min": dict(type=int, default=1),
    "--m-max": dict(type=int, default=None),
    "--mode": dict(default="exhaustive", help="exhaustive or random:COUNT:SEED"),
    "--perm-budget": dict(type=int, default=DEFAULT_PERM_BUDGET,
                          help="permutations per matrix when n! is too many, at least 1"),
    "--workers": dict(type=int, default=1, help=f"scan worker processes, 1..{MAX_WORKERS}"),
    "--witness-cap": dict(type=int, default=DEFAULT_WITNESS_CAP,
                          help="witness matrices kept per report, 0 or more"),
    "--family": dict(default="full_cube", help="full_cube, random_half:SEED, or worst_found"),
    "--n-min": dict(type=int, default=1),
    "--n-max": dict(type=int, default=5),
    "--algo": dict(choices=["a1", "a2", "both"], default="both"),
    "--budget-ms": dict(type=int, default=DEFAULT_BUDGET_NS // 1_000_000,
                        help="per-run wall-clock budget in ms, positive; bench marks a run "
                             "that exceeds it, check exits 2"),
    "--json": dict(action="store_true", help="emit one JSON document"),
    "input": dict(help="matrix file, or '-' for standard input"),
    "baseline": dict(help="CSV printed by bench growth, or '-' for standard input"),
}
_SCAN = ("--workers", "--witness-cap", "--json")
_UNIVERSE = ("--n", "--m-min", "--m-max", "--mode", *_SCAN)
_GROWTH = ("--family", "--n-min", "--n-max", "--algo", "--budget-ms", "--json")

# command -> target -> (the name of its scan function in this module, or None,
# and the only flags the parser offers it).  A scan function is looked up on
# every call, so a wrapper set on this module is the one run.
_TARGETS = {
    "verify": {
        "theorem1": ("check_theorem1", _UNIVERSE),
        "theorem2": ("check_theorem2", _UNIVERSE),
        "lemma1": ("check_lemma1", _UNIVERSE),
        "claim": ("check_reduction_claim", _UNIVERSE),
        "remark": ("remark_counterexamples", _SCAN),
        "all": (None, _UNIVERSE),  # every target above
    },
    "explore": {
        "converse": ("converse_scan", _UNIVERSE),
        "order-sensitivity": ("order_sensitivity_scan", (*_UNIVERSE, "--perm-budget")),
    },
    "bench": {"growth": (None, _GROWTH), "compare": (None, ("--budget-ms", "--json", "baseline"))},
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="heavycol",
        description="Heavy-column certificates for binary matrices, plus desk-scale verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run a certificate procedure on one matrix")
    p.add_argument("--algo", choices=["a1", "a2"], required=True)
    p.add_argument("--order", default="ascending",
                   help="a1 column-processing order: ascending or shuffle:SEED")
    p.add_argument("--memo", action="store_true", help="memoize the recursion")
    p.add_argument("--budget-ms", **_FLAGS["--budget-ms"])
    p.add_argument("--json", **_FLAGS["--json"])
    p.add_argument("input", **_FLAGS["input"])

    p = sub.add_parser("oracle", help="list heavy columns by direct counting")
    p.add_argument("--json", **_FLAGS["--json"])
    p.add_argument("input", **_FLAGS["input"])

    p = sub.add_parser("analyze", help="structure report: properties, conjugacy, unpaired rows")
    p.add_argument("--trace", action="store_true",
                   help="show a sequential reduction anchored at the unpaired witness")
    p.add_argument("--trace-at", metavar="ROW:COL", default=None,
                   help="show a sequential reduction anchored at this row and column")
    p.add_argument("--json", **_FLAGS["--json"])
    p.add_argument("input", **_FLAGS["input"])

    for command, dest, help in (
        ("verify", "target", "machine-check a guarantee over a universe"),
        ("explore", "target", "tally open-question scans"),
        ("bench", "action", "recursion growth tables and baseline comparison"),
    ):
        targets = sub.add_parser(command, help=help).add_subparsers(dest=dest, required=True)
        for target, (_, flags) in _TARGETS[command].items():
            p = targets.add_parser(target)
            for flag in flags:
                p.add_argument(flag, **_FLAGS[flag])

    return parser


def to_json(doc) -> str:
    """The one serializer: every --json document, dataclasses as their fields."""
    return json.dumps(doc, sort_keys=True, default=asdict)


def report_dict(
    matrix: BinaryMatrix,
    algorithm: str,
    verdict: Verdict | None = None,
    heavy: frozenset[int] | None = None,
    elapsed_ns: int = 0,
) -> dict:
    """The check/oracle/analyze report; no verdict means an oracle-only one.
    `elapsed_ns` is the caller's own timing of the run or the oracle."""
    props = matrix_properties(matrix)
    w = None if verdict is None else verdict.witness
    stats = RecursionStats(0, 0, 0) if verdict is None else verdict.stats
    return {
        "m": matrix.m,
        "n": matrix.n,
        "algorithm": algorithm,
        "verdict": None if verdict is None else verdict.value,
        "heavy_columns": sorted(heavy_columns(matrix) if heavy is None else heavy),
        "witness": None if w is None else {"line": w.line, "column": w.column},
        "preconditions": {
            "distinct_rows": props.distinct_rows,
            "distinct_columns": props.distinct_columns,
            "all_zero_column": props.has_all_zero_column,
        },
        "stats": {**asdict(stats), "elapsed_ns": elapsed_ns},
    }


def _read(source: str) -> str:
    return sys.stdin.read() if source == "-" else Path(source).read_text()


def _parse_order(text: str):
    if text == "ascending":
        return ASCENDING
    with suppress(ValueError):
        kind, seed = text.split(":")
        if kind == "shuffle":
            return shuffled_order(int(seed))
    raise ValueError(f"bad --order {text!r}; use ascending or shuffle:SEED")


def _parse_mode(args) -> dict:
    kwargs = dict(n=args.n, m_min=args.m_min, m_max=args.m_max)
    if args.mode == "exhaustive":
        return {**kwargs, "mode": "exhaustive"}
    with suppress(ValueError):
        kind, count, seed = args.mode.split(":")
        if kind == "random":
            return {**kwargs, "mode": "random", "samples": int(count), "seed": int(seed)}
    raise ValueError(f"bad --mode {args.mode!r}; use exhaustive or random:COUNT:SEED")


def _print_check_human(doc: dict, tag: str | None) -> None:
    print(f"matrix: {doc['m']} x {doc['n']}")
    print(f"algorithm: {doc['algorithm']}")
    verdict = doc["verdict"]
    print(f"verdict: {verdict}" if verdict is not None else "verdict: n/a (oracle)")
    w = doc["witness"]
    if w is not None:
        col = "-" if w["column"] is None else w["column"]
        print(f"witness: {tag} (line {w['line']}, column {col})")
    heavy = doc["heavy_columns"]
    print(f"heavy columns: {', '.join(map(str, heavy)) if heavy else '(none)'}")
    pre = doc["preconditions"]
    print(
        "preconditions: "
        f"distinct_rows={pre['distinct_rows']} "
        f"distinct_columns={pre['distinct_columns']} "
        f"all_zero_column={pre['all_zero_column']}"
    )
    s = doc["stats"]
    print(
        f"stats: calls={s['calls']} max_depth={s['max_depth']} "
        f"cache_hits={s['cache_hits']} elapsed={s['elapsed_ns'] / 1e6:.3f}ms"
    )


def _cmd_check(args) -> int:
    order = _parse_order(args.order)
    if args.algo == "a2" and order != ASCENDING:
        raise ValueError(f"bad --order {args.order!r} for a2; its column loop is fixed ascending")
    matrix = parse_matrix(_read(args.input))
    budget_ns = args.budget_ms * 1_000_000
    started = time.perf_counter_ns()
    if args.algo == "a2":
        verdict = run_a2(matrix, memoize=args.memo, budget_ns=budget_ns)
    else:
        verdict = run_a1(matrix, order=order, memoize=args.memo, budget_ns=budget_ns)
    elapsed = time.perf_counter_ns() - started
    doc = report_dict(matrix, args.algo, verdict, elapsed_ns=elapsed)
    if args.json:
        print(to_json(doc))
    else:
        _print_check_human(doc, verdict.witness.tag)
    return 0


def _cmd_oracle(args) -> int:
    matrix = parse_matrix(_read(args.input))
    started = time.perf_counter_ns()
    heavy = heavy_columns(matrix)
    elapsed = time.perf_counter_ns() - started
    doc = report_dict(matrix, "oracle", heavy=heavy, elapsed_ns=elapsed)
    if args.json:
        print(to_json(doc))
    else:
        _print_check_human(doc, None)
    return 0


def _cmd_analyze(args) -> int:
    matrix = parse_matrix(_read(args.input))
    trace = None
    if args.trace_at:
        # parsed and range-checked before anything is printed
        try:
            i, l = map(int, args.trace_at.split(":"))
        except ValueError:
            raise ValueError(f"bad --trace-at {args.trace_at!r}; use ROW:COL") from None
        trace = sequential_reduction(matrix, i, l)
    if args.json:
        print(to_json(report_dict(matrix, "oracle")))
        return 0
    props = matrix_properties(matrix)
    print(f"matrix: {matrix.m} x {matrix.n}")
    for i, text in enumerate(matrix_to_text(matrix).splitlines(), start=1):
        print(f"  row {i}: {text}")
    print(
        f"properties: distinct_rows={props.distinct_rows} "
        f"distinct_columns={props.distinct_columns} "
        f"all_zero_column={props.has_all_zero_column}"
    )
    print(f"column weights: {list(props.column_weights)}")
    heavy = sorted(heavy_columns(matrix))
    print(f"heavy columns: {', '.join(map(str, heavy)) if heavy else '(none)'}")
    print("zero entries (row, column -> conjugate row):")
    # each row's first index, so the smallest wins on repeats, as in conjugate_of
    first = {}
    for i, r in enumerate(matrix.rows, start=1):
        first.setdefault(r, i)
    for k in range(1, matrix.n + 1):
        bit = 1 << (k - 1)
        for i, r in enumerate(matrix.rows, start=1):
            if not r & bit:
                print(f"  ({i}, {k}) -> {first.get(r ^ bit, 'unpaired')}")
    pair = find_unpaired(matrix)
    if pair is None:
        print("unpaired witness: none (every zero entry is paired)")
    else:
        print(f"unpaired witness: row {pair[0]}, column {pair[1]}")
    if args.trace and trace is None:
        if pair is None:
            print("trace: skipped, no unpaired witness; use --trace-at ROW:COL")
            return 0
        trace = sequential_reduction(matrix, *pair)
    if trace is not None:
        print(f"sequential reduction at row {trace.source_row_index}, "
              f"preserving column {trace.preserved_column}:")
        print("  step  column  value  survivors")
        for s, (k, b, left) in enumerate(trace.steps, start=1):
            print(f"  {s:>4}  {k:>6}  {b:>5}  {left:>9}")
        terminal = ", ".join(str(r) for r in trace.terminal.rows)
        print(f"  terminal column (rows {list(trace.survivors)}): [{terminal}]")
    return 0


def _print_scan_human(name: str, report: ScanReport) -> None:
    tallies = " ".join(f"{k}={v}" for k, v in sorted(report.tallies.items()))
    print(f"{name}: tested={report.tested} {tallies}")
    for w in report.violations:
        print(f"  [{w.property}] {w.matrix!r}")
    print(f"{name}: {'FAIL' if report.violation_count else 'ok'} "
          f"({report.violation_count} violations)")


def _cmd_scan(args) -> int:
    table = _TARGETS[args.command]
    targets = [t for t, (name, _) in table.items() if name] if args.target == "all" else [args.target]
    base = _parse_mode(args) if "mode" in args else None
    options = {k: vars(args)[k] for k in ("workers", "witness_cap", "perm_budget") if k in args}
    reports = []
    for target in targets:
        name, flags = table[target]
        spec = ()
        if "--mode" in flags:
            constrained = target == "theorem2"
            spec = (UniverseSpec(**base, require_distinct_columns=constrained,
                                 forbid_all_zero_column=constrained),)
        reports.append(globals()[name](*spec, **options))
    if args.json:
        print(to_json(reports if args.target == "all" else reports[0]))
    else:
        for name, report in zip(targets, reports):
            _print_scan_human(name, report)
    return 1 if any(r.violation_count for r in reports) else 0


def _cmd_bench(args) -> int:
    budget_ns = args.budget_ms * 1_000_000
    if args.action == "growth":
        family = parse_family(args.family)
        # profile_family checks an empty range too, without naming the flags
        if args.n_min > args.n_max:
            raise ValueError(f"--n-min {args.n_min} is above --n-max {args.n_max}")
        algos = ("a1", "a2") if args.algo == "both" else (args.algo,)
        n_range = range(args.n_min, args.n_max + 1)
        table = profile_family(family, n_range, algos=algos, budget_ns=budget_ns)
        if args.json:
            print(to_json(table))
        else:
            sys.stdout.write(table.to_csv())
        return 0
    # every row of the baseline is checked before any row is rerun
    baseline = GrowthTable.from_csv(_read(args.baseline))
    family, ns, algos = rerun_spec(baseline)
    diff = snapshot_compare(profile_family(family, ns, algos=algos, budget_ns=budget_ns), baseline)
    if args.json:
        print(to_json({**asdict(diff), "clean": diff.clean}))
    else:
        for e in diff.behavioral:
            print(f"behavioral: {e.key} {e.field}: {e.baseline} -> {e.current}")
        for e in diff.informational:
            print(f"time drift: {e.key} {e.baseline} -> {e.current}")
        print("clean" if diff.clean else f"{len(diff.behavioral)} behavioral changes")
    return 0 if diff.clean else 1


_DISPATCH = {
    "check": _cmd_check,
    "oracle": _cmd_oracle,
    "analyze": _cmd_analyze,
    "verify": _cmd_scan,
    "explore": _cmd_scan,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _DISPATCH[args.command](args)
    # MatrixError and UniverseTooLarge are ValueErrors
    except (ValueError, BudgetExceeded, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
