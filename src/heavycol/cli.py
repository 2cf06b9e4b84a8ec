"""Command-line front end.

Subcommands: check (run a1/a2), oracle (heavy columns by counting), analyze
(structure report), verify (guarantee scans), explore (open-question scans),
bench (recursion growth tables and baseline diffs).

Exit codes: 0 success (for verify/explore, zero violations); 1 violations or
behavioral regressions found; 2 usage or input errors, reported as one line
on standard error.  --json emits exactly one JSON document on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import suppress
from dataclasses import asdict
from pathlib import Path

from .algorithms import ASCENDING, RecursionStats, Verdict, run_a1, run_a2, shuffled_order
from .matrix import (
    BinaryMatrix,
    MatrixError,
    heavy_columns,
    matrix_properties,
    matrix_to_text,
    parse_matrix,
)
from .structure import conjugate_of, find_unpaired, sequential_reduction
from .profiling import (
    MissingBaseline,
    load_baseline,
    profile_family,
    save_baseline,
    snapshot_compare,
)
from .verification import (
    ScanReport,
    UniverseSpec,
    UniverseTooLarge,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heavycol",
        description="Heavy-column certificates for binary matrices, plus desk-scale verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="matrix file, or '-' for standard input")

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit one JSON document")

    def add_universe(p):
        p.add_argument("--n", type=int, default=3, help="column count of the universe")
        p.add_argument("--m-min", type=int, default=1)
        p.add_argument("--m-max", type=int, default=None)
        p.add_argument("--mode", default="exhaustive",
                       help="exhaustive or random:COUNT:SEED")
        p.add_argument("--workers", type=int, default=1,
                       help=f"scan worker processes, 1..{MAX_WORKERS}")
        p.add_argument("--witness-cap", type=int, default=DEFAULT_WITNESS_CAP,
                       help="witness matrices kept per report, 0 or more")

    p = sub.add_parser("check", help="run a certificate procedure on one matrix")
    p.add_argument("--algo", choices=["a1", "a2"], required=True)
    p.add_argument("--order", default="ascending",
                   help="a1 column-processing order: ascending or shuffle:SEED")
    p.add_argument("--memo", action="store_true", help="memoize the recursion")
    add_json(p)
    add_input(p)

    p = sub.add_parser("oracle", help="list heavy columns by direct counting")
    add_json(p)
    add_input(p)

    p = sub.add_parser("analyze", help="structure report: properties, conjugacy, unpaired rows")
    p.add_argument("--trace", action="store_true",
                   help="show a sequential reduction anchored at the unpaired witness")
    p.add_argument("--trace-at", metavar="ROW:COL", default=None,
                   help="show a sequential reduction anchored at this row and column")
    add_json(p)
    add_input(p)

    p = sub.add_parser("verify", help="machine-check a guarantee over a universe")
    p.add_argument("target", choices=[*_VERIFY_TARGETS, "all"])
    add_universe(p)
    add_json(p)

    p = sub.add_parser("explore", help="tally open-question scans")
    p.add_argument("target", choices=["converse", "order-sensitivity"])
    add_universe(p)
    p.add_argument("--perm-budget", type=int, default=DEFAULT_PERM_BUDGET,
                   help="permutations per matrix when n! is too many, at least 1")
    add_json(p)

    p = sub.add_parser("bench", help="recursion growth tables and baseline comparison")
    p.add_argument("action", choices=["growth", "compare"])
    p.add_argument("--family", default="full_cube",
                   help="full_cube, random_half:SEED, or worst_found")
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--algo", choices=["a1", "a2", "both"], default="both")
    p.add_argument("--budget-ms", type=int, default=2000,
                   help="per-run wall-clock budget, positive; exceeded runs are marked")
    p.add_argument("--store", default=None, help="baseline/specimen directory")
    p.add_argument("--save", action="store_true",
                   help="growth only: store the table as the new baseline")
    add_json(p)

    return parser


def to_json(doc) -> str:
    """The one serializer: every --json document, dataclasses as their fields."""
    return json.dumps(doc, sort_keys=True, default=asdict)


def report_dict(
    matrix: BinaryMatrix,
    algorithm: str,
    verdict: Verdict | None = None,
    heavy: set[int] | None = None,
    elapsed_ns: int = 0,
) -> dict:
    """The check/oracle/analyze report; no verdict means an oracle-only one."""
    props = matrix_properties(matrix)
    w = None if verdict is None else verdict.witness
    stats = RecursionStats(0, 0, 0, elapsed_ns) if verdict is None else verdict.stats
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
        "stats": asdict(stats),
    }


def _read_matrix(source: str) -> BinaryMatrix:
    text = sys.stdin.read() if source == "-" else Path(source).read_text()
    return parse_matrix(text)


def _parse_order(text: str):
    if text == "ascending":
        return ASCENDING
    with suppress(ValueError):
        kind, seed = text.split(":")
        if kind == "shuffle":
            return shuffled_order(int(seed))
    raise ValueError(f"bad --order {text!r}; use ascending or shuffle:SEED")


def _parse_mode(args) -> dict:
    kwargs = dict(n=args.n, m_min=args.m_min)
    if args.m_max is not None:
        kwargs["m_max"] = args.m_max
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
    matrix = _read_matrix(args.input)
    if args.algo == "a2":
        verdict = run_a2(matrix, memoize=args.memo)
    else:
        verdict = run_a1(matrix, order=order, memoize=args.memo)
    doc = report_dict(matrix, args.algo, verdict)
    if args.json:
        print(to_json(doc))
    else:
        _print_check_human(doc, verdict.witness.tag)
    return 0


def _cmd_oracle(args) -> int:
    matrix = _read_matrix(args.input)
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
    matrix = _read_matrix(args.input)
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
    for i, r in enumerate(matrix.rows, start=1):
        print(f"  row {i}: {matrix_to_text(BinaryMatrix((r,), matrix.n))}")
    print(
        f"properties: distinct_rows={props.distinct_rows} "
        f"distinct_columns={props.distinct_columns} "
        f"all_zero_column={props.has_all_zero_column}"
    )
    print(f"column weights: {list(props.column_weights)}")
    heavy = sorted(heavy_columns(matrix))
    print(f"heavy columns: {', '.join(map(str, heavy)) if heavy else '(none)'}")
    print("zero entries (row, column -> conjugate row):")
    for k in range(1, matrix.n + 1):
        for i in range(1, matrix.m + 1):
            if matrix.entry(i, k) == 0:
                j = conjugate_of(matrix, i, k)
                print(f"  ({i}, {k}) -> {j if j is not None else 'unpaired'}")
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


# CLI target -> the name of its scan function in this module.  The function
# is looked up on every call, so a wrapper set on this module is the one run.
_SCANS = {
    "theorem1": "check_theorem1",
    "theorem2": "check_theorem2",
    "lemma1": "check_lemma1",
    "claim": "check_reduction_claim",
    "remark": "remark_counterexamples",
    "converse": "converse_scan",
    "order-sensitivity": "order_sensitivity_scan",
}
_VERIFY_TARGETS = ("theorem1", "theorem2", "lemma1", "claim", "remark")


def _print_scan_human(name: str, report: ScanReport) -> None:
    tallies = " ".join(f"{k}={v}" for k, v in sorted(report.tallies.items()))
    print(f"{name}: tested={report.tested} {tallies}")
    for w in report.violations:
        print(f"  [{w.property}] {w.matrix!r}")
    print(f"{name}: {'FAIL' if report.violation_count else 'ok'} "
          f"({report.violation_count} violations)")


def _cmd_scan(args) -> int:
    base = _parse_mode(args)
    targets = _VERIFY_TARGETS if args.target == "all" else (args.target,)
    options = {"workers": args.workers, "witness_cap": args.witness_cap}
    if args.target == "order-sensitivity":
        options["perm_budget"] = args.perm_budget
    reports = []
    for target in targets:
        scan = globals()[_SCANS[target]]
        if target == "remark":
            reports.append(scan(**options))
            continue
        constrained = target == "theorem2"
        spec = UniverseSpec(
            **base, require_distinct_columns=constrained, forbid_all_zero_column=constrained
        )
        reports.append(scan(spec, **options))
    if args.json:
        print(to_json(reports if args.target == "all" else reports[0]))
    else:
        for name, report in zip(targets, reports):
            _print_scan_human(name, report)
    return 1 if any(r.violation_count for r in reports) else 0


def _parse_family(text: str):
    if text in ("full_cube", "worst_found"):
        return text
    with suppress(ValueError):
        kind, seed = text.split(":")
        if kind == "random_half":
            return ("random_half", int(seed))
    raise ValueError(f"bad --family {text!r}; use full_cube, random_half:SEED or worst_found")


def _cmd_bench(args) -> int:
    family = _parse_family(args.family)
    n_range = range(args.n_min, args.n_max + 1)
    algos = ("a1", "a2") if args.algo == "both" else (args.algo,)
    store = Path(args.store) if args.store else None
    # every --store check runs before profile_family does the work
    if store is None:
        if family == "worst_found" and args.n_max > 3:
            raise ValueError("worst_found above n=3 needs --store to persist specimens")
        if args.action == "compare":
            raise ValueError("compare needs --store")
        if args.save:
            raise ValueError("--save needs --store")
    table = profile_family(
        family, n_range, algos=algos,
        budget_ns=args.budget_ms * 1_000_000, store=store,
    )
    if args.action == "growth":
        if args.save:
            path = save_baseline(table, store, family, n_range, algos)
            print(f"baseline written: {path}", file=sys.stderr)
        if args.json:
            print(to_json(table))
        else:
            sys.stdout.write(table.to_csv())
        return 0
    baseline = load_baseline(store, family, n_range, algos)
    diff = snapshot_compare(table, baseline)
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
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (MatrixError, UniverseTooLarge, MissingBaseline, ValueError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
