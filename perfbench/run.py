"""heavycol benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload u4-scans --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the program is `src/heavycol`, run
as fresh `python -m heavycol.cli` processes.  With `--trace 0` the run
measures end-to-end metrics with tracing off: it times passes over the
workload's commands, at least one and as many as end within `--seconds`, and
reports medians over the passes.  With `--trace 1` it makes one untraced CLI pass, one untraced
and one traced in-process pass, reports the per-layer metrics, and writes
the span tree to `perfbench/out/`.  Every output of every pass is checked,
and a heavycol name the traced pass cannot find to wrap is a failed
operation.  The last line of standard output is the result; the line before
it is the run context.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    HERE,
    POOL_WORKERS,
    WORKLOADS,
    check_output,
    cli_env,
    load_expected,
    mode_seed,
    run_command,
)
from layers import PER_LAYER, Observed, growth_metrics, install_layers, install_scans, layer_metrics
from tracer import Tracer

ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 16

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "matrices_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class Ops:
    """Operations attempted and failed over a run, with the first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += outcome.problems

    def expect_same(self, outcome, reference) -> None:
        """Criterion 10: a pooled report must match the 1-worker report byte for byte."""
        if outcome.stdout != reference.stdout and not outcome.failed:
            outcome.failed = 1
            self.failed += 1
            self.problems.append(f"{outcome.key}: report differs from --workers 1")

    def add_missing(self, names: list[str]) -> None:
        """A name the tracer could not wrap fails: its layer would read 0."""
        self.attempted += len(names)
        self.failed += len(names)
        self.problems += [f"{name}: not found, so its layer is not traced" for name in names]


def run_context(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or "unknown"
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))),
    }


def time_setup(samples: int) -> list[float]:
    """Times for `samples` fresh processes to import heavycol.cli."""
    argv = [sys.executable, "-c", "import heavycol.cli"]
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=cli_env(ROOT), capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - started)
        if proc.returncode != 0:
            raise SystemExit(f"importing heavycol.cli failed: {proc.stderr.strip()}")
    return times


def timed_run(workload: str, seed: int, seconds: int, expected: dict, ops: Ops) -> dict:
    """Passes over the workload while the next one would end within `seconds`.

    This machine's speed drifts over tens of seconds, so the set-up samples
    are taken half before and half after the passes.  One untimed import
    first writes the bytecode cache, which every later process reuses.
    """
    commands = WORKLOADS[workload](seed)
    time_setup(1)
    setup = time_setup(SETUP_SAMPLES // 2)
    started = time.perf_counter()
    single = {}
    for cmd in commands:
        if cmd.workers == POOL_WORKERS:
            single[cmd.key] = run_command(ROOT, expected, cmd, workers=1)
            ops.add(single[cmd.key])
    passes = []
    while True:
        outcomes = [run_command(ROOT, expected, cmd) for cmd in commands]
        for outcome in outcomes:
            ops.add(outcome)
            if outcome.key in single:
                ops.expect_same(outcome, single[outcome.key])
        wall = sum(o.wall_s for o in outcomes)
        scan_wall = sum(o.wall_s for o, cmd in zip(outcomes, commands) if cmd.scan)
        passes.append((wall, scan_wall, sum(o.matrices for o in outcomes)))
        if time.perf_counter() - started + wall > seconds:
            break
    setup += time_setup(SETUP_SAMPLES - len(setup))
    setup_s = statistics.median(setup)
    scans = sum(cmd.scan for cmd in commands)
    return {
        "wall_s": statistics.median(wall for wall, _, _ in passes),
        "setup_s": setup_s,
        "matrices_per_s": statistics.median(m / (scan_wall - scans * setup_s) for _, scan_wall, m in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def import_heavycol() -> dict:
    """heavycol's modules, imported from this checkout's src/."""
    sys.path.insert(0, str(ROOT / "src"))
    import heavycol
    from heavycol import algorithms, cli, profiling, structure, verification

    origin = Path(heavycol.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"heavycol imported from {origin}, not from this checkout")
    return {
        "cli": cli, "structure": structure, "algorithms": algorithms,
        "verification": verification, "profiling": profiling,
    }


def in_process_pass(workload, commands, modules, expected, ops, full: bool):
    """Run the commands through cli.main in this process, 1 worker each.

    Only the public scan calls are wrapped unless `full`.  Command keys are
    unique within a workload, so each command's span node holds exactly its
    own call.  With `full`, each name the tracer cannot find to wrap is a
    failed operation.  Returns the tracer and what the wrapped calls returned.
    """
    tracer = Tracer()
    observed = Observed()
    try:
        install_scans(tracer, modules["cli"], observed)
        if full:
            install_layers(tracer, modules, observed)
            ops.add_missing(tracer.missing)
        with tracer.span(workload):
            for cmd in commands:
                out, err = io.StringIO(), io.StringIO()
                with tracer.span(cmd.key) as node, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = modules["cli"].main(cmd.argv(workers=1 if cmd.workers else None))
                ops.add(check_output(expected.get(cmd.key), cmd.key, code, out.getvalue(), node.total_s))
    finally:
        tracer.restore()
    return tracer, observed


def traced_run(workload: str, seed: int, expected: dict, ops: Ops) -> tuple[dict, dict, list[str]]:
    commands = WORKLOADS[workload](seed)
    frames = expected["frames"].get(workload)
    expected = expected["commands"]
    single = {}
    for cmd in commands:
        single[cmd.key] = run_command(ROOT, expected, cmd, workers=1 if cmd.workers else None, timed=True)
        ops.add(single[cmd.key])
    pooled = [run_command(ROOT, expected, cmd, timed=True) for cmd in commands if cmd.workers == POOL_WORKERS]
    for outcome in pooled:
        ops.add(outcome)
        ops.expect_same(outcome, single[outcome.key])
    pool_speedup = sum(single[o.key].wall_s for o in pooled) / sum(o.wall_s for o in pooled) if pooled else 0.0

    modules = import_heavycol()
    plain, _ = in_process_pass(workload, commands, modules, expected, ops, full=False)
    traced, observed = in_process_pass(workload, commands, modules, expected, ops, full=True)

    if frames is not None:
        ops.attempted += 1
        got = {algo: observed.frames[algo] for algo in frames}
        if got != frames:
            ops.failed += 1
            ops.problems.append(f"{workload}: traced frames {got}, expected {frames}")

    plain_wall = plain.root.children[workload].total_s
    metrics = layer_metrics(traced.root, observed)
    metrics.update(growth_metrics([r for o in single.values() for r in o.rows]))
    metrics["cli.overhead_s"] = sum(o.wall_s - o.library_s for o in single.values())
    metrics["verification.pool_speedup"] = pool_speedup
    metrics["verification.pool_efficiency"] = pool_speedup / POOL_WORKERS
    metrics["trace.overhead_s"] = traced.root.children[workload].total_s - plain_wall
    trace = {"tree": traced.root.to_dict(), "untraced_tree": plain.root.to_dict()}
    return metrics, trace, traced.missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "heavycol" / "cli.py").is_file():
        print(f"no heavycol sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = load_expected()
    context = run_context(args.seed)
    context["workload"] = args.workload
    context["mode_seed"] = mode_seed(args.seed)

    ops = Ops()
    if args.trace:
        values, trace, context["missing"] = traced_run(args.workload, args.seed, expected, ops)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        values = timed_run(args.workload, args.seed, args.seconds, expected["commands"], ops)
        units = END_TO_END
    for problem in ops.problems[:20]:
        print(problem, file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps({"context": context, "metrics": metrics, **trace}, indent=1) + "\n")
    result = {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
