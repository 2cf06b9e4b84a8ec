"""Which heavycol names the traced run wraps, and the per-layer metrics.

The layers are heavycol's modules: `cli`, `matrix`, `structure`,
`algorithms`, `verification` and `profiling`.  Names are wrapped where their
callers look them up (for example `reduce` both in `structure`, where
`branch_set` and `sequential_reduction` call it, and in `algorithms`, which
imported it), so a call is counted once and attributed to its caller.

Each metric below says which end-to-end metric it should move, and on which
workload; where a layer is not on a workload's path its metrics read 0 there,
which is the prediction for a change to that layer on that workload.
"""

from __future__ import annotations

from collections import Counter

TAGS = ("N1_BASE", "M1_BASE", "KEY_CONDITION", "NOHEAVY_CHILD", "CHILD_FALSE", "EXHAUSTED_TRUE")

# Public scan calls the CLI makes, by whether they filter their candidates.
SCANS = {
    "check_theorem1": "bare",
    "check_lemma1": "bare",
    "check_reduction_claim": "bare",
    "check_theorem2": "constrained",
    "remark_counterexamples": "fixed",
    "profile_family": "growth",
}
ALGO_SPANS = ("run_a1", "run_a2")
HEAVY_TESTS = ("has_heavy_column", "is_heavy", "column_weight")

# name -> (unit, what it should move).  Ratios with an empty base read 0.
PER_LAYER = {
    "cli.overhead_s": ("s", "wall_s on both: CLI wall time minus in-process library time"),
    "matrix.construct.calls": ("count", "BinaryMatrix built by structure and verification"),
    "matrix.construct.s": ("s", "wall_s on both"),
    "matrix.heavy_test.calls": ("count", "has_heavy_column/is_heavy/column_weight called by algorithms"),
    "matrix.heavy_test.s": ("s", "wall_s on u4-scans (theorem1/theorem2)"),
    "matrix.oracle.calls": ("count", "heavy_columns called by the inspectors"),
    "matrix.oracle.s": ("s", "wall_s on u4-scans (every inspector)"),
    "matrix.properties.calls": ("count", "matrix_properties called by verification (the constraint filter)"),
    "matrix.properties.s": ("s", "wall_s on u4-scans (theorem2), pool-growth (random theorem2)"),
    "structure.reduce.calls.algorithms": ("count", "reduce called under run_a1/run_a2"),
    "structure.reduce.self_s.algorithms": ("s", "wall_s on both, through the recursion"),
    "structure.reduce.calls.sequential": ("count", "reduce called under sequential_reduction"),
    "structure.reduce.self_s.sequential": ("s", "wall_s on u4-scans, through the claim path"),
    "structure.branch_set.calls": ("count", "branch_set called by a1"),
    "structure.unpaired.s": ("s", "wall_s on u4-scans (lemma1, claim)"),
    "structure.sequential.calls": ("count", "sequential_reduction called by the claim inspector"),
    "structure.sequential.s": ("s", "wall_s on u4-scans (claim)"),
    "algorithms.a1.frames": ("count", "exact a1 recursion frames"),
    "algorithms.a2.frames": ("count", "exact a2 recursion frames"),
    "algorithms.a1.self_s": ("s", "wall_s on both"),
    "algorithms.a2.self_s": ("s", "wall_s on both"),
    "algorithms.frame_us": ("us", "self time per frame; wall_s on both"),
    "algorithms.cache_hits": ("count", "memoized cache hits, pool-growth"),
    **{f"algorithms.tag.{tag}": ("count", "top-level verdicts decided at this return site") for tag in TAGS},
    "verification.enumerate_bare.s": ("s", "wall_s on both: scans without the constraint filter"),
    "verification.enumerate_constrained.s": ("s", "wall_s on both: scans with the constraint filter"),
    "verification.inspect.s": ("s", "wall_s on both"),
    "verification.constraint_yield": ("ratio", "matrices kept / candidates offered by the constraint filter"),
    "verification.pool_speedup": ("ratio", "wall_s on pool-growth: 1-worker over pooled CLI wall time"),
    "verification.pool_efficiency": ("ratio", "pool_speedup per worker"),
    "profiling.rows": ("count", "growth rows completed"),
    "profiling.rows_timed_out": ("count", "growth rows that ran out of budget"),
    "profiling.memo_hit_ratio": ("ratio", "cache hits / calls over memoized rows"),
    "profiling.frames_per_s": ("1/s", "frames per second of recursion time in completed rows"),
    **{
        f"profiling.row_s.{algo}.{variant}.n7": ("s", "wall_s on pool-growth")
        for algo in ("a1", "a2") for variant in ("plain", "memoized")
    },
    "trace.overhead_s": ("s", "traced in-process wall time minus untraced in-process wall time"),
}


class Observed:
    """What the wrapped calls returned: verdict statistics and scan sizes."""

    def __init__(self):
        self.frames = Counter()
        self.cache_hits = 0
        self.tags = Counter()
        self.tested = Counter()

    def verdict(self, algo: str):
        def observe(args, verdict):
            self.frames[algo] += verdict.stats.calls
            self.cache_hits += verdict.stats.cache_hits
            self.tags[verdict.witness.tag] += 1
        return observe

    def scan(self, name: str):
        def observe(args, report):
            self.tested[name] += getattr(report, "tested", 0)
        return observe


def _named(name):
    return lambda args: name


def install_scans(tracer, cli, observed: Observed) -> None:
    """Spans around the public scan calls the CLI makes (cheap enough to
    leave the pass untraced in effect)."""
    for name in SCANS:
        tracer.patch(cli, name, lambda fn, n=name: tracer.wrap_span(fn, _named(n), observed.scan(n)))


def install_layers(tracer, modules: dict, observed: Observed) -> None:
    """Per-matrix spans and inner boundaries, on top of `install_scans`."""
    verification, profiling = modules["verification"], modules["profiling"]
    algorithms, structure = modules["algorithms"], modules["structure"]

    for module in (verification, profiling):
        for algo in ("a1", "a2"):
            name = f"run_{algo}"
            tracer.patch(module, name, lambda fn, n=name, a=algo: tracer.wrap_span(fn, _named(n), observed.verdict(a)))
    memo_observers = {a: observed.verdict(a) for a in ("a1", "a2")}
    tracer.patch(profiling, "run_memoized", lambda fn: tracer.wrap_span(
        fn, lambda args: f"run_{args[0]}", lambda args, v: memo_observers[args[0]](args, v)))
    for name in ("heavy_columns", "find_unpaired", "sequential_reduction"):
        tracer.patch(verification, name, lambda fn, n=name: tracer.wrap_span(fn, _named(n)))

    def boundary(module, name):
        tracer.patch(module, name, lambda fn: tracer.wrap_boundary(fn, name))

    boundary(structure, "BinaryMatrix")
    boundary(verification, "BinaryMatrix")
    boundary(verification, "matrix_properties")
    boundary(structure, "reduce")
    boundary(algorithms, "reduce")
    boundary(algorithms, "branch_set")
    for name in HEAVY_TESTS:
        boundary(algorithms, name)


def layer_metrics(root, observed: Observed) -> dict[str, float]:
    """The span-tree part of PER_LAYER, from one traced pass."""
    spans = Counter()
    bounds = Counter()
    for node in root.walk():
        spans[node.name, "calls"] += node.calls
        spans[node.name, "total"] += node.total_s
        spans[node.name, "self"] += node.self_s
        kind = SCANS.get(node.name)
        if kind in ("bare", "constrained"):
            inspect = sum(c.total_s for c in node.children.values())
            spans["inspect"] += inspect
            spans[f"enumerate_{kind}"] += node.total_s - inspect
            if kind == "constrained":
                spans["offered"] += node.boundaries.get("matrix_properties", (0,))[0]
        caller = "algorithms" if node.name in ALGO_SPANS else "sequential" if node.name == "sequential_reduction" else ""
        for name, (calls, total, self_s) in node.boundaries.items():
            bounds[name, "calls"] += calls
            bounds[name, "total"] += total
            if name == "reduce" and caller:
                bounds[f"reduce.{caller}", "calls"] += calls
                bounds[f"reduce.{caller}", "self"] += self_s

    frames = observed.frames["a1"] + observed.frames["a2"]
    algo_self = spans["run_a1", "self"] + spans["run_a2", "self"]
    offered = spans["offered"]
    metrics = {
        "matrix.construct.calls": bounds["BinaryMatrix", "calls"],
        "matrix.construct.s": bounds["BinaryMatrix", "total"],
        "matrix.heavy_test.calls": sum(bounds[n, "calls"] for n in HEAVY_TESTS),
        "matrix.heavy_test.s": sum(bounds[n, "total"] for n in HEAVY_TESTS),
        "matrix.oracle.calls": spans["heavy_columns", "calls"],
        "matrix.oracle.s": spans["heavy_columns", "total"],
        "matrix.properties.calls": bounds["matrix_properties", "calls"],
        "matrix.properties.s": bounds["matrix_properties", "total"],
        "structure.branch_set.calls": bounds["branch_set", "calls"],
        "structure.unpaired.s": spans["find_unpaired", "total"],
        "structure.sequential.calls": spans["sequential_reduction", "calls"],
        "structure.sequential.s": spans["sequential_reduction", "total"],
        "algorithms.a1.frames": observed.frames["a1"],
        "algorithms.a2.frames": observed.frames["a2"],
        "algorithms.a1.self_s": spans["run_a1", "self"],
        "algorithms.a2.self_s": spans["run_a2", "self"],
        "algorithms.frame_us": algo_self / frames * 1e6 if frames else 0.0,
        "algorithms.cache_hits": observed.cache_hits,
        "verification.enumerate_bare.s": spans["enumerate_bare"],
        "verification.enumerate_constrained.s": spans["enumerate_constrained"],
        "verification.inspect.s": spans["inspect"],
        "verification.constraint_yield": observed.tested["check_theorem2"] / offered if offered else 0.0,
    }
    for caller in ("algorithms", "sequential"):
        metrics[f"structure.reduce.calls.{caller}"] = bounds[f"reduce.{caller}", "calls"]
        metrics[f"structure.reduce.self_s.{caller}"] = bounds[f"reduce.{caller}", "self"]
    for tag in TAGS:
        metrics[f"algorithms.tag.{tag}"] = observed.tags[tag]
    return metrics


def growth_metrics(rows: list[dict]) -> dict[str, float]:
    """The profiling part of PER_LAYER, from an untraced growth table."""
    done = [r for r in rows if r.get("calls") is not None]
    memo = [r for r in done if r["variant"] == "memoized"]
    memo_calls = sum(r["calls"] for r in memo)
    elapsed_s = sum(r["elapsed_ns"] for r in done) / 1e9
    metrics = {
        "profiling.rows": len(done),
        "profiling.rows_timed_out": len(rows) - len(done),
        "profiling.memo_hit_ratio": sum(r["cache_hits"] for r in memo) / memo_calls if memo_calls else 0.0,
        "profiling.frames_per_s": sum(r["calls"] for r in done) / elapsed_s if elapsed_s else 0.0,
    }
    for algo in ("a1", "a2"):
        for variant in ("plain", "memoized"):
            metrics[f"profiling.row_s.{algo}.{variant}.n7"] = sum(
                r["elapsed_ns"] / 1e9 for r in done
                if r["n"] == 7 and r["algo"] == algo and r["variant"] == variant
            )
    return metrics
