"""Self-time arithmetic of the tracer and the layer metrics built on it."""

import types

import pytest

from layers import HEAVY_TESTS, SCANS, Observed, growth_metrics, install_layers, install_scans, layer_metrics
from run import Ops
from tracer import Tracer


class FakeClock:
    """Advances only when told to, so every duration is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def test_self_time_subtracts_child_spans_and_boundaries():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner_boundary():
        clock.spend(1.0)

    def outer_boundary():
        clock.spend(2.0)
        counted_inner()

    counted_inner = tracer.wrap_boundary(inner_boundary, "inner")
    counted_outer = tracer.wrap_boundary(outer_boundary, "outer")

    def leaf():
        clock.spend(4.0)
        counted_outer()

    leaf_span = tracer.wrap_span(leaf, lambda args: "leaf")

    with tracer.span("command") as command:
        clock.spend(0.5)
        leaf_span()
        leaf_span()
        counted_outer()

    leaf_node = command.children["leaf"]
    assert command.calls == 1
    assert command.total_s == pytest.approx(0.5 + 2 * 7.0 + 3.0)
    # 0.5 of its own; both leaf spans and the direct outer boundary are covered.
    assert command.self_s == pytest.approx(0.5)
    assert leaf_node.calls == 2
    assert leaf_node.total_s == pytest.approx(14.0)
    assert leaf_node.self_s == pytest.approx(8.0)
    assert leaf_node.boundaries["outer"] == pytest.approx([2, 6.0, 4.0])
    # inner is attributed to the span enclosing it, not to the outer boundary.
    assert leaf_node.boundaries["inner"] == pytest.approx([2, 2.0, 2.0])
    assert command.boundaries["outer"] == pytest.approx([1, 3.0, 2.0])
    # The self times of a subtree add up to its duration.
    parts = sum(n.self_s for n in tracer.root.walk()) + sum(
        s for n in tracer.root.walk() for _, _, s in n.boundaries.values()
    )
    assert parts == pytest.approx(tracer.root.children["command"].total_s)


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.spend(1.0)
        raise RuntimeError("budget")

    wrapped = tracer.wrap_span(boom, lambda args: "boom")
    with tracer.span("outer") as outer:
        with pytest.raises(RuntimeError):
            wrapped()
        clock.spend(0.25)
    assert outer.children["boom"].total_s == pytest.approx(1.0)
    assert outer.self_s == pytest.approx(0.25)
    assert tracer._nodes == [tracer.root]


def test_patch_restores_originals_and_lists_missing_names():
    module = types.SimpleNamespace(__name__="fake", present=lambda: 1)
    original = module.present
    tracer = Tracer()
    tracer.patch(module, "present", lambda fn: tracer.wrap_boundary(fn, "present"))
    tracer.patch(module, "absent", lambda fn: fn)
    assert module.present is not original and module.present() == 1
    tracer.restore()
    assert module.present is original
    assert tracer.missing == ["fake.absent"]


def _fake_modules(without):
    """Stand-ins for heavycol's modules holding every name the tracer wraps,
    except `without` ("module.name")."""
    names = {
        "cli": SCANS,
        "verification": ("run_a1", "run_a2", "heavy_columns", "find_unpaired", "sequential_reduction",
                         "BinaryMatrix", "matrix_properties"),
        "profiling": ("run_a1", "run_a2", "run_memoized"),
        "structure": ("BinaryMatrix", "reduce"),
        "algorithms": ("reduce", "branch_set", *HEAVY_TESTS),
    }
    return {
        module: types.SimpleNamespace(__name__=module, **{
            name: (lambda *args: None) for name in attrs if f"{module}.{name}" != without
        })
        for module, attrs in names.items()
    }


@pytest.mark.parametrize("without", [None, "algorithms.branch_set"])
def test_a_name_the_tracer_cannot_wrap_fails_the_run(without):
    # If a refactor stops looking branch_set up in algorithms, its layer would
    # read 0, which is not a gain: the run must not count as correct.
    modules, tracer, ops = _fake_modules(without), Tracer(), Ops()
    install_scans(tracer, modules["cli"], Observed())
    install_layers(tracer, modules, Observed())
    ops.add_missing(tracer.missing)
    tracer.restore()
    missing = [without] if without else []
    assert tracer.missing == missing
    assert (ops.attempted, ops.failed) == (len(missing), len(missing))
    assert all(name in problem for name, problem in zip(missing, ops.problems))


def _verdict(calls, tag, hits=0):
    stats = types.SimpleNamespace(calls=calls, cache_hits=hits)
    return types.SimpleNamespace(stats=stats, witness=types.SimpleNamespace(tag=tag))


def test_layer_metrics_split_enumeration_inspection_and_callers():
    clock = FakeClock()
    tracer = Tracer(clock)
    observed = Observed()

    def reduce():
        clock.spend(0.5)

    def properties():
        clock.spend(0.125)

    counted_reduce = tracer.wrap_boundary(reduce, "reduce")
    counted_props = tracer.wrap_boundary(properties, "matrix_properties")

    def run_a2():
        clock.spend(1.0)
        counted_reduce()
        return _verdict(3, "KEY_CONDITION")

    def sequential():
        counted_reduce()

    def check_theorem2():
        for _ in range(2):
            counted_props()
            traced_a2()
        return types.SimpleNamespace(tested=1)

    traced_a2 = tracer.wrap_span(run_a2, lambda a: "run_a2", observed.verdict("a2"))
    traced_seq = tracer.wrap_span(sequential, lambda a: "sequential_reduction")
    scan = tracer.wrap_span(check_theorem2, lambda a: "check_theorem2", observed.scan("check_theorem2"))
    with tracer.span("verify theorem2"):
        scan()
        traced_seq()

    m = layer_metrics(tracer.root, observed)
    assert m["algorithms.a2.frames"] == 6
    assert m["algorithms.a2.self_s"] == pytest.approx(2.0)
    assert m["algorithms.frame_us"] == pytest.approx(2.0 / 6 * 1e6)
    assert m["algorithms.tag.KEY_CONDITION"] == 2
    assert m["structure.reduce.calls.algorithms"] == 2
    assert m["structure.reduce.self_s.algorithms"] == pytest.approx(1.0)
    assert m["structure.reduce.calls.sequential"] == 1
    assert m["structure.sequential.s"] == pytest.approx(0.5)
    assert m["verification.inspect.s"] == pytest.approx(3.0)
    assert m["verification.enumerate_constrained.s"] == pytest.approx(0.25)
    assert m["verification.enumerate_bare.s"] == 0
    assert m["matrix.properties.calls"] == 2
    assert m["verification.constraint_yield"] == pytest.approx(0.5)
    assert m["algorithms.a1.frames"] == 0 and m["algorithms.a1.self_s"] == 0


def test_growth_metrics_count_timeouts_and_memo_hits():
    rows = [
        {"n": 7, "algo": "a1", "variant": "plain", "calls": 100, "cache_hits": 0, "elapsed_ns": 2_000_000_000},
        {"n": 7, "algo": "a1", "variant": "memoized", "calls": 10, "cache_hits": 8, "elapsed_ns": 500_000_000},
        {"n": 7, "algo": "a2", "variant": "plain", "calls": None, "cache_hits": None, "elapsed_ns": None},
    ]
    m = growth_metrics(rows)
    assert m["profiling.rows"] == 2
    assert m["profiling.rows_timed_out"] == 1
    assert m["profiling.memo_hit_ratio"] == pytest.approx(0.8)
    assert m["profiling.frames_per_s"] == pytest.approx(110 / 2.5)
    assert m["profiling.row_s.a1.plain.n7"] == pytest.approx(2.0)
    assert m["profiling.row_s.a2.plain.n7"] == 0
