"""In-process tracing of heavycol's module boundaries, installed from outside.

The tracer replaces names in heavycol's module namespaces with timing
wrappers for the length of one traced pass and puts the originals back
afterwards; nothing under `src/` changes.  Two kinds of wrapper exist:

* spans, around calls made a few hundred thousand times at most (a CLI
  command, a public scan, one per-matrix call).  Spans nest, and calls with
  the same path of names are aggregated into one node of a span tree, so the
  tree stays small however long the run;
* boundaries, around calls made millions of times (`reduce`, `branch_set`,
  `BinaryMatrix`, the heavy-column tests).  A boundary keeps a call count and
  total and self time under the span that encloses it, and makes no node.

Self time is a call's duration minus the time of the spans and boundaries
called directly inside it, so the self times of a subtree add up to its
duration.  The tree stays in memory and is written out when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Node:
    """Aggregate of every span with the same path of names."""

    __slots__ = ("name", "calls", "total_s", "self_s", "children", "boundaries")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.children: dict[str, Node] = {}
        # boundary name -> [calls, total_s, self_s]
        self.boundaries: dict[str, list] = {}

    def child(self, name: str) -> "Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name)
        return node

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "boundaries": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.boundaries.items())
            },
            "children": [c.to_dict() for c in self.children.values()],
        }


class Tracer:
    """Span tree plus boundary counters for one traced pass.

    `clock` returns seconds; tests pass a fake one.  Not thread-safe, and
    the traced code must run in this process.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.root = Node("run")
        self._nodes = [self.root]
        # One time accumulator per open call: the time covered by its children.
        self._covered = [[0.0]]
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    @contextmanager
    def span(self, name: str):
        """Open a span around a block of the benchmark's own code."""
        node = self._nodes[-1].child(name)
        self._nodes.append(node)
        covered = [0.0]
        self._covered.append(covered)
        started = self.clock()
        try:
            yield node
        finally:
            self._close(node, covered, started)

    def _close(self, node: Node, covered: list, started: float) -> None:
        elapsed = self.clock() - started
        self._covered.pop()
        self._nodes.pop()
        self._covered[-1][0] += elapsed
        node.calls += 1
        node.total_s += elapsed
        node.self_s += elapsed - covered[0]

    def wrap_span(self, fn, name_of, observe=None):
        """`fn` wrapped in a span named `name_of(args)`; `observe(args, result)`
        sees each result."""
        nodes, stacks, clock = self._nodes, self._covered, self.clock

        def traced(*args, **kwargs):
            node = nodes[-1].child(name_of(args))
            nodes.append(node)
            covered = [0.0]
            stacks.append(covered)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(node, covered, started)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def wrap_boundary(self, fn, name: str):
        """`fn` wrapped as a counted boundary called `name`."""
        nodes, stacks, clock = self._nodes, self._covered, self.clock

        def counted(*args, **kwargs):
            covered = [0.0]
            stacks.append(covered)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stacks.pop()
                stacks[-1][0] += elapsed
                stats = nodes[-1].boundaries.get(name)
                if stats is None:
                    stats = nodes[-1].boundaries[name] = [0, 0.0, 0.0]
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - covered[0]

        return counted

    def patch(self, module, attr: str, make) -> None:
        """Replace `module.attr` by `make(original)` until `restore()`.

        A name the module no longer has is skipped and listed in `missing`;
        its layer then reads zero calls.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._patches.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)
