"""In-memory span tracer and the wrappers that attach it to p2pcast.

Spans are recorded from outside the program: the public entry points of
``delay_space``, ``topology``, ``metrics`` and ``harness`` are replaced for
the duration of a traced pass by wrappers that open a span, call the
original and close the span. Class methods are patched on the class, module
functions in every p2pcast module global that refers to them, so callers
reach the wrapper whichever module they import it from. Nothing under
``src/`` changes, and an entry point a later version no longer has (or no
longer calls) is skipped or simply reports zero.

A span's self time is its duration minus the time its child spans cover.
Self time and calls are folded into per-name totals as spans close; the
spans themselves are kept in flat arrays and written out once the run ends.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Spans of one traced pass, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per span, in opening order.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # Open spans: (index, name, child time accumulated so far).
        self._stack: list[list] = []
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        # Keyed by (name, parent name): calls and total time of that pairing.
        self.calls_under: Counter[tuple[str, str]] = Counter()
        self.total_under: defaultdict[tuple[str, str], float] = defaultdict(float)
        self.counters: Counter[str] = Counter()
        #: (n, admissions, built) for every topology build.
        self.builds: list[tuple[int, int, bool]] = []
        #: (n, maximum_flow calls, feasible) for every feasibility check.
        self.verifies: list[tuple[int, int, bool]] = []

    def open(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        stack = self._stack
        parent = stack[-1] if stack else None
        self.span_name.append(nid)
        self.span_parent.append(parent[0] if parent else -1)
        self.span_end.append(0.0)
        stack.append([len(self.span_start), name, 0.0])
        self.calls[name] += 1
        self.calls_under[(name, parent[1] if parent else "")] += 1
        self.span_start.append(perf_counter())

    def close(self) -> None:
        end = perf_counter()
        idx, name, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            self.total_under[(name, parent[1])] += dur
        else:
            self.total_under[(name, "")] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def write(self, path) -> None:
        """Write every span as flat arrays (names index ``names``)."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def _traced(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close()

    return wrapper


def _traced_delays_from(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close()
        tracer.counters["delays_from.elems"] += len(out)
        return out

    return wrapper


def _traced_build(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(space, *args, **kwargs):
        before = tracer.calls["topology.update_after_admission"]
        built = False
        tracer.open(name)
        try:
            out = fn(space, *args, **kwargs)
            built = True
            return out
        finally:
            tracer.close()
            admissions = tracer.calls["topology.update_after_admission"] - before
            tracer.builds.append((space.n_nodes, admissions, built))

    return wrapper


def _traced_verify(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(topology, *args, **kwargs):
        before = tracer.calls["metrics.maximum_flow"]
        feasible = False
        tracer.open(name)
        try:
            report = fn(topology, *args, **kwargs)
            feasible = bool(report.ok)
            return report
        finally:
            tracer.close()
            flows = tracer.calls["metrics.maximum_flow"] - before
            tracer.verifies.append((topology.n_nodes, flows, feasible))

    return wrapper


def _package_modules():
    import p2pcast
    from p2pcast import cli, delay_space, harness, metrics, topology

    return (p2pcast, delay_space, topology, metrics, harness, cli)


def _targets():
    """(owner, attribute, span name, wrapper factory) for every entry point.

    ``owner`` is a class for methods; for module functions it is the module
    that defines (or, for ``maximum_flow``, imports) the function, and every
    package global bound to the same object is patched with it.
    """
    from p2pcast import delay_space, harness, metrics, topology

    ds, tp = delay_space.DelaySpace, topology.BuildState
    return (
        (ds, "delays_from", "delay_space.delays_from", _traced_delays_from),
        (ds, "delay", "delay_space.delay", _traced),
        (ds, "edge_delays", "delay_space.edge_delays", _traced),
        (ds, "max_pairwise_delay", "delay_space.max_pairwise_delay", _traced),
        (delay_space, "generate", "delay_space.generate", _traced),
        (topology, "build", "topology.build", _traced_build),
        (tp, "select_next_peer", "topology.select_next_peer", _traced),
        (tp, "select_uploaders", "topology.select_uploaders", _traced),
        (tp, "update_after_admission", "topology.update_after_admission", _traced),
        (topology, "read_topology_csv", "topology.read_topology_csv", _traced),
        (metrics, "compute_metrics", "metrics.compute_metrics", _traced),
        (metrics, "shortest_paths", "metrics.shortest_paths", _traced),
        (metrics, "tree_delay", "metrics.tree_delay", _traced),
        (metrics.PathTable, "__init__", "metrics.path_table", _traced),
        (metrics, "node_vulnerability", "metrics.node_vulnerability", _traced),
        (metrics, "system_vulnerability", "metrics.system_vulnerability", _traced),
        (metrics, "verify_feasible", "metrics.verify_feasible", _traced_verify),
        (metrics, "maximum_flow", "metrics.maximum_flow", _traced),
        (harness, "run_cell", "harness.run_cell", _traced),
        (harness, "run_experiment", "harness.run_experiment", _traced),
        (harness, "aggregate", "harness.aggregate", _traced),
    )


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the package's entry points through ``tracer`` until exit."""
    modules = _package_modules()
    undo: list[tuple[object, str, object]] = []
    for owner, attr, name, factory in _targets():
        original = owner.__dict__.get(attr)
        if original is None:
            continue  # entry point no longer exists: its metrics read 0
        wrapper = factory(tracer, name, original)
        holders = [owner] if isinstance(owner, type) else [
            m for m in modules if m.__dict__.get(attr) is original
        ]
        for holder in holders:
            undo.append((holder, attr, original))
            setattr(holder, attr, wrapper)
    try:
        yield tracer
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)


#: Spans the benchmark opens itself around a verify-import operation, by
#: whether the imported topology is acyclic (as built) or rewired into a cycle.
ACYCLIC_OP = "bench.verify_acyclic"
CYCLIC_OP = "bench.verify_cyclic"
#: Span the benchmark opens around the no-op resume of a finished sweep.
RESUME = "harness.resume"

#: Per-layer metrics reported by a traced run, with their units. Names
#: ending in ``.s`` are self time except ``topology.build.s`` and
#: ``metrics.compute_metrics.s``, which are whole spans.
LAYER_UNITS = {
    "delay_space.delays_from.s": "s",
    "delay_space.delays_from.calls": "count",
    "delay_space.delays_from.elems": "count",
    "delay_space.delay.s": "s",
    "delay_space.delay.calls": "count",
    "delay_space.generate.s": "s",
    "delay_space.generate.calls": "count",
    "delay_space.max_pairwise_delay.s": "s",
    "delay_space.edge_delays.calls": "count",
    "topology.build.s": "s",
    "topology.select_next_peer.s": "s",
    "topology.select_uploaders.s": "s",
    "topology.update_after_admission.s": "s",
    "topology.admissions": "count",
    "topology.rescores": "count",
    "topology.rescores_per_admission": "ratio",
    "topology.builds": "count",
    "topology.stuck_builds": "count",
    "topology.read_topology_csv.s": "s",
    "metrics.compute_metrics.s": "s",
    "metrics.shortest_paths.s": "s",
    "metrics.tree_delay.s": "s",
    "metrics.path_table.s": "s",
    "metrics.node_vulnerability.s": "s",
    "metrics.system_vulnerability.s": "s",
    "metrics.verify_feasible.s": "s",
    "metrics.verify_feasible.calls": "count",
    "metrics.verify_feasible.acyclic_s": "s",
    "metrics.verify_feasible.cyclic_s": "s",
    "metrics.maximum_flow.calls": "count",
    "metrics.maximum_flow.s": "s",
    "harness.cells": "count",
    "harness.run_cell.s": "s",
    "harness.run_experiment.self_s": "s",
    "harness.resume.s": "s",
    "harness.aggregate.s": "s",
    "harness.bytes_written": "bytes",
    "trace.overhead_frac": "ratio",
}


def layer_values(tracer: Tracer, overhead_frac: float) -> dict[str, float]:
    """Every metric of :data:`LAYER_UNITS` from one traced pass."""
    own, calls = tracer.self_s, tracer.calls
    admissions = calls["topology.update_after_admission"]
    rescores = tracer.calls_under[("delay_space.delays_from", "topology.select_next_peer")]
    verify = "metrics.verify_feasible"
    values = {
        "delay_space.delays_from.s": own["delay_space.delays_from"],
        "delay_space.delays_from.calls": calls["delay_space.delays_from"],
        "delay_space.delays_from.elems": tracer.counters["delays_from.elems"],
        "delay_space.delay.s": own["delay_space.delay"],
        "delay_space.delay.calls": calls["delay_space.delay"],
        "delay_space.generate.s": own["delay_space.generate"],
        "delay_space.generate.calls": calls["delay_space.generate"],
        "delay_space.max_pairwise_delay.s": own["delay_space.max_pairwise_delay"],
        "delay_space.edge_delays.calls": calls["delay_space.edge_delays"],
        "topology.build.s": tracer.total_s["topology.build"],
        "topology.select_next_peer.s": own["topology.select_next_peer"],
        "topology.select_uploaders.s": own["topology.select_uploaders"],
        "topology.update_after_admission.s": own["topology.update_after_admission"],
        "topology.admissions": admissions,
        "topology.rescores": rescores,
        "topology.rescores_per_admission": rescores / admissions if admissions else 0.0,
        "topology.builds": len(tracer.builds),
        "topology.stuck_builds": sum(not built for _, _, built in tracer.builds),
        "topology.read_topology_csv.s": own["topology.read_topology_csv"],
        "metrics.compute_metrics.s": tracer.total_s["metrics.compute_metrics"],
        "metrics.shortest_paths.s": own["metrics.shortest_paths"],
        "metrics.tree_delay.s": own["metrics.tree_delay"],
        "metrics.path_table.s": own["metrics.path_table"],
        "metrics.node_vulnerability.s": own["metrics.node_vulnerability"],
        "metrics.system_vulnerability.s": own["metrics.system_vulnerability"],
        "metrics.verify_feasible.s": own[verify],
        "metrics.verify_feasible.calls": calls[verify],
        "metrics.verify_feasible.acyclic_s": tracer.total_under[(verify, ACYCLIC_OP)],
        "metrics.verify_feasible.cyclic_s": tracer.total_under[(verify, CYCLIC_OP)],
        "metrics.maximum_flow.calls": calls["metrics.maximum_flow"],
        "metrics.maximum_flow.s": own["metrics.maximum_flow"],
        "harness.cells": calls["harness.run_cell"],
        "harness.run_cell.s": own["harness.run_cell"],
        "harness.run_experiment.self_s": own["harness.run_experiment"],
        "harness.resume.s": tracer.total_s[RESUME],
        "harness.aggregate.s": own["harness.aggregate"],
        "harness.bytes_written": tracer.counters["harness.bytes_written"],
        "trace.overhead_frac": overhead_frac,
    }
    assert values.keys() == LAYER_UNITS.keys()
    return values
