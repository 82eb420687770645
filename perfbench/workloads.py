"""The benchmark's workloads: input generation, one timed pass, output checks.

Every workload is a closed loop: one process, one operation at a time, the
next starting when the previous one returns (``parallel=1``). A pass returns
its wall time, the time of each operation and a JSON-able record of every
output; :meth:`check` then compares those records against the invariants
that hold for any seed and, when given, against a committed reference.

The workload seed is the only input: it becomes the master seed of the
sweep or cells, and from it the verify-import set-up derives the topologies
it writes and the rewiring it applies.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import math
import os
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from p2pcast import cli, harness
from p2pcast.delay_space import KINDS, DistributionSpec, generate
from p2pcast.rng import make_rng
from p2pcast.topology import (
    ALL_POLICY_CODES,
    AdmissionStuck,
    CapacityProfile,
    PolicySpec,
    Topology,
    build,
)

import tracing

#: Policies of the large-cell and verify workloads: the fastest build policy (GR),
#: the slowest (FDN), one diverse (GDD) and one small-world (FCS) policy.
LARGE_POLICIES = ("GR", "FCS", "FDN", "GDD")
SIM = harness.SimParams()


@dataclass
class Pass:
    """Timings and outputs of one pass over a workload's operations."""

    wall_s: float
    op_s: list[float]
    outputs: dict
    attempted: int
    #: Operation key -> reason, for every operation that raised or is wrong.
    errors: dict[str, str] = field(default_factory=dict)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _cell_record(row) -> list:
    """The compared output of one cell: the four metric reprs and ``failed``.
    ``build_ms`` is left out because it is wall time."""
    return [row[c] for c in harness.METRIC_COLUMNS] + [row["failed"] == "1"]


def _check_cell(rec: list) -> str | None:
    """Invariants every cell must meet, whatever the seed."""
    *values, failed = rec
    if failed:
        return None if all(v == "" for v in values) else "failed cell carries metrics"
    try:
        mn, tree, node, system = (float(v) for v in values)
    except ValueError:
        return f"unparsable metrics {values}"
    if not all(math.isfinite(v) for v in (mn, tree, node, system)):
        return f"non-finite metrics {values}"
    if not (0.0 <= node <= 1.0 and 0.0 <= system <= 1.0):
        return f"vulnerability outside [0, 1]: {values}"
    if not mn <= tree:
        return f"min_delay_mean_s {mn!r} exceeds tree_delay_mean_s {tree!r}"
    return None


def _check_against(p: Pass, outputs: dict, reference: dict | None, keys) -> None:
    """Record, per operation key, a mismatch with the reference."""
    if reference is None:
        return
    for key in keys:
        if key in p.errors:
            continue
        want = reference.get(key)
        got = outputs.get(key)
        if want != got:
            p.errors[key] = f"output {got!r} differs from reference {want!r}"


def _files(directory: str) -> dict[str, tuple[int, int]]:
    out = {}
    for name in os.listdir(directory):
        st = os.stat(os.path.join(directory, name))
        out[name] = (st.st_size, st.st_mtime_ns)
    return out


#: Error key of the sweep as a whole (its files, its resume), counted as one
#: operation beside the cells.
SWEEP = "sweep"


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError:
        return None


class GridSmall:
    """``harness.run_experiment`` over the small end of the grid, then a
    no-op resume into the same directory."""

    name = "grid-small"

    def __init__(self, sizes=(10, 20, 50, 100, 200, 500), policies=ALL_POLICY_CODES, runs=3):
        self.sizes, self.policies, self.runs = tuple(sizes), tuple(policies), runs

    def setup(self, seed: int, work: str):
        return harness.ExperimentConfig(
            distributions=KINDS, policies=self.policies, sizes=self.sizes,
            runs=self.runs, master_seed=seed,
        )

    def run(self, config, work: str, tracer=None) -> Pass:
        out = tempfile.mkdtemp(prefix="grid-", dir=work)
        results = os.path.join(out, "results.csv")
        agg = os.path.join(out, "agg.csv")
        stamps: list[float] = []
        p = Pass(0.0, [], {}, 0)
        t0 = perf_counter()
        try:
            harness.run_experiment(config, out, parallel=1, progress=lambda r: stamps.append(perf_counter()))
        except Exception as exc:  # one sweep is many operations: keep their outcomes
            p.errors[SWEEP] = f"run_experiment raised {exc!r}"
        sweep_s = perf_counter() - t0
        written = _files(out)
        before = {path: _read(path) for path in (results, agg)}

        with _span(tracer, tracing.RESUME):
            t1 = perf_counter()
            try:
                harness.run_experiment(config, out, parallel=1)
            except Exception as exc:
                p.errors.setdefault(SWEEP, f"resume raised {exc!r}")
            resume_s = perf_counter() - t1
        if tracer is not None:
            rewritten = {k: v for k, v in _files(out).items() if written.get(k) != v}
            total = sum(size for size, _ in written.values())
            tracer.counters["harness.bytes_written"] += total + sum(s for s, _ in rewritten.values())

        p.wall_s = sweep_s + resume_s
        p.op_s = [float(s) for s in np.diff([t0] + stamps)]
        p.attempted = len(self.keys(config)) + 1
        for path, data in before.items():
            if _read(path) != data:
                p.errors.setdefault(SWEEP, f"resume changed {os.path.basename(path)}")
        cells: dict[str, list] = {}
        if before[results] is not None:
            with open(results, newline="") as f:
                for row in csv.DictReader(f):
                    key = f"{row['policy']}/{row['distribution']}/{row['n']}/{row['run']}"
                    if key in cells:
                        p.errors[key] = "cell written twice"
                    cells[key] = _cell_record(row)
        p.outputs = {
            "cells": cells,
            "agg_sha256": hashlib.sha256(before[agg] or b"").hexdigest(),
        }
        return p

    def keys(self, config):
        return [f"{pol}/{d}/{n}/{r}" for pol, d, n, r in harness.iter_cells(config)]

    def check(self, p: Pass, config, reference: dict | None) -> None:
        cells = p.outputs["cells"]
        for key in self.keys(config):
            if key not in cells:
                p.errors.setdefault(key, "cell missing from results.csv")
                continue
            problem = _check_cell(cells[key])
            if problem:
                p.errors.setdefault(key, problem)
        if reference is not None:
            _check_against(p, cells, reference["cells"], self.keys(config))
            if p.outputs["agg_sha256"] != reference["agg_sha256"]:
                p.errors.setdefault(SWEEP, "agg.csv differs from reference")


class CellLarge:
    """``harness.run_cell`` at the top of the grid for four policies."""

    name = "cell-large"

    def __init__(self, n: int = 5000, policies=LARGE_POLICIES):
        self.n, self.policies = n, tuple(policies)

    def setup(self, seed: int, work: str):
        return [(pol, dist, self.n, 0, seed) for pol in self.policies for dist in KINDS]

    def run(self, cells, work: str, tracer=None) -> Pass:
        p = Pass(0.0, [], {}, len(cells))
        t0 = perf_counter()
        for policy, dist, n, run, seed in cells:
            key = f"{policy}/{dist}/{n}/{run}"
            t = perf_counter()
            try:
                r = harness.run_cell(policy, dist, n, run, seed, SIM)
            except Exception as exc:
                p.op_s.append(perf_counter() - t)
                p.errors[key] = f"run_cell raised {exc!r}"
                continue
            p.op_s.append(perf_counter() - t)
            p.outputs[key] = _cell_record(dict(zip(harness.RESULTS_HEADER.split(","), r.csv_row().split(","))))
        p.wall_s = perf_counter() - t0
        return p

    def keys(self, cells):
        return [f"{pol}/{d}/{n}/{r}" for pol, d, n, r, _ in cells]

    def check(self, p: Pass, cells, reference: dict | None) -> None:
        for key in self.keys(cells):
            if key in p.outputs:
                problem = _check_cell(p.outputs[key])
                if problem:
                    p.errors.setdefault(key, problem)
        _check_against(p, p.outputs, reference, self.keys(cells))


@dataclass(frozen=True)
class ImportItem:
    """One topology written by the verify-import set-up."""

    key: str
    edges_path: str
    caps_path: str
    edges: dict
    u: np.ndarray
    rewired: bool


def _build_cell(policy: str, dist: str, n: int, seed: int):
    """Build a topology the way ``run_cell`` does; a run whose admission gets
    stuck is skipped for the next run index, so the set-up always succeeds."""
    for run in range(16):
        s = harness.cell_seed(seed, policy, dist, n, run)
        space = generate(DistributionSpec.preset(dist, n, s))
        caps = CapacityProfile.sample(n, make_rng(s, "capacities"), SIM.capacity_choices, SIM.u0)
        try:
            return build(space, caps, PolicySpec.from_code(policy), SIM.m, s), caps
        except AdmissionStuck:
            continue
    raise RuntimeError(f"{policy}/{dist}/n={n}: every run index got stuck")


def rewire(topo: Topology, rng: np.random.Generator) -> Topology:
    """Move one connection unit of a peer x onto a descendant y of x with
    spare capacity. In-multiplicities and capacities stay valid, but y -> x
    closes a directed cycle, so only max-flow can decide requirement 3."""
    n = topo.n_nodes
    children: list[list[int]] = [[] for _ in range(n)]
    uploaders: list[list[int]] = [[] for _ in range(n)]
    for j, i in sorted(topo.edges):
        children[j].append(i)
        uploaders[i].append(j)
    for x in rng.permutation(np.arange(1, n)):
        x = int(x)
        seen, stack, spare = {x}, [x], []
        while stack:
            for c in children[stack.pop()]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
                    if topo.residual_u[c] > 0:
                        spare.append(c)
        if not spare:
            continue
        y = sorted(spare)[int(rng.integers(len(spare)))]
        j = uploaders[x][int(rng.integers(len(uploaders[x])))]
        edges = dict(topo.edges)
        edges[(j, x)] -= 1
        if not edges[(j, x)]:
            del edges[(j, x)]
        edges[(y, x)] = edges.get((y, x), 0) + 1
        residual = topo.residual_u.copy()
        residual[j] += 1
        residual[y] -= 1
        return Topology(n, edges, residual)
    raise RuntimeError("no peer has a descendant with spare capacity")


class VerifyImport:
    """``p2pcast verify`` without the printing: read a topology CSV pair and
    check feasibility, over built (acyclic) and rewired (cyclic) inputs."""

    name = "verify-import"

    def __init__(self, n: int = 1000, policies=LARGE_POLICIES):
        self.n, self.policies = n, tuple(policies)

    def setup(self, seed: int, work: str) -> list[ImportItem]:
        out = tempfile.mkdtemp(prefix="verify-", dir=work)
        items = []
        for index, (policy, dist) in enumerate((p, d) for p in self.policies for d in KINDS):
            topo, caps = _build_cell(policy, dist, self.n, seed)
            rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
            for label, t in (("plain", topo), ("rewired", rewire(topo, rng))):
                stem = os.path.join(out, f"{policy}-{dist}-{label}")
                t.to_csv(stem + ".edges.csv", stem + ".caps.csv")
                items.append(ImportItem(
                    f"{policy}/{dist}/{self.n}/{label}", stem + ".edges.csv", stem + ".caps.csv",
                    t.edges, caps.u, label == "rewired",
                ))
        return items

    def run(self, items: list[ImportItem], work: str, tracer=None) -> Pass:
        p = Pass(0.0, [], {}, len(items))
        t0 = perf_counter()
        for item in items:
            with _span(tracer, tracing.CYCLIC_OP if item.rewired else tracing.ACYCLIC_OP):
                t = perf_counter()
                try:
                    topo, caps = cli.read_topology_csv(item.edges_path, item.caps_path)
                    report = cli.verify_feasible(topo, caps, SIM.m)
                except Exception as exc:
                    p.op_s.append(perf_counter() - t)
                    p.errors[item.key] = f"verify raised {exc!r}"
                    continue
                p.op_s.append(perf_counter() - t)
            p.outputs[item.key] = [bool(report.ok), report.requirement]
            if topo.edges != item.edges or not np.array_equal(caps.u, item.u):
                p.errors[item.key] = "topology read back differs from the one written"
        p.wall_s = perf_counter() - t0
        return p

    def keys(self, items):
        return [item.key for item in items]

    def check(self, p: Pass, items: list[ImportItem], reference: dict | None) -> None:
        for item in items:
            got = p.outputs.get(item.key)
            if got is None:
                continue
            if not item.rewired and got != [True, None]:
                p.errors.setdefault(item.key, f"built topology reported infeasible: {got}")
            if item.rewired and not (got == [True, None] or got == [False, 3]):
                # Rewiring keeps requirements 1 and 2 by construction.
                p.errors.setdefault(item.key, f"rewired topology failed requirement {got[1]}")
        _check_against(p, p.outputs, reference, self.keys(items))


WORKLOADS = {w.name: w for w in (GridSmall, CellLarge, VerifyImport)}
