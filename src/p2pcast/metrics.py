"""Delay and vulnerability metrics over built topologies.

All four metrics read a topology together with its delay space:

* minimum delay — per-node shortest-path delay from the peercaster using
  every connection, averaged over peers.
* tree delay — the delay each node would see if the M substreams were routed
  along M successively extracted shortest-path trees: M-1 times, compute the
  peercaster-rooted shortest-path tree and remove one multiplicity unit of
  each tree edge; the metric is the shortest-path delay in what remains.
* node vulnerability V_i — over the M realized substream paths of node i, the
  largest number of paths any single other node sits on; averaged as
  sum(V_i) / (N * M).
* system vulnerability S_v — the total number of (node, connection) paths in
  the whole system that pass through v; reported as max_v S_v / (N * M).

Shortest paths come from ``scipy.sparse.csgraph.dijkstra`` over the edges in
their canonical order (:meth:`Topology.edge_arrays`). Realized paths come
from a deterministic shortest-path tree: the k-th substream path of node i is
the realized shortest path to its k-th uploader j plus the final hop (j, i).
Ties in the tree are broken toward the lowest predecessor id among
strictly-closer candidates, so reports are reproducible bit for bit. Only a
node reached solely over zero-delay ties (coincident nodes) keeps the
predecessor of scipy's traversal order.

Feasibility checking is independent of the builder's bookkeeping: it recounts
multiplicities and runs a max-flow (min-cut) test on each peer that lies on a
directed cycle, which is where a cut can fall short; a built (acyclic)
topology needs no max-flow at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra, maximum_flow

from .delay_space import DelaySpace
from .topology import CapacityProfile, Topology


def _edge_arrays(topology: Topology, space: DelaySpace):
    """Canonically sorted (uploader, downloader, weight, multiplicity) arrays."""
    ul, dl, mult = topology.edge_arrays()
    return ul, dl, space.edge_delays(ul, dl), mult


def _dijkstra(n: int, ul, dl, w) -> tuple[np.ndarray, np.ndarray]:
    """Single-source shortest paths from node 0 over the given edge list.

    Returns (dist, pred). Unreachable nodes get dist=inf, pred=-1. Among
    predecessors u with dist[u] + w(u,v) == dist[v] and dist[u] < dist[v],
    the lowest node id wins; only degenerate zero-delay hops keep the
    predecessor of scipy's traversal order.
    """
    graph = csr_matrix((w, (ul, dl)), shape=(n, n))
    dist, pred = dijkstra(graph, indices=0, return_predecessors=True)
    pred = np.maximum(pred, -1).astype(np.int64)
    # Deterministic predecessor cleanup: lowest-id strictly-closer tight edge.
    tight = (dist[ul] + w == dist[dl]) & (dist[ul] < dist[dl])
    best = np.full(n, n, dtype=np.int64)
    np.minimum.at(best, dl[tight], ul[tight])
    found = best < n
    pred[found] = best[found]
    return dist, pred


def shortest_paths(topology: Topology, space: DelaySpace) -> tuple[np.ndarray, np.ndarray]:
    """Peercaster-rooted shortest-path distances and predecessors.

    Connection multiplicities do not matter here; only which links exist.
    A predecessor is the lowest-id strictly-closer node on a shortest path;
    a node reached only over zero-delay ties keeps scipy's traversal order.
    """
    ul, dl, w, _ = _edge_arrays(topology, space)
    return _dijkstra(topology.n_nodes, ul, dl, w)


def min_delay(topology: Topology, space: DelaySpace) -> tuple[np.ndarray, float]:
    """Per-node shortest-path delay from the peercaster and its mean over peers.

    An unreachable node yields inf (and an inf mean) — the signature of an
    infeasible input, reported rather than raised.
    """
    dist, _ = shortest_paths(topology, space)
    return dist, float(np.mean(dist[1:]))


def tree_delay(topology: Topology, space: DelaySpace, m: int) -> tuple[np.ndarray, float]:
    """Delay along successively extracted shortest-path trees.

    Removes one multiplicity unit of every tree edge, m-1 times, recomputing
    the tree each round, then reports the remaining shortest-path delays.
    Raises ValueError if any node ends up unreachable (the input cannot have
    had m edge-disjoint peercaster paths per node). Each tree is the one
    :func:`shortest_paths` reports for the edges left, so zero-delay ties
    follow scipy's traversal order there too.
    """
    n = topology.n_nodes
    ul, dl, w, mult = _edge_arrays(topology, space)
    keys = ul * n + dl  # sorted, as the edges are
    for _ in range(m - 1):
        live = mult > 0
        _, pred = _dijkstra(n, ul[live], dl[live], w[live])
        # One tree edge per reached peer, so the indices are distinct.
        v = np.flatnonzero(pred >= 0)
        mult[np.searchsorted(keys, pred[v] * n + v)] -= 1
    live = mult > 0
    dist, _ = _dijkstra(n, ul[live], dl[live], w[live])
    if not np.isfinite(dist[1:]).all():
        missing = int(np.flatnonzero(~np.isfinite(dist))[0])
        raise ValueError(
            f"node {missing} unreachable after removing {m - 1} shortest-path trees; "
            f"the topology lacks {m} edge-disjoint peercaster paths"
        )
    return dist, float(np.mean(dist[1:]))


class PathTable:
    """The realized substream paths of every node.

    For node i with k-th uploader j, the realized path is the deterministic
    shortest path from the peercaster to j followed by the hop (j, i), with
    delay dist[j] + delay(j, i). The table keeps the shortest-path tree and
    per-node connection lists; full node sequences are materialised on demand.
    """

    def __init__(self, topology: Topology, space: DelaySpace, dist, pred, m: int):
        self.topology = topology
        self.space = space
        self.dist = dist
        self.pred = pred
        self.m = m
        self.n_nodes = topology.n_nodes
        # in_conns[i]: sorted list of (uploader, multiplicity)
        per_node: list[list[tuple[int, int]]] = [[] for _ in range(self.n_nodes)]
        for j, i, c in zip(*(a.tolist() for a in topology.edge_arrays())):
            per_node[i].append((j, c))
        self.in_conns = per_node
        self._path_memo: dict[int, tuple[int, ...]] = {0: (0,)}

    @classmethod
    def build(cls, topology: Topology, space: DelaySpace, m: int | None = None) -> "PathTable":
        dist, pred = shortest_paths(topology, space)
        in_mult = topology.in_multiplicity()
        for i in range(1, topology.n_nodes):
            if in_mult[i] and not np.isfinite(dist[i]):
                raise ValueError(f"node {i} is unreachable from the peercaster")
        if m is None:
            m = int(in_mult[1:].max()) if topology.n_nodes > 1 else 0
        return cls(topology, space, dist, pred, m)

    def realized_path_to(self, j: int) -> tuple[int, ...]:
        """Node sequence of the realized shortest path 0 -> j."""
        memo = self._path_memo
        chain: list[int] = []
        v = int(j)
        while v not in memo:
            chain.append(v)
            v = int(self.pred[v])
            if v < 0:
                raise ValueError(f"node {chain[-1]} has no realized path from the peercaster")
        base = memo[v]
        for node in reversed(chain):
            base = base + (node,)
            memo[node] = base
        return memo[int(j)]

    def paths(self, i: int) -> list[tuple[int, float, tuple[int, ...]]]:
        """All of node i's connection paths as (uploader, delay, node sequence),
        one entry per connection unit."""
        out = []
        for j, c in self.in_conns[i]:
            delay = float(self.dist[j] + self.space.delay(j, i))
            path = self.realized_path_to(j) + (i,)
            out.extend([(j, delay, path)] * c)
        return out

    # -- pred-tree machinery shared by the vulnerability metrics ----------

    def _tree_indices(self):
        """tin/tout Euler intervals, chain tops, and a reverse-topological
        node order for the predecessor tree."""
        n = self.n_nodes
        children: list[list[int]] = [[] for _ in range(n)]
        for v in range(1, n):
            p = int(self.pred[v])
            if p >= 0:
                children[p].append(v)
        tin = np.full(n, -1, dtype=np.int64)
        tout = np.full(n, -1, dtype=np.int64)
        top = np.full(n, -1, dtype=np.int64)
        order: list[int] = []
        clock = 0
        stack: list[tuple[int, bool]] = [(0, False)]
        while stack:
            v, closing = stack.pop()
            if closing:
                tout[v] = clock
                clock += 1
                continue
            tin[v] = clock
            clock += 1
            order.append(v)
            top[v] = v if self.pred[v] == 0 else (0 if v == 0 else top[self.pred[v]])
            stack.append((v, True))
            for c in reversed(children[v]):
                stack.append((c, False))
        return tin, tout, top, order

    def _is_ancestor(self, tin, tout, a: int, b: int) -> bool:
        return tin[a] != -1 and tin[a] <= tin[b] and tout[b] <= tout[a]


def node_vulnerability(table: PathTable) -> tuple[np.ndarray, float]:
    """Per-node V_i and the mean node vulnerability sum(V_i) / (N * M).

    V_i is the largest number of node i's substream paths any single node
    v not in {0, i} appears on.
    """
    n = table.n_nodes
    tin, tout, top, _ = table._tree_indices()
    v_arr = np.zeros(n, dtype=np.int64)
    for i in range(1, n):
        conns = table.in_conns[i]
        degenerate = any(
            j != 0 and table._is_ancestor(tin, tout, i, j) for j, _ in conns
        )
        if not degenerate:
            by_top: dict[int, int] = {}
            for j, c in conns:
                if j == 0:
                    continue  # a direct connection has no intermediate nodes
                t = int(top[j])
                by_top[t] = by_top.get(t, 0) + c
            v_arr[i] = max(by_top.values(), default=0)
        else:
            # i sits on the realized path to one of its own uploaders (only
            # possible in pathological imported topologies): count explicitly.
            counts: dict[int, int] = {}
            for j, c in conns:
                node = j
                while node != 0:
                    if node != i:
                        counts[node] = counts.get(node, 0) + c
                    node = int(table.pred[node])
            v_arr[i] = max(counts.values(), default=0)
    peers = n - 1
    mean = float(v_arr[1:].sum() / (peers * table.m)) if peers and table.m else 0.0
    return v_arr, mean


def system_vulnerability(table: PathTable) -> tuple[np.ndarray, float]:
    """Per-node S_v and the max system vulnerability max_v S_v / (N * M).

    S_v counts, over every node i != v and every connection of i, the realized
    paths that contain v strictly inside.
    """
    n = table.n_nodes
    tin, tout, _, order = table._tree_indices()
    out_mult = table.topology.out_multiplicity()
    s_arr = np.zeros(n, dtype=np.int64)
    # Base: every connection uploaded by j passes through all of j's tree
    # ancestors (and j itself), so S_v starts as the subtree sum of out_mult.
    subtree = out_mult.astype(np.int64).copy()
    for v in reversed(order):
        p = int(table.pred[v]) if v != 0 else -1
        if p > 0:  # fold into parent, but never into the peercaster
            subtree[p] += subtree[v]
    s_arr[1:] = subtree[1:]
    s_arr[0] = 0
    # Correction: a connection (j -> i) with i on j's own realized path would
    # have been counted for v = i; the metric excludes the path's endpoint.
    for (j, i), c in table.topology.edges.items():
        if j != 0 and i != 0 and table._is_ancestor(tin, tout, i, j):
            s_arr[i] -= c
    peers = n - 1
    worst = float(s_arr[1:].max() / (peers * table.m)) if peers and table.m else 0.0
    return s_arr, worst


@dataclass(frozen=True)
class MetricsReport:
    """All four metrics for one build: per-node values and system summaries."""

    n_nodes: int
    m: int
    min_delay: np.ndarray
    tree_delay: np.ndarray
    node_vuln: np.ndarray
    sys_vuln: np.ndarray
    min_delay_mean_s: float
    tree_delay_mean_s: float
    mean_node_vuln: float
    max_sys_vuln: float


def compute_metrics(topology: Topology, space: DelaySpace, m: int) -> MetricsReport:
    """Evaluate all four metrics on a feasible topology."""
    dist, pred = shortest_paths(topology, space)
    if not np.isfinite(dist[1:]).all():
        missing = int(np.flatnonzero(~np.isfinite(dist))[0])
        raise ValueError(f"node {missing} is unreachable from the peercaster")
    tree, tree_mean = tree_delay(topology, space, m)
    table = PathTable(topology, space, dist, pred, m)
    v_arr, v_mean = node_vulnerability(table)
    s_arr, s_max = system_vulnerability(table)
    return MetricsReport(
        n_nodes=topology.n_nodes,
        m=m,
        min_delay=dist,
        tree_delay=tree,
        node_vuln=v_arr,
        sys_vuln=s_arr,
        min_delay_mean_s=float(np.mean(dist[1:])),
        tree_delay_mean_s=tree_mean,
        mean_node_vuln=v_mean,
        max_sys_vuln=s_max,
    )


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the independent feasibility check."""

    ok: bool
    requirement: int | None = None
    message: str = "feasible"

    def __bool__(self) -> bool:
        return self.ok


def _flow_graph(topology: Topology, cap: int | None = None) -> csr_matrix:
    """The multigraph with connection multiplicities, clipped at ``cap`` if
    given, as edge capacities."""
    ul, dl, mult = topology.edge_arrays()
    if cap is not None:
        mult = np.minimum(mult, cap)
    n = topology.n_nodes
    return csr_matrix((mult.astype(np.int32), (ul, dl)), shape=(n, n))


def max_flow(topology: Topology, sink: int, source: int = 0) -> int:
    """Exact maximum flow from ``source`` to ``sink`` with the connection
    multiplicities as edge capacities."""
    return int(maximum_flow(_flow_graph(topology), source, sink).flow_value)


def _cycle_nodes(graph: csr_matrix) -> list[int]:
    """Ids, in increasing order, of the peers on a directed cycle that avoids
    node 0: members of a strongly connected component of two or more peers,
    and peers with a self-loop."""
    peers = graph[1:, 1:]
    _, labels = connected_components(peers, directed=True, connection="strong")
    on_cycle = (np.bincount(labels)[labels] > 1) | (peers.diagonal() != 0)
    return (np.flatnonzero(on_cycle) + 1).tolist()


def verify_feasible(topology: Topology, caps: CapacityProfile, m: int) -> FeasibilityReport:
    """Check the three feasibility requirements from scratch.

    1. every peer has exactly ``m`` incoming connections;
    2. no node uploads beyond its capacity;
    3. ``m`` edge-disjoint paths exist from the peercaster to every peer
       (max-flow with multiplicities as capacities is at least ``m``).

    Given requirement 1, max-flow runs only on peers on a directed cycle
    avoiding node 0: every node of a sink side S that fewer than ``m`` units
    enter has an in-edge from inside S, so S holds such a cycle, and every
    node of S, the cycle's included, has max-flow below ``m``.

    Stops at the first violation and reports which requirement failed; a
    requirement-3 failure names the lowest-id peer short of ``m`` paths.
    """
    n = topology.n_nodes
    if caps.n_nodes != n:
        raise ValueError(f"capacity profile covers {caps.n_nodes} nodes, topology has {n}")
    in_mult = topology.in_multiplicity()
    wrong = np.flatnonzero(in_mult[1:] != m) + 1
    if len(wrong):
        i = int(wrong[0])
        return FeasibilityReport(
            False, 1,
            f"requirement 1 violated: node {i} has {int(in_mult[i])} incoming "
            f"connections, expected exactly {m}",
        )
    out_mult = topology.out_multiplicity()
    over = np.flatnonzero(out_mult > caps.u)
    if len(over):
        i = int(over[0])
        return FeasibilityReport(
            False, 2,
            f"requirement 2 violated: node {i} uploads {int(out_mult[i])} connections "
            f"but has capacity {int(caps.u[i])}",
        )
    # Clipping capacities at m leaves every cut's min(value, m) intact, so the
    # >= m test is unchanged and failing flow values are exact.
    graph = _flow_graph(topology, m)
    flows: dict[int, int] = {}

    def flow_to(i: int) -> int:
        if i not in flows:
            flows[i] = int(maximum_flow(graph, 0, i).flow_value)
        return flows[i]

    short = next((i for i in _cycle_nodes(graph) if flow_to(i) < m), None)
    if short is None:
        return FeasibilityReport(True)
    # The lowest-id peer short of m paths is at or below ``short``.
    i = next(i for i in range(1, short + 1) if flow_to(i) < m)
    return FeasibilityReport(
        False, 3,
        f"requirement 3 violated: only {flow_to(i)} edge-disjoint peercaster paths "
        f"reach node {i}, expected {m}",
    )
