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

Only peers have substream paths: a connection into the peercaster carries
none and counts toward neither vulnerability.

Shortest paths come from ``scipy.sparse.csgraph.dijkstra`` over the edges in
their canonical order (:meth:`Topology.edge_arrays`), sorted by uploader and
then downloader, which is already CSR order: every csgraph input is built
from those arrays directly, with one ``searchsorted`` for the row pointers.
:func:`compute_metrics` reads the edge delays once and runs one full-graph
Dijkstra per topology; its tree is also the first tree the tree delay
removes, so a cell takes M Dijkstra runs in all. Realized paths come
from a deterministic shortest-path tree: the k-th substream path of node i is
the realized shortest path to its k-th uploader j plus the final hop (j, i).
Ties in the tree are broken toward the lowest predecessor id among
strictly-closer candidates, so reports are reproducible bit for bit. Only a
node reached solely over zero-delay ties (coincident nodes) keeps the
predecessor of scipy's traversal order. Both vulnerabilities are grouped sums
over the connections, keyed by :class:`PathTable`'s index of that tree; no
path is materialised.

Feasibility checking is independent of the builder's bookkeeping: it recounts
multiplicities and runs a max-flow (min-cut) test only where a cut can fall
short, on a feedback set of the peers on directed cycles, which every cycle
passes through. That set comes from csgraph alone: the strong components
pick out the cycle peers, and ``depth_first_order`` over them gives the
heads of its back edges, the edges (v, w) whose head w is v or an ancestor
of v by preorder rank and subtree size. A built (acyclic) topology needs no
max-flow at all; a failing one scans, in id order, only the peers a failing
feedback peer can reach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import (
    breadth_first_order,
    connected_components,
    depth_first_order,
    dijkstra,
    maximum_flow,
)

from .delay_space import DelaySpace
from .topology import CapacityProfile, Topology


def _edge_arrays(topology: Topology, space: DelaySpace):
    """Canonically sorted (uploader, downloader, weight, multiplicity) arrays."""
    ul, dl, mult = topology.edge_arrays()
    return ul, dl, space.edge_delays(ul, dl), mult


def _csr(n: int, rows, cols, data) -> csr_matrix:
    """The n x n matrix with ``data`` at (``rows``, ``cols``), which are in
    canonical edge order: sorted by row, then column, without repeats."""
    return csr_matrix((data, cols, np.searchsorted(rows, np.arange(n + 1))), shape=(n, n))


def _dijkstra(n: int, ul, dl, w) -> tuple[np.ndarray, np.ndarray]:
    """Single-source shortest paths from node 0 over the given edge list,
    in canonical edge order.

    Returns (dist, pred). Unreachable nodes get dist=inf, pred=-1. Among
    predecessors u with dist[u] + w(u,v) == dist[v] and dist[u] < dist[v],
    the lowest node id wins; only degenerate zero-delay hops keep the
    predecessor of scipy's traversal order.
    """
    dist, pred = dijkstra(_csr(n, ul, dl, w), indices=0, return_predecessors=True)
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
    return _tree_delay(n, ul, dl, w, mult, m, *_dijkstra(n, ul, dl, w))


def _tree_delay(n: int, ul, dl, w, mult, m: int, dist, pred) -> tuple[np.ndarray, float]:
    """:func:`tree_delay` over the canonical edge arrays, given ``dist`` and
    ``pred`` of all of them: multiplicities are positive, so that is the
    first tree."""
    mult = mult.copy()  # the tree edges are removed from this copy
    keys = ul * n + dl  # sorted, as the edges are
    for _ in range(m - 1):
        # One tree edge per reached peer, so the indices are distinct.
        v = np.flatnonzero(pred >= 0)
        mult[np.searchsorted(keys, pred[v] * n + v)] -= 1
        live = mult > 0
        dist, pred = _dijkstra(n, ul[live], dl[live], w[live])
    if not np.isfinite(dist[1:]).all():
        missing = int(np.flatnonzero(~np.isfinite(dist))[0])
        raise ValueError(
            f"node {missing} unreachable after removing {m - 1} shortest-path trees; "
            f"the topology lacks {m} edge-disjoint peercaster paths"
        )
    return dist, float(np.mean(dist[1:]))


def _subtrees(n: int, order, parent) -> tuple[np.ndarray, np.ndarray]:
    """Preorder rank ``pos`` and subtree size ``size`` of every node of a
    tree given in preorder ``order``, ``parent[k]`` being the parent of
    ``order[k]`` (the root's is never read). u lies in v's subtree iff
    ``pos[v] <= pos[u] < pos[v] + size[v]``; a node off the tree has ``pos``
    the number of tree nodes and ``size`` 0."""
    pos = np.full(n, len(order))
    pos[order] = np.arange(len(order))
    # Reverse preorder visits every child before its parent.
    size = np.zeros(n, dtype=np.int64)
    size[order] = 1
    size = size.tolist()
    for v, p in zip(order[:0:-1].tolist(), parent[:0:-1].tolist()):
        size[p] += size[v]
    return pos, np.array(size, dtype=np.int64)


class PathTable:
    """The predecessor tree indexed for the vulnerability metrics.

    For node i with k-th uploader j, the k-th substream path is the realized
    shortest path from the peercaster to j (``pred`` followed up from j) plus
    the hop (j, i). Its intermediate nodes are j and j's tree ancestors below
    the peercaster, less i itself. A connection from the peercaster has none,
    and a connection into the peercaster carries no substream path, so the
    table keeps only the connections (``ul[k]`` -> ``dl[k]``, ``mult[k]``
    units) between two peers. Over the tree it keeps, per node v:

    * ``top[v]``: v's ancestor-or-self at depth 1, or v at depth 0;
    * ``top2[v]``: v's ancestor-or-self at depth 2, or v at depth 0 or 1;
    * ``pos[v]``, ``size[v]``: v's preorder rank and subtree size, so u lies
      in v's subtree iff ``pos[v] <= pos[u] < pos[v] + size[v]``.

    A node off the tree has ``top`` and ``top2`` itself, ``pos`` the number
    of tree nodes and ``size`` 0. Raises ValueError naming the lowest
    unreachable node that has a connection.
    """

    def __init__(self, topology: Topology, pred, m: int):
        n = topology.n_nodes
        self.pred = pred
        self.m = m
        self.n_nodes = n
        ends = np.concatenate(topology.edge_arrays()[:2])
        lost = ends[(pred[ends] < 0) & (ends != 0)]
        if len(lost):
            raise ValueError(f"node {int(lost.min())} is unreachable from the peercaster")
        self.ul, self.dl, self.mult = _peer_edges(topology)

        child = np.flatnonzero(pred >= 0)
        tree = csr_matrix((np.ones(len(child)), (pred[child], child)), shape=(n, n))
        order = depth_first_order(tree, 0, return_predecessors=False)
        parent = pred[order]  # -1 for the peercaster, first in preorder
        rank = np.arange(len(order))
        # In preorder, a node's depth-1 (depth-2) ancestor is the last node
        # at depth <= 1 (<= 2) up to and including it.
        shallow1 = parent <= 0
        shallow2 = shallow1 | (pred[parent] == 0)
        self.top = np.arange(n)
        self.top[order] = order[np.maximum.accumulate(np.where(shallow1, rank, 0))]
        self.top2 = np.arange(n)
        self.top2[order] = order[np.maximum.accumulate(np.where(shallow2, rank, 0))]
        self.pos, self.size = _subtrees(n, order, parent)

    @classmethod
    def build(cls, topology: Topology, space: DelaySpace, m: int) -> "PathTable":
        _, pred = shortest_paths(topology, space)
        return cls(topology, pred, m)


def node_vulnerability(table: PathTable) -> tuple[np.ndarray, float]:
    """Per-node V_i and the mean node vulnerability sum(V_i) / (N * M).

    V_i is the largest number of node i's substream paths any single node
    v not in {0, i} appears on. Each path of a connection j -> i is keyed by
    the node just below the peercaster on it, or, when that node is i, by
    the node just below i: every intermediate node lies only on paths of
    one key, and the key itself on all of them, so V_i is the largest key
    total. A path keyed by i itself is (0, i, i), with no intermediate node.
    """
    n = table.n_nodes
    top = table.top[table.ul]
    key = np.where(top != table.dl, top, table.top2[table.ul])
    keep = key != table.dl
    groups, member = np.unique(table.dl[keep] * n + key[keep], return_inverse=True)
    totals = np.zeros(len(groups), dtype=np.int64)
    np.add.at(totals, member, table.mult[keep])
    v_arr = np.zeros(n, dtype=np.int64)
    np.maximum.at(v_arr, groups // n, totals)
    peers = n - 1
    mean = float(v_arr[1:].sum() / (peers * table.m)) if peers and table.m else 0.0
    return v_arr, mean


def system_vulnerability(table: PathTable) -> tuple[np.ndarray, float]:
    """Per-node S_v and the max system vulnerability max_v S_v / (N * M).

    S_v counts, over every node i != v and every connection of i, the realized
    paths that contain v strictly inside.
    """
    n = table.n_nodes
    pos, size = table.pos, table.size
    j, i, c = table.ul, table.dl, table.mult
    # A path of j -> i passes through j and its ancestors below the
    # peercaster: the preorder prefix sums give each node its subtree's
    # uploads. The path ends at i, so i drops out where it is one of them.
    uploads = np.zeros(n + 1, dtype=np.int64)
    np.add.at(uploads, pos[j] + 1, c)
    uploads = np.cumsum(uploads)
    s_arr = uploads[pos + size] - uploads[pos]
    own = (pos[i] <= pos[j]) & (pos[j] < pos[i] + size[i])
    np.subtract.at(s_arr, i[own], c[own])
    s_arr[0] = 0
    peers = n - 1
    worst = float(s_arr[1:].max() / (peers * table.m)) if peers and table.m else 0.0
    return s_arr, worst


@dataclass(frozen=True)
class MetricsReport:
    """All four metrics for one build: per-node values and system summaries."""

    min_delay: np.ndarray
    tree_delay: np.ndarray
    node_vuln: np.ndarray
    sys_vuln: np.ndarray
    min_delay_mean_s: float
    tree_delay_mean_s: float
    mean_node_vuln: float
    max_sys_vuln: float


def compute_metrics(topology: Topology, space: DelaySpace, m: int) -> MetricsReport:
    """Evaluate all four metrics on a feasible topology: one read of the
    edge delays and ``m`` Dijkstra runs, the first shared by all four."""
    n = topology.n_nodes
    ul, dl, w, mult = _edge_arrays(topology, space)
    dist, pred = _dijkstra(n, ul, dl, w)
    if not np.isfinite(dist[1:]).all():
        missing = int(np.flatnonzero(~np.isfinite(dist))[0])
        raise ValueError(f"node {missing} is unreachable from the peercaster")
    tree, tree_mean = _tree_delay(n, ul, dl, w, mult, m, dist, pred)
    table = PathTable(topology, pred, m)
    v_arr, v_mean = node_vulnerability(table)
    s_arr, s_max = system_vulnerability(table)
    return MetricsReport(
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


def _flow_graph(topology: Topology, cap: int) -> csr_matrix:
    """The multigraph with connection multiplicities, clipped at ``cap``, as
    edge capacities."""
    ul, dl, mult = topology.edge_arrays()
    mult = np.minimum(mult, cap)
    return _csr(topology.n_nodes, ul, dl, mult.astype(np.int32))


def max_flow(topology: Topology, sink: int) -> int:
    """Exact maximum flow from the peercaster to ``sink`` with the connection
    multiplicities as edge capacities. No flow exceeds the sink's incoming
    connections, so capacities are clipped there, as :func:`verify_feasible`
    clips them at M; raises ValueError if that total exceeds 2**31 - 1, the
    largest capacity of the int32 flow graph."""
    cap = int(topology.in_multiplicity()[sink])
    if cap > np.iinfo(np.int32).max:
        raise ValueError(f"node {sink} has {cap} incoming connections, beyond the int32 flow capacities")
    return int(maximum_flow(_flow_graph(topology, cap), 0, sink).flow_value)


def _peer_edges(topology: Topology) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(uploader, downloader, multiplicity) of the connections between two
    peers, in canonical edge order."""
    ul, dl, mult = topology.edge_arrays()
    peers = (ul != 0) & (dl != 0)
    return ul[peers], dl[peers], mult[peers]


def _rooted(n: int, roots, ul, dl) -> csr_matrix:
    """The peer connections (``ul``, ``dl``), in canonical edge order, with
    node 0 as a super-source joined to ``roots``, in increasing order."""
    rows, cols = np.concatenate([np.zeros_like(roots), ul]), np.concatenate([roots, dl])
    return _csr(n, rows, cols, np.ones(len(rows)))


def _feedback_peers(n: int, ul, dl) -> list[int]:
    """Ids, in increasing order, of a feedback set of the peer connections
    (``ul``, ``dl``), in canonical edge order. The peers on a cycle are those
    in a strong component of two or more peers or with a self-loop. A
    ``depth_first_order`` over the connections among them, from node 0
    joined to each in increasing order, follows every peer's connections in
    canonical order. Every directed cycle holds a back edge (v, w) of it, w
    being v or an ancestor of v and lying on the cycle: the set is those w."""
    _, labels = connected_components(_csr(n, ul, dl, np.ones(len(ul))), directed=True, connection="strong")
    on_cycle = np.bincount(labels)[labels] > 1
    on_cycle[ul[ul == dl]] = True
    cycle = np.flatnonzero(on_cycle)
    if not len(cycle):
        return []
    keep = on_cycle[ul] & on_cycle[dl]
    ul, dl = ul[keep], dl[keep]
    order, pred = depth_first_order(_rooted(n, cycle, ul, dl), 0, return_predecessors=True)
    pos, size = _subtrees(n, order, pred[order])
    back = (pos[dl] <= pos[ul]) & (pos[ul] < pos[dl] + size[dl])
    return np.unique(dl[back]).tolist()


def verify_feasible(topology: Topology, caps: CapacityProfile, m: int) -> FeasibilityReport:
    """Check the three feasibility requirements from scratch.

    1. every peer has exactly ``m`` incoming connections;
    2. no node uploads beyond its capacity;
    3. ``m`` edge-disjoint paths exist from the peercaster to every peer
       (max-flow with multiplicities as capacities is at least ``m``).

    Given requirement 1, max-flow runs only on a feedback set R of the peers
    on a directed cycle avoiding node 0 (:func:`_feedback_peers`): the heads
    w of the back edges (v, w) of a ``depth_first_order`` over them, found
    as the edges whose head w is v or, by preorder rank and subtree size,
    an ancestor of v. Every node of a sink side S that fewer than ``m``
    units enter has an in-edge from inside S, so S holds such a cycle. That
    cycle has a back edge, so it passes through some r in R, and S separates
    r from the peercaster: r has max-flow below ``m``. So all of R passing
    means every peer passes.

    R is tried in increasing id order. At the first failing r0, the lowest
    failing peer is found by scanning, in id order, the peers up to r0 that
    the feedback peers from r0 on reach over peer connections. That misses
    none: for a failing peer v with such a sink side S, the peers of S that
    reach v inside S each have an in-edge from a peer of S that does too, so
    they hold a cycle, and its feedback peer r reaches v. S separates r from
    the peercaster, so r fails, and no feedback peer below r0 does.

    Stops at the first violation and reports which requirement failed; a
    requirement-3 failure names the lowest-id peer short of ``m`` paths.
    Raises ValueError for ``m`` below 1 or above 2**31 - 1, the largest
    capacity of the int32 flow graph, or a profile of another size.
    """
    if m < 1:
        raise ValueError(f"M must be at least 1, got {m}")
    if m > np.iinfo(np.int32).max:
        raise ValueError(f"M must be at most 2**31 - 1, the largest int32 flow capacity, got {m}")
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
    ul, dl, _ = _peer_edges(topology)
    feedback = _feedback_peers(n, ul, dl)
    if not feedback:
        return FeasibilityReport(True)
    # Clipping capacities at m leaves every cut's min(value, m) intact, so the
    # >= m test is unchanged and failing flow values are exact.
    graph = _flow_graph(topology, m)
    flows: dict[int, int] = {}

    def flow_to(i: int) -> int:
        if i not in flows:
            flows[i] = int(maximum_flow(graph, 0, i).flow_value)
        return flows[i]

    first = next((k for k, r in enumerate(feedback) if flow_to(r) < m), None)
    if first is None:
        return FeasibilityReport(True)
    # Every peer short of m paths is reachable over peer connections from a
    # failing feedback peer, and those are feedback[first] and later ones: a
    # super-source (node 0, its own connections dropped) joined to them
    # reaches every candidate for the lowest failing id.
    short = feedback[first]
    sources = np.array(feedback[first:], dtype=ul.dtype)
    reached = breadth_first_order(_rooted(n, sources, ul, dl), 0, return_predecessors=False)
    candidates = np.sort(reached[(reached > 0) & (reached <= short)]).tolist()
    i = next(i for i in candidates if flow_to(i) < m)
    return FeasibilityReport(
        False, 3,
        f"requirement 3 violated: only {flow_to(i)} edge-disjoint peercaster paths "
        f"reach node {i}, expected {m}",
    )
