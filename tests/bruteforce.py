"""Brute-force reference implementations used as oracles by the test suite.

The graph oracles share no code with the package: shortest paths come from
exhaustive simple-path enumeration, flow values from min-cut enumeration over
all vertex subsets, and vulnerabilities from literally walking every
realized path up a given predecessor tree. The package's earlier ``heapq``
Dijkstra and the tree delay built on it are kept here as a reference for the
library shortest paths that replaced them, and :func:`reference_clustered`
is the clustered delay-space walk as it was before it drew one block of
doubles. :func:`reference_build` is the admission builder
as it was before its hot path computed only the delays and scans it uses
(full-length ``delays_from`` vectors, a least-delay cache refresh after every
admission, one masked scan per uploader pick, diversity as a score penalty
of n times the brute-force diameter); it is the oracle the faster builder
must match bit for bit on generated spaces. :class:`TierReferenceBuildState`
swaps the penalty for the exact (picks, score, id) key the package uses, and
is the oracle on degenerate coordinates, where rounding or a zero diameter
parts the two rules. They share only the package's types, exceptions and
seeded streams. :func:`reference_to_csv` and
:func:`reference_read_topology_csv` are the topology CSV writer and reader
as they were before each handled a file as one array: one ``write`` per
row, and ``csv.reader`` and ``int()`` row by row, summing repeated edges.
The array writer must match the first byte for byte; the array reader must
accept no file the second rejects, and read every file it accepts to the
same topology.
"""

import csv
import heapq
from collections import Counter, deque

import numpy as np

from p2pcast.delay_space import DelaySpace
from p2pcast.rng import make_rng
from p2pcast.topology import (
    GROWING,
    LEAST_DELAY,
    NONE,
    RANDOM,
    SMALL_WORLD,
    AdmissionStuck,
    CapacityExhausted,
    CapacityProfile,
    PolicySpec,
    Topology,
)


def brute_shortest_paths(topology, space, max_paths=1_000_000):
    """Exhaustive simple-path enumeration from node 0; exact float sums."""
    n = topology.n_nodes
    out = [[] for _ in range(n)]
    for (u, v) in topology.edges:
        out[u].append(v)
    best = np.full(n, np.inf)
    best[0] = 0.0
    visited = 0
    # stack of (node, path_delay); on_path for simple-path pruning
    on_path = [False] * n
    stack = [(0, 0.0, iter(out[0]))]
    on_path[0] = True
    while stack:
        node, delay, it = stack[-1]
        advanced = False
        for nxt in it:
            if on_path[nxt]:
                continue
            visited += 1
            if visited > max_paths:
                raise RuntimeError("path enumeration exploded; instance too large")
            nd = delay + space.delay(node, nxt)  # left fold, same as Dijkstra
            if nd < best[nxt]:
                best[nxt] = nd
            on_path[nxt] = True
            stack.append((nxt, nd, iter(out[nxt])))
            advanced = True
            break
        if not advanced:
            on_path[node] = False
            stack.pop()
    return best


def brute_min_cut(topology, sink):
    """Minimum s-t cut value by enumerating every vertex bipartition."""
    n = topology.n_nodes
    others = [v for v in range(n) if v not in (0, sink)]
    k = len(others)
    masks = np.arange(1 << k, dtype=np.uint32)
    side = np.zeros((1 << k, n), dtype=bool)
    side[:, 0] = True
    for b, v in enumerate(others):
        side[:, v] = (masks >> np.uint32(b)) & np.uint32(1) == 1
    cut = np.zeros(1 << k, dtype=np.int64)
    for (u, v), c in topology.edges.items():
        cut += c * (side[:, u] & ~side[:, v])
    return int(cut.min())


def realized_path(pred, v):
    """Node sequence (0, ..., v) found by following ``pred`` up from v.
    Raises ValueError if the walk does not reach node 0."""
    path = [int(v)]
    while path[-1] != 0:
        p = int(pred[path[-1]])
        if p < 0:
            raise ValueError(f"node {v} has no realized path from the peercaster")
        if len(path) > len(pred):
            raise RuntimeError(f"pred has a cycle above node {v}")
        path.append(p)
    return tuple(reversed(path))


def realized_paths(topology, pred):
    """Every peer's substream paths, {i: [(j, (0, ..., j, i)), ...]}: one
    entry per connection unit, uploaders in increasing order. A connection
    into the peercaster carries no path. Raises ValueError if any uploader
    has no realized path."""
    out = {i: [] for i in range(1, topology.n_nodes)}
    for (j, i), c in sorted(topology.edges.items()):
        head = realized_path(pred, j)
        if i != 0:
            out[i] += [(j, head + (i,))] * c
    return out


def brute_vulnerabilities(topology, pred):
    """V_i and S_v recomputed by walking each realized path."""
    n = topology.n_nodes
    v_arr = np.zeros(n, dtype=np.int64)
    s_arr = np.zeros(n, dtype=np.int64)
    for i, paths in realized_paths(topology, pred).items():
        per_v = Counter(v for _, path in paths for v in path[1:-1] if v != i)
        v_arr[i] = max(per_v.values(), default=0)
        for v, c in per_v.items():
            s_arr[v] += c
    return v_arr, s_arr


def heap_dijkstra(n, ul, dl, w, active=None):
    """Single-source shortest paths from node 0 over the given edge list.

    Returns (dist, pred). Unreachable nodes get dist=inf, pred=-1. Among
    predecessors u with dist[u] + w(u,v) == dist[v] and dist[u] < dist[v],
    the lowest node id wins; only degenerate zero-delay hops fall back to
    traversal order.
    """
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for k in range(len(ul)):
        if active is None or active[k]:
            adj[int(ul[k])].append((int(dl[k]), float(w[k])))
    dist = np.full(n, np.inf)
    pred = np.full(n, -1, dtype=np.int64)
    dist[0] = 0.0
    heap: list[tuple[float, int]] = [(0.0, 0)]
    settled = np.zeros(n, dtype=bool)
    while heap:
        du, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        for v, wt in adj[u]:
            nd = du + wt
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))

    # Deterministic predecessor cleanup: lowest-id strictly-closer tight edge.
    if len(ul):
        mask = active if active is not None else np.ones(len(ul), dtype=bool)
        tight = mask & (dist[ul] + w == dist[dl]) & (dist[ul] < dist[dl])
        if tight.any():
            best = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
            np.minimum.at(best, dl[tight], ul[tight])
            found = best < np.iinfo(np.int64).max
            pred[found] = best[found]
    return dist, pred


def sorted_edge_arrays(topology, space):
    """(uploader, downloader, delay, multiplicity) arrays in (uploader,
    downloader) order, straight from the edge dict."""
    items = sorted(topology.edges.items())
    ul = np.array([k[0] for k, _ in items], dtype=np.int64)
    dl = np.array([k[1] for k, _ in items], dtype=np.int64)
    mult = np.array([c for _, c in items], dtype=np.int64)
    return ul, dl, space.edge_delays(ul, dl), mult


def heap_tree_delay(topology, space, m, dijkstra=heap_dijkstra):
    """Tree delay over ``dijkstra`` (by default :func:`heap_dijkstra`): m-1
    times remove one unit of every tree edge, then the shortest-path delays
    of what remains (inf where nothing is left)."""
    n = topology.n_nodes
    ul, dl, w, mult = sorted_edge_arrays(topology, space)
    index = {(int(a), int(b)): k for k, (a, b) in enumerate(zip(ul, dl))}
    for _ in range(m - 1):
        _, pred = dijkstra(n, ul, dl, w, active=mult > 0)
        for v in range(1, n):
            p = int(pred[v])
            if p >= 0:
                mult[index[(p, v)]] -= 1
    dist, _ = dijkstra(n, ul, dl, w, active=mult > 0)
    return dist


def brute_diameter(coords):
    """Largest ``np.hypot`` delay over all ordered pairs of ``coords``, 1024
    rows at a time."""
    best = 0.0
    for start in range(0, coords.shape[0], 1024):
        rows = coords[start : start + 1024]
        dx = rows[:, None, 0] - coords[None, :, 0]
        dy = rows[:, None, 1] - coords[None, :, 1]
        best = max(best, float(np.hypot(dx, dy).max()))
    return best


def reference_clustered(n, D, d, p, rng):
    """The clustered random walk of ``n`` nodes in the box of half-width
    ``D``, with step ``d`` and new-cluster probability ``p``, drawn node by
    node, one ``Generator`` call per value: returns (coords in generation
    order, cluster count)."""
    coords = np.empty((n, 2), dtype=np.float64)
    n_clusters = 0
    pos = None
    for i in range(n):
        if pos is None:
            pos = rng.uniform(-D, D, size=2)  # fresh cluster seed
            n_clusters += 1
        pos = pos + rng.uniform(-d, d, size=2)  # walk accumulates
        coords[i] = pos
        if rng.random() < p:
            pos = None
    return coords, n_clusters


class ReferenceBuildState:
    """Mutable state of one construction run. Internal to :func:`build`;
    exposed so the admission steps can be driven and inspected one at a time.
    """

    def __init__(
        self,
        space: DelaySpace,
        caps: CapacityProfile,
        policy: PolicySpec,
        m: int = 4,
        seed: int = 0,
    ):
        n = space.n_nodes
        if caps.n_nodes != n:
            raise ValueError(f"capacity profile covers {caps.n_nodes} nodes, space has {n}")
        if m < 1:
            raise ValueError("M must be at least 1")
        if n < 2:
            raise ValueError("need at least one peer besides the peercaster")
        if int(caps.u[0]) < m:
            raise ValueError(f"peercaster capacity u_0={int(caps.u[0])} is below M={m}")

        self.space = space
        self.policy = policy
        self.M = int(m)
        self.n = n
        self.u = caps.u.astype(np.int64)
        self.residual = self.u.copy()
        self.rng = make_rng(seed, "build")  # policy-independent label: FR and GR share streams

        self.F = int(self.u[0]) - self.M
        self.d = np.full(n, np.inf)
        self.d[0] = 0.0
        self.edges: dict[tuple[int, int], int] = {}

        # Connected ids in admission order, as a growing prefix of a buffer so
        # uploader scoring can slice it without copying.
        self._conn_buf = np.empty(n, dtype=np.int64)
        self._conn_buf[0] = 0
        self.n_connected = 1
        self.unadmitted_mask = np.ones(n, dtype=bool)
        self.unadmitted_mask[0] = False

        # Random-score policies admit in arrival order through the growing
        # path; this makes FR and GR produce identical topologies under the
        # same seed (they are the same procedure).
        self._arrival_order = policy.ordering == GROWING or policy.score == RANDOM
        self.pending: deque[int] | None = deque(range(1, n)) if self._arrival_order else None

        # Fixed scored policies keep a best-eligible-uploader cache per
        # unadmitted peer, invalidated when the cached uploader exhausts.
        self._best_score: np.ndarray | None = None
        self._best_up: np.ndarray | None = None
        if not self._arrival_order:
            base = space.delays_from(0)  # d[0] == 0, so closest == least_delay here
            self._best_score = base.copy()
            self._best_score[0] = np.inf
            self._best_up = np.zeros(n, dtype=np.int64)

        self._penalty: float | None = None

    # -- helpers ---------------------------------------------------------

    @property
    def connected_ids(self) -> np.ndarray:
        """Connected nodes in admission order (peercaster first)."""
        return self._conn_buf[: self.n_connected]

    def done(self) -> bool:
        return self.n_connected == self.n

    def _diversity_penalty(self) -> float:
        if self._penalty is None:
            self._penalty = self.n * brute_diameter(self.space.coords)
        return self._penalty

    def _guard(self, i: int) -> bool:
        return int(self.u[i]) + self.F >= self.M

    # -- admission steps -------------------------------------------------

    def select_next_peer(self) -> int:
        """The next peer to admit under the policy. Raises AdmissionStuck if
        nobody passes the spare-capacity guard."""
        if self._arrival_order:
            assert self.pending is not None
            for i in self.pending:  # index order; failed peers stay queued
                if self._guard(i):
                    return i
            raise AdmissionStuck(tuple(self.pending), self.F, self.M)

        candidates = self.unadmitted_mask & (self.u + self.F >= self.M)
        if not candidates.any():
            raise AdmissionStuck(tuple(np.flatnonzero(self.unadmitted_mask)), self.F, self.M)
        # Cached scores are exact while the cached uploader has capacity left
        # and only under-estimate once it exhausts, so validating the winner
        # (and re-scoring it if stale) converges on the true argmin.
        while True:
            scores = np.where(candidates, self._best_score, np.inf)
            best = scores.min()
            peer = int(np.flatnonzero(scores == best)[0])  # ties: lowest node id
            if self.residual[self._best_up[peer]] > 0:
                return peer
            self._rescore(peer)

    def select_uploaders(self, peer: int) -> list[int]:
        """Choose the peer's M uploaders (repetition allowed), respecting
        residual capacities connection by connection. Does not mutate state;
        :meth:`update_after_admission` applies the result."""
        conn = self.connected_ids
        rr = self.residual[conn].copy()  # local view of this round's eligibility
        score = self.policy.score
        diversity = self.policy.diversity

        base: np.ndarray | None = None
        if score != RANDOM:
            base = self.space.delays_from(peer)[conn]
            if score == LEAST_DELAY:
                base = self.d[conn] + base
        counts = np.zeros(len(conn)) if diversity != NONE else None

        chosen: list[int] = []
        for t in range(self.M):
            eligible = rr > 0
            if not eligible.any():
                raise CapacityExhausted(
                    f"no residual upload capacity among connected peers "
                    f"(picked {len(chosen)}/{self.M} for peer {peer})"
                )
            if score == RANDOM or (diversity == SMALL_WORLD and t == self.M - 1):
                ids = np.flatnonzero(eligible)
                k = int(ids[self.rng.integers(len(ids))])
            else:
                k = self._scored_pick(conn, base, counts, eligible)
            chosen.append(int(conn[k]))
            rr[k] -= 1
            if counts is not None:
                counts[k] += 1
        return chosen

    def _scored_pick(self, conn, base, counts, eligible) -> int:
        """Position in ``conn`` of the next scored pick: the lowest score plus
        a penalty of n * diameter per pick this round, ties to the lowest id."""
        eff = base if counts is None else base + counts * self._diversity_penalty()
        masked = np.where(eligible, eff, np.inf)
        m = masked.min()
        ties = np.flatnonzero(masked == m)
        return int(ties[np.argmin(conn[ties])]) if len(ties) > 1 else int(ties[0])

    def update_after_admission(self, peer: int, uploaders: list[int]) -> None:
        """Commit an admission: record edges, decrement capacities, set the
        peer's overlay delay d, update F, and refresh selection caches."""
        if len(uploaders) != self.M:
            raise ValueError(f"expected exactly {self.M} uploaders, got {len(uploaders)}")
        mult = Counter(uploaders)
        best = np.inf
        for j, c in mult.items():
            if self.unadmitted_mask[j]:
                raise ValueError(f"uploader {j} is not connected yet")
            self.edges[(j, peer)] = self.edges.get((j, peer), 0) + c
            self.residual[j] -= c
            if self.residual[j] < 0:
                raise CapacityExhausted(f"uploader {j} driven past its capacity")
            score = self.d[j] + self.space.delay(j, peer)
            if score < best:
                best = score
        self.d[peer] = best
        self.F += int(self.u[peer]) - self.M

        self.unadmitted_mask[peer] = False
        self._conn_buf[self.n_connected] = peer
        self.n_connected += 1
        if self.pending is not None:
            if self.pending and self.pending[0] == peer:
                self.pending.popleft()
            else:
                self.pending.remove(peer)

        if self._best_score is not None:
            self._refresh_fixed_cache(peer)

    def _rescore(self, i: int) -> None:
        """Recompute peer i's best eligible uploader from scratch. The
        admission guard keeps F + M > 0 upload units available, so some
        connected uploader is always open."""
        conn = self.connected_ids
        open_ids = conn[self.residual[conn] > 0]
        vec = self.space.delays_from(i)[open_ids]
        if self.policy.score == LEAST_DELAY:
            vec = self.d[open_ids] + vec
        k = int(vec.argmin())
        self._best_score[i] = vec[k]
        self._best_up[i] = int(open_ids[k])

    def _refresh_fixed_cache(self, new_node: int) -> None:
        """Let the newly admitted node improve unadmitted peers' cached scores."""
        if self.residual[new_node] <= 0:
            return
        targets = np.flatnonzero(self.unadmitted_mask)
        if not len(targets):
            return
        vec = self.space.delays_from(new_node)[targets]
        if self.policy.score == LEAST_DELAY:
            vec = self.d[new_node] + vec
        better = vec < self._best_score[targets]
        ids = targets[better]
        self._best_score[ids] = vec[better]
        self._best_up[ids] = new_node

    def admit_next(self) -> int:
        peer = self.select_next_peer()
        uploaders = self.select_uploaders(peer)
        self.update_after_admission(peer, uploaders)
        return peer

    def topology(self) -> Topology:
        return Topology(self.n, self.edges, self.residual)


class TierReferenceBuildState(ReferenceBuildState):
    """The reference builder with diversity as an exact key instead of a
    penalty: each scored pick takes the eligible uploader with the fewest
    picks this round, ties to the lowest score, then the lowest node id. The
    two agree in exact arithmetic, since every score is below the penalty;
    they part where ``base + L`` rounds, or where L is 0."""

    def _scored_pick(self, conn, base, counts, eligible) -> int:
        picks = [0.0] * len(conn) if counts is None else counts.tolist()
        keys = zip(picks, base.tolist(), conn.tolist(), range(len(conn)))
        return min(key for key in keys if eligible[key[3]])[3]


def reference_build(
    space: DelaySpace,
    caps: CapacityProfile,
    policy: PolicySpec,
    m: int = 4,
    seed: int = 0,
    state_cls=ReferenceBuildState,
) -> Topology:
    """Build a feasible topology over ``space`` under ``policy`` with
    ``state_cls``, the penalty reference by default.

    Deterministic in ``seed``. Raises :class:`AdmissionStuck` when the
    spare-capacity guard blocks every remaining peer.
    """
    state = state_cls(space, caps, policy, m, seed)
    while not state.done():
        state.admit_next()
    return state.topology()


def reference_to_csv(topology, edges_path, caps_path) -> None:
    """Write ``uploader,downloader,multiplicity`` rows (sorted by pair) and
    the capacity sidecar ``node,u,residual_u``, one ``write`` per row."""
    with open(edges_path, "w", encoding="ascii", newline="\n") as f:
        f.write("uploader,downloader,multiplicity\n")
        for row in zip(*(a.tolist() for a in topology.edge_arrays())):
            f.write("%d,%d,%d\n" % row)
    u = topology.upload_capacity()
    with open(caps_path, "w", encoding="ascii", newline="\n") as f:
        f.write("node,u,residual_u\n")
        for i in range(topology.n_nodes):
            f.write(f"{i},{int(u[i])},{int(topology.residual_u[i])}\n")


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _int_rows(path, header: list[str]) -> list[tuple[int, list[int]]]:
    """(line, values) of each row of an all-integer CSV file with ``header``.
    Raises ValueError naming the file and line of any malformed row."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        if (got := next(reader, None)) != header:
            raise ValueError(f"unexpected header in {path}: {got}; expected {header}")
        rows = []
        try:
            for fields in filter(None, reader):
                if len(fields) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(fields)}")
                values = [int(v) for v in fields]
                if min(values) < _INT64_MIN or max(values) > _INT64_MAX:
                    raise ValueError(f"a field of {fields} is outside the int64 range")
                rows.append((reader.line_num, values))
        except ValueError as exc:
            raise ValueError(f"{exc} in {path}, line {reader.line_num}") from None
    return rows


def reference_read_topology_csv(edges_path, caps_path) -> tuple[Topology, CapacityProfile]:
    """Read a topology written by :meth:`Topology.to_csv` (both files).
    Raises ValueError naming the file and line of a malformed row, and of a
    node whose ``residual_u`` is not its u less its outgoing connections."""
    caps_rows = _int_rows(caps_path, ["node", "u", "residual_u"])
    for line, (node, u_node, _) in caps_rows:
        if u_node < 0:
            raise ValueError(
                f"negative upload capacity {u_node} for node {node} in {caps_path}, line {line}"
            )
    rows = sorted(values for _, values in caps_rows)
    if [r[0] for r in rows] != list(range(len(rows))):
        raise ValueError(f"capacity file {caps_path} must list every node exactly once")
    u = np.array([r[1] for r in rows], dtype=np.int64)
    residual = np.array([r[2] for r in rows], dtype=np.int64)

    edges: dict[tuple[int, int], int] = {}
    for line, (up, down, mult) in _int_rows(edges_path, ["uploader", "downloader", "multiplicity"]):
        key = (up, down)
        if not (0 <= up < len(rows) and 0 <= down < len(rows)):
            raise ValueError(
                f"edge {key} references a node outside the capacity file in {edges_path}, line {line}"
            )
        if mult <= 0:
            raise ValueError(
                f"non-positive multiplicity {mult} for edge {key} in {edges_path}, line {line}"
            )
        edges[key] = edges.get(key, 0) + mult
        if edges[key] > _INT64_MAX:
            raise ValueError(f"edge {key} sums beyond the int64 range in {edges_path}, line {line}")
    topology = Topology(len(rows), edges, residual)
    try:
        out_mult = topology.out_multiplicity()
    except ValueError as exc:
        raise ValueError(f"{exc} in {edges_path}") from None
    wrong = np.flatnonzero(residual != u - out_mult)
    if len(wrong):
        node = int(wrong[0])
        line = next(line for line, values in caps_rows if values[0] == node)
        raise ValueError(
            f"residual_u {int(residual[node])} for node {node} is not its u {int(u[node])} "
            f"less its {int(out_mult[node])} outgoing connections in {caps_path}, line {line}"
        )
    return topology, CapacityProfile(u)
