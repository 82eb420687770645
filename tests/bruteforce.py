"""Brute-force reference implementations used as oracles by the test suite.

These deliberately share no code with the package: shortest paths come from
exhaustive simple-path enumeration, flow values from min-cut enumeration over
all vertex subsets, and vulnerabilities from literally walking every
materialised path. The package's earlier ``heapq`` Dijkstra and the tree
delay built on it are kept here as a reference for the library shortest
paths that replaced them.
"""

import heapq
from collections import Counter

import numpy as np


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


def brute_vulnerabilities(table):
    """V_i and S_v recomputed by walking each materialised path."""
    n = table.n_nodes
    v_arr = np.zeros(n, dtype=np.int64)
    s_arr = np.zeros(n, dtype=np.int64)
    for i in range(1, n):
        per_v = Counter()
        for _, _, path in table.paths(i):
            for v in path[1:-1]:
                if v != i:
                    per_v[v] += 1
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
