"""Metrics: hand-computed instances, brute-force equivalence, feasibility."""

import math

import numpy as np
import pytest

import p2pcast.metrics
from p2pcast import (
    ALL_POLICY_CODES,
    KINDS,
    AdmissionStuck,
    CapacityProfile,
    DelaySpace,
    DistributionSpec,
    PathTable,
    PolicySpec,
    Topology,
    build,
    compute_metrics,
    derive_seed,
    generate,
    make_rng,
    max_flow,
    min_delay,
    node_vulnerability,
    shortest_paths,
    system_vulnerability,
    tree_delay,
    verify_feasible,
)
from bruteforce import (
    brute_min_cut,
    brute_shortest_paths,
    brute_vulnerabilities,
    heap_dijkstra,
    heap_tree_delay,
    realized_path,
    realized_paths,
    sorted_edge_arrays,
)


def topo(n, edges):
    return Topology(n, dict(edges), np.zeros(n, dtype=np.int64))


def random_feasible(seed, n, code="GR"):
    space = generate(DistributionSpec.preset("flat", n, seed))
    caps = CapacityProfile.sample(n, make_rng(seed, "capacities"))
    try:
        t = build(space, caps, PolicySpec.from_code(code), 4, seed=seed)
    except Exception:
        return None
    return space, caps, t


# ------------------------------------------------------------ hand traces


def chain_fixture():
    """0 ->(x4) 1 ->(x4) 2 along a line; delays 0.1 and 0.2."""
    space = DelaySpace(np.array([[0.0, 0.0], [0.1, 0.0], [0.3, 0.0]]))
    t = topo(3, {(0, 1): 4, (1, 2): 4})
    return space, t


def test_chain_min_delay():
    space, t = chain_fixture()
    dist, mean = min_delay(t, space)
    assert dist[0] == 0.0
    assert dist[1] == pytest.approx(0.1)
    assert dist[2] == pytest.approx(0.3)
    assert mean == pytest.approx(0.2)


def test_chain_vulnerabilities():
    # All four of node 2's substreams route through node 1: V_2 = 4 and
    # S_1 = 4, so both metrics are 4 / (2 peers * 4 substreams) = 0.5.
    space, t = chain_fixture()
    table = PathTable.build(t, space, m=4)
    v_arr, v_mean = node_vulnerability(table)
    s_arr, s_max = system_vulnerability(table)
    assert v_arr.tolist() == [0, 0, 4]
    assert v_mean == 0.5
    assert s_arr.tolist() == [0, 4, 0]
    assert s_max == 0.5


def test_star_metrics_all_zero_vulnerability():
    coords = [[0.0, 0.0]] + [[0.05 * (i + 1), 0.0] for i in range(6)]
    space = DelaySpace(np.array(coords))
    t = topo(7, {(0, i): 4 for i in range(1, 7)})
    report = compute_metrics(t, space, 4)
    assert report.mean_node_vuln == 0.0
    assert report.max_sys_vuln == 0.0
    assert not report.node_vuln.any()
    assert not report.sys_vuln.any()
    assert np.array_equal(report.tree_delay, report.min_delay)  # star survives pruning


def test_distinct_uploaders_bound_node_vulnerability():
    # Node 5 draws one substream from each of four disjoint relays: no single
    # node carries more than one of its paths, so V_5 = 1.
    coords = [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [-0.1, 0.0], [0.0, -0.1], [0.2, 0.2]]
    space = DelaySpace(np.array(coords))
    edges = {(0, k): 4 for k in range(1, 5)}
    edges.update({(k, 5): 1 for k in range(1, 5)})
    table = PathTable.build(topo(6, edges), space, m=4)
    v_arr, v_mean = node_vulnerability(table)
    assert v_arr.tolist() == [0, 0, 0, 0, 0, 1]
    assert v_mean == pytest.approx(1 / (5 * 4))


def test_tree_delay_consumes_direct_copies_then_detours():
    # Peer 2 has three direct connections and one two-hop path via node 1.
    # Three tree extractions eat the direct copies; what remains is the detour.
    space = DelaySpace(np.array([[0.0, 0.0], [0.3, 0.4], [1.0, 0.0]]))
    t = topo(3, {(0, 1): 4, (0, 2): 3, (1, 2): 1})
    detour = 0.5 + math.hypot(1.0 - 0.3, 0.4)
    dist, _ = min_delay(t, space)
    assert dist[2] == 1.0
    tree, _ = tree_delay(t, space, 4)
    assert tree[1] == pytest.approx(0.5)
    assert tree[2] == pytest.approx(detour)


def test_tree_delay_raises_when_paths_run_out():
    space = DelaySpace(np.array([[0.0, 0.0], [0.1, 0.0]]))
    t = topo(2, {(0, 1): 1})  # only one connection, M=4 claimed
    with pytest.raises(ValueError, match="unreachable"):
        tree_delay(t, space, 4)


def test_shortest_path_tie_breaks_to_lowest_predecessor():
    # Two exactly equal routes 0->1->3 and 0->2->3 (integer geometry):
    # the realized path must go through node 1.
    space = DelaySpace(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
    t = topo(4, {(0, 1): 4, (0, 2): 4, (1, 3): 2, (2, 3): 2})
    dist, pred = shortest_paths(t, space)
    assert dist[3] == 3.0
    assert pred[3] == 1
    paths = [p for _, p in realized_paths(t, pred)[3]]
    assert paths == [(0, 1, 3), (0, 1, 3), (0, 2, 3), (0, 2, 3)]


def test_path_table_structure():
    res = random_feasible(5, 25)
    assert res is not None
    space, caps, t = res
    table = PathTable.build(t, space, 4)
    dist, pred = shortest_paths(t, space)
    for i, paths in realized_paths(t, pred).items():
        assert len(paths) == 4  # one entry per connection
        for j, path in paths:
            assert path[0] == 0 and path[-1] == i and path[-2] == j
        # the best connection delay is exactly the node's overlay distance
        assert min(dist[j] + space.delay(j, i) for j, _ in paths) == dist[i]
    # The table's tree indexes agree with the walks up pred.
    walks = [realized_path(pred, v) for v in range(25)]
    for v, walk in enumerate(walks):
        assert table.top[v] == walk[min(1, v)]
        assert table.top2[v] == walk[min(2, len(walk) - 1)]
        below = {u for u in range(25) if v in walks[u]}
        in_subtree = (table.pos[v] <= table.pos) & (table.pos < table.pos[v] + table.size[v])
        assert set(np.flatnonzero(in_subtree).tolist()) == below
    assert sorted(table.pos.tolist()) == list(range(25))
    # Only connections between two peers are kept.
    assert sorted(zip(table.ul.tolist(), table.dl.tolist(), table.mult.tolist())) == sorted(
        (j, i, c) for (j, i), c in t.edges.items() if j
    )


def test_connections_into_the_peercaster_carry_no_path():
    # Node 2 sends 3 units back to the peercaster: no substream path ends
    # there, so node 1 sits on node 2's 4 paths only.
    space, _ = chain_fixture()
    t = topo(3, {(0, 1): 4, (1, 2): 4, (2, 0): 3})
    report = compute_metrics(t, space, 4)
    assert report.sys_vuln.tolist() == [0, 4, 0]
    assert report.max_sys_vuln == 0.5
    assert report.node_vuln.tolist() == [0, 0, 4]


def test_path_table_rejects_an_unreachable_node_with_connections():
    space = DelaySpace(np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [0.3, 0.0]]))
    t = topo(4, {(0, 1): 4, (2, 1): 1, (0, 3): 4})
    with pytest.raises(ValueError, match="node 2 is unreachable"):
        PathTable.build(t, space, m=4)
    # An unreachable node with no connection at all has nothing to walk.
    lone = PathTable.build(topo(4, {(0, 1): 4, (1, 3): 4}), space, m=4)
    assert node_vulnerability(lone)[0].tolist() == [0, 0, 0, 4]
    assert system_vulnerability(lone)[0].tolist() == [0, 4, 0, 0]


def test_min_delay_reports_inf_for_unreachable():
    space = DelaySpace(np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]]))
    t = topo(3, {(0, 1): 4})  # node 2 disconnected
    dist, mean = min_delay(t, space)
    assert math.isinf(dist[2]) and math.isinf(mean)
    with pytest.raises(ValueError, match="unreachable"):
        compute_metrics(t, space, 4)


# ------------------------------------------------- brute-force equivalence


def test_distances_match_exhaustive_enumeration():
    checked = 0
    for seed in range(40):
        res = random_feasible(seed, 5 + seed % 8)
        if res is None:
            continue
        space, _, t = res
        dist, _ = shortest_paths(t, space)
        brute = brute_shortest_paths(t, space)
        assert np.array_equal(dist, brute)  # exact, not approximate
        checked += 1
    assert checked >= 35


def test_max_flow_matches_cut_enumeration():
    for seed in range(25):
        res = random_feasible(seed, 6 + seed % 7)
        if res is None:
            continue
        space, _, t = res
        for sink in range(1, t.n_nodes):
            assert max_flow(t, sink) == brute_min_cut(t, sink)


def test_max_flow_hand_instances():
    # Disconnected island: peercaster cannot reach nodes 1 and 2 at all.
    island = topo(3, {(1, 2): 4, (2, 1): 4})
    assert max_flow(island, 1) == 0
    # Diamond with parallel capacity.
    diamond = topo(4, {(0, 1): 2, (0, 2): 2, (1, 3): 2, (2, 3): 2})
    assert max_flow(diamond, 3) == 4
    assert brute_min_cut(diamond, 3) == 4


def test_max_flow_takes_multiplicities_beyond_int32():
    # 2**32 would wrap to a capacity of 0 in the int32 flow graph.
    assert max_flow(topo(3, {(0, 1): 2**32, (1, 2): 5}), 2) == 5
    top = 2**31 - 1
    assert max_flow(topo(3, {(0, 1): 2**32, (1, 2): top}), 2) == top
    with pytest.raises(ValueError, match="node 2 has 2147483648 incoming connections"):
        max_flow(topo(3, {(0, 1): 2**32, (1, 2): top + 1}), 2)


def built_cases():
    """(space, topology, M) for every policy and distribution, M = 1..6, u0
    at M or 16, capacities that include 0; stuck builds are skipped."""
    for m in range(1, 7):
        for code in ALL_POLICY_CODES:
            for kind in KINDS:
                seed = derive_seed(m, code, kind)
                n = 20 + seed % 21
                space = generate(DistributionSpec.preset(kind, n, seed))
                u0 = m if seed % 2 else 16
                caps = CapacityProfile.sample(
                    n, make_rng(seed, "capacities"), (0, 1, 5, 10, 16), u0
                )
                try:
                    t = build(space, caps, PolicySpec.from_code(code), m, seed)
                except AdmissionStuck:
                    continue
                yield space, t, m


def random_path_case(rng):
    """(space, topology, M) with n in 2..8 and M in 1..6 from
    :func:`random_multigraph` (cycles, self-loops, edges into node 0); half
    the spaces put nodes on shared coordinates, and some graphs have one
    peer stripped of every connection."""
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 7))
    edges = random_multigraph(rng, n, m).edges
    if rng.random() < 0.2:
        lone = int(rng.integers(1, n))
        edges = {e: c for e, c in edges.items() if lone not in e}
    if rng.random() < 0.5:
        spots = rng.random((int(rng.integers(1, n + 1)), 2)).round(1)
        coords = spots[rng.integers(0, len(spots), size=n)]
    else:
        coords = rng.random((n, 2))
    return DelaySpace(coords), topo(n, edges), m


def test_vulnerabilities_match_path_walks():
    def check(space, t, m):
        table = PathTable.build(t, space, m)
        v_brute, s_brute = brute_vulnerabilities(t, table.pred)
        assert np.array_equal(node_vulnerability(table)[0], v_brute)
        assert np.array_equal(system_vulnerability(table)[0], s_brute)

    for code in ("GR", "FCN", "GDD", "FDS", "GCS"):
        for seed in (1, 2, 3):
            res = random_feasible(seed, 40, code)
            if res is not None:
                check(res[0], res[2], 4)
    built = 0
    for case in built_cases():
        check(*case)
        built += 1
    assert built >= 200, built

    rng = np.random.default_rng(8)
    seen = dict.fromkeys(["into_peercaster", "own_ancestor", "self_loop", "isolated",
                          "unreachable"], 0)
    for _ in range(3000):
        space, t, m = random_path_case(rng)
        _, pred = shortest_paths(t, space)
        try:
            paths = realized_paths(t, pred)
        except ValueError:
            with pytest.raises(ValueError, match="unreachable"):
                PathTable.build(t, space, m)
            seen["unreachable"] += 1
            continue
        check(space, t, m)
        seen["into_peercaster"] += any(i == 0 for _, i in t.edges)
        seen["own_ancestor"] += any(i in p[1:-2] for i, ps in paths.items() for _, p in ps)
        seen["self_loop"] += any(j == i for j, i in t.edges)
        touched = {v for e in t.edges for v in e}
        seen["isolated"] += len(touched) < t.n_nodes
    assert min(seen.values()) >= 100, seen


def test_vulnerability_duality():
    # Total path-membership counted per node v equals the same total counted
    # per downloader i — both sides derived from one path table.
    res = random_feasible(11, 30)
    assert res is not None
    space, _, t = res
    table = PathTable.build(t, space, 4)
    s_arr, _ = system_vulnerability(table)
    per_path_total = sum(
        sum(1 for v in path[1:-1] if v != i)
        for i, paths in realized_paths(t, table.pred).items()
        for _, path in paths
    )
    assert int(s_arr.sum()) == per_path_total


def test_tree_delay_dominates_min_delay():
    for seed in range(6):
        res = random_feasible(seed, 50, "GCD")
        if res is None:
            continue
        space, _, t = res
        dist, _ = min_delay(t, space)
        tree, _ = tree_delay(t, space, 4)
        assert (tree >= dist).all()  # pruning can only hurt


# ------------------------------------- library Dijkstra vs heapq reference


def library_dijkstra(n, ul, dl, w, active):
    """The package's Dijkstra behind the reference's ``active=`` signature."""
    return p2pcast.metrics._dijkstra(n, ul[active], dl[active], w[active])


def assert_same_tree_delay(t, space, m, dijkstra=heap_dijkstra):
    ref = heap_tree_delay(t, space, m, dijkstra)
    if np.isfinite(ref[1:]).all():
        assert np.array_equal(tree_delay(t, space, m)[0], ref)
    else:
        with pytest.raises(ValueError, match="unreachable"):
            tree_delay(t, space, m)


def test_built_topologies_match_heap_dijkstra_bit_for_bit():
    # Every policy and distribution, M = 1..6, u0 at M or 16, capacities
    # that include 0.
    built = 0
    for space, t, m in built_cases():
        ul, dl, w, _ = sorted_edge_arrays(t, space)
        ref_dist, ref_pred = heap_dijkstra(t.n_nodes, ul, dl, w)
        dist, pred = shortest_paths(t, space)
        assert np.array_equal(dist, ref_dist)
        assert np.array_equal(pred, ref_pred)
        assert_same_tree_delay(t, space, m)
        built += 1
    assert built >= 200, built


def random_delay_multigraph(rng, coincident):
    """A multigraph with self-loops, cycles, edges into node 0 and, if
    ``coincident``, nodes sharing coordinates (zero-delay edges)."""
    n = int(rng.integers(2, 12))
    m = int(rng.integers(1, 6))
    if coincident:
        spots = rng.random((int(rng.integers(1, n + 1)), 2)).round(int(rng.integers(0, 3)))
        coords = spots[rng.integers(0, len(spots), size=n)]
    else:
        coords = rng.random((n, 2))
    edges: dict[tuple[int, int], int] = {}
    for v in range(1, n):
        for _ in range(m):
            u = int(rng.integers(0, n)) if rng.random() < 0.4 else int(rng.integers(0, v))
            edges[(u, v)] = edges.get((u, v), 0) + 1
    if rng.random() < 0.3:
        edges[(int(rng.integers(1, n)), 0)] = 1
    return DelaySpace(coords), topo(n, edges), m


def test_random_multigraphs_match_heap_dijkstra():
    rng = np.random.default_rng(4)
    ties = 0
    for k in range(2000):
        coincident = k % 2 == 1
        space, t, m = random_delay_multigraph(rng, coincident)
        n = t.n_nodes
        ul, dl, w, _ = sorted_edge_arrays(t, space)
        ref_dist, ref_pred = heap_dijkstra(n, ul, dl, w)
        dist, pred = shortest_paths(t, space)
        assert np.array_equal(dist, ref_dist)
        if not coincident:
            # Every delay is positive: each reached peer has a strictly-closer
            # tight predecessor, which fixes pred and every extracted tree.
            assert np.array_equal(pred, ref_pred)
            assert_same_tree_delay(t, space, m)
            continue
        # A strictly-closer tight predecessor fixes pred; otherwise pred is
        # some tight in-edge, and following pred always ends at node 0.
        tight = (dist[ul] + w == dist[dl]) & (dist[ul] < dist[dl])
        fixed = np.zeros(n, dtype=bool)
        fixed[dl[tight]] = True
        assert np.array_equal(pred[fixed], ref_pred[fixed])
        ties += not np.array_equal(pred, ref_pred)
        assert pred[0] == -1 and ((pred >= 0) == np.isfinite(dist))[1:].all()
        for v in np.flatnonzero(pred >= 0):
            p = int(pred[v])
            assert (p, v) in t.edges and dist[p] + space.delay(p, v) == dist[v]
            hops = 0
            while p != 0:
                p, hops = int(pred[p]), hops + 1
                assert hops < n
        # Zero-delay ties may pick other trees than the reference, so the
        # unit removal is checked against the reference loop over the same
        # trees.
        assert_same_tree_delay(t, space, m, library_dijkstra)
    assert ties >= 100, ties


# ------------------------------------------------------------ feasibility


def test_verify_accepts_built_topologies():
    res = random_feasible(3, 35, "FDD")
    assert res is not None
    space, caps, t = res
    assert verify_feasible(t, caps, 4).ok


def test_verify_requirement_1_in_multiplicity():
    space = DelaySpace(np.array([[0.0, 0.0], [0.1, 0.0]]))
    t = topo(2, {(0, 1): 3})
    report = verify_feasible(t, CapacityProfile(np.array([16, 16])), 4)
    assert not report.ok and report.requirement == 1
    assert "requirement 1" in report.message


def test_verify_counts_connections_exactly_above_2_53():
    big = 2**53 + 1  # float64 rounds it to 2**53
    report = verify_feasible(topo(2, {(0, 1): big}), CapacityProfile(np.array([big, 0])), 4)
    assert report.requirement == 1
    assert report.message == (
        f"requirement 1 violated: node 1 has {big} incoming connections, expected exactly 4"
    )


def test_verify_takes_m_up_to_the_int32_flow_capacity():
    top = 2**31 - 1
    assert verify_feasible(topo(2, {(0, 1): top}), CapacityProfile(np.array([top, 0])), top).ok
    t = topo(2, {(0, 1): top + 1})
    with pytest.raises(ValueError, match="M must be at most 2\\*\\*31 - 1"):
        verify_feasible(t, CapacityProfile(np.array([top + 1, 0])), top + 1)


def test_verify_requirement_2_capacity():
    space = DelaySpace(np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]]))
    t = topo(3, {(0, 1): 4, (1, 2): 4})
    report = verify_feasible(t, CapacityProfile(np.array([16, 3, 1])), 4)
    assert not report.ok and report.requirement == 2
    assert "uploads" in report.message


def test_verify_requirement_3_disjoint_paths():
    # Nodes 1 and 2 feed each other; in-multiplicities check out but no
    # peercaster paths exist (the A<->B island).
    t = topo(3, {(1, 2): 4, (2, 1): 4})
    report = verify_feasible(t, CapacityProfile(np.array([16, 4, 4])), 4)
    assert not report.ok and report.requirement == 3
    assert "requirement 3" in report.message
    # Single shared bottleneck: 4 connections but only 1 disjoint path.
    space = DelaySpace(np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]]))
    bottleneck = topo(3, {(0, 1): 4, (1, 2): 4})
    caps = CapacityProfile(np.array([16, 16, 16]))
    assert verify_feasible(bottleneck, caps, 4).ok  # 4 parallel copies are fine
    thin = topo(3, {(0, 1): 4, (1, 2): 3, (0, 2): 1})
    assert verify_feasible(thin, caps, 4).ok
    # A back edge pads node 1's in-multiplicity to 4, but the cut around the
    # peercaster still only carries 3 disjoint paths.
    starved = topo(3, {(0, 1): 3, (2, 1): 1, (1, 2): 4})
    report = verify_feasible(starved, caps, 4)
    assert not report.ok and report.requirement == 3


def test_verify_checks_requirements_in_order():
    # Violates both 1 and 3; the report must cite requirement 1.
    t = topo(3, {(1, 2): 3, (2, 1): 4})
    report = verify_feasible(t, CapacityProfile(np.array([16, 4, 4])), 4)
    assert report.requirement == 1


@pytest.mark.parametrize("m", [0, -3])
def test_verify_rejects_m_below_1(m):
    # No requirement can hold or fail under M < 1: it is bad input, not a report.
    t = topo(2, {(0, 1): 4})
    with pytest.raises(ValueError, match=f"^M must be at least 1, got {m}$"):
        verify_feasible(t, CapacityProfile(np.array([16, 4])), m)


def random_multigraph(rng, n, m):
    """Every peer draws exactly m units from uploaders anywhere in the graph,
    itself included (a self-loop), so cycles are common; some graphs also get
    edges into the peercaster. Half of the graphs draw only from lower ids or
    the peercaster, which keeps feasible inputs frequent."""
    acyclic_bias = rng.random() < 0.5
    edges: dict[tuple[int, int], int] = {}
    for v in range(1, n):
        for _ in range(m):
            if acyclic_bias and rng.random() < 0.85:
                u = int(rng.integers(0, v))
            else:
                u = int(rng.integers(0, n))
            edges[(u, v)] = edges.get((u, v), 0) + 1
    if rng.random() < 0.3:
        u = int(rng.integers(1, n))
        edges[(u, 0)] = int(rng.integers(1, m + 1))
    return topo(n, edges)


def scan_report(t, m):
    """Requirement 3 as an exhaustive per-peer max-flow scan in id order."""
    for i in range(1, t.n_nodes):
        flow = max_flow(t, i)
        if flow < m:
            return (
                False, 3,
                f"requirement 3 violated: only {flow} edge-disjoint peercaster paths "
                f"reach node {i}, expected {m}",
            )
    return (True, None, "feasible")


def cycle_nodes(t):
    """Peers that can reach themselves without passing through node 0."""
    out: dict[int, set[int]] = {}
    for (u, v), c in t.edges.items():
        if c and u and v:
            out.setdefault(u, set()).add(v)
    on_cycle = set()
    for s in range(1, t.n_nodes):
        seen, stack = set(), list(out.get(s, ()))
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(out.get(v, ()))
        if s in seen:
            on_cycle.add(s)
    return sorted(on_cycle)


def test_verify_matches_min_cut_enumeration_on_random_multigraphs(flow_sinks):
    rng = np.random.default_rng(2013)
    seen = {"feasible": 0, "infeasible": 0, "cyclic_feasible": 0}
    for _ in range(1500):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 6))
        t = random_multigraph(rng, n, m)
        caps = CapacityProfile(np.full(n, n * m, dtype=np.int64))
        flow_sinks.clear()
        report = verify_feasible(t, caps, m)
        sinks = set(flow_sinks)
        assert report.ok == all(brute_min_cut(t, v) >= m for v in range(1, n))
        assert (report.ok, report.requirement, report.message) == scan_report(t, m)
        if report.ok:
            seen["feasible"] += 1
            on_cycle = cycle_nodes(t)
            seen["cyclic_feasible"] += bool(on_cycle)
            # The sinks are cycle peers whose connections hold every cycle,
            # self-loops included; edges into the peercaster close none.
            assert sinks <= set(on_cycle)
            rest = {e: c for e, c in t.edges.items() if not set(e) & sinks}
            assert cycle_nodes(topo(n, rest)) == []
        else:
            seen["infeasible"] += 1
    assert min(seen.values()) >= 100, seen


def moved_units(t, rng, k):
    """``t`` with k connection units (j, x) moved to (y, x) for one random
    peer x, each y drawn from the nodes x reaches, x itself included, so
    every move closes a cycle and in-multiplicities stay exact."""
    edges = dict(t.edges)
    x = int(rng.integers(1, t.n_nodes))
    for _ in range(k):
        out: dict[int, list[int]] = {}
        for (u, v) in edges:
            out.setdefault(u, []).append(v)
        below, stack = {x}, [x]
        while stack:
            for v in out.get(stack.pop(), ()):
                if v not in below:
                    below.add(v)
                    stack.append(v)
        units = [j for (j, i), c in sorted(edges.items()) if i == x for _ in range(c)]
        j = units[int(rng.integers(len(units)))]
        y = sorted(below)[int(rng.integers(len(below)))]
        edges[(j, x)] -= 1
        if not edges[(j, x)]:
            del edges[(j, x)]
        edges[(y, x)] = edges.get((y, x), 0) + 1
    return topo(t.n_nodes, edges)


def test_verify_matches_scan_on_rewired_built_topologies():
    # Built topologies at the sizes, codes and M users run, with 1-5 units
    # moved: the report must match the exhaustive per-peer scan exactly.
    seen = {"infeasible": 0, "cyclic_feasible": 0}
    for n in (60, 200):
        for code in ("GR", "FCS", "FDN", "GDD"):
            for m in (2, 4, 6):
                space = generate(DistributionSpec.preset("flat", n, m))
                caps = CapacityProfile.sample(n, make_rng(m, "capacities"))
                t = build(space, caps, PolicySpec.from_code(code), m, seed=m)
                rng = np.random.default_rng([n, m, ALL_POLICY_CODES.index(code)])
                # Capacity to spare, so only requirement 3 can fail.
                loose = CapacityProfile(np.full(n, n * m, dtype=np.int64))
                for _ in range(3):
                    rewired = moved_units(t, rng, int(rng.integers(1, 6)))
                    report = verify_feasible(rewired, loose, m)
                    assert (report.ok, report.requirement, report.message) == scan_report(rewired, m)
                    if not report.ok:
                        seen["infeasible"] += 1
                    elif cycle_nodes(rewired):
                        seen["cyclic_feasible"] += 1
    assert min(seen.values()) >= 10, seen


@pytest.fixture
def flow_sinks(monkeypatch):
    """Sinks of every maximum_flow call verify_feasible makes."""
    sinks: list[int] = []
    original = p2pcast.metrics.maximum_flow

    def counting(graph, source, sink, **kwargs):
        sinks.append(int(sink))
        return original(graph, source, sink, **kwargs)

    monkeypatch.setattr(p2pcast.metrics, "maximum_flow", counting)
    return sinks


def test_verify_built_topology_runs_no_max_flow(flow_sinks):
    res = random_feasible(4, 200)
    assert res is not None
    _, caps, t = res
    assert verify_feasible(t, caps, 4).ok
    assert flow_sinks == []


def test_verify_cyclic_input_runs_max_flow_only_on_cycle_nodes(flow_sinks):
    # Peers 2 and 3 feed each other; peer 1 and peer 4 are off the cycle.
    # The search from 2 meets the back edge 3 -> 2, so only 2 needs a flow.
    hand = topo(5, {(0, 1): 4, (0, 2): 3, (3, 2): 1, (0, 3): 2, (1, 3): 1, (2, 3): 1,
                    (1, 4): 2, (3, 4): 2})
    caps = CapacityProfile(np.full(5, 16))
    assert verify_feasible(hand, caps, 4).ok
    assert flow_sinks == [2]

    # A built topology with one unit of peer x moved onto x's child y: y -> x
    # closes a cycle, and the rewired input stays feasible. The sinks are
    # cycle peers whose removal breaks every cycle.
    res = random_feasible(6, 60)
    assert res is not None
    _, caps, t = res
    out_mult = t.out_multiplicity()
    checked = 0
    for (x, y) in sorted(t.edges):
        if x == 0 or (y, x) in t.edges or out_mult[y] >= caps.u[y]:
            continue
        edges = dict(t.edges)
        p = min(j for (j, i) in t.edges if i == x)
        edges[(p, x)] -= 1
        if not edges[(p, x)]:
            del edges[(p, x)]
        edges[(y, x)] = 1
        rewired = topo(t.n_nodes, edges)
        if scan_report(rewired, 4)[0]:
            flow_sinks.clear()
            assert verify_feasible(rewired, caps, 4).ok
            on_cycle = cycle_nodes(rewired)
            assert on_cycle and set(flow_sinks) <= set(on_cycle)
            rest = {e: c for e, c in edges.items() if not set(e) & set(flow_sinks)}
            assert cycle_nodes(topo(t.n_nodes, rest)) == []
            assert len(flow_sinks) <= len(on_cycle)
            checked += 1
        if checked == 3:
            break
    assert checked == 3


@pytest.mark.parametrize("m", [1, 2, 4, 6])
def test_compute_metrics_runs_m_dijkstras(monkeypatch, m):
    # One full-graph Dijkstra serves the minimum delay, the path table and
    # the tree delay's first tree; m - 1 more follow the tree removals.
    space = generate(DistributionSpec.preset("flat", 60, 5))
    caps = CapacityProfile.sample(60, make_rng(5, "capacities"))
    t = build(space, caps, PolicySpec.from_code("GDS"), m, seed=5)
    runs = []
    original = p2pcast.metrics.dijkstra

    def counting(*args, **kwargs):
        runs.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(p2pcast.metrics, "dijkstra", counting)
    report = compute_metrics(t, space, m)
    assert len(runs) == m
    assert report.min_delay.tobytes() == shortest_paths(t, space)[0].tobytes()
    assert report.tree_delay.tobytes() == tree_delay(t, space, m)[0].tobytes()


def test_metrics_are_deterministic():
    res = random_feasible(21, 60, "GDS")
    assert res is not None
    space, _, t = res
    a = compute_metrics(t, space, 4)
    b = compute_metrics(t, space, 4)
    assert np.array_equal(a.min_delay, b.min_delay)
    assert np.array_equal(a.tree_delay, b.tree_delay)
    assert np.array_equal(a.node_vuln, b.node_vuln)
    assert np.array_equal(a.sys_vuln, b.sys_vuln)
    assert a.max_sys_vuln == b.max_sys_vuln
