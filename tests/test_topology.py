"""Construction policies: hand-traced admissions, invariants, determinism."""

import pickle
import re
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2pcast import (
    ALL_POLICY_CODES,
    AdmissionStuck,
    BuildState,
    CapacityExhausted,
    CapacityProfile,
    DelaySpace,
    DistributionSpec,
    PolicySpec,
    Topology,
    build,
    generate,
    make_rng,
    read_topology_csv,
    shortest_paths,
    verify_feasible,
)
from p2pcast import topology
from p2pcast.delay_space import KINDS
from p2pcast.topology import CLOSEST, DIVERSE, FIXED, GROWING, LEAST_DELAY, NONE, RANDOM, SMALL_WORLD

from bruteforce import (
    ReferenceBuildState,
    TierReferenceBuildState,
    brute_diameter,
    reference_build,
    reference_read_topology_csv,
    reference_to_csv,
)
from test_metrics import moved_units


def line_space(*xs):
    """Nodes on a line, given by x coordinates."""
    return DelaySpace(np.array([[x, 0.0] for x in xs]))


def admission_order(state):
    """Admit every remaining peer; the connected ids in admission order."""
    order = [0]
    while not state.done():
        order.append(state.admit_next())
    return order


# ---------------------------------------------------------------- policies


def test_all_14_policy_codes_round_trip():
    assert len(ALL_POLICY_CODES) == 14
    for code in ALL_POLICY_CODES:
        assert PolicySpec.from_code(code).code == code
    assert PolicySpec.from_code("fcs") == PolicySpec(FIXED, CLOSEST, SMALL_WORLD)
    assert PolicySpec.from_code("GR") == PolicySpec(GROWING, RANDOM, NONE)


def test_invalid_policy_codes_rejected():
    for bad in ("FRS", "XCD", "F", "GDX", "", "FRR"):
        with pytest.raises(ValueError):
            PolicySpec.from_code(bad)
    with pytest.raises(ValueError):
        PolicySpec(FIXED, RANDOM, DIVERSE)  # random admits one diversity mode


def test_capacity_profile_sampling():
    caps = CapacityProfile.sample(200, make_rng(1, "capacities"))
    assert caps.u[0] == 16
    assert set(np.unique(caps.u)) <= {1, 5, 10, 16}
    assert caps.n_nodes == 200
    with pytest.raises(ValueError):
        CapacityProfile(np.array([[1, 2], [3, 4]]))
    with pytest.raises(ValueError):
        CapacityProfile(np.array([4, -1]))


# ---------------------------------------------------- admission procedure


def test_single_peer_takes_all_connections_from_peercaster():
    space = line_space(0.0, 0.1)
    caps = CapacityProfile(np.array([16, 5]))
    for code in ALL_POLICY_CODES:
        topo = build(space, caps, PolicySpec.from_code(code), 4, seed=3)
        assert topo.edges == {(0, 1): 4}
        assert topo.residual_u[0] == 12


def test_spare_capacity_trace_until_stuck():
    # u = [16, 1, 1, 1, 1, 1]: F walks 12 -> 9 -> 6 -> 3 -> 0, then peer 5
    # fails the guard (1 + 0 < 4) and the build reports it.
    space = line_space(0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    caps = CapacityProfile(np.array([16, 1, 1, 1, 1, 1]))
    state = BuildState(space, caps, PolicySpec.from_code("GCN"), 4, seed=0)
    expected_f = [12, 9, 6, 3, 0]
    assert state.F == expected_f[0]
    order = []
    for step in range(4):
        order.append(state.admit_next())
        assert state.F == expected_f[step + 1]
    with pytest.raises(AdmissionStuck) as exc:
        state.admit_next()
    assert exc.value.stuck == (5,)
    assert order == [1, 2, 3, 4] and state.n_connected == 5


def test_guard_boundary_is_inclusive():
    # u_i + F == M admits: u = [4, 4] gives F = 0 and peer 1 has 4 + 0 >= 4.
    topo = build(line_space(0.0, 0.1), CapacityProfile(np.array([4, 4])), PolicySpec.from_code("GR"), 4, seed=0)
    assert topo.edges == {(0, 1): 4}
    with pytest.raises(AdmissionStuck):
        build(line_space(0.0, 0.1), CapacityProfile(np.array([4, 3])), PolicySpec.from_code("GR"), 4, seed=0)


def test_growing_defers_guard_failures_and_retries():
    # F starts at 0, so peer 1 (u=1) must wait for peer 2 (u=16) to lift F.
    space = line_space(0.0, 0.1, 0.2, 0.3)
    caps = CapacityProfile(np.array([4, 1, 16, 5]))
    state = BuildState(space, caps, PolicySpec.from_code("GCN"), 4, seed=0)
    assert admission_order(state) == [0, 2, 1, 3]
    assert state.F == (4 - 4) + (16 - 4) + (1 - 4) + (5 - 4)


def test_spare_capacity_invariant_random_instances():
    for seed in range(8):
        n = 30
        space = generate(DistributionSpec.preset("flat", n, seed))
        caps = CapacityProfile.sample(n, make_rng(seed, "capacities"))
        state = BuildState(space, caps, PolicySpec.from_code("GDD"), 4, seed=seed)
        conn = [0]
        while not state.done():
            conn.append(state.admit_next())
            expected = int(caps.u[0]) - 4 + sum(int(caps.u[i]) - 4 for i in conn[1:])
            assert state.F == expected
            # Total residual capacity of the connected part is F + M.
            assert int(state.residual[conn].sum()) == state.F + 4


# ------------------------------------------------------- uploader choices


def admit_directly(state, peer):
    state.update_after_admission(peer, [0] * state.M)


def uploader_state(policy, caps=(2, 16)):
    """Peercaster exhausted; uploaders 1, 2, ... with capacities ``caps``
    at delays 0.1, 0.2, ... from the peer, the last node, about to join."""
    xs = [0.0] + [0.1 * k for k in range(1, len(caps) + 1)] + [0.0]
    space = DelaySpace(np.array([[x, 0.0] for x in xs]))
    state = BuildState(space, CapacityProfile(np.array([4 * len(caps), *caps, 5])), policy, 4, seed=11)
    for uploader in range(1, len(caps) + 1):
        admit_directly(state, uploader)
    assert state.residual[0] == 0  # the admissions drained the peercaster
    return state


def test_no_diversity_splits_only_on_exhaustion():
    # Closest uploader holds 2 units: the round repeats it twice, then moves on.
    state = uploader_state(PolicySpec(FIXED, CLOSEST, NONE))
    assert state.select_uploaders(3) == [1, 1, 2, 2]


def test_diversity_alternates_between_uploaders():
    state = uploader_state(PolicySpec(FIXED, CLOSEST, DIVERSE))
    assert state.select_uploaders(3) == [1, 2, 1, 2]
    # Uploader 1 runs out in the first pass, so the second skips it.
    state = uploader_state(PolicySpec(FIXED, CLOSEST, DIVERSE), (1, 16, 16))
    assert state.select_uploaders(4) == [1, 2, 3, 2]


def test_diversity_penalty_is_transient():
    # Pick counts reset between rounds: a second peer starts a fresh pass.
    state = uploader_state(PolicySpec(FIXED, CLOSEST, DIVERSE), (16, 16))
    assert state.select_uploaders(3) == [1, 2, 1, 2]
    assert state.select_uploaders(3) == [1, 2, 1, 2]  # same fresh alternation


def test_least_delay_score_includes_overlay_delay():
    # a: joined at 0.3 s, 0.15 from the peer; b: joined at 0.05 s, 0.2 away.
    # closest picks a, least-delay picks b (0.05 + 0.2 < 0.3 + 0.15).
    space = DelaySpace(np.array([[0.0, 0.0], [0.3, 0.0], [0.05, 0.0], [0.21, 0.12]]))
    caps = CapacityProfile(np.array([8, 16, 16, 5]))
    for score, first in ((CLOSEST, 1), (LEAST_DELAY, 2)):
        state = BuildState(space, caps, PolicySpec(FIXED, score, NONE), 4, seed=2)
        admit_directly(state, 1)
        admit_directly(state, 2)
        assert state.select_uploaders(3)[0] == first


def test_small_world_diverse_prefix_random_tail():
    state = uploader_state(PolicySpec(FIXED, CLOSEST, SMALL_WORLD), (16, 16))
    chosen = state.select_uploaders(3)
    assert chosen[:3] == [1, 2, 1]  # diverse prefix
    assert chosen[3] in (1, 2)  # final pick is uniform among eligible
    # With the closer uploader out of capacity for the tail, the tail is forced.
    forced = uploader_state(PolicySpec(FIXED, CLOSEST, SMALL_WORLD), (2, 16))
    assert forced.select_uploaders(3) == [1, 2, 1, 2]


def test_uploader_ties_break_toward_lowest_node_id():
    # Peers 1 and 2 sit symmetrically around peer 3: equal delay, equal scores.
    space = DelaySpace(np.array([[0.0, 0.0], [-0.1, 0.1], [0.1, 0.1], [0.0, 0.1]]))
    caps = CapacityProfile(np.array([8, 16, 16, 5]))
    state = BuildState(space, caps, PolicySpec(FIXED, CLOSEST, NONE), 4, seed=5)
    admit_directly(state, 1)
    admit_directly(state, 2)
    assert state.select_uploaders(3) == [1, 1, 1, 1]


def test_capacity_exhausted_is_detected():
    space = line_space(0.0, 0.1, 0.2)
    caps = CapacityProfile(np.array([4, 4, 4]))
    state = BuildState(space, caps, PolicySpec.from_code("GCN"), 4, seed=0)
    state.admit_next()
    state.residual[:] = 0  # sabotage: the guard would normally prevent this
    with pytest.raises(CapacityExhausted):
        state.select_uploaders(2)


def build_snapshot(state):
    """Everything an admission may change."""
    return (
        list(state.edges.items()), state.residual.tobytes(), state.d.tobytes(), state.F,
        state.open_ids.tolist(), state.n_connected, state.unadmitted_mask.tobytes(),
    )


def test_refused_update_changes_nothing():
    # Uploader 1 has 2 units left and uploader 2 has 16; peer 3 is unadmitted.
    state = uploader_state(PolicySpec(FIXED, CLOSEST, NONE))
    before = build_snapshot(state)
    with pytest.raises(CapacityExhausted):
        state.update_after_admission(3, [2, 1, 1, 1])
    with pytest.raises(ValueError, match="already connected"):
        state.update_after_admission(1, [2, 2, 2, 2])
    assert build_snapshot(state) == before
    # An unconnected uploader, listed after one with capacity to spare.
    state = BuildState(line_space(0.0, 0.1, 0.2), CapacityProfile(np.array([16, 4, 4])), PolicySpec.from_code("GR"))
    before = build_snapshot(state)
    with pytest.raises(ValueError, match="uploader 2 is not connected"):
        state.update_after_admission(1, [0, 0, 2, 2])
    assert build_snapshot(state) == before
    state.update_after_admission(1, [0, 0, 0, 0])  # the state is still usable
    assert state.edges == {(0, 1): 4} and state.residual.tolist() == [12, 4, 4]


def test_update_takes_the_overlay_delay_through_the_uploaders_it_is_given():
    # Via uploader 1 the peer is 0.2 s from the peercaster, via uploader 2 0.4 s.
    state = uploader_state(PolicySpec(FIXED, CLOSEST, NONE))
    assert state.select_uploaders(3) == [1, 1, 2, 2]
    picked = state.d[1] + state.space.delay(1, 3)
    state.update_after_admission(3, [2, 2, 2, 2])  # not the uploaders just picked
    assert state.d[3] == state.d[2] + state.space.delay(2, 3) > picked
    state = uploader_state(PolicySpec(FIXED, CLOSEST, NONE))
    state.update_after_admission(3, state.select_uploaders(3))
    assert state.d[3] == picked


def delay_query_sites(monkeypatch):
    """Counts of ``DelaySpace.delays_from`` calls by the builder method that
    makes them; a scan's (``_scan``) and a random pick's (``_via``) are
    keyed together with the method that called those."""
    sites = Counter()
    delays_from = DelaySpace.delays_from

    def counting(self, *args):
        caller = sys._getframe(1).f_code.co_name
        if caller in ("_scan", "_via"):
            caller = (caller, sys._getframe(2).f_code.co_name)
        sites[caller] += 1
        return delays_from(self, *args)

    monkeypatch.setattr(DelaySpace, "delays_from", counting)
    return sites


@pytest.mark.parametrize("code", ALL_POLICY_CODES)
def test_an_admission_queries_delays_only_in_its_scan(monkeypatch, code):
    # A scored admission takes the peer's overlay delay from the exact scores
    # of its uploader scan. Only random picks query theirs: the closest
    # small-world tail in the pick (under least-delay the scan's lowest score
    # bounds the tail), FR and GR in the update.
    n = 200
    space = generate(DistributionSpec.preset("flat", n, 0))
    caps = CapacityProfile.sample(n, make_rng(0, "capacities"))
    policy = PolicySpec.from_code(code)
    sites = delay_query_sites(monkeypatch)
    state = BuildState(space, caps, policy, 4, seed=0)
    while not state.done():
        state.admit_next()
    scored = policy.score != RANDOM
    tail = policy.score == CLOSEST and policy.diversity == SMALL_WORLD
    admissions = {
        ("_scan", "select_uploaders"): (n - 1) * scored,
        ("_via", "select_uploaders"): (n - 1) * tail,
        ("_via", "update_after_admission"): (n - 1) * (not scored),
    }
    assert {site: sites[site] for site in admissions} == admissions
    # The rest is the fixed policies' cache upkeep: the first scores, the
    # rescores and the closest refresh.
    upkeep = {"__init__", ("_scan", "_rescore"), "_refresh_fixed_cache"}
    assert set(sites) - upkeep <= set(admissions)
    assert bool(set(sites) & upkeep) == (policy.ordering == FIXED and scored)


@pytest.mark.parametrize("kind", KINDS)
def test_open_list_is_the_open_connected_ids_in_admission_order(kind):
    # Above the cutoff, so the scans that read the list also prune; a peer
    # with u_i = 0 is connected but never open.
    n = topology._PRUNE_MIN + 88
    space = generate(DistributionSpec.preset(kind, n, 5))
    caps = CapacityProfile.sample(n, make_rng(5, "capacities"), (0, 1, 5, 16))
    assert (caps.u == 0).sum() > 100
    for code in ALL_POLICY_CODES:
        state = BuildState(space, caps, PolicySpec.from_code(code), 4, seed=5)
        conn = [0]
        while not state.done():
            conn.append(state.admit_next())
            ids = np.array(conn)
            assert np.array_equal(state.open_ids, ids[state.residual[ids] > 0]), code


# ------------------------------------------------------------ peer choice


def test_fixed_closest_admits_nearest_chains():
    # Distances from 0: node 2 at 0.1, node 3 at 0.2, node 1 at 0.3. The
    # nearest-first admissions then chain: 3 hangs off 2, 1 hangs off 3.
    space = line_space(0.0, 0.3, 0.1, 0.2)
    caps = CapacityProfile(np.array([16, 16, 16, 16]))
    topo = build(space, caps, PolicySpec.from_code("FCN"), 4, seed=1)
    assert topo.edges == {(0, 2): 4, (2, 3): 4, (3, 1): 4}


def test_fixed_least_delay_breaks_ties_toward_peercaster():
    # Same geometry under least-delay scoring: going through an intermediate
    # node never beats the direct line (equality on a line), and equal scores
    # resolve to the lowest uploader id — the peercaster. A pure star results.
    space = line_space(0.0, 0.3, 0.1, 0.2)
    caps = CapacityProfile(np.array([16, 16, 16, 16]))
    topo = build(space, caps, PolicySpec.from_code("FDN"), 4, seed=1)
    assert topo.edges == {(0, 1): 4, (0, 2): 4, (0, 3): 4}


def test_growing_ignores_distance_for_admission_order():
    space = line_space(0.0, 0.3, 0.1, 0.2)
    caps = CapacityProfile(np.array([16, 16, 16, 16]))
    state = BuildState(space, caps, PolicySpec.from_code("GCN"), 4, seed=1)
    assert admission_order(state) == [0, 1, 2, 3]


# ----------------------------------------------------------- equivalences


def test_fixed_random_equals_growing_random_exactly():
    for seed in (0, 1, 2, 3, 4):
        for kind in ("flat", "tight", "loose"):
            space = generate(DistributionSpec.preset(kind, 40, seed))
            caps = CapacityProfile.sample(40, make_rng(seed, "capacities"))
            fr = build(space, caps, PolicySpec.from_code("FR"), 4, seed=seed)
            gr = build(space, caps, PolicySpec.from_code("GR"), 4, seed=seed)
            assert fr.edges == gr.edges
            assert np.array_equal(fr.residual_u, gr.residual_u)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(["GDD", "FDS", "FCS", "GR"]))
def test_overlay_delay_matches_dijkstra(seed, code):
    # d is maintained incrementally during the build; it must equal a from-
    # scratch shortest-path computation on the finished topology, exactly.
    n = 40
    space = generate(DistributionSpec.preset("flat", n, seed))
    caps = CapacityProfile.sample(n, make_rng(seed, "capacities"))
    state = BuildState(space, caps, PolicySpec.from_code(code), 4, seed=seed)
    try:
        while not state.done():
            state.admit_next()
    except AdmissionStuck:
        return  # rare capacity draw; nothing to compare
    dist, _ = shortest_paths(state.topology(), space)
    assert np.array_equal(dist, state.d)


@pytest.mark.parametrize("kind", KINDS)
def test_builder_delay_equals_shortest_path_delay_above_the_cutoff(kind):
    # A built topology is a DAG in admission order, and both layers sum the
    # same np.hypot operands in the same order, so d is the Dijkstra distance
    # bit for bit, also where the builder's scans are pruned.
    n = 700
    assert n > topology._PRUNE_MIN
    space = generate(DistributionSpec.preset(kind, n, 0))
    caps = CapacityProfile.sample(n, make_rng(0, "capacities"))
    for code in ALL_POLICY_CODES:
        state = BuildState(space, caps, PolicySpec.from_code(code), 4, seed=0)
        while not state.done():
            state.admit_next()
        dist, _ = shortest_paths(state.topology(), space)
        assert dist.tobytes() == state.d.tobytes(), code


def test_build_is_deterministic_per_seed():
    space = generate(DistributionSpec.preset("loose", 60, 9))
    caps = CapacityProfile.sample(60, make_rng(9, "capacities"))
    for code in ALL_POLICY_CODES:
        p = PolicySpec.from_code(code)
        t1 = build(space, caps, p, 4, seed=77)
        t2 = build(space, caps, p, 4, seed=77)
        assert t1.edges == t2.edges
    # and the random policies genuinely depend on the seed
    r1 = build(space, caps, PolicySpec.from_code("GR"), 4, seed=77)
    r2 = build(space, caps, PolicySpec.from_code("GR"), 4, seed=78)
    assert r1.edges != r2.edges


def test_all_policies_produce_feasible_topologies():
    space = generate(DistributionSpec.preset("tight", 30, 4))
    caps = CapacityProfile.sample(30, make_rng(4, "capacities"))
    for code in ALL_POLICY_CODES:
        topo = build(space, caps, PolicySpec.from_code(code), 4, seed=4)
        report = verify_feasible(topo, caps, 4)
        assert report.ok, f"{code}: {report.message}"
        assert topo.in_multiplicity()[1:].tolist() == [4] * 29
        assert (topo.out_multiplicity() <= caps.u).all()


# ------------------------------------------- differential: reference builder

#: (M, capacity choices, u0): the default, and the edges users can set.
BUILD_PARAMS = ((4, (1, 5, 10, 16), 16), (1, (0, 1, 2), 1), (6, (0, 1, 5, 16), 6), (2, (2,), 2))


def build_outcome(state_cls, space, caps, code, m, seed):
    """Everything a build decides, compared bit for bit: the edge dict in
    insertion order, d and the residuals, or the stuck set and F."""
    state = state_cls(space, caps, PolicySpec.from_code(code), m, seed)
    try:
        while not state.done():
            state.admit_next()
    except AdmissionStuck as exc:
        return ("stuck", exc.stuck, exc.F)
    return ("built", list(state.edges.items()), state.d.tobytes(), state.residual.tobytes())


def assert_builds_match_reference(space, params, seed, reference=ReferenceBuildState):
    n = space.n_nodes
    for m, choices, u0 in params:
        caps = CapacityProfile.sample(n, make_rng(seed, "capacities", m), choices, u0)
        for code in ALL_POLICY_CODES:
            got = build_outcome(BuildState, space, caps, code, m, seed)
            want = build_outcome(reference, space, caps, code, m, seed)
            assert got == want, f"{code}, n={n}, M={m}, capacities={choices}, u0={u0}"


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [10, 37, 200, 600])
def test_build_matches_reference_builder(kind, n):
    # At n=600 each kind runs the default parameters and one other set, so
    # every size meets every parameter set without the full product's cost.
    params = BUILD_PARAMS if n < 600 else (BUILD_PARAMS[0], BUILD_PARAMS[1 + KINDS.index(kind)])
    assert_builds_match_reference(generate(DistributionSpec.preset(kind, n, n)), params, seed=n)


_rng = np.random.default_rng(2024)
_t = _rng.permutation(np.arange(-20, 21))
#: Coordinates with exact ties and one-ulp triangle-inequality failures.
DEGENERATE_COORDS = {
    "coincident": np.tile([0.1, -0.2], (30, 1)),
    "collinear-x": np.c_[_t * 0.1, np.zeros(len(_t))],
    "collinear-slanted": np.c_[0.3 * _t / 7 + 0.05, 0.1 * _t / 7 - 0.2],
    "lattice": _rng.integers(-3, 4, size=(50, 2)) * 0.1,
    "few-sites": _rng.uniform(-0.25, 0.25, size=(3, 2))[_rng.integers(0, 3, size=40)],
}
_u = _rng.uniform(-1, 1, size=(60, 2))
#: Scales where the proxy scores misbehave: every square underflows to 0,
#: squares land among the subnormals, and squares overflow (exact path only).
DEGENERATE_COORDS.update(
    {"tiny": _u * 1e-300, "subnormal-squares": _u * 1e-160, "huge": _u * 1e300}
)


@pytest.mark.parametrize("name", DEGENERATE_COORDS)
def test_build_matches_reference_builder_on_degenerate_coordinates(name):
    # The tier oracle: on these coordinates the penalty rounds (see the
    # test below), so the exact (picks, score, id) key is the expectation.
    space = DelaySpace(DEGENERATE_COORDS[name])
    for seed in (0, 1):
        assert_builds_match_reference(space, BUILD_PARAMS, seed, TierReferenceBuildState)
    caps = CapacityProfile.sample(space.n_nodes, make_rng(0, "capacities"))
    for code in ALL_POLICY_CODES:
        try:
            want = reference_build(
                space, caps, PolicySpec.from_code(code), 4, seed=0, state_cls=TierReferenceBuildState
            )
        except AdmissionStuck:
            continue
        got = build(space, caps, PolicySpec.from_code(code), 4, seed=0)
        assert got.edges == want.edges and np.array_equal(got.residual_u, want.residual_u)


@pytest.mark.parametrize("name", ["collinear-x", "collinear-slanted"])
def test_rival_rescores_change_scores_on_collinear_coordinates(monkeypatch, name):
    # A least-delay cache skips the refresh on admission. On these
    # coordinates rival rescores change cached scores, and the builds need
    # them: with _rescore_rivals returning False, the test above fails here.
    changed = []
    rescore_rivals = BuildState._rescore_rivals

    def counting(self, *args):
        changed.append(rescore_rivals(self, *args))
        return changed[-1]

    monkeypatch.setattr(BuildState, "_rescore_rivals", counting)
    test_build_matches_reference_builder_on_degenerate_coordinates(name)
    assert sum(changed) > 0


def test_tier_key_parts_from_the_penalty_only_where_the_penalty_degenerates():
    # The exact (picks, score, id) key and the penalty base + picks * L
    # agree wherever base + L keeps distinct bases apart. They part on
    # coincident nodes, where L = 0 turns "diverse" into "none", and in one
    # build on collinear-x: GDD, seed 0, peer 4 picks [3, 0, 1, 0] by the penalty and
    # [3, 0, 1, 3] by the key, as bases 1.3 and 1.2999999999999998 both
    # round to 165.3 with L = 164.
    differ = set()
    for name, coords in DEGENERATE_COORDS.items():
        space = DelaySpace(coords)
        for seed in (0, 1):
            for m, choices, u0 in BUILD_PARAMS:
                caps = CapacityProfile.sample(space.n_nodes, make_rng(seed, "capacities", m), choices, u0)
                for code in ALL_POLICY_CODES:
                    tier = build_outcome(TierReferenceBuildState, space, caps, code, m, seed)
                    if tier != build_outcome(ReferenceBuildState, space, caps, code, m, seed):
                        differ.add((name, seed, m, code))
    spreading = [code for code in ALL_POLICY_CODES if code[-1] in "DS"]
    coincident = {("coincident", seed, 4, code) for seed in (0, 1) for code in spreading}
    assert differ == coincident | {("collinear-x", 0, 4, "GDD")}


@pytest.mark.parametrize("code", ["FCD", "FDD", "GCD", "GDD"])
def test_diverse_spreads_picks_over_coincident_uploaders(code):
    # Every score ties at 0, so only the pick count sets uploaders apart:
    # the k-th admitted peer has k open uploaders and takes min(k, M) of them.
    space = DelaySpace(np.tile([0.1, -0.2], (12, 1)))
    state = BuildState(space, CapacityProfile(np.full(12, 16)), PolicySpec.from_code(code), 4)
    spread = []
    while not state.done():
        peer = state.admit_next()
        spread.append(sum(down == peer for _, down in state.edges))
    assert spread == [min(k, 4) for k in range(1, 12)]


@pytest.mark.parametrize("code", ["FDD", "FDN", "FDS"])
def test_rival_rescores_are_one_per_coordinate_site(monkeypatch, code):
    # On coincident nodes every unadmitted peer ties the lowest score, so
    # each admission has all of them as rivals; they share one site and so
    # one rescore, which keeps the build's rescores linear in n.
    n = 1000
    calls = []
    rescore = BuildState._rescore
    monkeypatch.setattr(BuildState, "_rescore", lambda self, i: calls.append(i) or rescore(self, i))
    space = DelaySpace(np.tile([0.1, -0.2], (n, 1)))
    caps = CapacityProfile.sample(n, make_rng(0, "capacities"))
    state = BuildState(space, caps, PolicySpec.from_code(code), 4)
    assert len(admission_order(state)) == n
    assert len(calls) <= 2 * n


def test_diverse_penalty_rounding_matches_reference():
    # Peer 2 sits a rounding step off the midpoint of nodes 0 and 1. With
    # M=6 it picks each of them twice, then its fifth pick compares b + 2L
    # for both: distinct values that (b + L) + L would round into a tie.
    space = line_space(0.0, 0.2, 0.1 + 6 * 2**-57)
    caps = CapacityProfile(np.array([16, 16, 16]))
    b, penalty = space.delays_from(2, np.array([0, 1])), 3 * brute_diameter(space.coords)
    assert b[0] + 2 * penalty != b[1] + 2 * penalty
    assert (b[0] + penalty) + penalty == (b[1] + penalty) + penalty
    for code in ALL_POLICY_CODES:
        got = build_outcome(BuildState, space, caps, code, 6, 0)
        assert got == build_outcome(ReferenceBuildState, space, caps, code, 6, 0), code


@pytest.mark.parametrize("scale", [1.0, 1e-155, 1e-160, 1e-300])
def test_proxy_and_exact_scores_lie_within_one_widening_of_each_other(scale):
    # The claim topology._widen proves, on random and lattice coordinates
    # whose squares are normal, subnormal, or underflow to 0.
    rng = np.random.default_rng(3)
    coords = np.r_[rng.uniform(-1, 1, size=(200, 2)), rng.integers(-3, 4, size=(200, 2)) * 0.1]
    space = DelaySpace(coords * scale)
    ids = np.arange(space.n_nodes)
    d = rng.uniform(0, 3, size=ids.size) * scale
    for i in range(0, space.n_nodes, 5):
        exact, proxy = space.delays_from(i, ids), space.proxy_delays_from(i, ids)
        for s, q in ((exact, proxy), (d + exact, d + proxy)):
            assert (s <= topology._widen(q)).all() and (q <= topology._widen(s)).all(), i


@pytest.fixture
def prune_every_scan(monkeypatch):
    """Rule entries out by proxy scores in scans of every length, so the
    reference-builder cases below also run the pruned path at sizes the real
    cutoff keeps exact."""
    monkeypatch.setattr(topology, "_PRUNE_MIN", 0)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [10, 37, 200, 600])
def test_pruned_build_matches_reference_builder(prune_every_scan, kind, n):
    test_build_matches_reference_builder(kind, n)


@pytest.mark.parametrize("name", DEGENERATE_COORDS)
def test_pruned_build_matches_reference_builder_on_degenerate_coordinates(prune_every_scan, name):
    test_build_matches_reference_builder_on_degenerate_coordinates(name)


def test_pruned_diverse_penalty_rounding_matches_reference(prune_every_scan):
    test_diverse_penalty_rounding_matches_reference()


def test_select_next_peer_takes_both_branches(monkeypatch):
    # With u0 = M the first admission has F = 0 < M, so only peers with
    # u_i >= M pass the guard and select_next_peer must mask the others; once
    # F >= M every unadmitted peer passes and it reads the cache directly.
    m, choices, u0 = 6, (0, 1, 5, 16), 6
    space = generate(DistributionSpec.preset("flat", 120, 4))
    caps = CapacityProfile.sample(120, make_rng(4, "capacities"), choices, u0)
    steps = []
    select = BuildState.select_next_peer

    def recording(self):
        blocked = self.unadmitted_mask & (self.u + self.F < self.M)
        steps.append((self.F < self.M, bool(blocked.any())))
        return select(self)

    monkeypatch.setattr(BuildState, "select_next_peer", recording)
    for code in ALL_POLICY_CODES:
        if PolicySpec.from_code(code).ordering != FIXED or code == "FR":
            continue
        steps.clear()
        got = build_outcome(BuildState, space, caps, code, m, 4)
        assert got[0] == "built", code
        assert got == build_outcome(ReferenceBuildState, space, caps, code, m, 4), code
        assert (True, True) in steps, f"{code}: the guard never limited the candidates"
        assert any(not limited for limited, _ in steps), f"{code}: F never reached M"


def test_pruned_select_next_peer_takes_both_branches(prune_every_scan, monkeypatch):
    test_select_next_peer_takes_both_branches(monkeypatch)


@pytest.mark.parametrize("code", ALL_POLICY_CODES)
def test_every_policy_raises_stuck_from_one_ready_set(code):
    # F walks 12 -> 9 -> 6 -> 3 -> 0, and then no peer with u_i = 1 passes
    # the guard: the error lists every unadmitted peer, in ascending order.
    space = generate(DistributionSpec.preset("flat", 12, 0))
    policy = PolicySpec.from_code(code)
    state = BuildState(space, CapacityProfile([16] + [1] * 11), policy, 4)
    with pytest.raises(AdmissionStuck) as exc:
        admission_order(state)
    assert exc.value.stuck == tuple(np.flatnonzero(state.unadmitted_mask))
    assert len(exc.value.stuck) == 7 and exc.value.F == state.F == 0
    # Once every peer is in, nobody is ready, even with F >= M.
    state = BuildState(space, CapacityProfile(np.full(12, 16)), policy, 4)
    admission_order(state)
    with pytest.raises(AdmissionStuck, match=r"unadmitted peers: \[\]") as exc:
        state.select_next_peer()
    assert exc.value.stuck == () and exc.value.F == state.F >= state.M


def test_admission_stuck_survives_pickling():
    # A build run in a process pool sends the exception back pickled.
    exc = AdmissionStuck((np.int64(1), 2), np.int64(0), 4)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is AdmissionStuck
    assert back.stuck == (1, 2) and back.F == 0 and back.M == 4
    assert str(back) == str(exc) == (
        "admission stuck with F=0: no remaining peer has u_i + F >= 4; unadmitted peers: [1, 2]"
    )


# ------------------------------------------------------------- plumbing


def test_topology_accessors_and_csv_round_trip(tmp_path):
    space = generate(DistributionSpec.preset("flat", 20, 6))
    caps = CapacityProfile.sample(20, make_rng(6, "capacities"))
    topo = build(space, caps, PolicySpec.from_code("GCS"), 4, seed=6)
    assert np.array_equal(topo.upload_capacity(), caps.u)

    edges_path = tmp_path / "topo.csv"
    caps_path = tmp_path / "caps.csv"
    topo.to_csv(edges_path, caps_path)
    lines = edges_path.read_text().splitlines()
    assert lines[0] == "uploader,downloader,multiplicity"
    pairs = [tuple(map(int, ln.split(",")[:2])) for ln in lines[1:]]
    assert pairs == sorted(pairs)
    assert caps_path.read_text().splitlines()[0] == "node,u,residual_u"

    loaded, loaded_caps = read_topology_csv(edges_path, caps_path)
    assert loaded.edges == topo.edges
    assert np.array_equal(loaded.residual_u, topo.residual_u)
    assert np.array_equal(loaded_caps.u, caps.u)


def test_edge_arrays_are_sorted_once_and_read_only():
    space = generate(DistributionSpec.preset("flat", 20, 6))
    caps = CapacityProfile.sample(20, make_rng(6, "capacities"))
    topo = build(space, caps, PolicySpec.from_code("GDD"), 4, 6)
    arrays = topo.edge_arrays()
    assert all(a is b for a, b in zip(arrays, topo.edge_arrays()))
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    assert sorted(topo.edges.items()) == [((j, i), c) for j, i, c in zip(*(a.tolist() for a in arrays))]


@pytest.mark.parametrize("bad", [0, -1])
def test_topology_rejects_non_positive_multiplicity(bad):
    with pytest.raises(ValueError, match=f"multiplicities must be positive, got {bad}"):
        Topology(3, {(0, 1): 4, (1, 2): bad}, np.zeros(3, dtype=np.int64))


@pytest.mark.parametrize(
    "edges, residual, message",
    [
        ({(0, 5): 4}, np.zeros(3), "edge (0, 5) has an end outside the nodes 0..2"),
        # The first offending edge in canonical order is named.
        ({(2, 7): 1, (0, 1): 3, (1, -1): 2}, np.zeros(3), "edge (1, -1) has an end outside the nodes 0..2"),
        ({(1, 2): 1, (-3, 1): 1}, np.zeros(3), "edge (-3, 1) has an end outside the nodes 0..2"),
        ({(0, 1): 4, (0, 2): 4}, np.zeros(5), "residual_u has shape (5,), expected (3,)"),
        ({(0, 1): 4, (0, 2): 4}, np.zeros((3, 1)), "residual_u has shape (3, 1), expected (3,)"),
        ({(0, 1): 4, (0, 2): 4}, 0, "residual_u has shape (), expected (3,)"),
    ],
)
def test_topology_rejects_edge_ends_and_residuals_outside_the_nodes(edges, residual, message):
    with pytest.raises(ValueError) as err:
        Topology(3, edges, residual)
    assert str(err.value) == message


def test_edges_is_a_read_only_view_of_a_private_copy():
    given = {(0, 1): 4}
    t = Topology(2, given, [12, 0])
    given[(0, 1)] = 1
    with pytest.raises(TypeError):
        t.edges[(0, 1)] = 7
    assert t.edges == {(0, 1): 4}
    assert t.edge_arrays()[2].tolist() == [4] and t.in_multiplicity().tolist() == [0, 4]
    # Either constructor's view is in canonical order, whatever order was given.
    given = {(1, 2): 1, (0, 2): 4, (0, 1): 3}
    assert list(Topology(3, given, np.zeros(3)).edges.items()) == sorted(given.items())
    assert list(Topology.from_arrays(3, [0, 0, 1], [1, 2, 2], [3, 4, 1], np.zeros(3)).edges.items()) == sorted(
        given.items())


def test_edges_run_in_one_canonical_order(tmp_path):
    # Built, rewired and array-built topologies list their edges sorted by
    # (uploader, downloader), as their CSV round trip reads them back.
    paths = tmp_path / "edges.csv", tmp_path / "caps.csv"
    for t in csv_cases():
        t.to_csv(*paths)
        read = read_topology_csv(*paths)[0]
        for got in (t, Topology.from_arrays(t.n_nodes, *t.edge_arrays(), t.residual_u), read):
            assert list(got.edges) == sorted(got.edges)
            assert list(got.edges.items()) == list(read.edges.items())


def test_topology_pickles_with_its_edges(tmp_path):
    for t in csv_cases():
        t.to_csv(tmp_path / "edges.csv", tmp_path / "caps.csv")
        for original in (t, read_topology_csv(tmp_path / "edges.csv", tmp_path / "caps.csv")[0]):
            copy = pickle.loads(pickle.dumps(original))
            assert list(copy.edges.items()) == list(original.edges.items())
            assert np.array_equal(copy.residual_u, original.residual_u)
            for a, b in zip(copy.edge_arrays(), original.edge_arrays()):
                assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "up, down, mult, residual, message",
    [
        ([0, 0], [2, 1], [1, 1], np.zeros(3), "edge (0, 1) follows edge (0, 2); edges must be distinct "
         "and sorted by (uploader, downloader)"),
        ([1, 0], [0, 2], [1, 1], np.zeros(3), "edge (0, 2) follows edge (1, 0); edges must be distinct "
         "and sorted by (uploader, downloader)"),
        ([0, 1, 1], [1, 2, 2], [1, 1, 1], np.zeros(3), "edge (1, 2) follows edge (1, 2); edges must be "
         "distinct and sorted by (uploader, downloader)"),
        ([0, 1], [1, 2], [4, 0], np.zeros(3), "edge multiplicities must be positive, got 0"),
        ([0, 1], [1, 2], [-2, 4], np.zeros(3), "edge multiplicities must be positive, got -2"),
        ([0, 1], [1, 3], [4, 4], np.zeros(3), "edge (1, 3) has an end outside the nodes 0..2"),
        ([-1, 0], [1, 2], [4, 4], np.zeros(3), "edge (-1, 1) has an end outside the nodes 0..2"),
        ([0, 1], [1, 2], [4, 4], np.zeros(2), "residual_u has shape (2,), expected (3,)"),
        ([0, 1], [1, 2], [4, 4], np.zeros((1, 3)), "residual_u has shape (1, 3), expected (3,)"),
        ([[0, 1]], [[1, 2]], [[4, 4]], np.zeros(3), "edge arrays must be 1-D, got shape (1, 2)"),
    ],
)
def test_from_arrays_rejects(up, down, mult, residual, message):
    with pytest.raises(ValueError) as err:
        Topology.from_arrays(3, up, down, mult, residual)
    assert str(err.value) == message


def test_from_arrays_of_the_edge_arrays_is_the_same_topology(tmp_path):
    paths = [tmp_path / name for name in ("edges.csv", "caps.csv", "from_edges.csv", "from_caps.csv")]
    for t in csv_cases():  # built and rewired GR, FCS, FDN and GDD topologies
        arrays = [a.copy() for a in t.edge_arrays()]
        residual = t.residual_u.copy()
        got = Topology.from_arrays(t.n_nodes, *arrays, residual)
        for a in (*arrays, residual):
            a[0] += 1  # from_arrays keeps copies
        assert got.edges == t.edges and list(got.edges) == sorted(t.edges)
        assert np.array_equal(got.residual_u, t.residual_u)
        for a, b in zip(got.edge_arrays(), t.edge_arrays()):
            assert np.array_equal(a, b)
        t.to_csv(*paths[:2])
        got.to_csv(*paths[2:])
        assert paths[0].read_bytes() == paths[2].read_bytes()
        assert paths[1].read_bytes() == paths[3].read_bytes()


def test_multiplicity_sums_are_exact():
    big = 2**53 + 1  # float64 rounds it to 2**53
    zeros = np.zeros(3, dtype=np.int64)
    t = Topology(3, {(0, 1): big, (0, 2): 1, (1, 2): 2}, zeros)
    assert t.in_multiplicity().tolist() == [0, big, 3]
    assert t.out_multiplicity().tolist() == [big + 1, 2, 0]
    # 2 * (2**63 - 1) + 6 wraps to 4 in int64: a node would seem to have M = 4.
    top = 2**63 - 1
    wrapped = Topology(4, {(0, 3): top, (1, 3): top, (2, 3): 6}, np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError, match="incoming connections of node 3 sum beyond the int64 range"):
        wrapped.in_multiplicity()
    assert wrapped.out_multiplicity().tolist() == [top, top, 6, 0]
    with pytest.raises(ValueError, match="outgoing connections of node 0 sum beyond the int64 range"):
        Topology(3, {(0, 1): top, (0, 2): top}, zeros).out_multiplicity()


@pytest.mark.parametrize("bad", [0, -1])
def test_read_topology_csv_rejects_non_positive_multiplicity(tmp_path, bad):
    edges_path = tmp_path / "topo.csv"
    caps_path = tmp_path / "caps.csv"
    edges_path.write_text(f"uploader,downloader,multiplicity\n0,1,5\n2,1,{bad}\n1,2,4\n")
    caps_path.write_text("node,u,residual_u\n0,16,11\n1,16,12\n2,16,16\n")
    with pytest.raises(ValueError) as exc:
        read_topology_csv(edges_path, caps_path)
    assert str(exc.value) == (
        f"non-positive multiplicity {bad} for edge (2, 1) in {edges_path}, line 3"
    )


def test_read_rows_parses_the_int64_extremes_exactly(tmp_path):
    path = tmp_path / "caps.csv"
    path.write_text("node,u,residual_u\n9223372036854775807,-9223372036854775808,0\n007,-0,-00\n"
                    "0000000000000000004,-0009223372036854775808,00009223372036854775807\n"
                    # Zero padding past the 4300 digits Python's int() takes.
                    + "0" * 5000 + "4,-" + "0" * 5000 + ",-" + "0" * 5000 + "9223372036854775808\n")
    table = topology._read_rows(path, "node,u,residual_u")
    assert table.dtype == np.int64
    assert table.tolist() == [[2**63 - 1, -(2**63), 0], [7, 0, 0], [4, -(2**63), 2**63 - 1], [4, 0, -(2**63)]]


@pytest.mark.parametrize(
    "edge_rows, caps_rows, bad, field, line",
    [
        ("0,1,4\n0,2,9223372036854775808\n", "0,16,12\n1,4,4\n2,4,4\n", "edges",
         "['0', '2', '9223372036854775808']", 3),
        ("0,1,4\n", "0,16,12\n1,4,4\n2,-9223372036854775809,0\n", "caps",
         "['2', '-9223372036854775809', '0']", 4),
        ("0,1,4\n", "0,16,12\n1,99999999999999999999,4\n2,4,4\n3,x,4\n", "caps",
         "['1', '99999999999999999999', '4']", 3),
    ],
)
def test_read_topology_csv_names_the_line_of_a_field_outside_int64(tmp_path, edge_rows, caps_rows, bad, field, line):
    paths = {"edges": tmp_path / "edges.csv", "caps": tmp_path / "caps.csv"}
    paths["edges"].write_text("uploader,downloader,multiplicity\n" + edge_rows)
    paths["caps"].write_text("node,u,residual_u\n" + caps_rows)
    with pytest.raises(ValueError) as err:
        read_topology_csv(paths["edges"], paths["caps"])
    assert str(err.value) == f"a field of {field} is outside the int64 range in {paths[bad]}, line {line}"


@pytest.mark.parametrize(
    "caps_row, reason",
    [
        ("1," + "9" * 24 + ",4", "a field of ['1', '" + "9" * 24 + "', '4'] is outside the int64 range"),
        ("1," + "9" * 25 + ",4", "a field of ['1', '99999999...99999999' (25 characters), '4'] is outside the int64 range"),
        ("1,4," + "x" * 24, "invalid literal for int() with base 10: '" + "x" * 24 + "'"),
        ("1,4,12345678x-x-x-x-x87654321",
         "invalid literal for int() with base 10: '12345678...87654321' (25 characters)"),
    ],
    ids=["24-digits", "25-digits", "24-letters", "25-letters"],
)
def test_read_topology_csv_shows_a_field_past_24_characters_by_its_ends(tmp_path, caps_row, reason):
    edges, caps = tmp_path / "edges.csv", tmp_path / "caps.csv"
    edges.write_text("uploader,downloader,multiplicity\n")
    caps.write_text(f"node,u,residual_u\n0,16,16\n{caps_row}\n")
    with pytest.raises(ValueError) as err:
        read_topology_csv(edges, caps)
    assert str(err.value) == f"{reason} in {caps}, line 3"


@pytest.mark.parametrize("cast", ["wrap", "saturate"])
def test_read_topology_csv_is_exact_where_loadtxt_casts_overflow_silently(tmp_path, monkeypatch, cast):
    # numpy 1.x loadtxt parses an int64 field that overflows as a float and
    # casts it with no error: to INT64_MIN on x86, saturating on ARM. A reader
    # that trusted it to raise would read such a field as a wrong value.
    calls = []

    def loadtxt(fname, dtype, delimiter, ndmin):
        calls.append(fname)
        lo, hi = -(2**63), 2**63 - 1
        over = (lambda v: lo) if cast == "wrap" else (lambda v: min(max(v, lo), hi))
        rows = [[v if lo <= v <= hi else over(v) for v in map(int, line.split(delimiter))]
                for line in fname.read().splitlines()]
        return np.array(rows, dtype=dtype, ndmin=ndmin)

    monkeypatch.setattr(topology.np, "loadtxt", loadtxt)
    edges, caps = tmp_path / "edges.csv", tmp_path / "caps.csv"
    edges.write_text("uploader,downloader,multiplicity\n0,1,4\n0,2,9223372036854775808\n")
    caps.write_text("node,u,residual_u\n1,0,0\n0,9223372036854775812,0\n2,0,0\n")
    with pytest.raises(ValueError) as err:
        read_topology_csv(edges, caps)
    assert str(err.value) == (
        f"a field of ['0', '9223372036854775812', '0'] is outside the int64 range in {caps}, line 3")
    caps.write_text("node,u,residual_u\n0,16,12\n1,4,4\n2,4,4\n")
    with pytest.raises(ValueError) as err:
        read_topology_csv(edges, caps)
    assert str(err.value) == (
        f"a field of ['0', '2', '9223372036854775808'] is outside the int64 range in {edges}, line 3")
    assert len(calls) == 1  # the short capacity file went to loadtxt
    caps.write_text("node,u,residual_u\n0,9223372036854775807,-9223372036854775808\n1,0000000000000000004,4\n")
    assert topology._read_rows(caps, "node,u,residual_u").tolist() == [[0, 2**63 - 1, -(2**63)], [1, 4, 4]]
    assert len(calls) == 2  # range-checked, then parsed by loadtxt


def test_read_topology_csv_reads_leading_zeros_and_minus_zero_as_the_reference_does(tmp_path):
    edges, caps = tmp_path / "edges.csv", tmp_path / "caps.csv"
    edges.write_text("uploader,downloader,multiplicity\n-0,001,004\n000,2,4\n")
    caps.write_text("node,u,residual_u\n-0,16,008\n1,04,4\n2,00,-0\n")
    got, got_caps = read_topology_csv(edges, caps)
    ref, ref_caps = reference_read_topology_csv(edges, caps)
    assert got.edges == ref.edges == {(0, 1): 4, (0, 2): 4}
    assert got.residual_u.tolist() == ref.residual_u.tolist() == [8, 4, 0]
    assert got_caps.u.tolist() == ref_caps.u.tolist() == [16, 4, 0]


@pytest.mark.parametrize("tail", ["\n", ""])
def test_read_topology_csv_reads_a_header_only_edge_file_without_warnings(tmp_path, tail):
    edges, caps = tmp_path / "edges.csv", tmp_path / "caps.csv"
    edges.write_text("uploader,downloader,multiplicity" + tail)
    caps.write_text("node,u,residual_u\n0,16,16\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.loadtxt warns of an empty input
        t, got_caps = read_topology_csv(edges, caps)
    assert t.n_nodes == 1 and t.edges == {} and [a.tolist() for a in t.edge_arrays()] == [[], [], []]
    assert t.residual_u.tolist() == [16] and got_caps.u.tolist() == [16]


def csv_cases():
    """Built topologies of several policies, each also with three connection
    units moved to close cycles (u kept, so residuals follow)."""
    for code, kind, n in (("GR", "flat", 12), ("FCS", "tight", 30), ("FDN", "loose", 25), ("GDD", "flat", 40)):
        caps = CapacityProfile.sample(n, make_rng(5, "capacities"))
        t = build(generate(DistributionSpec.preset(kind, n, 5)), caps, PolicySpec.from_code(code), 4, seed=5)
        moved = moved_units(t, np.random.default_rng(n), 3)
        yield t
        yield Topology(n, moved.edges, caps.u - moved.out_multiplicity())


def test_to_csv_writes_the_per_row_writers_bytes(tmp_path):
    paths = [tmp_path / name for name in ("edges.csv", "caps.csv", "ref_edges.csv", "ref_caps.csv")]
    for t in csv_cases():
        t.to_csv(*paths[:2])
        reference_to_csv(t, *paths[2:])
        assert paths[0].read_bytes() == paths[2].read_bytes()
        assert paths[1].read_bytes() == paths[3].read_bytes()


#: Changes to one data row of a topology CSV file (or to the whole file),
#: and whether the reader must accept the result: True for forms to_csv
#: could write, False for forms outside its grammar, None where the rules
#: decide.
MUTATIONS = {
    "none": True, "no final newline": True, "leading zeros": True,
    "extra field": False, "missing field": False, "plus sign": False, "spaces": False,
    "quotes": False, "blank line": False, "crlf": False, "bom": False, "non-utf-8": False,
    "underscore": False, "non-ascii digits": False, "duplicate row": False, "split row": False,
    "minus sign": None, "long value": None, "off by one": None,
    # Forms of only digits, commas, minus signs and newlines: the reader's
    # fast path must refuse those outside the grammar as the walk does.
    "empty field": False, "trailing comma": False, "lone minus": False, "inner minus": False,
    "double minus": False, "blank first line": False, "short rows": False,
    "18 characters": True, "19 characters": True,
}


def mutate(data: bytes, kind: str, rng) -> bytes:
    """``data``, a file ``to_csv`` wrote, with one ``kind`` of change at a random row and field."""
    lines = data.split(b"\n")  # the last entry is the b"" after the final newline
    r = int(rng.integers(1, len(lines) - 1))
    fields = lines[r].split(b",")
    f = int(rng.integers(len(fields)))
    sign, digits = re.fullmatch(rb"(-?)([0-9]+)", fields[f]).groups()
    if kind == "none":
        return data
    if kind == "no final newline":
        return data[:-1]
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    if kind == "short rows":  # every row one field short, so none is ragged
        return b"\n".join([lines[0], *(line.rpartition(b",")[0] for line in lines[1:-1]), b""])
    if kind == "bom":
        return b"\xef\xbb\xbf" + data
    if kind in ("blank line", "duplicate row", "blank first line"):
        lines.insert(1 if kind == "blank first line" else r, lines[r] if kind == "duplicate row" else b"")
        return b"\n".join(lines)
    if kind == "split row":  # the reference sums an edge's rows into one
        head = b",".join(fields[:-1])
        lines[r : r + 1] = [head + b",1", head + b",%d" % (int(fields[-1]) - 1)]
        return b"\n".join(lines)
    if kind == "extra field":
        fields.append(b"0")
    elif kind == "missing field":
        fields.pop()
    elif kind == "trailing comma":
        fields.append(b"")
    elif kind == "empty field":
        fields[1] = b""
    elif kind == "off by one":
        fields[-1] = b"%d" % (int(fields[-1]) + int(rng.choice([-1, 1])))
    elif kind == "long value":
        length = 19 + int(rng.integers(2))  # 19 digits may fit int64, 20 never do
        fields[f] = sign + bytes([int(rng.integers(49, 58)), *rng.integers(48, 58, length - 1).tolist()])
    else:
        fields[f] = {
            "leading zeros": sign + b"00" + digits,
            "plus sign": b"+" + fields[f],
            "minus sign": b"-" + fields[f],
            "spaces": b" " + fields[f] + b" ",
            "quotes": b'"' + fields[f] + b'"',
            "non-utf-8": fields[f] + b"\xff",
            "underscore": sign + digits[:1] + b"_" + digits[1:] + b"0",
            "non-ascii digits": digits.decode().translate({48 + d: 0x660 + d for d in range(10)}).encode(),
            "lone minus": b"-",
            "inner minus": digits + b"-" + digits,
            "double minus": b"--" + digits,
            "18 characters": sign + digits.zfill(18 - len(sign)),  # zero padding, sign included
            "19 characters": sign + digits.zfill(19 - len(sign)),
        }[kind]
    lines[r] = b",".join(fields)
    return b"\n".join(lines)


def test_read_topology_csv_is_the_reference_reader_narrowed(tmp_path):
    # Whatever the array reader accepts, the row-by-row reference reads to the
    # same topology; whatever the reference rejects, the array reader rejects
    # with a ValueError naming the mutated file or the one the reference names.
    rng = np.random.default_rng(2024)
    paths = {"edges": tmp_path / "edges.csv", "caps": tmp_path / "caps.csv"}
    seen = Counter()
    for t in csv_cases():
        t.to_csv(paths["edges"], paths["caps"])
        written = {name: path.read_bytes() for name, path in paths.items()}
        for kind, valid in MUTATIONS.items():
            for name in (*paths, *paths):  # each file twice, at other rows
                mutated = dict(written, **{name: mutate(written[name], kind, rng)})
                for other, path in paths.items():
                    path.write_bytes(mutated[other])
                try:
                    got = read_topology_csv(paths["edges"], paths["caps"])
                except ValueError as exc:
                    got = exc
                try:
                    ref = reference_read_topology_csv(paths["edges"], paths["caps"])
                except ValueError as exc:
                    ref = exc
                case = (kind, name, mutated[name], got, ref)
                if valid is not None:
                    assert isinstance(got, ValueError) != valid, case
                if not isinstance(got, ValueError):
                    assert not isinstance(ref, ValueError), case
                    assert got[0].edges == ref[0].edges, case
                    assert np.array_equal(got[0].residual_u, ref[0].residual_u), case
                    assert np.array_equal(got[1].u, ref[1].u), case
                elif isinstance(ref, ValueError):
                    named = [p for other, p in paths.items() if other == name or str(p) in str(ref)]
                    assert any(str(p) in str(got) for p in named), case
                seen[kind, isinstance(got, ValueError), isinstance(ref, ValueError)] += 1
    # Each form outside the grammar comes up in some file the reference accepts.
    for kind in ("spaces", "quotes", "plus sign", "underscore", "blank line", "blank first line", "crlf",
                 "non-ascii digits", "split row"):
        assert seen[kind, True, False], (kind, seen)
    assert seen["minus sign", False, False] and seen["long value", True, True], seen


def test_read_topology_csv_takes_what_to_csv_writes_without_the_walk(tmp_path, monkeypatch):
    # The line-by-line grammar walk is the slow path: a file to_csv wrote,
    # or one whose fields are zero-padded to 18 characters, never reaches it.
    def walk(path, body, k):
        raise AssertionError(f"{path} was walked")

    monkeypatch.setattr(topology, "_walk_rows", walk)
    edges, caps = tmp_path / "edges.csv", tmp_path / "caps.csv"
    for t in csv_cases():
        t.to_csv(edges, caps)
        got, got_caps = read_topology_csv(edges, caps)
        assert got.edges == t.edges and np.array_equal(got.residual_u, t.residual_u)
        assert np.array_equal(got_caps.u, t.upload_capacity())
    edges.write_text("uploader,downloader,multiplicity\n000000000000000000,000000000000000001,4")
    caps.write_text("node,u,residual_u\n-00000000000000000,000000000000000016,000000000000000012\n1,4,4\n")
    assert read_topology_csv(edges, caps)[0].edges == {(0, 1): 4}
    # A 19-character field may leave int64, so only the walk may pass it.
    caps.write_text("node,u,residual_u\n0,0000000000000000016,12\n1,4,4\n")
    with pytest.raises(AssertionError, match="was walked"):
        read_topology_csv(edges, caps)


def test_build_validation_errors():
    space = line_space(0.0, 0.1)
    with pytest.raises(ValueError):  # peercaster too weak
        build(space, CapacityProfile(np.array([3, 16])), PolicySpec.from_code("GR"), 4)
    with pytest.raises(ValueError):  # capacity profile size mismatch
        build(space, CapacityProfile(np.array([16, 16, 16])), PolicySpec.from_code("GR"), 4)
    with pytest.raises(ValueError):  # M must be positive
        build(space, CapacityProfile(np.array([16, 16])), PolicySpec.from_code("GR"), 0)
    with pytest.raises(ValueError):  # no peers at all
        build(DelaySpace(np.array([[0.0, 0.0]])), CapacityProfile(np.array([16])), PolicySpec.from_code("GR"), 4)
    state = BuildState(space, CapacityProfile(np.array([16, 16])), PolicySpec.from_code("GR"), 4, seed=0)
    with pytest.raises(ValueError):  # wrong uploader count
        state.update_after_admission(1, [0, 0])


def test_overflowing_coordinate_extents_are_rejected():
    overflowing = [
        ([[-1e308, 0.0], [1e308, 0.0], [1e308, 1.0]], 16),  # the extent overflows
        ([[0.0, 0.0], [1e308, 0.0], [0.0, 0.0]], 4),  # finite extent, scores overflow
    ]
    for coords, u0 in overflowing:
        space = DelaySpace(np.array(coords))
        caps = CapacityProfile(np.array([u0, 16, 16]))
        for code in ALL_POLICY_CODES:
            with pytest.raises(ValueError, match="too wide"):
                build(space, caps, PolicySpec.from_code(code), 4)
    # Generated spaces stay far inside the bound.
    for kind in KINDS:
        wide = generate(DistributionSpec.preset(kind, 5000, 0))
        BuildState(wide, CapacityProfile(np.full(5000, 16)), PolicySpec.from_code("FDD"), 6)
