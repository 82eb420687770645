"""
Building feasible topologies under different policies
=====================================================

Every peer must download all M substreams, upload no more than its
capacity allows, and keep M edge-disjoint paths back to the peercaster.
This script builds the same 40-node flat delay space under a few of the 14
policies and shows how policy choice changes the shape of the overlay.
"""

import numpy as np

from p2pcast import (
    CapacityProfile,
    DistributionSpec,
    PolicySpec,
    SimParams,
    build,
    generate,
    make_rng,
    verify_feasible,
)

SEED = 11
N = 40
SIM = SimParams()  # the defaults every experiment cell uses
M = SIM.m

space = generate(DistributionSpec.preset("flat", N, SEED))
caps = CapacityProfile.sample(N, make_rng(SEED, "capacities"), SIM.capacity_choices, SIM.u0)
print(f"{N} nodes, M={M}; peer capacities sampled from {list(SIM.capacity_choices)}, "
      f"peercaster fixed at {caps.u[0]}")

# ---------------------------------------------------------------------------
# Build under four contrasting policies. The code is policy-family +
# score + uploader-selection: e.g. FCS = Fixed admission order, Closest
# score, Small-world uploader selection.
for code in ("FCS", "FDN", "GDD", "GR"):
    topo = build(space, caps, PolicySpec.from_code(code), M, SEED)
    report = verify_feasible(topo, caps, M)
    assert report.ok, report.message

    delays = [space.delay(ul, dl) for (ul, dl), k in topo.edges.items() for _ in range(k)]
    fan_out = topo.out_multiplicity()
    print(f"\n{code}: {len(topo.edges)} distinct edges, "
          f"{sum(topo.edges.values())} connections")
    print(f"  mean connection delay {np.mean(delays):.4f} s, "
          f"max {np.max(delays):.4f} s")
    print(f"  peercaster uploads {fan_out[0]}/{SIM.u0}; "
          f"busiest peer uploads {fan_out[1:].max()}")
    print(f"  feasibility: in-degree M, capacities, M disjoint paths -> ok")

# ---------------------------------------------------------------------------
# The random-score policies are special: scoring every candidate by a random
# number and admitting the best is the same process as admitting in arrival
# order, so FR and GR produce identical topologies from the same seed.
fr = build(space, caps, PolicySpec.from_code("FR"), M, SEED)
gr = build(space, caps, PolicySpec.from_code("GR"), M, SEED)
print(f"\nFR and GR edge sets identical: {fr.edges == gr.edges}")

# ---------------------------------------------------------------------------
# Admission can get stuck: if every remaining peer has capacity 1 and the
# spare-bandwidth pool F is exhausted, nobody passes the u_i + F >= M guard.
from p2pcast import AdmissionStuck

starved = CapacityProfile(np.array([SIM.u0] + [1] * (N - 1)))
try:
    build(space, starved, PolicySpec.from_code("GR"), M, SEED)
except AdmissionStuck as exc:
    print(f"\nall-capacity-1 peers: {exc}")
