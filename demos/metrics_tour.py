"""
Delay and vulnerability metrics
===============================

Four numbers summarize a topology: minimum delay (shortest path from the
peercaster), tree delay (a pessimistic bound after removing M-1 shortest-path
trees), node vulnerability (how many of one peer's paths a single other node
could cut), and system vulnerability (how many paths overall pass through the
busiest relay). This script computes all four on a small clustered build and
then walks one peer's realized paths by hand.
"""

import numpy as np

from p2pcast import (
    CapacityProfile,
    DistributionSpec,
    PolicySpec,
    SimParams,
    build,
    compute_metrics,
    generate,
    make_rng,
    shortest_paths,
)

SEED = 5
N = 30
SIM = SimParams()  # the defaults every experiment cell uses
M = SIM.m

space = generate(DistributionSpec.preset("tight", N, SEED))
caps = CapacityProfile.sample(N, make_rng(SEED, "capacities"), SIM.capacity_choices, SIM.u0)
topo = build(space, caps, PolicySpec.from_code("GDN"), M, SEED)

report = compute_metrics(topo, space, M)
print(f"GDN on a tight clustered space, {N} nodes:")
print(f"  mean minimum delay   {report.min_delay_mean_s:.4f} s")
print(f"  mean tree delay      {report.tree_delay_mean_s:.4f} s")
print(f"  mean node vulnerability   {report.mean_node_vuln:.3f}")
print(f"  max system vulnerability  {report.max_sys_vuln:.3f}")

# Tree delay is never below minimum delay: removing shortest-path trees can
# only lengthen routes.
assert (report.tree_delay >= report.min_delay).all()

# ---------------------------------------------------------------------------
# The realized paths behind the vulnerability numbers. Each peer has M
# in-connections; each connection k realizes one specific shortest path
# D_k(i) from the peercaster: the path to the uploader j, found by following
# the shortest-path predecessors up from j, plus the final hop j -> i.
dist, pred = shortest_paths(topo, space)


def realized_path(v):
    path = [v]
    while path[-1] != 0:
        path.append(int(pred[path[-1]]))
    return path[::-1]


worst = int(report.node_vuln.argmax())
paths = [
    (j, realized_path(j) + [worst])
    for (j, i), c in sorted(topo.edges.items())
    if i == worst
    for _ in range(c)
]
print(f"\npeer {worst} has node vulnerability V = {report.node_vuln[worst]} "
      f"(out of M = {M} paths):")
for j, path in paths:
    hops = " -> ".join(str(v) for v in path)
    print(f"  via uploader {j}: {hops}  ({dist[j] + space.delay(j, worst):.4f} s)")

# V counts how often the most common intermediate node appears across those
# M paths; the no-diversity policy reuses the same uploader, so V is high.
intermediates = [v for _, path in paths for v in path[1:-1] if v != worst]
if intermediates:
    top = max(set(intermediates), key=intermediates.count)
    print(f"node {top} sits on {intermediates.count(top)} of the {M} paths")

# ---------------------------------------------------------------------------
# System vulnerability looks at the same paths from the relay's point of
# view: S_v counts every other peer's path that crosses v.
s_busiest = int(report.sys_vuln.argmax())
print(f"\nbusiest relay is node {s_busiest}, on {report.sys_vuln[s_busiest]} "
      f"of the {(N - 1) * M} paths in the system "
      f"(metric {report.max_sys_vuln:.3f})")
