"""
The three synthetic delay spaces
================================

Peers live in a 2-D plane where Euclidean distance *is* network delay in
seconds. This walk-through generates one space of each kind and shows how
their geometry differs: the flat space spreads peers uniformly, while the
clustered spaces concentrate them into tight or loose clumps.
"""

import numpy as np

from p2pcast import DistributionSpec, generate

SEED = 2026
N = 1000

# ---------------------------------------------------------------------------
# Flat: every coordinate uniform in (-0.25, 0.25), so the worst possible
# pairwise delay is the box diagonal, sqrt(2)/2 ~= 0.707 s.
flat = generate(DistributionSpec.preset("flat", N, SEED))
print(f"flat: {N} nodes, bounds |x|,|y| < {np.abs(flat.coords).max():.4f}")
print(f"      diagonal of the coordinate extents {np.hypot(*np.ptp(flat.coords, axis=0)):.4f} s "
      f"(box diagonal {np.sqrt(2) / 2:.4f})")

# ---------------------------------------------------------------------------
# Clustered: a random walk drops nodes around a drifting position and jumps
# to a fresh uniform position with probability 1%, starting a new cluster.
# The step size is the only difference between the two presets.
for kind in ("tight", "loose"):
    space = generate(DistributionSpec.preset(kind, N, SEED))
    print(f"{kind}: {space.cluster_count} clusters "
          f"(expected about {1 + (N - 1) * 0.01:.0f})")

    # Cluster geometry shows up in nearest-neighbour delays: within a tight
    # cluster the next peer is fractions of a millisecond away.
    coords = space.coords
    nn = np.full(N, np.inf)
    for i in range(N):
        d = np.hypot(*(coords - coords[i]).T)
        d[i] = np.inf
        nn[i] = d.min()
    print(f"       median nearest-neighbour delay {np.median(nn) * 1e3:.3f} ms")

# The flat space for comparison: neighbours are ~100x further away than in
# the tight clusters.
coords = flat.coords
nn = np.full(N, np.inf)
for i in range(N):
    d = np.hypot(*(coords - coords[i]).T)
    d[i] = np.inf
    nn[i] = d.min()
print(f"flat:  median nearest-neighbour delay {np.median(nn) * 1e3:.3f} ms")

# ---------------------------------------------------------------------------
# The peercaster is always node 0. In clustered spaces the recorded walk is
# shuffled first, so node 0 is a uniformly random member of some cluster
# rather than always the walk's starting point.
print(f"\npeercaster positions: flat {flat.coords[0].round(3)}, "
      f"tight {generate(DistributionSpec.preset('tight', N, SEED)).coords[0].round(3)}")
