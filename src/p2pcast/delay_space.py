"""Synthetic 2-D Euclidean delay spaces.

Nodes live in the plane and the delay between two nodes is their Euclidean
distance, read in seconds. Node 0 is always the peercaster (stream source).

Three families of spaces are supported:

* ``flat`` — every coordinate drawn uniformly from (-D, D) with D = 0.25 s,
  so the worst-case pairwise delay is sqrt(2)/2 s.
* ``tight`` / ``loose`` — clustered spaces grown by a random walk: seed a
  cluster centre uniformly in (-D, D)^2, then repeatedly perturb the *current*
  position by a uniform step in (-d, d)^2 (perturbations accumulate) and
  record it; after each recorded node, with probability p jump to a fresh
  cluster seed. Tight clusters use d = 0.005, loose use d = 0.05, both with
  p = 0.01. The walk is drawn as one block of uniform doubles, read in the
  order a node-by-node walk would draw them, so it is the same stream.

Clustered generation produces consecutive runs of nearby nodes, so the node
order is randomly permuted afterwards; the peercaster is whichever node lands
at index 0. Flat spaces are exchangeable already and are not shuffled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import make_rng

FLAT = "flat"
TIGHT = "tight"
LOOSE = "loose"
KINDS = (FLAT, TIGHT, LOOSE)

#: Half-width of the coordinate box, in seconds.
DEFAULT_D = 0.25
#: Per-step perturbation half-width for the clustered kinds.
CLUSTER_STEP = {TIGHT: 0.005, LOOSE: 0.05}
#: Probability of starting a new cluster after each recorded node.
DEFAULT_P = 0.01


@dataclass(frozen=True)
class DistributionSpec:
    """A delay-space distribution: its kind, its node count ``n``, *including*
    the peercaster, and its seed. Each kind's box, step and new-cluster
    probability are the fixed ``DEFAULT_D``, ``CLUSTER_STEP`` and
    ``DEFAULT_P``."""

    kind: str
    n: int
    seed: int

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}; expected one of {KINDS}")
        if self.n < 1:
            raise ValueError("n must be at least 1 (the peercaster itself)")

    @classmethod
    def preset(cls, kind: str, n: int, seed: int) -> "DistributionSpec":
        """``DistributionSpec(kind, n, seed)``, under the name callers use."""
        return cls(kind=kind, n=n, seed=seed)


class DelaySpace:
    """An immutable set of node coordinates with Euclidean delay queries.

    Besides the row-major ``coords`` it keeps each axis as its own contiguous
    column, because the build's delay queries gather a few thousand ids per
    call and a gather from two contiguous columns costs about a third of one
    from the rows; every delay query takes ``np.hypot`` of the same operands
    either way.

    One query is not a delay: :meth:`proxy_delays_from` takes
    ``sqrt(dx*dx + dy*dy)`` of the differences :meth:`delays_from` forms,
    about four times cheaper. It is close to the delay but not equal to it,
    so it may only rule entries out, within the proven margin of
    ``topology._widen``, and only where no square can overflow.
    """

    def __init__(self, coords: np.ndarray, cluster_count: int | None = None):
        coords = np.array(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 2 or coords.shape[0] < 1:
            raise ValueError("coords must be an (n, 2) array with n >= 1")
        finite = np.isfinite(coords).all(axis=1)
        if not finite.all():
            row = int(np.flatnonzero(~finite)[0])
            raise ValueError(f"coordinates must be finite; row {row} is {coords[row].tolist()}")
        coords.flags.writeable = False
        self._coords = coords
        self._n = coords.shape[0]
        columns = coords.T.copy()
        columns.flags.writeable = False
        self._x, self._y = columns
        #: Number of clusters the generator produced (None for flat spaces).
        self.cluster_count = cluster_count

    @property
    def coords(self) -> np.ndarray:
        return self._coords

    @property
    def n_nodes(self) -> int:
        return self._n

    def _check(self, i: int) -> None:
        if not 0 <= i < self._n:
            raise IndexError(f"node index {i} out of range for {self._n} nodes")

    def delay(self, i: int, j: int) -> float:
        """Delay between nodes ``i`` and ``j`` in seconds."""
        self._check(i)
        self._check(j)
        return float(np.hypot(self._x[i] - self._x[j], self._y[i] - self._y[j]))

    def delays_from(self, i: int, ids: np.ndarray | None = None) -> np.ndarray:
        """Vector of delays from node ``i`` to every node (length n), or to
        the integer node ids ``ids`` only (length ``len(ids)``). Each entry is
        the same ``np.hypot`` on the same operands either way, so
        ``delays_from(i, ids)`` equals ``delays_from(i)[ids]`` bit for bit."""
        self._check(i)
        x, y = (self._x, self._y) if ids is None else (self._x.take(ids), self._y.take(ids))
        return np.hypot(x - self._x[i], y - self._y[i])

    def proxy_delays_from(self, i: int, ids: np.ndarray) -> np.ndarray:
        """``sqrt(dx*dx + dy*dy)`` for the node ids ``ids``, over the same
        differences ``delays_from(i, ids)`` takes ``np.hypot`` of. Within
        4.2 * 2**-53 of that delay, relative, plus 2**-535 (``topology._widen``
        proves it), and infinite where a square overflows."""
        self._check(i)
        dx = self._x.take(ids) - self._x[i]
        dy = self._y.take(ids) - self._y[i]
        dx *= dx
        dy *= dy
        dx += dy
        return np.sqrt(dx, out=dx)

    def edge_delays(self, uploaders: np.ndarray, downloaders: np.ndarray) -> np.ndarray:
        """Delays for a batch of (uploader, downloader) pairs."""
        x, y = self._x, self._y
        dx = x.take(uploaders) - x.take(downloaders)
        return np.hypot(dx, y.take(uploaders) - y.take(downloaders))

    def to_csv(self, path) -> None:
        """Write the space as ``node,x,y`` rows, node 0 (the peercaster) first."""
        with open(path, "w", encoding="ascii", newline="\n") as f:
            f.write("node,x,y\n")
            for i, (x, y) in enumerate(self._coords.tolist()):
                f.write(f"{i},{x!r},{y!r}\n")


def _generate_clustered(n: int, d: float, p: float, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Run the clustered random walk of ``n`` nodes with step ``d`` and
    new-cluster probability ``p`` in the box of half-width ``DEFAULT_D``;
    returns (coords in generation order, cluster count).

    The walk reads one stream of ``rng.random`` doubles: a cluster seed takes
    2, then each node takes 2 for its step and 1 for its new-cluster coin.
    All of it comes from one block of draws, read in that order, and each
    value is ``low + (high - low) * u``, as ``Generator.uniform`` forms it.
    A cluster's positions are one ``np.cumsum`` of its steps, the first plus
    the seed: the same additions in the same order as a node-by-node walk, so
    the coordinates and the cluster count are those of drawing each value in
    turn.
    """
    u = rng.random(5 * n)  # enough for every node to seed its own cluster
    # hit[j]: the first stream position >= j, in steps of 3, whose draw is
    # below p. A cluster's coins sit 3 apart, so its first coin at or after
    # its first node's ends it.
    hit = np.where(u < p, np.arange(5 * n), 5 * n)
    for r in range(3):
        hit[r::3] = np.minimum.accumulate(hit[r::3][::-1])[::-1]
    sizes = []
    at = 0  # stream position of the next cluster's seed
    left = n
    while left:
        coin = at + 4  # after the seed and the first node's step
        size = min((int(hit[coin]) - coin) // 3 + 1, left)
        sizes.append(size)
        left -= size
        at += 2 + 3 * size
    sizes = np.array(sizes)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    cluster = np.repeat(np.arange(len(sizes)), sizes)
    step_at = 3 * np.arange(n) + 2 * (cluster + 1)
    coords = -d + (d - -d) * np.stack((u[step_at], u[step_at + 1]), axis=1)
    seed_at = step_at[starts] - 2
    # step + seed has the bits of seed + step: IEEE addition commutes.
    coords[starts] += -DEFAULT_D + (DEFAULT_D - -DEFAULT_D) * np.stack((u[seed_at], u[seed_at + 1]), axis=1)
    for a, b in zip(starts.tolist(), ends.tolist()):
        if b - a > 1:
            np.cumsum(coords[a:b], axis=0, out=coords[a:b])
    return coords, len(sizes)


def generate(spec: DistributionSpec) -> DelaySpace:
    """Generate the delay space described by ``spec``.

    Deterministic in ``spec.seed``: the coordinate stream and the shuffle
    stream are derived separately (see :mod:`p2pcast.rng`).
    """
    rng = make_rng(spec.seed, "delay_space", spec.kind, "coords")
    if spec.kind == FLAT:
        return DelaySpace(rng.uniform(-DEFAULT_D, DEFAULT_D, size=(spec.n, 2)))
    coords, n_clusters = _generate_clustered(spec.n, CLUSTER_STEP[spec.kind], DEFAULT_P, rng)
    shuffle_rng = make_rng(spec.seed, "delay_space", spec.kind, "shuffle")
    perm = shuffle_rng.permutation(spec.n)
    return DelaySpace(coords[perm], cluster_count=n_clusters)
