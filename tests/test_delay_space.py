"""Delay-space generation: geometry, distribution shape, determinism, CSV."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2pcast import DelaySpace, DistributionSpec, generate
from p2pcast.delay_space import CLUSTER_STEP, DEFAULT_D, DEFAULT_P, _generate_clustered
from p2pcast.rng import make_rng

from bruteforce import reference_clustered


def test_delay_is_euclidean_345():
    space = DelaySpace(np.array([[0.0, 0.0], [0.03, 0.04], [0.03, 0.0]]))
    assert space.delay(0, 1) == pytest.approx(0.05)
    assert space.delay(0, 2) == 0.03
    assert space.delay(1, 2) == 0.04
    assert space.delay(1, 1) == 0.0


def test_delay_symmetry_and_vector_queries():
    space = generate(DistributionSpec.preset("flat", 40, 3))
    vec0 = space.delays_from(0)
    assert vec0[0] == 0.0
    for j in (1, 7, 39):
        assert space.delay(0, j) == vec0[j]
        assert space.delay(j, 0) == space.delay(0, j)
    ids = np.array([39, 0, 7, 7, 2])
    assert space.delays_from(0, ids).tobytes() == vec0[ids].tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_triangle_inequality(seed):
    space = generate(DistributionSpec.preset("flat", 12, seed))
    rng = np.random.default_rng(seed)
    for _ in range(20):
        i, j, k = rng.integers(0, 12, size=3)
        lhs = space.delay(int(i), int(k))
        rhs = space.delay(int(i), int(j)) + space.delay(int(j), int(k))
        assert lhs <= rhs + 1e-12


def test_flat_bounds_and_determinism():
    spec = DistributionSpec.preset("flat", 500, 11)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.coords, b.coords)
    assert np.abs(a.coords).max() <= 0.25
    c = generate(DistributionSpec.preset("flat", 500, 12))
    assert not np.array_equal(a.coords, c.coords)


def test_flat_marginals_look_uniform():
    # One-sample Kolmogorov-Smirnov against U(-0.25, 0.25) on a fixed seed;
    # the 0.0195 cutoff is the alpha=0.001 critical distance for 10^4 samples.
    from scipy import stats

    space = generate(DistributionSpec.preset("flat", 10_000, 97))
    for axis in (0, 1):
        stat = stats.kstest(space.coords[:, axis], stats.uniform(-0.25, 0.5).cdf).statistic
        assert stat < 0.0195


def test_clustered_steps_accumulate():
    # Within a cluster, consecutive nodes differ by one perturbation step
    # (at most d per axis); across the whole walk positions drift beyond a
    # single step's reach, which distinguishes accumulation from re-perturbing
    # a fixed centre.
    d = CLUSTER_STEP["tight"]
    rng = make_rng(5, "delay_space", "tight", "coords")
    coords, n_clusters = _generate_clustered(400, d, DEFAULT_P, rng)
    deltas = np.abs(np.diff(coords, axis=0))
    step_like = (deltas <= d).all(axis=1)
    # All but the cluster boundaries look like single steps.
    assert step_like.sum() >= len(deltas) - n_clusters
    # Accumulated drift: some node sits further than one step from its
    # cluster's first node. With d=0.005 and ~100-node clusters this is
    # essentially certain under accumulation and impossible without it.
    first = coords[0]
    drift = np.abs(coords[1:] - first).max()
    assert drift > 2 * d


@pytest.mark.parametrize("p", [1.0, 0.5, 0.01, 1e-9])
@pytest.mark.parametrize("kind, d", [("tight", None), ("loose", None), ("tight", 0.2)])
def test_clustered_walk_matches_the_node_by_node_walk(kind, d, p):
    # The block-drawn walk against the walk that draws each value in turn:
    # same coordinate bits and cluster count, from the singleton clusters of
    # p = 1 to the single cluster of p = 1e-9. A d of None is the kind's step.
    d = CLUSTER_STEP[kind] if d is None else d
    for n in (1, 2, 3, 37, 500, 5000):
        for seed in (0, 1, 7):
            coords, n_clusters = _generate_clustered(n, d, p, make_rng(seed, "delay_space", kind, "coords"))
            want, want_clusters = reference_clustered(
                n, DEFAULT_D, d, p, make_rng(seed, "delay_space", kind, "coords"))
            assert coords.tobytes() == want.tobytes(), (n, seed)
            assert n_clusters == want_clusters, (n, seed)


def test_clustered_shuffle_preserves_multiset_and_breaks_runs():
    spec = DistributionSpec.preset("loose", 300, 8)
    rng = make_rng(8, "delay_space", "loose", "coords")
    raw, _ = _generate_clustered(300, CLUSTER_STEP["loose"], DEFAULT_P, rng)
    space = generate(spec)
    assert not np.array_equal(space.coords, raw)  # order randomised
    assert np.array_equal(
        np.sort(space.coords.view("f8,f8"), order=["f0", "f1"], axis=0),
        np.sort(raw.view("f8,f8"), order=["f0", "f1"], axis=0),
    )


def test_cluster_count_matches_restart_probability():
    # The generator records how many cluster seeds it drew: 1 + the number of
    # restarts, i.e. 1 + Binomial(n - 1, p) in distribution.
    counts = [
        generate(DistributionSpec.preset("tight", 2000, seed)).cluster_count
        for seed in range(30)
    ]
    mean = float(np.mean(counts))
    expected = 1 + (2000 - 1) * 0.01
    assert abs(mean - expected) / expected < 0.2
    assert min(counts) >= 1


def test_clustered_positions_form_tight_groups():
    space = generate(DistributionSpec.preset("tight", 1000, 21))
    # Nearest-neighbour distances in a tight clustered space are far smaller
    # than in a flat space of the same size.
    from scipy.spatial import cKDTree

    d_tight, _ = cKDTree(space.coords).query(space.coords, k=2)
    flat = generate(DistributionSpec.preset("flat", 1000, 21))
    d_flat, _ = cKDTree(flat.coords).query(flat.coords, k=2)
    assert np.median(d_tight[:, 1]) < np.median(d_flat[:, 1]) / 3


def test_csv_round_trip(tmp_path):
    space = generate(DistributionSpec.preset("flat", 25, 14))
    path = tmp_path / "space.csv"
    space.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "node,x,y"
    assert len(lines) == 26
    assert lines[1].startswith("0,")
    parsed = np.array(
        [[float(x), float(y)] for _, x, y in (ln.split(",") for ln in lines[1:])]
    )
    assert np.array_equal(parsed, space.coords)  # repr round-trips exactly


def test_spec_validation():
    with pytest.raises(ValueError):
        DistributionSpec(kind="flat", n=0, seed=1)
    with pytest.raises(ValueError):
        DistributionSpec(kind="bumpy", n=10, seed=1)
    with pytest.raises(IndexError):
        generate(DistributionSpec.preset("flat", 5, 1)).delay(0, 5)
    with pytest.raises(IndexError):
        generate(DistributionSpec.preset("flat", 5, 1)).delay(-1, 0)


def test_single_node_space_is_valid():
    space = generate(DistributionSpec.preset("flat", 1, 0))
    assert space.n_nodes == 1


def test_preset_parameters():
    # A spec is its kind, size and seed; every kind shares the box and p.
    assert DistributionSpec.preset("tight", 10, 0) == DistributionSpec("tight", 10, 0)
    assert (DEFAULT_D, CLUSTER_STEP, DEFAULT_P) == (0.25, {"tight": 0.005, "loose": 0.05}, 0.01)
    # worst-case delay inside the box is its diagonal: sqrt(2)/2 seconds
    assert math.hypot(2 * DEFAULT_D, 2 * DEFAULT_D) == pytest.approx(math.sqrt(2) / 2)


# ------------------------------------- differential: row-major delay layout


def row_major_delays_from(coords, i, ids=None):
    """``delays_from`` as computed from the (n, 2) rows before the columns."""
    pts = coords if ids is None else coords[ids]
    diff = pts - coords[i]
    return np.hypot(diff[:, 0], diff[:, 1])


def row_major_edge_delays(coords, uploaders, downloaders):
    a, b = coords[uploaders], coords[downloaders]
    return np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])


def row_major_delay(coords, i, j):
    return float(np.hypot(coords[i, 0] - coords[j, 0], coords[i, 1] - coords[j, 1]))


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


_lrng = np.random.default_rng(77)
#: Generated spaces, exact ties, rounded lattices and the extremes of scale.
LAYOUT_COORDS = {
    **{kind: generate(DistributionSpec.preset(kind, 300, 9)).coords for kind in ("flat", "tight", "loose")},
    "coincident": np.tile([0.1, -0.2], (20, 1)),
    "lattice": _lrng.integers(-5, 6, size=(60, 2)) * 0.1,
    "tiny": _lrng.uniform(-1, 1, size=(60, 2)) * 1e-300,
    "huge": _lrng.uniform(-1, 1, size=(60, 2)) * 1e300,
    "huge-lattice": _lrng.integers(-5, 6, size=(60, 2)) * 0.1 * 1e300,
}


@pytest.mark.parametrize("name", LAYOUT_COORDS)
def test_column_layout_matches_row_major_bit_for_bit(name):
    coords = np.array(LAYOUT_COORDS[name])
    space = DelaySpace(coords)
    n = len(coords)
    rng = np.random.default_rng(n)
    for i in range(n):
        full = space.delays_from(i)
        assert np.array_equal(bits(full), bits(row_major_delays_from(coords, i)))
        ids = rng.integers(0, n, size=rng.integers(0, 2 * n))
        assert np.array_equal(bits(space.delays_from(i, ids)), bits(row_major_delays_from(coords, i, ids)))
        for j in rng.integers(0, n, size=5).tolist():
            want = row_major_delay(coords, i, j)
            assert bits(space.delay(i, j)) == bits(want)
            # delay(i, j) subtracts j from i; delays_from(j) subtracts j from
            # every node, so its entry i has the very same operands.
            assert bits(space.delay(i, j)) == bits(space.delays_from(j)[i])
    ul, dl = rng.integers(0, n, size=(2, 4 * n))
    assert np.array_equal(bits(space.edge_delays(ul, dl)), bits(row_major_edge_delays(coords, ul, dl)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinates_are_rejected(bad):
    with pytest.raises(ValueError, match=r"coordinates must be finite; row 2 is \["):
        DelaySpace([[0.0, 0.0], [0.1, 0.0], [bad, 0.2], [0.3, bad]])
    with pytest.raises(ValueError, match="row 1 is"):
        DelaySpace([[0.0, 0.0], [0.1, bad]])
