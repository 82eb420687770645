"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
full sweep (criterion 1) builds and verifies 840 topologies, so this module
takes a few minutes. Criterion 7 measures representative cells and checks a
conservative extrapolation by default; set ``P2PCAST_FULL_GRID=1`` to run
the complete 1134-cell grid for real.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from p2pcast import (
    CapacityProfile,
    DistributionSpec,
    PolicySpec,
    Topology,
    build,
    compute_metrics,
    generate,
    make_rng,
    max_flow,
    shortest_paths,
    verify_feasible,
)
from p2pcast.delay_space import KINDS
from p2pcast.harness import (
    ExperimentConfig,
    SimParams,
    cell_inputs,
    config_from_mapping,
    mean_ci95,
    parse_config,
    run_cell,
    run_experiment,
)
from p2pcast.topology import ALL_POLICY_CODES, AdmissionStuck
from bruteforce import brute_min_cut, brute_shortest_paths

# Master seed of the acceptance sweep. Validated once: every one of the 840
# cells below builds to completion and passes verification under it.
ACCEPT_SEED = 0
SWEEP_SIZES = (10, 50, 200, 1000)
SWEEP_RUNS = 5
SIM = SimParams()
FULL_GRID = Path(__file__).resolve().parents[1] / "configs" / "full_grid.cfg"

NO_DIVERSITY = ("FCN", "GCN", "FDN", "GDN")
DIVERSITY = ("FCD", "GCD", "FDD", "GDD")
SMALL_WORLD_OR_RANDOM = ("FCS", "GCS", "FDS", "GDS", "FR", "GR")


def report(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sweep():
    """Build, verify and measure all 14 x 3 x 4 x 5 = 840 cells once."""
    cells = []
    build_verify_s = 0.0
    for policy in ALL_POLICY_CODES:
        for dist in KINDS:
            for n in SWEEP_SIZES:
                for run in range(SWEEP_RUNS):
                    seed, space, caps, spec = cell_inputs(policy, dist, n, run, ACCEPT_SEED, SIM)
                    t0 = time.perf_counter()
                    try:
                        topo = build(space, caps, spec, SIM.m, seed)
                    except AdmissionStuck:
                        build_verify_s += time.perf_counter() - t0
                        cells.append(
                            dict(policy=policy, dist=dist, n=n, run=run, built=False)
                        )
                        continue
                    ok = bool(verify_feasible(topo, caps, SIM.m).ok)
                    build_verify_s += time.perf_counter() - t0
                    m = compute_metrics(topo, space, SIM.m)
                    cells.append(
                        dict(
                            policy=policy, dist=dist, n=n, run=run, built=True,
                            verified=ok,
                            tree_ge_min=bool((m.tree_delay >= m.min_delay).all()),
                            vuln_in_range=bool(
                                0.0 <= m.mean_node_vuln <= 1.0
                                and 0.0 <= m.max_sys_vuln <= 1.0
                                and (m.node_vuln >= 0).all()
                                and (m.node_vuln <= 4).all()
                                and (m.sys_vuln >= 0).all()
                            ),
                            min_mean=m.min_delay_mean_s,
                            tree_mean=m.tree_delay_mean_s,
                            node_vuln=m.mean_node_vuln,
                        )
                    )
    return {"cells": cells, "build_verify_s": build_verify_s}


def test_criterion_1_feasibility_suite(sweep):
    cells = sweep["cells"]
    unbuilt = [c for c in cells if not c["built"]]
    unverified = [c for c in cells if c["built"] and not c["verified"]]
    elapsed = sweep["build_verify_s"]
    ok = len(cells) == 840 and not unbuilt and not unverified and elapsed <= 300.0
    report(
        1,
        ok,
        f"{len(cells)} builds, {len(unbuilt)} stuck, {len(unverified)} failed "
        f"verification, build+verify {elapsed:.1f}s (limit 300s)",
    )


def test_criterion_2_oracle_equivalence():
    checked = 0
    attempt = 0
    policies = ALL_POLICY_CODES
    while checked < 200 and attempt < 400:
        n = 5 + attempt % 11  # sizes 5..15
        policy = policies[attempt % len(policies)]
        seed = 10_000 + attempt
        attempt += 1
        space = generate(DistributionSpec.preset("flat", n, seed))
        caps = CapacityProfile.sample(n, make_rng(seed, "capacities"))
        try:
            topo = build(space, caps, PolicySpec.from_code(policy), 4, seed)
        except AdmissionStuck:
            continue
        dist, _ = shortest_paths(topo, space)
        assert np.array_equal(dist, brute_shortest_paths(topo, space))
        for sink in range(1, n):
            assert max_flow(topo, sink) == brute_min_cut(topo, sink)
        checked += 1
    report(
        2,
        checked == 200,
        f"{checked}/200 instances matched brute force exactly "
        f"(distances and per-peer max-flow), {attempt} attempts",
    )


def test_criterion_3_fixed_random_equals_growing_random():
    compared = 0
    for dist in KINDS:
        for n in (10, 100, 500):
            for seed in (0, 1):
                space = generate(DistributionSpec.preset(dist, n, seed))
                caps = CapacityProfile.sample(n, make_rng(seed, "capacities"))
                fr = build(space, caps, PolicySpec.from_code("FR"), 4, seed)
                gr = build(space, caps, PolicySpec.from_code("GR"), 4, seed)
                assert fr.edges == gr.edges  # identical multisets, exact
                compared += 1
    report(3, compared == 18, f"FR == GR edge multisets on {compared}/18 builds")


def test_criterion_4_metric_bounds(sweep):
    built = [c for c in sweep["cells"] if c["built"]]
    bad_order = [c for c in built if not c["tree_ge_min"]]
    bad_range = [c for c in built if not c["vuln_in_range"]]

    # All-direct star, produced by an actual build: zero-capacity peers force
    # every connection onto the peercaster. Three peers keep the spare-capacity
    # guard satisfied all the way down (F runs 12, 8, 4).
    space = generate(DistributionSpec.preset("flat", 4, ACCEPT_SEED))
    caps = CapacityProfile(np.array([16, 0, 0, 0]))
    star = build(space, caps, PolicySpec.from_code("FCS"), 4, ACCEPT_SEED)
    assert star.edges == {(0, i): 4 for i in range(1, 4)}
    m = compute_metrics(star, space, 4)
    star_zero = (
        not m.node_vuln.any()
        and not m.sys_vuln.any()
        and m.mean_node_vuln == 0.0
        and m.max_sys_vuln == 0.0
    )
    ok = not bad_order and not bad_range and star_zero
    report(
        4,
        ok,
        f"min<=tree on {len(built) - len(bad_order)}/{len(built)} builds, "
        f"vulnerability in [0,1] on {len(built) - len(bad_range)}/{len(built)}, "
        f"star vulnerabilities exactly zero: {star_zero}",
    )


def test_criterion_5_qualitative_orderings(sweep):
    at_n1000 = [c for c in sweep["cells"] if c["built"] and c["n"] == 1000]
    means = {}
    for policy in ALL_POLICY_CODES:
        rows = [c for c in at_n1000 if c["policy"] == policy]
        assert len(rows) == 15  # 3 distributions x 5 seeds, pooled
        means[policy] = {
            key: float(np.mean([r[key] for r in rows]))
            for key in ("min_mean", "tree_mean", "node_vuln")
        }

    def group_mean(policies, key):
        return float(np.mean([means[p][key] for p in policies]))

    nv_nodiv = group_mean(NO_DIVERSITY, "node_vuln")
    nv_div = group_mean(DIVERSITY, "node_vuln")
    nv_swr = group_mean(SMALL_WORLD_OR_RANDOM, "node_vuln")
    checks = {
        "vuln no-div > div": nv_nodiv > nv_div,
        "vuln div > sw/random": nv_div > nv_swr,
        "min FCS < FR": means["FCS"]["min_mean"] < means["FR"]["min_mean"],
        "min FCN > FCS": means["FCN"]["min_mean"] > means["FCS"]["min_mean"],
        "tree FDN < FR": means["FDN"]["tree_mean"] < means["FR"]["tree_mean"],
        "tree GDN < GR": means["GDN"]["tree_mean"] < means["GR"]["tree_mean"],
    }
    failed = [name for name, ok in checks.items() if not ok]
    report(
        5,
        not failed,
        "orderings at n=1000: "
        f"vuln {nv_nodiv:.3f} > {nv_div:.3f} > {nv_swr:.3f}; "
        f"min delay FCS {means['FCS']['min_mean']:.3f} vs FR {means['FR']['min_mean']:.3f}, "
        f"FCN {means['FCN']['min_mean']:.3f}; "
        f"tree delay FDN {means['FDN']['tree_mean']:.3f} vs FR {means['FR']['tree_mean']:.3f}, "
        f"GDN {means['GDN']['tree_mean']:.3f} vs GR {means['GR']['tree_mean']:.3f}"
        + (f"; FAILED: {failed}" if failed else ""),
    )


def test_criterion_6_distribution_sanity():
    worst = 0.0
    for seed in range(20):
        coords = generate(DistributionSpec.preset("flat", 2000, seed)).coords
        worst = max(worst, float(np.abs(coords).max()))
    flat_ok = worst <= 0.25

    n, p, seeds = 5000, 0.01, 100
    cluster_ok = True
    detail = [f"flat max |coord| {worst:.6f}"]
    for kind in ("tight", "loose"):
        counts = [
            generate(DistributionSpec.preset(kind, n, seed)).cluster_count
            for seed in range(seeds)
        ]
        mean = float(np.mean(counts))
        rel = abs(mean - n * p) / (n * p)
        cluster_ok = cluster_ok and rel <= 0.10
        detail.append(f"{kind} mean clusters {mean:.2f} vs n*p={n * p:.0f} ({rel:.1%})")
    report(6, flat_ok and cluster_ok, "; ".join(detail))


def test_criterion_7_determinism_and_performance(tmp_path):
    # (a) demo grid re-run is byte-identical, and so is a second fresh run
    demo_cfg = ExperimentConfig.demo_grid()
    out = tmp_path / "demo"
    run_experiment(demo_cfg, out)
    raw, agg = (out / "results.csv").read_bytes(), (out / "agg.csv").read_bytes()
    run_experiment(demo_cfg, out)
    demo_ok = (out / "results.csv").read_bytes() == raw
    demo_ok = demo_ok and (out / "agg.csv").read_bytes() == agg
    fresh = tmp_path / "demo_fresh"
    run_experiment(demo_cfg, fresh)
    fresh_ok = (fresh / "results.csv").read_bytes() == raw
    fresh_ok = fresh_ok and (fresh / "agg.csv").read_bytes() == agg

    # (b) one GDD build at n = 5000 within 60 s
    seed, space, caps, spec = cell_inputs("GDD", "flat", 5000, 0, ACCEPT_SEED, SIM)
    t0 = time.perf_counter()
    build(space, caps, spec, SIM.m, seed)
    gdd_s = time.perf_counter() - t0
    gdd_ok = gdd_s <= 60.0

    # (c) full 1134-cell grid within 2 h at --parallel 8. Parallel workers can
    # only reduce wall time, so a serial bound is sufficient. By default the
    # most expensive size tier (n=5000, one cell per policy) is measured and
    # the rest of the ladder is covered by a 1.8x margin: the smaller sizes
    # sum to 0.78 * 5000 nodes, so even a cost model linear in n adds < 0.8x.
    if os.environ.get("P2PCAST_FULL_GRID") == "1":
        t0 = time.perf_counter()
        grid = config_from_mapping(parse_config(FULL_GRID.read_text()), ACCEPT_SEED)
        run_experiment(grid, tmp_path / "grid")
        grid_s = time.perf_counter() - t0
        grid_detail = f"full grid ran in {grid_s:.0f}s"
    else:
        top_tier = sum(
            _timed_cell(policy, "flat", 5000) for policy in ALL_POLICY_CODES
        )
        grid_s = top_tier * 3 * 3 * 1.8  # distributions x runs x ladder margin
        grid_detail = (
            f"n=5000 tier {top_tier:.0f}s/policy-sweep, serial estimate {grid_s:.0f}s"
        )
    grid_ok = grid_s <= 7200.0

    report(
        7,
        demo_ok and fresh_ok and gdd_ok and grid_ok,
        f"demo re-run byte-identical: {demo_ok}; fresh demo run byte-identical: "
        f"{fresh_ok}; GDD n=5000 build {gdd_s:.1f}s "
        f"(limit 60s); {grid_detail} (limit 7200s)",
    )


def _timed_cell(policy, dist, n):
    t0 = time.perf_counter()
    result = run_cell(policy, dist, n, 0, ACCEPT_SEED, SimParams())
    assert not result.failed
    return time.perf_counter() - t0


def test_criterion_8_ci_arithmetic():
    mean, hw = mean_ci95([1.0, 2.0, 3.0])
    ok = mean == 2.0 and abs(hw - 2.484) <= 0.001
    report(8, ok, f"samples {{1,2,3}}: mean {mean}, 95% half-width {hw:.6f}")
