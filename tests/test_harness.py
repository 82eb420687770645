"""Experiment harness: config parsing, aggregation, resume, determinism."""

import dataclasses
import hashlib
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from p2pcast import CapacityProfile, DistributionSpec, PolicySpec, generate, harness, make_rng
from p2pcast.delay_space import KINDS
from p2pcast.harness import (
    AGG_HEADER,
    METRIC_COLUMNS,
    RESULTS_HEADER,
    AggregateRow,
    CellResult,
    ExperimentConfig,
    SimParams,
    aggregate,
    cell_inputs,
    cell_seed,
    config_from_mapping,
    iter_cells,
    mean_ci95,
    parse_config,
    read_results_csv,
    run_cell,
    run_experiment,
    write_aggregate_csv,
)
from p2pcast.rng import derive_seed
from p2pcast.topology import ALL_POLICY_CODES, CapacityExhausted, Topology, TopologyBuildError, build

TINY = ExperimentConfig(
    distributions=("flat", "tight"),
    policies=("GR", "FCS"),
    sizes=(8, 12),
    runs=2,
    master_seed=42,
)


# ------------------------------------------------------------- config


CONFIG_TEXT = """\
# example experiment
distributions = flat, loose
policies=FCS,GDN
sizes=10,20

runs=3
M=4
u0=16
capacities=1,5,10,16
"""


def test_parse_config_round_trip():
    mapping = parse_config(CONFIG_TEXT)
    assert mapping == {
        "distributions": "flat, loose",
        "policies": "FCS,GDN",
        "sizes": "10,20",
        "runs": "3",
        "M": "4",
        "u0": "16",
        "capacities": "1,5,10,16",
    }
    cfg = config_from_mapping(mapping, master_seed=9)
    assert cfg.distributions == ("flat", "loose")
    assert cfg.policies == ("FCS", "GDN")
    assert cfg.sizes == (10, 20)
    assert cfg.runs == 3
    assert cfg.master_seed == 9
    assert cfg.sim == SimParams()


def test_parse_config_rejects_garbage():
    with pytest.raises(ValueError, match="line 1"):
        parse_config("not a key value pair")
    with pytest.raises(ValueError, match="duplicate key"):
        parse_config("runs=1\nruns=2")


def test_config_mapping_validation():
    base = parse_config(CONFIG_TEXT)
    bad = dict(base, typo="1")
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_mapping(bad)
    missing = {k: v for k, v in base.items() if k != "runs"}
    with pytest.raises(ValueError, match="missing required"):
        config_from_mapping(missing)
    with pytest.raises(ValueError, match="unknown distribution"):
        config_from_mapping(dict(base, distributions="flat,bumpy"))
    with pytest.raises(ValueError, match="policy"):
        config_from_mapping(dict(base, policies="FCS,XYZ"))
    with pytest.raises(ValueError, match="duplicate"):
        config_from_mapping(dict(base, sizes="10,10"))
    with pytest.raises(ValueError, match="at least 1"):
        config_from_mapping(dict(base, runs="0"))


def test_config_overrides_and_case():
    mapping = parse_config(CONFIG_TEXT)
    cfg = config_from_mapping(dict(mapping, sizes="5,6", policies="GR"))
    assert cfg.sizes == (5, 6)
    assert cfg.policies == ("GR",)
    lower = config_from_mapping(dict(mapping, policies="fcs,gdn"))
    assert lower.policies == ("FCS", "GDN")


def test_config_spells_each_policy_by_its_code():
    cfg = ExperimentConfig(distributions=("flat",), policies=("gr",), sizes=(8,), runs=1)
    assert cfg.policies == ("GR",)
    assert ExperimentConfig(("flat",), (" fcs", "Gdn"), (8,), 1).policies == ("FCS", "GDN")
    # Canonical first, so two spellings of one policy are a duplicate.
    with pytest.raises(ValueError, match=re.escape("duplicate entries in policies: ('GR', 'GR')")):
        ExperimentConfig(distributions=("flat",), policies=("GR", "gr"), sizes=(8,), runs=1)


def test_sim_params_validation():
    with pytest.raises(ValueError, match="below M"):
        SimParams(m=4, u0=3)
    with pytest.raises(ValueError, match="non-empty"):
        SimParams(capacity_choices=())


def test_default_grid_shape():
    path = Path(__file__).resolve().parents[1] / "configs" / "full_grid.cfg"
    cfg = config_from_mapping(parse_config(path.read_text()))
    assert cfg.distributions == KINDS and cfg.policies == ALL_POLICY_CODES
    assert cfg.sizes == (10, 20, 50, 100, 200, 500, 1000, 2000, 5000)
    assert cfg.runs == 3 and cfg.sim == SimParams()
    cells = list(iter_cells(cfg))
    assert len(cells) == 3 * 14 * 9 * 3 == 1134
    assert len(set(cells)) == len(cells)
    # canonical order: distribution-major, run-minor
    assert cells[0] == ("FR", "flat", 10, 0)
    assert cells[1] == ("FR", "flat", 10, 1)
    assert cells[-1][1] == cfg.distributions[-1]


# ------------------------------------------------------------- statistics


def test_mean_ci95_reference_values():
    # Exact t quantiles, not recorded library output: a scipy whose t.ppf is off by >1e-12 rightly fails.
    p = 0.975
    mean, hw = mean_ci95([1.0, 2.0, 3.0])
    assert mean == 2.0
    assert type(hw) is float
    # df=2: t = (2p-1)/sqrt(2p(1-p)); sd = 1, k = 3
    t2 = (2 * p - 1) / math.sqrt(2 * p * (1 - p))
    assert hw == pytest.approx(t2 / math.sqrt(3), abs=1e-12)
    # df=1 (Cauchy): t = tan(pi(p-1/2)); sd = 1/sqrt(2), k = 2
    mean, hw = mean_ci95([1.0, 2.0])
    assert mean == 1.5
    assert type(hw) is float
    t1 = math.tan(math.pi * (p - 0.5))
    assert hw == pytest.approx(t1 / 2, abs=1e-12)


def test_mean_ci95_quantile_is_t_ppf_bit_for_bit():
    # The half-width the scipy.stats way, for every run count up to 2000.
    from scipy import stats

    rng = np.random.default_rng(0)
    for k in range(2, 2001):
        values = rng.uniform(0.0, 1.0, size=k)
        sd = float(values.std(ddof=1))
        want = float(float(stats.t.ppf(0.975, k - 1)) * sd / np.sqrt(k))
        mean, hw = mean_ci95(values)
        assert mean == float(values.mean())
        assert hw.hex() == want.hex(), k


def test_mean_ci95_edge_cases():
    mean, hw = mean_ci95([5.0])
    assert mean == 5.0 and hw is None
    mean, hw = mean_ci95([2.0, 2.0, 2.0, 2.0])
    assert mean == 2.0 and hw == 0.0
    with pytest.raises(ValueError):
        mean_ci95([])


# ------------------------------------------------------------- cells


def test_cell_seed_is_documented_derivation():
    assert cell_seed(0, "FR", "flat", 10, 0) == derive_seed(0, "cell", "FR", "flat", 10, 0)
    assert cell_seed(0, "FR", "flat", 10, 0) == 13466156006359765218
    # every coordinate matters
    base = cell_seed(1, "GR", "tight", 20, 0)
    assert base != cell_seed(2, "GR", "tight", 20, 0)
    assert base != cell_seed(1, "FR", "tight", 20, 0)
    assert base != cell_seed(1, "GR", "loose", 20, 0)
    assert base != cell_seed(1, "GR", "tight", 21, 0)
    assert base != cell_seed(1, "GR", "tight", 20, 1)


def test_cell_inputs_follow_sim():
    sim = SimParams(m=6, u0=6, capacity_choices=(0, 1, 5, 16))
    seed, space, caps, spec = cell_inputs("GDS", "loose", 40, 2, 11, sim)
    assert seed == cell_seed(11, "GDS", "loose", 40, 2)
    want = generate(DistributionSpec.preset("loose", 40, seed))
    assert space.coords.tobytes() == want.coords.tobytes()
    want_u = CapacityProfile.sample(40, make_rng(seed, "capacities"), (0, 1, 5, 16), 6).u
    assert np.array_equal(caps.u, want_u)
    assert caps.u[0] == 6 and 0 in caps.u
    assert spec == PolicySpec.from_code("GDS")


def test_run_cell_success_row():
    r = run_cell("GR", "flat", 12, 0, 42, SimParams())
    assert not r.failed
    assert r.seed == cell_seed(42, "GR", "flat", 12, 0)
    assert r.min_delay_mean_s > 0
    assert r.tree_delay_mean_s >= r.min_delay_mean_s
    assert 0.0 <= r.mean_node_vuln <= 1.0
    assert 0.0 <= r.max_sys_vuln <= 1.0
    again = run_cell("GR", "flat", 12, 0, 42, SimParams())
    assert again.csv_row() == r.csv_row()


def test_run_cell_records_failure():
    # Unit capacities leave no slack: u_i + F >= M fails as soon as the
    # peercaster's spare uploads run out, and the cell must report that
    # instead of raising.
    sim = SimParams(m=4, u0=16, capacity_choices=(1,))
    r = run_cell("GR", "flat", 30, 0, 0, sim)
    assert r.failed
    assert r.min_delay_mean_s is None and r.max_sys_vuln is None
    row = r.csv_row()
    assert row.endswith(",1")
    assert ",,,," in row  # four blank metric fields


def drop_one_unit(*args, **kwargs):
    """A stand-in for ``build`` whose topology lacks one connection unit of
    the first edge, so its downloader has only M-1 incoming units."""
    topo = build(*args, **kwargs)
    edges = dict(topo.edges)
    first = min(edges)
    edges[first] -= 1
    if not edges[first]:
        del edges[first]
    return Topology(topo.n_nodes, edges, topo.residual_u)


def test_run_cell_raises_on_an_infeasible_build(monkeypatch):
    monkeypatch.setattr(harness, "build", drop_one_unit)
    with pytest.raises(TopologyBuildError) as exc:
        run_cell("GR", "flat", 12, 0, 42, SimParams())
    assert str(exc.value).startswith(
        "GR/flat/n=12/run=0: built an infeasible topology: requirement 1 violated: node "
    )


def exhaust(*args, **kwargs):
    """A stand-in for ``build`` that fails as a build fault would."""
    raise CapacityExhausted("no residual upload capacity among connected peers (picked 2/4 for peer 7)")


def test_a_failing_build_names_its_cell(monkeypatch, tmp_path):
    # Serially and from a worker process (forked, so it inherits the
    # stand-in), the error names the cell before the builder's message.
    monkeypatch.setattr(harness, "build", exhaust)
    with pytest.raises(TopologyBuildError) as exc:
        run_cell("FCS", "tight", 12, 1, 42, SimParams())
    assert str(exc.value) == "FCS/tight/n=12/run=1: " + str(exc.value.__cause__)
    assert isinstance(exc.value.__cause__, CapacityExhausted)
    policy, dist, n, run = next(iter(iter_cells(TINY)))
    for parallel in (1, 2):
        with pytest.raises(TopologyBuildError) as exc:
            run_experiment(TINY, tmp_path / str(parallel), parallel=parallel)
        assert str(exc.value) == (
            f"{policy}/{dist}/n={n}/run={run}: no residual upload capacity among connected "
            f"peers (picked 2/4 for peer 7)"
        )


def metrics_fault(*args, **kwargs):
    """A stand-in for ``compute_metrics`` that fails as a metrics bug would."""
    raise ValueError("metrics fault")


def test_any_fault_inside_a_cell_names_its_cell(monkeypatch, tmp_path):
    # A fault that is no TopologyBuildError, here in the metrics, names its
    # cell and its type, serially and from a worker process, and chains it.
    monkeypatch.setattr(harness, "compute_metrics", metrics_fault)
    with pytest.raises(TopologyBuildError) as exc:
        run_cell("GR", "flat", 12, 0, 42, SimParams())
    assert str(exc.value) == "GR/flat/n=12/run=0: ValueError: metrics fault"
    assert isinstance(exc.value.__cause__, ValueError)
    policy, dist, n, run = next(iter(iter_cells(TINY)))
    for parallel in (1, 2):
        with pytest.raises(TopologyBuildError) as exc:
            run_experiment(TINY, tmp_path / str(parallel), parallel=parallel)
        assert str(exc.value) == f"{policy}/{dist}/n={n}/run={run}: ValueError: metrics fault"


def test_run_experiment_starts_no_more_workers_than_cells(monkeypatch, tmp_path):
    sizes = []

    class RecordingPool:
        """A stand-in for ``ProcessPoolExecutor`` that records its size and
        maps in this process: no worker starts."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    out = tmp_path / "exp"
    run_experiment(TINY, out, parallel=500)
    whole = (out / "results.csv").read_bytes()
    cells = len(list(iter_cells(TINY)))
    assert sizes == [cells]
    # Three cells left take three workers; one cell, or none, runs serially.
    lines = whole.decode().splitlines(keepends=True)
    for left in (3, 1, 0):
        (out / "results.csv").write_text("".join(lines[: len(lines) - left]))
        run_experiment(TINY, out, parallel=500)
        assert (out / "results.csv").read_bytes() == whole
        assert sizes == [cells, 3]


# ------------------------------------------------------------- aggregation


def test_aggregate_pools_then_splits():
    def cell(policy, dist, n, run, value, failed=False):
        v = None if failed else value
        return CellResult(policy, dist, n, run, 0, v, v, v, v, failed)

    rows = aggregate(
        [
            cell("GR", "flat", 10, 0, 1.0),
            cell("GR", "flat", 10, 1, 2.0),
            cell("GR", "tight", 10, 0, 3.0),
            cell("GR", "tight", 10, 1, 0.0, failed=True),
        ]
    )
    by_key = {(r.policy, r.distribution, r.n, r.metric): r for r in rows}
    pooled = by_key[("GR", "all", 10, "min_delay_mean_s")]
    assert pooled.k == 3 and pooled.mean == 2.0
    flat = by_key[("GR", "flat", 10, "min_delay_mean_s")]
    assert flat.k == 2 and flat.mean == 1.5
    tight = by_key[("GR", "tight", 10, "min_delay_mean_s")]
    assert tight.k == 1 and tight.mean == 3.0 and tight.ci95_halfwidth is None
    # pooled rows come before the per-distribution splits of the same group
    labels = [r.distribution for r in rows if r.policy == "GR" and r.n == 10]
    assert labels[0] == "all"


def test_aggregate_drops_empty_groups():
    failed = CellResult("GR", "flat", 10, 0, 0, None, None, None, None, True)
    assert aggregate([failed]) == []


def test_write_aggregate_csv(tmp_path):
    rows = [
        AggregateRow("GR", "all", 10, "min_delay_mean_s", 0.125, 0.5, 3),
        AggregateRow("GR", "flat", 10, "min_delay_mean_s", 0.25, None, 1),
    ]
    path = tmp_path / "agg.csv"
    write_aggregate_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == AGG_HEADER
    assert lines[1] == "GR,all,10,min_delay_mean_s,0.125,0.5,3"
    assert lines[2] == "GR,flat,10,min_delay_mean_s,0.25,,1"


# ------------------------------------------------------------- experiments


def test_run_experiment_round_trip(tmp_path):
    out = tmp_path / "exp"
    results, agg = run_experiment(TINY, out)
    assert len(results) == 2 * 2 * 2 * 2
    assert [r.key() for r in results] == list(iter_cells(TINY))

    raw = (out / "results.csv").read_text().splitlines()
    assert raw[0] == RESULTS_HEADER
    assert len(raw) == 1 + len(results)

    parsed = read_results_csv(out / "results.csv")
    assert [r.key() for r in parsed] == [r.key() for r in results]
    assert [r.csv_row() for r in parsed] == [r.csv_row() for r in results]

    agg_lines = (out / "agg.csv").read_text().splitlines()
    assert agg_lines[0] == AGG_HEADER
    assert len(agg_lines) == 1 + len(agg)


def test_run_experiment_resume_is_byte_identical(tmp_path):
    out = tmp_path / "exp"
    run_experiment(TINY, out)
    before = (out / "results.csv").read_bytes()
    calls = []
    run_experiment(TINY, out, progress=calls.append)
    assert calls == []  # nothing left to do
    assert (out / "results.csv").read_bytes() == before


def test_run_experiment_resumes_partial_file(tmp_path):
    out = tmp_path / "exp"
    results, _ = run_experiment(TINY, out)
    whole = (out / "results.csv").read_bytes()
    # truncate to the first 5 rows, as if the run had been interrupted
    lines = (out / "results.csv").read_text().splitlines()
    (out / "results.csv").write_text("\n".join(lines[:6]) + "\n")
    resumed, _ = run_experiment(TINY, out)
    assert [r.csv_row() for r in resumed] == [r.csv_row() for r in results]
    assert (out / "results.csv").read_bytes() == whole
    assert all(not r.failed for r in resumed[5:])


def test_run_experiment_recovers_torn_last_row(tmp_path):
    def keys_and_metrics(rows):
        return [(r.key(), *(getattr(r, c) for c in METRIC_COLUMNS), r.failed) for r in rows]

    whole, _ = run_experiment(TINY, tmp_path / "whole")
    out = tmp_path / "cut"
    run_experiment(TINY, out)
    path = out / "results.csv"
    raw = path.read_bytes()
    cut = raw[:-20]  # a crash in the middle of writing the last row
    torn = len(cut) - (cut.rfind(b"\n") + 1)
    path.write_bytes(cut)
    with pytest.warns(UserWarning, match=rf"results\.csv: dropped {torn} bytes of a torn last row"):
        resumed, _ = run_experiment(TINY, out)
    assert keys_and_metrics(resumed) == keys_and_metrics(whole)
    assert path.read_bytes() == (tmp_path / "whole" / "results.csv").read_bytes()
    assert (out / "agg.csv").read_bytes() == (tmp_path / "whole" / "agg.csv").read_bytes()


def test_read_results_csv_names_malformed_row(tmp_path):
    out = tmp_path / "exp"
    run_experiment(TINY, out)
    path = out / "results.csv"
    lines = path.read_text().splitlines()
    cols = lines[3].split(",")
    for bad in (
        cols[:-1],  # a field missing
        cols + ["extra"],
        cols[:2] + ["ten"] + cols[3:],  # n is not an integer
        cols[:-1] + ["x"],  # failed flag is neither 0 nor 1
    ):
        path.write_text("\n".join(lines[:3] + [",".join(bad)] + lines[4:]) + "\n")
        with pytest.raises(ValueError, match=rf"malformed row in {re.escape(str(path))}, line 4"):
            read_results_csv(path)
        with pytest.raises(ValueError, match="line 4"):
            run_experiment(TINY, out)


ROW = "GR,flat,10,0,123,0.1,0.2,0.3,0.4,0"


def test_read_results_csv_refuses_crlf_at_its_header(tmp_path):
    path = tmp_path / "results.csv"
    path.write_bytes(f"{RESULTS_HEADER}\r\n{ROW}\r\n".encode())
    with pytest.raises(ValueError) as exc:
        read_results_csv(path)
    assert str(exc.value) == f"unexpected results header in {path}: {(RESULTS_HEADER + chr(13)).split(',')}"


@pytest.mark.parametrize(
    "body, reason",
    [
        (f"{ROW}\n\n", "line 3: expected 10 fields"),
        (f"\n{ROW}\n", "line 2: expected 10 fields"),
        (f'{ROW}\n"GR",flat,10,1,123,0.1,0.2,0.3,0.4,0\n', "line 3: unexpected '\"' at column 1"),
        (ROW.replace("0.2", "0.2\r") + "\n", "line 2: unexpected '\\r' at column 25"),
        (ROW.replace(",10,", ", 10,") + "\n", "line 2: unexpected ' ' at column 9"),
        (ROW.replace("0.3", "0.3\xff") + "\n", "line 2: unexpected '\\\\xff' at column 29"),
        (ROW.replace("0.3", "0.3\\") + "\n", "line 2: unexpected '\\\\' at column 29"),
        (ROW.replace(",10,", ",1_0,") + "\n", "line 2: unexpected '_' at column 10"),
    ],
    ids=["blank-last-line", "blank-line", "quoted-field", "cr", "space", "foreign-byte", "backslash", "underscore"],
)
def test_read_results_csv_refuses_what_csv_row_does_not_write(tmp_path, body, reason):
    path = tmp_path / "results.csv"
    path.write_bytes(f"{RESULTS_HEADER}\n{body}".encode("latin-1"))
    with pytest.raises(ValueError) as exc:
        read_results_csv(path)
    assert str(exc.value) == f"malformed row in {path}, {reason}"


@pytest.mark.parametrize("tail", ["\n", ""])
def test_read_results_csv_reads_a_last_row_without_its_newline(tmp_path, tail):
    path = tmp_path / "results.csv"
    path.write_text(f"{RESULTS_HEADER}\n{ROW}\n{ROW.replace(',0,123,', ',1,124,')}{tail}")
    assert [r.csv_row() for r in read_results_csv(path)] == [ROW, ROW.replace(",0,123,", ",1,124,")]
    path.write_text(RESULTS_HEADER + tail)
    assert read_results_csv(path) == []


def test_read_results_csv_refuses_a_repeated_cell(tmp_path):
    run_experiment(TINY, tmp_path)
    path = tmp_path / "results.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:4] + [lines[2]] + lines[4:]) + "\n")
    p, d, n, run = lines[2].split(",")[:4]
    message = f"malformed row in {path}, line 5: cell {p}/{d}/n={n}/run={run} is already recorded on line 3"
    with pytest.raises(ValueError) as exc:
        read_results_csv(path)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        run_experiment(TINY, tmp_path)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "cols, reason",
    [
        ({5: "", 6: "", 7: "", 8: ""}, "min_delay_mean_s '' is not a finite number with failed=0"),
        ({7: ""}, "mean_node_vuln '' is not a finite number with failed=0"),
        ({9: "1"}, "min_delay_mean_s {5!r} is not blank with failed=1"),
        ({5: "", 6: "", 7: "", 9: "1"}, "max_sys_vuln {8!r} is not blank with failed=1"),
        ({5: "nan"}, "min_delay_mean_s 'nan' is not a finite number with failed=0"),
        ({8: "-inf"}, "max_sys_vuln '-inf' is not a finite number with failed=0"),
        ({6: "1e400"}, "tree_delay_mean_s '1e400' is not a finite number with failed=0"),
    ],
)
def test_resume_refuses_contradictory_metrics(tmp_path, cols, reason):
    # Blank metrics on a row that did not fail, metrics on one that did, or
    # values no cell yields: a resume must neither keep nor aggregate them.
    run_experiment(TINY, tmp_path)
    path = tmp_path / "results.csv"
    lines = path.read_text().splitlines()
    row = lines[2].split(",")
    assert row[-1] == "0"
    for k, v in cols.items():
        row[k] = v
    lines[2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    before = path.read_bytes()
    message = f"malformed row in {path}, line 3: {reason.format(*row)}"
    with pytest.raises(ValueError) as exc:
        read_results_csv(path)
    assert str(exc.value) == message
    calls = []
    with pytest.raises(ValueError) as exc:
        run_experiment(TINY, tmp_path, progress=calls.append)
    assert str(exc.value) == message
    assert calls == [] and path.read_bytes() == before


def test_resume_refuses_the_old_results_header(tmp_path):
    # A results.csv from before the build_ms wall-time column was dropped.
    out = tmp_path / "exp"
    out.mkdir()
    path = out / "results.csv"
    old_header = RESULTS_HEADER.replace(",failed", ",build_ms,failed")
    path.write_text(old_header + "\nGR,flat,8,0,1,0.1,0.2,0.3,0.4,5,0\n")
    before = path.read_bytes()
    with pytest.raises(ValueError, match=rf"unexpected results header in {re.escape(str(path))}: "):
        run_experiment(TINY, out)
    assert path.read_bytes() == before


def test_run_experiment_writes_its_manifest(tmp_path):
    run_experiment(TINY, tmp_path)
    assert json.loads((tmp_path / "manifest.json").read_text()) == {
        "master_seed": 42,
        "M": 4,
        "u0": 16,
        "capacities": [1, 5, 10, 16],
        "results_header": RESULTS_HEADER,
    }


@pytest.mark.parametrize(
    "sim, key, old, new",
    [
        (SimParams(m=3), "M", "4", "3"),
        (SimParams(u0=20), "u0", "16", "20"),
        (SimParams(capacity_choices=(5, 10, 16)), "capacities", "[1, 5, 10, 16]", "[5, 10, 16]"),
    ],
)
def test_resume_refuses_other_settings(tmp_path, sim, key, old, new):
    run_experiment(TINY, tmp_path)
    before = {name: (tmp_path / name).read_bytes() for name in ("results.csv", "agg.csv", "manifest.json")}
    calls = []
    with pytest.raises(ValueError) as exc:
        run_experiment(dataclasses.replace(TINY, sim=sim), tmp_path, progress=calls.append)
    assert str(exc.value).startswith(
        f"{tmp_path / 'manifest.json'}: this directory was run with {key}={old}, "
        f"but this run has {key}={new}; "
    )
    assert calls == []
    assert {name: (tmp_path / name).read_bytes() for name in before} == before


def test_resume_refuses_another_seed_without_rows(tmp_path):
    # With no row to carry a cell seed, only the manifest knows the old seed.
    run_experiment(TINY, tmp_path)
    path = tmp_path / "results.csv"
    path.write_text(RESULTS_HEADER + "\n")
    with pytest.raises(ValueError, match="run with master_seed=42, but this run has master_seed=43"):
        run_experiment(dataclasses.replace(TINY, master_seed=43), tmp_path)
    assert path.read_text() == RESULTS_HEADER + "\n"


def test_resume_adopts_or_rejects_a_manifest(tmp_path):
    whole, _ = run_experiment(TINY, tmp_path / "whole")
    out = tmp_path / "out"
    run_experiment(TINY, out)
    manifest = out / "manifest.json"
    # A directory from before manifests resumes and gets one.
    written = manifest.read_bytes()
    manifest.unlink()
    resumed, _ = run_experiment(TINY, out)
    assert manifest.read_bytes() == written
    assert [r.csv_row() for r in resumed] == [r.csv_row() for r in whole]
    for bad in (b"{not json", b"\xff", b"[4]"):
        manifest.write_bytes(bad)
        with pytest.raises(ValueError, match=rf"{re.escape(str(manifest))}: not a JSON manifest"):
            run_experiment(TINY, out)


def test_run_experiment_fresh_dirs_agree(tmp_path):
    a, _ = run_experiment(TINY, tmp_path / "a")
    b, _ = run_experiment(TINY, tmp_path / "b")
    assert (tmp_path / "a" / "results.csv").read_bytes() == (
        tmp_path / "b" / "results.csv"
    ).read_bytes()
    assert (tmp_path / "a" / "agg.csv").read_bytes() == (tmp_path / "b" / "agg.csv").read_bytes()


#: sha256 of the outputs of ``configs/full_grid.cfg`` at sizes 10,20,50 and
#: master seed 0 (numpy 2.4.6, scipy 1.17.1). A change that is meant to keep
#: every bit (a faster builder, a refactor) must leave these as they are.
FULL_GRID_SMALL_SHA256 = {
    "results.csv": "2304f33ce45cc800116272a7b00bd8c361ab385f83fa3c19c07fa9cbf8aeb074",
    "agg.csv": "52c1f166a50e335b8fdbea3be8ec01d363ff7f6a0b8494a6196453a320368c1b",
}


def test_full_grid_small_sizes_keep_their_bytes(tmp_path):
    config_path = Path(__file__).resolve().parents[1] / "configs" / "full_grid.cfg"
    config = config_from_mapping(
        dict(parse_config(config_path.read_text()), sizes="10,20,50"), master_seed=0
    )
    run_experiment(config, tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in FULL_GRID_SMALL_SHA256
    }
    assert digests == FULL_GRID_SMALL_SHA256


#: sha256 of the outputs of all of ``configs/full_grid.cfg`` at master seed 0
#: (numpy 2.4.6, scipy 1.17.1): the only byte pin of sizes at or above
#: ``topology._PRUNE_MIN``, where the builder prunes its scans.
FULL_GRID_SHA256 = {
    "results.csv": "9c834ebe31554b991bf85baf0d4b5d449970c475ab77fa2307ef09430c70eb03",
    "agg.csv": "b7239ce9d6c54d12070a61d0e3468a9704b43c430ec7fed3b76edd906d4bfb89",
}


@pytest.mark.skipif(
    os.environ.get("P2PCAST_FULL_GRID") != "1",
    reason="all 1134 cells take about a minute at parallel=2; set P2PCAST_FULL_GRID=1",
)
def test_full_grid_keeps_its_bytes(tmp_path):
    config_path = Path(__file__).resolve().parents[1] / "configs" / "full_grid.cfg"
    config = config_from_mapping(parse_config(config_path.read_text()), master_seed=0)
    run_experiment(config, tmp_path, parallel=2)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in FULL_GRID_SHA256
    }
    assert digests == FULL_GRID_SHA256


def test_run_experiment_parallel_matches_serial(tmp_path):
    run_experiment(TINY, tmp_path / "serial", parallel=1)
    run_experiment(TINY, tmp_path / "pool", parallel=2)
    assert (tmp_path / "serial" / "results.csv").read_bytes() == (
        tmp_path / "pool" / "results.csv"
    ).read_bytes()
    assert (tmp_path / "serial" / "agg.csv").read_bytes() == (
        tmp_path / "pool" / "agg.csv"
    ).read_bytes()


def test_run_experiment_aggregate_matches_file(tmp_path):
    out = tmp_path / "exp"
    _, agg = run_experiment(TINY, out)
    reread = aggregate(read_results_csv(out / "results.csv"))
    assert reread == agg


def test_failed_cells_recorded_but_not_aggregated(tmp_path):
    cfg = ExperimentConfig(
        distributions=("flat",),
        policies=("GR",),
        sizes=(30,),
        runs=2,
        master_seed=0,
        sim=SimParams(capacity_choices=(1,)),
    )
    out = tmp_path / "exp"
    results, agg = run_experiment(cfg, out)
    assert all(r.failed for r in results)
    assert agg == []
    raw = (out / "results.csv").read_text().splitlines()
    assert len(raw) == 3 and all(line.endswith(",1") for line in raw[1:])
    assert (out / "agg.csv").read_text().splitlines() == [AGG_HEADER]


def test_progress_callback_sees_each_cell(tmp_path):
    seen = []
    run_experiment(TINY, tmp_path / "exp", progress=seen.append)
    assert [r.key() for r in seen] == list(iter_cells(TINY))
