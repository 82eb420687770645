"""Command-line interface, exercised in-process through main()."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from p2pcast import (
    CapacityProfile,
    DistributionSpec,
    PolicySpec,
    build,
    generate,
    make_rng,
)
from p2pcast import harness
from p2pcast.cli import main
from p2pcast.harness import AGG_HEADER, RESULTS_HEADER, cell_seed
from p2pcast.topology import AdmissionStuck
from test_harness import drop_one_unit, metrics_fault

CONFIG = """\
distributions=flat,tight
policies=GR,FCS
sizes=8,12
runs=2
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "grid.cfg"
    path.write_text(CONFIG)
    return path


def test_run_writes_results_and_aggregates(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--config", str(config_file), "--seed", "5", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "16 cells" in captured.out
    assert "(0 failed)" in captured.out
    results = (out / "results.csv").read_text().splitlines()
    assert results[0] == RESULTS_HEADER and len(results) == 17
    agg = (out / "agg.csv").read_text().splitlines()
    assert agg[0] == AGG_HEADER and len(agg) > 1
    # progress reporting, one line per cell
    assert captured.err.count("\n") == 16


def test_run_twice_is_identical(config_file, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
    raw = (out / "results.csv").read_bytes()
    agg = (out / "agg.csv").read_bytes()
    assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
    assert (out / "results.csv").read_bytes() == raw
    assert (out / "agg.csv").read_bytes() == agg


def test_run_accepts_overrides(config_file, tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["run", "--config", str(config_file), "--out", str(out),
         "--sizes", "6", "--policies", "GR"]
    )
    assert rc == 0
    results = (out / "results.csv").read_text().splitlines()
    assert len(results) == 1 + 2 * 1 * 1 * 2  # dists x policies x sizes x runs


def test_run_policies_override_matches_the_config_spelling(config_file, tmp_path):
    # A lower-case override names the same cells, with the same seeds, as
    # the canonical code in the config file.
    cfg = tmp_path / "gr.cfg"
    cfg.write_text("distributions=flat,tight\npolicies=GR\nsizes=8\nruns=2\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "file")]) == 0
    args = ["run", "--config", str(config_file), "--sizes", "8", "--policies", "gr"]
    assert main(args + ["--out", str(tmp_path / "flag")]) == 0
    from_flag = (tmp_path / "flag" / "results.csv").read_bytes()
    assert from_flag == (tmp_path / "file" / "results.csv").read_bytes()


def test_run_rejects_two_spellings_of_one_policy(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file), "--out", str(out), "--policies", "GR,gr"]) == 2
    assert capsys.readouterr().err == "error: duplicate entries in policies: ('GR', 'GR')\n"
    assert not out.exists()


def test_run_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("distributions=flat\npolicies=WAT\nsizes=10\nruns=1\n")
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    rc = main(["run", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "o")])
    assert rc == 2
    capsys.readouterr()
    good = tmp_path / "good.cfg"
    good.write_text("distributions=flat\npolicies=GR\nsizes=10\nruns=1\n")
    assert main(["run", "--config", str(good), "--out", str(bad)]) == 2  # --out is a file
    assert capsys.readouterr().err.startswith("error: [Errno 17] File exists")


@pytest.mark.parametrize(
    "key, value, bad",
    [("M", "abc", "abc"), ("u0", "", ""), ("runs", "two", "two"), ("sizes", "10,x", "x"),
     ("capacities", "1,,5", "")],
)
def test_run_names_the_config_key_that_is_not_an_integer(tmp_path, capsys, key, value, bad):
    mapping = {"distributions": "flat", "policies": "GR", "sizes": "10", "runs": "1", key: value}
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in mapping.items()))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: config key {key}: expected an integer, got {bad!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--sizes", "--policies"])
def test_run_rejects_an_empty_override(config_file, tmp_path, capsys, flag):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file), "--out", str(out), flag, ""]) == 2
    err = capsys.readouterr().err
    assert err == "error: distributions, policies and sizes must all be non-empty\n"
    assert not out.exists()


def test_run_reports_malformed_results_without_traceback(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
    path = out / "results.csv"
    lines = path.read_text().splitlines()
    lines[2] = lines[2][:-1] + "2"  # the failed flag is neither 0 nor 1
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["run", "--config", str(config_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed row in {path}, line 3: failed flag '2'")
    assert "Traceback" not in err


def reading_args(command, config_file, out):
    """The arguments of ``command``, ``run`` (a resume) or ``aggregate``,
    that read ``out/results.csv``."""
    if command == "run":
        return ["run", "--config", str(config_file), "--out", str(out)]
    return ["aggregate", str(out / "results.csv")]


@pytest.mark.parametrize("command", ["run", "aggregate"])
def test_a_foreign_byte_in_results_is_named_by_file_and_line(config_file, tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
    path = out / "results.csv"
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b"GR,", b"G\xffR,", 1)
    path.write_bytes(b"\n".join(lines))
    before = path.read_bytes()
    capsys.readouterr()
    assert main(reading_args(command, config_file, out)) == 2
    assert capsys.readouterr().err == f"error: malformed row in {path}, line 3: unexpected '\\\\xff' at column 2\n"
    assert path.read_bytes() == before


@pytest.mark.parametrize("command", ["run", "aggregate"])
def test_a_repeated_cell_row_is_refused(config_file, tmp_path, capsys, command):
    # A finished sweep with one row appended again: aggregating both copies
    # would count that run twice.
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
    path = out / "results.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + lines[1:2]) + "\n")
    before, agg = path.read_bytes(), (out / "agg.csv").read_bytes()
    capsys.readouterr()
    assert main(reading_args(command, config_file, out)) == 2
    assert capsys.readouterr().err == (
        f"error: malformed row in {path}, line {len(lines) + 1}: "
        f"cell GR/flat/n=8/run=0 is already recorded on line 2\n"
    )
    assert path.read_bytes() == before and (out / "agg.csv").read_bytes() == agg


def test_run_names_a_foreign_byte_in_the_config(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_bytes(b"# caf\xe9 grid\ndistributions=flat\npolicies=GR\nsizes=10\nruns=1\xff\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: config key runs: expected an integer, got '1\\\\xff'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("column, foreign", [(0, "gr"), (1, "Flat")])
def test_run_refuses_to_resume_a_foreign_spelling(config_file, tmp_path, capsys, column, foreign):
    # A row as a run that did not canonicalise would have written it: the
    # foreign label, with the seed derived from that label.
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
    path = out / "results.csv"
    lines = path.read_text().splitlines()
    row = lines[1].split(",")
    row[column] = foreign
    row[4] = str(cell_seed(0, row[0], row[1], int(row[2]), int(row[3])))
    lines[1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    before = path.read_bytes()
    capsys.readouterr()
    assert main(["run", "--config", str(config_file), "--out", str(out)]) == 2
    name = ("policy", "distribution")[column]
    assert capsys.readouterr().err.startswith(
        f"error: malformed row in {path}, line 2: {name} {foreign!r} is not one of ("
    )
    assert path.read_bytes() == before


def test_run_refuses_to_resume_under_another_seed(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file), "--seed", "0", "--out", str(out)]) == 0
    before = (out / "results.csv").read_bytes()
    first = (out / "results.csv").read_text().splitlines()[1].split(",")
    policy, dist, n, run, seed = first[:5]
    for args in (["run", "--config", str(config_file)], ["demo"]):
        capsys.readouterr()
        assert main(args + ["--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {out / 'results.csv'}: cell {policy}/{dist}/n={n}/run={run} has seed "
            f"{seed}, but master seed 1 gives {cell_seed(1, policy, dist, int(n), int(run))}"
        )
        assert (out / "results.csv").read_bytes() == before
    # Under its own seed the directory still resumes, as a no-op.
    assert main(["run", "--config", str(config_file), "--seed", "0", "--out", str(out)]) == 0
    assert (out / "results.csv").read_bytes() == before


def test_run_refuses_to_resume_under_another_m(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_file), "--out", str(out)]) == 0
    before = (out / "results.csv").read_bytes()
    other = tmp_path / "m3.cfg"
    other.write_text(CONFIG + "M=3\n")
    capsys.readouterr()
    assert main(["run", "--config", str(other), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {out / 'manifest.json'}: this directory was run with M=4, but this run has M=3"
    )
    assert (out / "results.csv").read_bytes() == before


@pytest.mark.parametrize("command", ["run", "demo"])
def test_infeasible_build_exits_1_naming_the_cell(config_file, tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(harness, "build", drop_one_unit)
    args = ["run", "--config", str(config_file)] if command == "run" else ["demo"]
    assert main(args + ["--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    first = "GR/flat/n=8/run=0" if command == "run" else "FR/flat/n=10/run=0"
    assert captured.err.startswith(
        f"error: {first}: built an infeasible topology: requirement 1 violated: node "
    )
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_a_fault_inside_a_cell_exits_1_naming_the_cell(config_file, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "compute_metrics", metrics_fault)
    assert main(["run", "--config", str(config_file), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: GR/flat/n=8/run=0: ValueError: metrics fault\n")


def test_aggregate_recomputes_from_raw(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--config", str(config_file), "--out", str(out)])
    agg_before = (out / "agg.csv").read_bytes()
    (out / "agg.csv").unlink()
    rc = main(["aggregate", str(out / "results.csv")])
    assert rc == 0
    assert (out / "agg.csv").read_bytes() == agg_before
    assert "aggregate rows" in capsys.readouterr().out
    elsewhere = tmp_path / "elsewhere"
    rc = main(["aggregate", str(out / "results.csv"), "--out", str(elsewhere)])
    assert rc == 0
    assert (elsewhere / "agg.csv").read_bytes() == agg_before


def test_aggregate_rejects_malformed(tmp_path, capsys):
    raw = tmp_path / "results.csv"
    raw.write_text("wrong,header\n1,2\n")
    assert main(["aggregate", str(raw)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row, reason",
    [
        ("GR,flat,10,0,123,,,,,0", "min_delay_mean_s '' is not a finite number with failed=0"),
        ("GR,flat,10,0,123,0.1,0.2,0.3,0.4,1", "min_delay_mean_s '0.1' is not blank with failed=1"),
        ("GR,flat,10,0,123,0.1,inf,0.3,0.4,0", "tree_delay_mean_s 'inf' is not a finite number with failed=0"),
        ("GR,flat,10,0,123,0.1,0.2,nan,0.4,0", "mean_node_vuln 'nan' is not a finite number with failed=0"),
    ],
)
def test_aggregate_rejects_contradictory_metrics(tmp_path, capsys, row, reason):
    raw = tmp_path / "results.csv"
    raw.write_text(f"{RESULTS_HEADER}\n{row}\n")
    assert main(["aggregate", str(raw)]) == 2
    assert capsys.readouterr().err == f"error: malformed row in {raw}, line 2: {reason}\n"
    assert not (tmp_path / "agg.csv").exists()


@pytest.mark.parametrize("command, parallel", [("run", "-3"), ("demo", "0")])
def test_parallel_below_1_exits_2(config_file, tmp_path, capsys, command, parallel):
    out = tmp_path / "out"
    args = ["run", "--config", str(config_file)] if command == "run" else ["demo"]
    assert main(args + ["--out", str(out), "--parallel", parallel]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: parallel must be at least 1, got {parallel}\n"
    assert captured.out == "" and not out.exists()


def test_verify_accepts_built_topology(tmp_path, capsys):
    space = generate(DistributionSpec.preset("flat", 20, 3))
    caps = CapacityProfile.sample(20, make_rng(3, "capacities"))
    topo = build(space, caps, PolicySpec.from_code("GDD"), 4, 3)
    edges, sidecar = tmp_path / "edges.csv", tmp_path / "caps.csv"
    topo.to_csv(edges, sidecar)
    rc = main(["verify", str(edges), str(sidecar)])
    assert rc == 0
    assert "feasible: 20 nodes" in capsys.readouterr().out


def test_verify_flags_mutual_exchange_island(tmp_path, capsys):
    # Two peers feeding each other all M substreams with nothing from the
    # peercaster: in-multiplicities look right but no origin paths exist.
    edges = tmp_path / "edges.csv"
    edges.write_text("uploader,downloader,multiplicity\n1,2,4\n2,1,4\n")
    sidecar = tmp_path / "caps.csv"
    sidecar.write_text("node,u,residual_u\n0,16,16\n1,4,0\n2,4,0\n")
    rc = main(["verify", str(edges), str(sidecar)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "infeasible" in out and "requirement 3" in out


def test_verify_rejects_negative_multiplicity(tmp_path, capsys):
    # A -1 edge would pad the in-multiplicity sums into looking feasible.
    edges = tmp_path / "edges.csv"
    edges.write_text("uploader,downloader,multiplicity\n0,1,5\n2,1,-1\n1,2,4\n")
    sidecar = tmp_path / "caps.csv"
    sidecar.write_text("node,u,residual_u\n0,16,11\n1,16,12\n2,16,16\n")
    assert main(["verify", str(edges), str(sidecar)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: non-positive multiplicity -1 for edge (2, 1) in {edges}, line 3\n"
    )


@pytest.mark.parametrize("m", ["0", "-3"])
def test_verify_rejects_m_below_1(tmp_path, capsys, m):
    # The same bad-input exit as any unreadable file, as `run` refuses M < 1.
    edges, sidecar = tmp_path / "edges.csv", tmp_path / "caps.csv"
    edges.write_text("uploader,downloader,multiplicity\n0,1,4\n")
    sidecar.write_text("node,u,residual_u\n0,16,12\n1,4,4\n")
    assert main(["verify", str(edges), str(sidecar), "--m", m]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: M must be at least 1, got {m}\n")


def test_verify_counts_and_bounds_m_exactly(tmp_path, capsys):
    # A count above 2**53 is printed exactly, not as its float64 rounding.
    edges, sidecar = tmp_path / "edges.csv", tmp_path / "caps.csv"
    edges.write_text("uploader,downloader,multiplicity\n0,1,9007199254740993\n")
    sidecar.write_text("node,u,residual_u\n0,9007199254740993,0\n1,0,0\n")
    assert main(["verify", str(edges), str(sidecar)]) == 1
    assert capsys.readouterr().out == (
        "infeasible: requirement 1 violated: node 1 has 9007199254740993 incoming "
        "connections, expected exactly 4\n"
    )
    # M beyond the int32 flow capacities is bad input.
    assert main(["verify", str(edges), str(sidecar), "--m", "2147483648"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: M must be at most 2**31 - 1, the largest int32 flow capacity, got 2147483648\n"
    )


def test_verify_reports_io_and_format_errors(tmp_path, capsys):
    rc = main(["verify", str(tmp_path / "nope.csv"), str(tmp_path / "nope2.csv")])
    assert rc == 2
    edges = tmp_path / "edges.csv"
    edges.write_text("a,b\n1,2\n")
    sidecar = tmp_path / "caps.csv"
    sidecar.write_text("node,u,residual_u\n0,16,16\n")
    assert main(["verify", str(edges), str(sidecar)]) == 2
    assert "error:" in capsys.readouterr().err
    caps_text = "node,u,residual_u\n0,16,12\n1,4,4\n"
    edge_header = "uploader,downloader,multiplicity\n"
    for edge_rows, caps, message in (
        (
            "0,1,4\n0,2,x\n",
            caps_text,
            f"invalid literal for int() with base 10: 'x' in {edges}, line 3",
        ),
        (
            "0,1,99999999999999999999\n",
            caps_text,
            f"a field of ['0', '1', '99999999999999999999'] is outside the int64 range "
            f"in {edges}, line 2",
        ),
        (
            # Past Python's 4300-digit int() limit, still named by line.
            "",
            "node,u,residual_u\n0," + "1" * 5000 + ",0\n",
            f"a field of ['0', '11111111...11111111' (5000 characters), '0'] is outside the int64 range "
            f"in {sidecar}, line 2",
        ),
        (
            "0,1,9223372036854775807\n0,1,1\n",
            caps_text,
            f"edge (0, 1) is already listed on line 2 in {edges}, line 3",
        ),
        ("0,1,4\n0,1\n", caps_text, f"expected 3 fields, got 2 in {edges}, line 3"),
        (
            "0,1,4\n1,2,4\n",
            caps_text,
            f"edge (1, 2) references a node outside the capacity file in {edges}, line 3",
        ),
        ("0,1,4\n", "node,u,residual_u\n0,16,12\n1,4\n", f"expected 3 fields, got 2 in {sidecar}, line 3"),
        (
            "0,1,4\n",
            "node,u,residual_u\n0,16,12\n1,-4,4\n",
            f"negative upload capacity -4 for node 1 in {sidecar}, line 3",
        ),
        (
            "0,1,4\n",
            "node,u,residual_u\n1,0,-7\n0,4,0\n",
            f"residual_u -7 for node 1 is not its u 0 less its 0 outgoing connections in {sidecar}, line 2",
        ),
        (
            "0,1,9223372036854775807\n0,0,9223372036854775807\n",
            caps_text,
            f"the outgoing connections of node 0 sum beyond the int64 range in {edges}",
        ),
    ):
        edges.write_text(edge_header + edge_rows)
        sidecar.write_text(caps)
        assert main(["verify", str(edges), str(sidecar)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "edge_bytes, caps_bytes, message",
    [
        (b"", b"", "capacity file {caps} lists no nodes"),
        (b"0,1,4\n", b"0,16,12\n1,4\xff,4\n", r"invalid literal for int() with base 10: '4\\xff' in {caps}, line 3"),
        (b"0,1,4\n\xff,1,4\n", b"0,16,12\n1,4,4\n", r"invalid literal for int() with base 10: '\\xff' in {edges}, line 3"),
    ],
    ids=["header-only-capacity-file", "undecodable-capacity-byte", "undecodable-edge-byte"],
)
def test_verify_names_the_file_and_line_of_unreadable_input(tmp_path, capsys, edge_bytes, caps_bytes, message):
    edges, caps = tmp_path / "edges.csv", tmp_path / "caps.csv"
    edges.write_bytes(b"uploader,downloader,multiplicity\n" + edge_bytes)
    caps.write_bytes(b"node,u,residual_u\n" + caps_bytes)
    assert main(["verify", str(edges), str(caps)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message.format(edges=edges, caps=caps)}\n")


def test_distributions_writes_scatter_files(tmp_path, capsys):
    out = tmp_path / "spaces"
    rc = main(["distributions", "--out", str(out), "--seed", "1", "--sizes", "40"])
    assert rc == 0
    for kind in ("flat", "tight", "loose"):
        path = out / f"space_{kind}_n40.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "node,x,y" and len(lines) == 41
    text = capsys.readouterr().out
    assert "clusters" in text  # clustered kinds report their cluster count


@pytest.mark.parametrize(
    "args, error",
    [
        (["distributions", "--sizes", "0", "--out", "{tmp}"], "n must be at least 1 (the peercaster itself)"),
        (["distributions", "--out", "{file}"], "[Errno 17] File exists: '{file}'"),
        (["aggregate", "{raw}", "--out", "{file}"], "[Errno 17] File exists: '{file}'"),
        (["distributions", "--sizes", "", "--out", "{tmp}"], "config key sizes: expected an integer, got ''"),
        (["distributions", "--sizes", "x", "--out", "{tmp}"], "config key sizes: expected an integer, got 'x'"),
    ],
    ids=[
        "distributions-size-0", "distributions-out-is-a-file", "aggregate-out-is-a-file",
        "distributions-sizes-empty", "distributions-sizes-not-an-integer",
    ],
)
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, args, error):
    names = {"tmp": tmp_path / "spaces", "file": tmp_path / "a_file", "raw": tmp_path / "results.csv"}
    names["file"].write_text("")
    names["raw"].write_text(RESULTS_HEADER + "\n")
    assert main([a.format(**names) for a in args]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {error.format(**names)}\n")


def test_demo_all_cells_feasible(tmp_path, capsys):
    rc = main(["demo", "--out", str(tmp_path / "demo")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "all 168 cells feasible" in out
    assert (tmp_path / "demo" / "results.csv").exists()
    assert (tmp_path / "demo" / "agg.csv").exists()


def test_demo_lists_stuck_cells_and_exits_1(tmp_path, capsys, monkeypatch):
    def stuck(*args, **kwargs):
        raise AdmissionStuck((1,), 0, 4)

    monkeypatch.setattr(harness, "build", stuck)
    assert main(["demo", "--out", str(tmp_path / "demo")]) == 1
    captured = capsys.readouterr()
    lines = captured.err.split("demo: ")[1].splitlines()
    assert lines[0] == "168/168 cells stuck in admission:"
    assert lines[1:3] == ["  FR/flat/n=10/run=0", "  FR/flat/n=10/run=1"]
    assert len(lines) == 169 and lines[-1] == "  GDS/loose/n=30/run=1"
    assert captured.out == ""


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats is most of the package's import time; nothing may pull it in.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, p2pcast, p2pcast.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_leaves_scipy_special_to_csgraph():
    # Only aggregation needs scipy.special; importing the package may load
    # no more of it than scipy.sparse.csgraph loads on its own.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    listing = "; print(sorted(m for m in sys.modules if m.startswith('scipy.special')))"
    loaded = []
    for imports in ("scipy.sparse.csgraph", "p2pcast, p2pcast.cli"):
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys, {imports}" + listing],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        loaded.append(set(ast.literal_eval(proc.stdout.strip())))
    csgraph, package = loaded
    assert package <= csgraph, sorted(package - csgraph)


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "p2pcast", "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "verify" in proc.stdout and "run" in proc.stdout
