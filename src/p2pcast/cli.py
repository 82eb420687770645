"""Command-line front end.

Subcommands:

* ``run`` — run an experiment grid from a config file.
* ``aggregate`` — recompute aggregate rows from an existing raw results CSV.
* ``verify`` — check a topology, the edge and capacity files
  ``Topology.to_csv`` writes, for feasibility and report the first violated
  requirement.
* ``distributions`` — write sample delay spaces as node,x,y CSVs.
* ``demo`` — run a small built-in grid end to end and verify every cell.

Exit 1 means an infeasible topology (from ``verify``), any fault inside a
cell of ``run`` or ``demo`` (an infeasible built topology among them; the
error names the cell) or a stuck ``demo`` cell; exit 2 means bad input. Every
input file is read by one rule (:func:`~p2pcast.topology.read_ascii`), so a
foreign byte in a config, ``results.csv`` or topology file is bad input named
by its reader, not a decoding error. Every subcommand reports an error the
same way: :func:`main` prints ``error: ...`` and maps
:class:`TopologyBuildError` to 1 and ``OSError``/``ValueError`` to 2.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time

from . import harness
from .delay_space import KINDS, DistributionSpec, generate
from .metrics import verify_feasible
from .topology import TopologyBuildError, read_ascii, read_topology_csv


def _progress(stream):
    count, t0 = itertools.count(1), time.perf_counter()

    def report(result: harness.CellResult) -> None:
        status = "FAILED (admission stuck)" if result.failed else "ok"
        print(
            f"[{next(count)}] {harness.cell_name(*result.key())}: {status} "
            f"({time.perf_counter() - t0:.1f} s elapsed)",
            file=stream,
        )

    return report


def _sweep(config: harness.ExperimentConfig, args) -> list[harness.CellResult]:
    results, _ = harness.run_experiment(
        config, args.out, parallel=args.parallel, progress=_progress(sys.stderr)
    )
    return results


def _cmd_run(args) -> int:
    mapping = harness.parse_config(read_ascii(args.config))
    # An override replaces its config key, even when empty.
    for key in ("sizes", "policies"):
        if getattr(args, key) is not None:
            mapping[key] = getattr(args, key)
    results = _sweep(harness.config_from_mapping(mapping, master_seed=args.seed), args)
    failed = sum(r.failed for r in results)
    print(
        f"{len(results)} cells in {os.path.join(args.out, 'results.csv')} "
        f"({failed} failed); aggregates in {os.path.join(args.out, 'agg.csv')}"
    )
    return 0


def _cmd_aggregate(args) -> int:
    results = harness.read_results_csv(args.raw)
    out_dir = args.out if args.out is not None else (os.path.dirname(args.raw) or ".")
    os.makedirs(out_dir, exist_ok=True)
    rows = harness.aggregate(results)
    path = os.path.join(out_dir, "agg.csv")
    harness.write_aggregate_csv(rows, path)
    print(f"{len(rows)} aggregate rows in {path}")
    return 0


def _cmd_verify(args) -> int:
    topology, caps = read_topology_csv(args.edges, args.capacities)
    report = verify_feasible(topology, caps, args.m)
    if report.ok:
        print(f"feasible: {topology.n_nodes} nodes, M={args.m}")
        return 0
    print(f"infeasible: {report.message}")
    return 1


def _cmd_distributions(args) -> int:
    sizes = harness.config_ints("sizes", args.sizes)
    if not sizes:
        raise ValueError(f"config key sizes: expected an integer, got {args.sizes!r}")
    os.makedirs(args.out, exist_ok=True)
    for kind in KINDS:
        for n in sizes:
            space = generate(DistributionSpec.preset(kind, n, args.seed))
            path = os.path.join(args.out, f"space_{kind}_n{n}.csv")
            space.to_csv(path)
            note = "" if space.cluster_count is None else f" ({space.cluster_count} clusters)"
            print(f"{path}: {n} nodes{note}")
    return 0


def _cmd_demo(args) -> int:
    results = _sweep(harness.ExperimentConfig.demo_grid(args.seed), args)
    stuck = [r for r in results if r.failed]
    if stuck:
        cells = "".join(f"\n  {harness.cell_name(*r.key())}" for r in stuck)
        print(f"demo: {len(stuck)}/{len(results)} cells stuck in admission:{cells}", file=sys.stderr)
        return 1
    print(f"demo: all {len(results)} cells feasible; outputs in {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p2pcast",
        description="Locality-aware peer-to-peer streaming topology simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment grid from a config file")
    p_run.add_argument("--config", required=True, help="flat key=value config file")
    p_run.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p_run.add_argument("--out", default="results", help="output directory (default results)")
    p_run.add_argument("--parallel", type=int, default=1, help="worker processes (default 1)")
    p_run.add_argument("--sizes", default=None, help="override config sizes")
    p_run.add_argument("--policies", default=None, help="override config policies")
    p_run.set_defaults(func=_cmd_run)

    p_agg = sub.add_parser("aggregate", help="recompute aggregates from a raw results CSV")
    p_agg.add_argument("raw", help="path to results.csv")
    p_agg.add_argument("--out", default=None, help="directory for agg.csv (default: beside raw)")
    p_agg.set_defaults(func=_cmd_aggregate)

    p_verify = sub.add_parser("verify", help="check a topology CSV for feasibility")
    p_verify.add_argument("edges", help="edge CSV, as Topology.to_csv writes it")
    p_verify.add_argument("capacities", help="capacity sidecar CSV, as Topology.to_csv writes it")
    p_verify.add_argument(
        "--m", type=int, default=harness.SimParams.m,
        help=f"substream count M (default {harness.SimParams.m})",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_dist = sub.add_parser("distributions", help="write sample delay spaces as CSV")
    p_dist.add_argument("--out", default="delay_spaces", help="output directory")
    p_dist.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p_dist.add_argument("--sizes", default="1000", help="node counts (default 1000)")
    p_dist.set_defaults(func=_cmd_distributions)

    p_demo = sub.add_parser("demo", help="run and verify a small built-in grid")
    p_demo.add_argument("--out", default="demo_out", help="output directory (default demo_out)")
    p_demo.add_argument("--seed", type=int, default=harness.DEMO_SEED, help="master seed")
    p_demo.add_argument("--parallel", type=int, default=1, help="worker processes (default 1)")
    p_demo.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TopologyBuildError as exc:  # a fault inside a cell, which it names
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
