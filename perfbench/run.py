"""p2pcast benchmark: one workload per invocation, closed loop, one process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid-small --seed 0 --seconds 30 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics. ``--trace 1`` runs one untraced and one traced pass, reports the
per-layer metrics of the traced one plus the tracing overhead, checks that
both passes produced identical outputs, and writes the spans to
``.perfbench_work/trace-<workload>.npz``.

Set-up (imports, input generation) is timed separately and repeated; its
median is ``setup_s``. Passes then repeat for as long as another one fits in
``--seconds`` (always at least one). Every output is checked: against the
invariants that hold for any seed, and, for the seed the committed reference
was made with, against ``perfbench/reference/<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit for a human reader.

The program is imported from ``src/`` beside this directory and nowhere
else: without it the benchmark exits with a non-zero status and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE_DIR = os.path.join(HERE, "reference")
DEFAULT_SEED = 0
SETUP_REPEATS = 3

#: End-to-end metrics of an untraced run, with their units.
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_s_p50": "s", "peak_rss_mb": "MB"}


def import_program():
    """Import p2pcast from ``src/``; return its workloads and tracing modules."""
    if not os.path.isfile(os.path.join(SRC, "p2pcast", "__init__.py")):
        raise SystemExit(f"error: no p2pcast package under {SRC}")
    sys.path.insert(0, SRC)
    import p2pcast

    if os.path.dirname(os.path.dirname(os.path.abspath(p2pcast.__file__))) != SRC:
        raise SystemExit(f"error: p2pcast was imported from {p2pcast.__file__}, not {SRC}")
    import tracing
    import workloads

    return workloads, tracing


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str, seed: int):
    """The committed outputs for ``seed``, or None when they were made for
    another seed (then only the seed-free invariants are checked)."""
    try:
        with open(reference_path(workload)) as f:
            ref = json.load(f)
    except FileNotFoundError:
        return None
    return ref["outputs"] if ref["seed"] == seed else None


def run_setup(wl, seed: int, work: str):
    """Set up ``SETUP_REPEATS`` times; return the last inputs and the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        inputs = wl.setup(seed, work)
        times.append(perf_counter() - t)
    return inputs, statistics.median(times)


def checked_pass(wl, inputs, work: str, reference, tracer=None):
    """One pass over the workload's operations, then the checks of its outputs."""
    p = wl.run(inputs, work, tracer)
    wl.check(p, inputs, reference)
    return p


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def measure(wl, inputs, work: str, seconds: float, reference) -> tuple[dict, list, dict]:
    """Untraced passes for ``seconds``; the end-to-end metrics except set-up."""
    passes = []
    start = perf_counter()
    while True:
        p = checked_pass(wl, inputs, work, reference)
        passes.append(p)
        if perf_counter() - start + p.wall_s > seconds:
            break
    ops = [t for p in passes for t in p.op_s]
    extra = {
        "passes": len(passes),
        "ops_timed": len(ops),
    }
    if len(ops) >= 100:  # at least ten samples beyond the 90th percentile
        extra["op_s_p90"] = statistics.quantiles(ops, n=10)[-1]
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "op_s_p50": statistics.median(ops),
    }
    return metrics, passes, extra


def trace(wl, tracing, inputs, work: str, reference, spans_path: str):
    """One untraced and one traced pass; per-layer metrics of the traced one."""
    plain = checked_pass(wl, inputs, work, reference)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = checked_pass(wl, inputs, work, reference, tracer)
    if traced.outputs != plain.outputs:
        traced.errors.setdefault("trace", "traced outputs differ from untraced outputs")
    overhead = (traced.wall_s - plain.wall_s) / plain.wall_s
    tracer.write(spans_path)
    return tracing.layer_values(tracer, overhead), [plain, traced]


def main(argv=None) -> int:
    t_start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("grid-small", "cell-large", "verify-import"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="after a run whose invariant checks pass, store its outputs as the reference for --seed",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    workloads, tracing = import_program()
    import_s = perf_counter() - t_start
    wl = workloads.WORKLOADS[args.workload]()
    reference = None if args.write_reference else load_reference(args.workload, args.seed)

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        inputs, setup_s = run_setup(wl, args.seed, work)
        if args.trace:
            spans = os.path.join(WORK, f"trace-{args.workload}.npz")
            values, passes = trace(wl, tracing, inputs, work, reference, spans)
            units, extra = tracing.LAYER_UNITS, {"spans": os.path.relpath(spans, ROOT)}
        else:
            values, passes, extra = measure(wl, inputs, work, args.seconds, reference)
            values = {"setup_s": import_s + setup_s, **values, "peak_rss_mb": peak_rss_mb()}
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    errors = [(i, key, msg) for i, p in enumerate(passes) for key, msg in sorted(p.errors.items())]
    failed = min(len(errors), attempted)
    for i, key, msg in errors[:20]:
        print(f"FAIL pass {i} {key}: {msg}")
    if args.write_reference:
        if errors:
            print("reference not written: the run has failures", file=sys.stderr)
            return 1
        os.makedirs(REFERENCE_DIR, exist_ok=True)
        with open(reference_path(args.workload), "w") as f:
            json.dump({"seed": args.seed, "outputs": passes[0].outputs}, f, indent=1, sort_keys=True)
            f.write("\n")
    checked_against = "reference + invariants" if reference is not None else "invariants only"
    print(f"workload {args.workload}, seed {args.seed}, checked against {checked_against}")
    for name, value in values.items():
        print(f"  {name} = {value!r} {units[name]}")
    print(f"  error_frac = {failed / attempted!r} ratio ({failed} of {attempted} operations)")
    for name, value in extra.items():
        print(f"  {name} = {value!r}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
