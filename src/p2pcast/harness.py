"""Seeded Monte Carlo experiment harness.

A grid of cells (distribution x policy x size x run) is evaluated with one
derived seed per cell, so the whole result set is a pure function of the
configuration and the master seed; ``results.csv`` holds no wall time. Each
built topology is verified before it is measured. Raw per-cell metrics stream
into ``results.csv`` as they finish; completed cells are recognised on restart
and skipped, which makes interrupted runs resumable and re-runs byte-identical.
A resume or aggregation reads ``results.csv`` back in the form
:meth:`CellResult.csv_row` writes and refuses, naming file and line, a row
outside it or a cell recorded twice, so results are never silently mixed.
``manifest.json`` beside it records the settings every row depends on, so a
resume under other settings is refused instead of reusing the old rows.
Aggregation pools runs (and, for the headline rows, all distributions) into
means with Student-t 95% confidence half-widths.

Every input file, config, ``results.csv`` and ``manifest.json``, is read as
the topology files are (:func:`~p2pcast.topology.read_ascii`): ASCII with line
ends as written, so a foreign byte fails the reader's own checks, not the
decoding. Config files are flat ``key=value`` text::

    distributions=flat,tight,loose
    policies=FCS,GDN
    sizes=10,20,50
    runs=3

plus the optional ``M``, ``u0`` and ``capacities``, which default to
:class:`SimParams`'s. A list has no empty entries: in ``sizes=10,`` the
second entry, ``''``, is not an integer. The master seed and output
directory come from the command line (or the caller), not the config file.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import starmap

import numpy as np

from .delay_space import KINDS, DelaySpace, DistributionSpec, generate
from .metrics import compute_metrics, verify_feasible
from .rng import derive_seed, make_rng
from .topology import (
    ALL_POLICY_CODES,
    AdmissionStuck,
    CapacityProfile,
    PolicySpec,
    SimParams,
    TopologyBuildError,
    _shown,
    build,
    read_ascii,
)

RESULTS_HEADER = (
    "policy,distribution,n,run,seed,min_delay_mean_s,tree_delay_mean_s,"
    "mean_node_vuln,max_sys_vuln,failed"
)
AGG_HEADER = "policy,distribution,n,metric,mean,ci95_halfwidth,k"
METRIC_COLUMNS = ("min_delay_mean_s", "tree_delay_mean_s", "mean_node_vuln", "max_sys_vuln")

#: Seed of the built-in demo grid, chosen so every demo cell builds feasibly.
DEMO_SEED = 7


@dataclass(frozen=True)
class ExperimentConfig:
    """A full experiment grid."""

    distributions: tuple[str, ...]
    policies: tuple[str, ...]
    sizes: tuple[int, ...]
    runs: int
    master_seed: int = 0
    sim: SimParams = SimParams()

    def __post_init__(self) -> None:
        if not self.distributions or not self.policies or not self.sizes:
            raise ValueError("distributions, policies and sizes must all be non-empty")
        for d in self.distributions:
            if d not in KINDS:
                raise ValueError(f"unknown distribution {d!r}; expected one of {KINDS}")
        # One spelling per policy: its canonical code (raises on unknown codes).
        policies = tuple(PolicySpec.from_code(p).code for p in self.policies)
        object.__setattr__(self, "policies", policies)
        for n in self.sizes:
            if n < 2:
                raise ValueError(f"size {n} is too small; need the peercaster plus a peer")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        for name, values in (
            ("distributions", self.distributions),
            ("policies", self.policies),
            ("sizes", self.sizes),
        ):
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate entries in {name}: {values}")

    @classmethod
    def demo_grid(cls, master_seed: int = DEMO_SEED) -> "ExperimentConfig":
        """A small grid that exercises every distribution and policy in seconds."""
        return cls(
            distributions=KINDS,
            policies=ALL_POLICY_CODES,
            sizes=(10, 30),
            runs=2,
            master_seed=master_seed,
        )


def parse_config(text: str) -> dict[str, str]:
    """Parse flat ``key=value`` config text (``#`` starts a comment line)."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {_shown(raw)}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in mapping:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        mapping[key] = value.strip()
    return mapping


_CONFIG_KEYS = {"distributions", "policies", "sizes", "runs", "M", "u0", "capacities"}


def _config_int(key: str, text: str) -> int:
    """``text``, stripped, as an integer in the topology reader's digit
    grammar: an optional ``-`` and ASCII digits, no ``+`` or ``_``."""
    if re.fullmatch("-?[0-9]+", text.strip()):
        with contextlib.suppress(ValueError):  # Python refuses past 4300 digits
            return int(text)
    raise ValueError(f"config key {key}: expected an integer, got {text!r}")


def config_ints(key: str, text: str) -> tuple[int, ...]:
    """The comma-separated integers of config key ``key``; an empty part is
    not an integer."""
    return tuple(_config_int(key, part.strip()) for part in text.split(","))


def config_from_mapping(mapping: dict[str, str], master_seed: int = 0) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from parsed config keys."""
    unknown = set(mapping) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}; expected {sorted(_CONFIG_KEYS)}")
    missing = {"distributions", "policies", "sizes", "runs"} - set(mapping)
    if missing:
        raise ValueError(f"config is missing required keys: {sorted(missing)}")

    def _csv_list(key: str) -> tuple[str, ...]:
        return tuple(part.strip() for part in mapping[key].split(","))

    # Only the keys present: SimParams supplies the rest.
    sim = {f: _config_int(k, mapping[k]) for k, f in (("M", "m"), ("u0", "u0")) if k in mapping}
    if "capacities" in mapping:
        sim["capacity_choices"] = config_ints("capacities", mapping["capacities"])
    return ExperimentConfig(
        distributions=_csv_list("distributions"),
        policies=_csv_list("policies"),
        sizes=config_ints("sizes", mapping["sizes"]),
        runs=_config_int("runs", mapping["runs"]),
        master_seed=master_seed,
        sim=SimParams(**sim),
    )


@dataclass(frozen=True)
class CellResult:
    """Metrics of one grid cell (one build)."""

    policy: str
    distribution: str
    n: int
    run: int
    seed: int
    min_delay_mean_s: float | None
    tree_delay_mean_s: float | None
    mean_node_vuln: float | None
    max_sys_vuln: float | None
    failed: bool

    def key(self) -> tuple[str, str, int, int]:
        return (self.policy, self.distribution, self.n, self.run)

    def csv_row(self) -> str:
        def fmt(v: float | None) -> str:
            return "" if v is None else repr(float(v))

        return (
            f"{self.policy},{self.distribution},{self.n},{self.run},{self.seed},"
            f"{fmt(self.min_delay_mean_s)},{fmt(self.tree_delay_mean_s)},"
            f"{fmt(self.mean_node_vuln)},{fmt(self.max_sys_vuln)},"
            f"{int(self.failed)}"
        )


def cell_name(policy: str, distribution: str, n: int, run: int) -> str:
    """A cell as messages name it, such as ``GR/flat/n=10/run=0``."""
    return f"{policy}/{distribution}/n={n}/run={run}"


def cell_seed(master_seed: int, policy: str, distribution: str, n: int, run: int) -> int:
    """The derived seed that makes a cell reproducible in isolation."""
    return derive_seed(master_seed, "cell", policy, distribution, n, run)


def iter_cells(config: ExperimentConfig):
    """Cells in canonical order: distribution, then policy, then size, then run."""
    for dist in config.distributions:
        for policy in config.policies:
            for n in config.sizes:
                for run in range(config.runs):
                    yield (policy, dist, n, run)


def cell_inputs(
    policy: str, distribution: str, n: int, run: int, master_seed: int, sim: SimParams
) -> tuple[int, DelaySpace, CapacityProfile, PolicySpec]:
    """A cell's seed, delay space, capacities and policy, derived in one place."""
    seed = cell_seed(master_seed, policy, distribution, n, run)
    space = generate(DistributionSpec.preset(distribution, n, seed))
    caps = CapacityProfile.sample(n, make_rng(seed, "capacities"), sim.capacity_choices, sim.u0)
    return seed, space, caps, PolicySpec.from_code(policy)


def run_cell(
    policy: str, distribution: str, n: int, run: int, master_seed: int, sim: SimParams
) -> CellResult:
    """Generate, build, verify and measure a single cell. A stuck admission
    gives a failed row; any other fault in the build, verification or
    metrics, a built topology that fails verification among them, is a
    program fault: :class:`TopologyBuildError` naming the cell."""
    seed, space, caps, spec = cell_inputs(policy, distribution, n, run, master_seed, sim)
    cell = cell_name(policy, distribution, n, run)
    try:
        topo = build(space, caps, spec, sim.m, seed)
        feasible = verify_feasible(topo, caps, sim.m)
        if not feasible.ok:
            raise TopologyBuildError(f"built an infeasible topology: {feasible.message}")
        report = compute_metrics(topo, space, sim.m)
    except AdmissionStuck:
        return CellResult(policy, distribution, n, run, seed, None, None, None, None, True)
    except TopologyBuildError as exc:
        raise TopologyBuildError(f"{cell}: {exc}") from exc
    except Exception as exc:
        raise TopologyBuildError(f"{cell}: {type(exc).__name__}: {exc}") from exc
    return CellResult(
        policy, distribution, n, run, seed,
        report.min_delay_mean_s, report.tree_delay_mean_s,
        report.mean_node_vuln, report.max_sys_vuln,
        False,
    )


def read_results_csv(path) -> list[CellResult]:
    """Parse a raw results file back into :class:`CellResult` rows.

    Reads the file as :meth:`CellResult.csv_row` writes it: a header line,
    then ``\n``-ended rows (the last ``\n`` may be missing), split on ``,``.
    Raises ValueError naming the file and line of any malformed row, such as
    a blank one, one with a character ``csv_row`` never writes (a CR, a
    quote, a foreign byte), one with metrics not all finite with
    ``failed=0`` or not all blank with 1, one whose values ``csv_row``
    would spell otherwise (``+08``, ``011``, ``-0``, ``0.10``), or a cell an
    earlier row records.
    """
    head, _, body = read_ascii(path).partition("\n")
    if head != RESULTS_HEADER:
        raise ValueError(f"unexpected results header in {path}: {_shown(head)}")
    columns = head.split(",")
    out: list[CellResult] = []
    recorded: dict[tuple[str, str, int, int], int] = {}
    for line_num, line in enumerate(body.removesuffix("\n").split("\n") if body else [], start=2):
        try:
            # read_ascii's text for a foreign byte is named whole.
            if bad := re.search(r"\\x[0-9a-f]{2}|[^A-Za-z0-9.,+-]", line):
                raise ValueError(f"unexpected {bad[0]!r} at column {bad.start() + 1}")
            if len(fields := line.split(",")) != len(columns):
                raise ValueError(f"expected {len(columns)} fields")
            policy, distribution, n, run, seed, *metrics, flag = fields
            if flag not in ("0", "1"):
                raise ValueError(f"failed flag {flag!r} is neither 0 nor 1")
            if policy not in ALL_POLICY_CODES:
                raise ValueError(f"policy {policy!r} is not one of {ALL_POLICY_CODES}")
            if distribution not in KINDS:
                raise ValueError(f"distribution {distribution!r} is not one of {KINDS}")
            failed = flag == "1"
            want = "blank" if failed else "a finite number"
            for c, v in zip(METRIC_COLUMNS, metrics):
                if not (v == "" if failed else v != "" and math.isfinite(float(v))):
                    raise ValueError(f"{c} {v!r} is not {want} with failed={flag}")
            cell = CellResult(policy, distribution, int(n), int(run), int(seed),
                              *(None if failed else float(v) for v in metrics), failed)
            if (row := cell.csv_row()) != line:
                c, got, want = next(d for d in zip(columns, fields, row.split(",")) if d[1] != d[2])
                raise ValueError(f"{c} {_shown(got)} is not {_shown(want)}, as csv_row writes it")
            if (first := recorded.setdefault(cell.key(), line_num)) != line_num:
                raise ValueError(f"cell {cell_name(*cell.key())} is already recorded on line {first}")
        except ValueError as exc:
            raise ValueError(f"malformed row in {path}, line {line_num}: {exc}") from None
        out.append(cell)
    return out


def _drop_torn_tail(path) -> None:
    """Cut a last line that lacks its newline (a write cut short by a crash),
    so that resuming appends whole rows only."""
    with open(path, "rb+") as f:
        if f.seek(0, os.SEEK_END) == 0:
            return
        f.seek(-1, os.SEEK_END)
        if f.read(1) == b"\n":
            return
        f.seek(0)
        data = f.read()
        keep = data.rfind(b"\n") + 1
        f.truncate(keep)
    warnings.warn(
        f"{path}: dropped {len(data) - keep} bytes of a torn last row before resuming",
        stacklevel=3,
    )


def _manifest(config: ExperimentConfig) -> dict:
    """The settings that every row of ``results.csv`` depends on but does not
    record (the master seed only through each cell's seed)."""
    return {
        "master_seed": config.master_seed,
        "M": config.sim.m,
        "u0": config.sim.u0,
        "capacities": list(config.sim.capacity_choices),
        "results_header": RESULTS_HEADER,
    }


def _check_manifest(path, want: dict) -> None:
    """Raise ValueError naming the first key whose value in the manifest at
    ``path`` differs from ``want``."""
    try:
        got = json.loads(read_ascii(path))
    except ValueError as exc:  # malformed JSON, a foreign byte among it
        raise ValueError(f"{path}: not a JSON manifest: {exc}") from None
    if not isinstance(got, dict):
        raise ValueError(f"{path}: not a JSON manifest: expected an object")
    for key, value in want.items():
        if got.get(key) != value:
            raise ValueError(
                f"{path}: this directory was run with {key}={got.get(key)!r}, but this run "
                f"has {key}={value!r}; resume with the same settings or use a new output "
                f"directory"
            )


def run_experiment(
    config: ExperimentConfig,
    out_dir,
    parallel: int = 1,
    progress=None,
) -> tuple[list[CellResult], list["AggregateRow"]]:
    """Run every cell of the grid, streaming rows into ``out_dir/results.csv``.

    Cells already present in the file are skipped (resume semantics), so
    re-running a finished experiment leaves the raw file byte-identical. A
    torn last row (no trailing newline) is dropped with a warning and its
    cell is run again. A row whose seed is not the one ``config.master_seed``
    derives for its cell raises ValueError naming the file, the cell and
    both seeds. A resume whose settings (:func:`_manifest`) differ from
    ``out_dir/manifest.json`` raises ValueError naming the key and both
    values; a directory without a manifest gets one. A cell fault raises
    :class:`TopologyBuildError` (see :func:`run_cell`). ``parallel`` > 1
    distributes cells over that many worker processes, or one per cell to
    run if fewer; results are written in canonical order either way, so
    parallelism changes wall time only. ``parallel`` below 1 raises
    ValueError. Returns all cell results plus the aggregate rows, which are
    also rewritten to ``out_dir/agg.csv``.
    """
    if parallel < 1:
        raise ValueError(f"parallel must be at least 1, got {parallel}")
    os.makedirs(out_dir, exist_ok=True)
    results_path = os.path.join(out_dir, "results.csv")

    done: set[tuple[str, str, int, int]] = set()
    if os.path.exists(results_path):
        _drop_torn_tail(results_path)
    if os.path.exists(results_path) and os.path.getsize(results_path):
        for r in read_results_csv(results_path):
            expected = cell_seed(config.master_seed, *r.key())
            if r.seed != expected:
                raise ValueError(
                    f"{results_path}: cell {cell_name(*r.key())} "
                    f"has seed {r.seed}, but master seed {config.master_seed} gives "
                    f"{expected}; resume with the same master seed or use a new output "
                    f"directory"
                )
            done.add(r.key())
        mode = "a"
    else:
        mode = "w"
    manifest_path = os.path.join(out_dir, "manifest.json")
    manifest = _manifest(config)
    if mode == "a" and os.path.exists(manifest_path):
        _check_manifest(manifest_path, manifest)
    else:
        with open(manifest_path, "w", encoding="ascii", newline="\n") as f:
            f.write(json.dumps(manifest, indent=2) + "\n")

    todo = [(*cell, config.master_seed, config.sim) for cell in iter_cells(config) if cell not in done]

    workers = min(parallel, len(todo))
    serial = workers <= 1
    with open(results_path, mode, encoding="ascii", newline="\n") as f, (
        contextlib.nullcontext() if serial else ProcessPoolExecutor(max_workers=workers)
    ) as pool:
        if mode == "w":
            f.write(RESULTS_HEADER + "\n")
            f.flush()
        cells = starmap(run_cell, todo) if serial else pool.map(run_cell, *zip(*todo), chunksize=1)
        for result in cells:
            f.write(result.csv_row() + "\n")
            f.flush()
            if progress is not None:
                progress(result)

    all_results = read_results_csv(results_path)
    agg = aggregate(all_results)
    write_aggregate_csv(agg, os.path.join(out_dir, "agg.csv"))
    return all_results, agg


@dataclass(frozen=True)
class AggregateRow:
    """Mean and 95% confidence half-width of one metric over one cell group."""

    policy: str
    distribution: str  # a distribution name, or "all" for the pooled rows
    n: int
    metric: str
    mean: float
    ci95_halfwidth: float | None
    k: int


def mean_ci95(values) -> tuple[float, float | None]:
    """Sample mean and Student-t 95% confidence half-width.

    The quantile is ``scipy.special.stdtrit(k - 1, 0.975)``, the function
    ``scipy.stats.t.ppf`` itself calls, so the half-width has the same bits
    without importing ``scipy.stats``. ``scipy.special`` is imported here,
    not with the module: ``scipy.sparse.csgraph`` does not load it, and
    entry points that never aggregate should not pay for it. A single sample
    has no spread estimate: the half-width is None.
    """
    arr = np.asarray(values, dtype=np.float64)
    k = len(arr)
    if k == 0:
        raise ValueError("cannot aggregate an empty group")
    mean = float(arr.mean())
    if k == 1:
        return mean, None
    from scipy.special import stdtrit

    sd = float(arr.std(ddof=1))
    t = float(stdtrit(k - 1, 0.975))
    return mean, float(t * sd / np.sqrt(k))


def aggregate(results: list[CellResult]) -> list[AggregateRow]:
    """Aggregate raw cells into per-(policy, n) rows.

    Pooled rows (distribution="all") merge every distribution's runs, mirroring
    headline comparisons; per-distribution rows follow. Failed cells are
    excluded; groups with no successful cell emit no row.
    """
    policies = list(dict.fromkeys(r.policy for r in results))
    dists = list(dict.fromkeys(r.distribution for r in results))
    sizes = sorted({r.n for r in results})
    ok = [r for r in results if not r.failed]

    grouped: dict[tuple[str, str, int], list[CellResult]] = {}
    for r in ok:
        grouped.setdefault((r.policy, r.distribution, r.n), []).append(r)

    rows: list[AggregateRow] = []

    def emit(policy: str, label: str, n: int, cells: list[CellResult]) -> None:
        if not cells:
            return
        for metric in METRIC_COLUMNS:
            values = [getattr(c, metric) for c in cells]
            mean, hw = mean_ci95(values)
            rows.append(AggregateRow(policy, label, n, metric, mean, hw, len(cells)))

    for policy in policies:
        for n in sizes:
            pooled = [c for d in dists for c in grouped.get((policy, d, n), [])]
            emit(policy, "all", n, pooled)
            for d in dists:
                emit(policy, d, n, grouped.get((policy, d, n), []))
    return rows


def write_aggregate_csv(rows: list[AggregateRow], path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(AGG_HEADER + "\n")
        for r in rows:
            hw = "" if r.ci95_halfwidth is None else repr(float(r.ci95_halfwidth))
            f.write(f"{r.policy},{r.distribution},{r.n},{r.metric},{float(r.mean)!r},{hw},{r.k}\n")
