"""Locality-aware overlay topologies for peer-to-peer live streaming.

A desk-scale simulator: synthetic 2-D Euclidean delay spaces, feasible
topology construction under 14 policies, delay and vulnerability metrics,
and a seeded Monte Carlo experiment harness.
"""

from .delay_space import (
    DEFAULT_D,
    FLAT,
    KINDS,
    LOOSE,
    TIGHT,
    DelaySpace,
    DistributionSpec,
    generate,
)
from .harness import (
    AggregateRow,
    CellResult,
    ExperimentConfig,
    aggregate,
    cell_seed,
    mean_ci95,
    run_cell,
    run_experiment,
)
from .metrics import (
    FeasibilityReport,
    MetricsReport,
    PathTable,
    compute_metrics,
    max_flow,
    min_delay,
    node_vulnerability,
    shortest_paths,
    system_vulnerability,
    tree_delay,
    verify_feasible,
)
from .rng import derive_seed, make_rng
from .topology import (
    ALL_POLICY_CODES,
    AdmissionStuck,
    BuildState,
    CapacityExhausted,
    CapacityProfile,
    PolicySpec,
    SimParams,
    Topology,
    TopologyBuildError,
    build,
    read_topology_csv,
)

__all__ = [
    "DEFAULT_D", "FLAT", "TIGHT", "LOOSE", "KINDS",
    "DelaySpace", "DistributionSpec", "generate",
    "ALL_POLICY_CODES", "PolicySpec", "CapacityProfile", "Topology",
    "BuildState", "build", "read_topology_csv",
    "TopologyBuildError", "AdmissionStuck", "CapacityExhausted",
    "MetricsReport", "PathTable", "FeasibilityReport",
    "compute_metrics", "shortest_paths", "min_delay", "tree_delay",
    "node_vulnerability", "system_vulnerability", "verify_feasible", "max_flow",
    "SimParams", "ExperimentConfig", "CellResult", "AggregateRow",
    "run_cell", "run_experiment", "aggregate", "mean_ci95", "cell_seed",
    "derive_seed", "make_rng",
]

__version__ = "0.1.0"
