"""System-level simulator of a downlink small-cell network with BS sleep control.

The package models a macro cell overlaid by small cells sharing one carrier,
couples per-BS loads through interference, groups small cells into clusters
by spectral clustering on a joint distance/load similarity graph, schedules
UEs inside each cluster through the cluster head, and lets every cluster
learn when to sleep via Boltzmann-Gibbs regret learning.
"""

from .association import (
    AssociationConfig,
    LoadEstimate,
    NoCoverageError,
    associate_all,
    update_load_estimate,
)
from .clustering import (
    ClusterPartition,
    SimilarityGraph,
    build_similarity,
    jacobi_eigh,
    select_k,
    spectral_cluster,
)
from .config import (
    MODES,
    ConfigError,
    ScenarioConfig,
    default_config,
    load_config,
    validate_config,
)
from .coordination import elect_head
from .learning import (
    ClusterLearner,
    bg_distribution,
    build_action_set,
    penalty_cost,
)
from .netmodel import (
    ChannelModel,
    InactiveServerError,
    NetworkConfiguration,
    compute_loads,
    rate_matrix,
    total_powers,
)
from .sim import (
    ExperimentResult,
    RunResult,
    World,
    generate_scenario,
    run_experiment,
    run_once,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AssociationConfig", "LoadEstimate", "NoCoverageError", "associate_all",
    "update_load_estimate", "ClusterPartition", "SimilarityGraph",
    "build_similarity", "jacobi_eigh", "select_k", "spectral_cluster", "MODES",
    "ConfigError", "ScenarioConfig", "default_config", "load_config",
    "validate_config", "elect_head", "ClusterLearner", "bg_distribution",
    "build_action_set", "penalty_cost", "ChannelModel", "InactiveServerError",
    "NetworkConfiguration", "compute_loads", "rate_matrix", "total_powers",
    "ExperimentResult", "RunResult", "World", "generate_scenario",
    "run_experiment", "run_once", "sweep",
]
