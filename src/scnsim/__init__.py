"""System-level simulator of a downlink small-cell network with BS sleep control.

The package models a macro cell overlaid by small cells sharing one carrier,
couples per-BS loads through interference, groups small cells into clusters
by spectral clustering on a joint distance/load similarity graph, schedules
UEs inside each cluster through the cluster head, and lets every cluster
learn when to sleep via Boltzmann-Gibbs regret learning.
"""

from .config import (
    MODES,
    ConfigError,
    ScenarioConfig,
    default_config,
    load_config,
    validate_config,
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

# the run API; the building blocks are imported from their submodules
__all__ = [
    "MODES", "ConfigError", "ScenarioConfig", "default_config", "load_config",
    "validate_config", "World", "generate_scenario", "run_once",
    "run_experiment", "sweep", "RunResult", "ExperimentResult",
]
