"""The public surface: the package root exports the run API only, and every
settable value lives in one config tree."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scnsim
from scnsim import association, clustering, config, netmodel, sim

RUN_API = {
    "MODES", "ConfigError", "ScenarioConfig", "default_config", "load_config",
    "validate_config", "World", "generate_scenario", "run_once",
    "run_experiment", "sweep", "RunResult", "ExperimentResult",
}


def test_package_root_exports_the_run_api():
    assert set(scnsim.__all__) == RUN_API
    assert len(scnsim.__all__) == len(RUN_API)
    for name in scnsim.__all__:
        assert getattr(scnsim, name) is not None


def test_settable_values_are_the_ini_keys():
    # counted as the CI size counter counts them: one per field of every
    # INI section
    cfg = scnsim.default_config()
    sections = dataclasses.fields(cfg)
    assert sum(len(dataclasses.fields(getattr(cfg, s.name))) for s in sections) == 41
    # every section is defined beside the tree that holds it
    for s in sections:
        assert type(getattr(cfg, s.name)).__module__ == config.__name__


@pytest.mark.parametrize("module, name", [
    (netmodel, "ChannelModel"),
    (config.ScenarioConfig, "channel_model"),
    (clustering, "SimilarityGraph"),
    (clustering, "build_similarity"),
    (association, "LoadEstimate"),
    (association, "NoCoverageError"),
    (association, "AssociationConfig"),
    (sim, "ClusterEvent"),
])
def test_deleted_names_are_gone(module, name):
    assert not hasattr(module, name)


def test_import_leaves_the_process_pool_out():
    # run_experiment imports the pool only when it runs jobs in parallel,
    # so a fresh `import scnsim` never loads it
    src = str(Path(scnsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    code = "import sys, scnsim; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
