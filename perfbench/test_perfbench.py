"""Tests of the benchmark itself: wrappers, digests, metric names, smoke runs.

    python3 -m pytest -q perfbench

The end-to-end cases run perfbench/run.py in --smoke mode (20-step runs),
so the whole file takes a few seconds per workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (ROOT / "src", HERE):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import bench_spans  # noqa: E402
import run  # noqa: E402

WORKLOADS = ("ue_sweep", "recluster_heavy", "classical_dense")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bindings() -> dict:
    """Every attribute of every loaded scnsim module and of its classes."""
    snap = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "scnsim" and not modname.startswith("scnsim."):
            continue
        for attr, obj in vars(mod).items():
            snap[(modname, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == modname:
                for mattr, mobj in vars(obj).items():
                    snap[(modname, attr, mattr)] = mobj
    return snap


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.fixture(scope="module")
def smoke():
    """Output of one untraced and one traced smoke run per workload."""
    return {(w, t): _run(w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("trace", [False, True])
def test_wrappers_restore_original_functions(trace):
    import scnsim.cli  # noqa: F401  (cli is not imported by the package)

    before = _bindings()
    with bench_spans.Instrument(trace=trace):
        during = _bindings()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    changed = {key for key, value in before.items() if during[key] is not value}
    assert ("scnsim.sim", "run_once") in changed
    assert ("scnsim", "run_once") in changed
    if trace:
        assert ("scnsim.netmodel", "rate_matrix") in changed
        assert ("scnsim.cli", "load_config") in changed  # imported binding
        assert ("scnsim.sim", "World", "step") in changed
        assert ("scnsim.cli", "_write_outputs") in changed


def test_layer_metric_table_matches_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == bench_spans.LAYER_METRICS


def test_tail_has_ten_runs_beyond():
    value, pct = run.tail([float(x) for x in range(1, 101)])
    assert value == 90.0 and pct == 90.0
    assert run.tail([5.0, 1.0]) == (5.0, 100.0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_digest_equals_untraced(smoke, workload):
    untraced, traced = smoke[(workload, 0)], smoke[(workload, 1)]
    assert untraced.returncode == 0, untraced.stderr
    assert traced.returncode == 0, traced.stderr
    plain = [ln.split()[1] for ln in untraced.stdout.splitlines() if ln.startswith("digest ")]
    line = next(ln for ln in traced.stdout.splitlines() if ln.startswith("digest "))
    words = line.split()
    assert plain and words[1] == words[3] == plain[0]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_the_benchmark_metrics(smoke, workload, trace):
    proc = smoke[(workload, trace)]
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(ln.startswith(m["name"] + " ") for ln in lines[:-1])
    if not trace:
        assert any(ln.startswith("run_fail_frac 0 ") for ln in lines)


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("classical_dense", 0, cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_workloads_match_benchmark_json():
    import bench_workloads

    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: cls.why for name, cls in bench_workloads.WORKLOADS.items()}
