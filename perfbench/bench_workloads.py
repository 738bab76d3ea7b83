"""The benchmark's workloads, their output checks and digests.

A workload is a sequence of iterations. Iteration i calls the simulator on
inputs generated from the benchmark seed alone: the scnsim seed of
iteration i is the i-th draw of random.Random(benchmark seed), so the same
benchmark seed always gives the same inputs, and distinct iterations never
repeat a scenario. The first iteration always runs and is digested; later
ones only fill the time window.

Every run_once result is checked (finite summary fields, loads and
converged_frac in [0, 1], energies >= 0), and so is each iteration's
aggregate output (row counts, CSV contents). A failed check fails the run,
and an iteration-level failure fails every run of that iteration.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import io
import math
import random
from pathlib import Path

import numpy as np

SWEEP_UES = (10, 21, 32, 43, 54, 65)


def fmt(value) -> str:
    """Nine significant digits, as the simulator's CSV writer uses."""
    return f"{float(value):.9g}"


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def check_run(res, records_expected: bool) -> list[str]:
    """Invariants every RunResult must satisfy; returns the violations."""
    bad = []
    scalars = {
        "mean_cost_per_bs": res.mean_cost_per_bs,
        "mean_energy_per_bs": res.mean_energy_per_bs,
        "total_energy": res.total_energy,
        "mean_load": res.mean_load,
        "cluster_count": res.cluster_count,
        "mean_cluster_size": res.mean_cluster_size,
        "converged_frac": res.converged_frac,
        "state_changes": res.state_changes,
    }
    for key, value in scalars.items():
        if not math.isfinite(value):
            bad.append(f"{key} is not finite ({value})")
    if not 0.0 <= res.mean_load <= 1.0:
        bad.append(f"mean_load {res.mean_load} outside [0, 1]")
    if not 0.0 <= res.converged_frac <= 1.0:
        bad.append(f"converged_frac {res.converged_frac} outside [0, 1]")
    energy = np.asarray(res.energy_per_sbs, dtype=float)
    if res.mean_energy_per_bs < 0 or res.total_energy < 0:
        bad.append("negative energy")
    if energy.size != res.n_sbs or not np.all(np.isfinite(energy)) or np.any(energy < 0):
        bad.append("energy_per_sbs not finite and >= 0 per SBS")
    if records_expected:
        if not res.records:
            bad.append("per-step records missing")
        else:
            loads = np.array([r.sbs_load for r in res.records])
            power = np.array([r.sbs_power for r in res.records])
            cost = np.array([r.sbs_cost for r in res.records])
            if np.any(loads < 0) or np.any(loads > 1):
                bad.append("a step load lies outside [0, 1]")
            if not np.all(np.isfinite(power)) or np.any(power < 0):
                bad.append("a step power is negative or not finite")
            if not np.all(np.isfinite(cost)):
                bad.append("a step cost is not finite")
    return bad


def run_line(res) -> str:
    vals = [res.mean_cost_per_bs, res.mean_energy_per_bs, res.total_energy,
            res.mean_load, res.cluster_count, res.mean_cluster_size,
            res.converged_frac]
    return " ".join(
        [res.mode, str(res.n_ues), str(res.run), str(res.state_changes)]
        + [fmt(v) for v in vals]
        + [";".join(fmt(e) for e in res.energy_per_sbs)]
    )


class Workload:
    """Base: seeded iteration inputs plus the checks shared by all workloads."""

    name = ""
    why = ""
    records = False

    def __init__(self, root: Path, seed: int, smoke: bool = False):
        self.root = Path(root)
        self.seed = int(seed)
        self.smoke = smoke
        self._rng = random.Random(self.seed)
        self._seeds: list[int] = []

    def scn_seed(self, i: int) -> int:
        while len(self._seeds) <= i:
            self._seeds.append(self._rng.randrange(2**31))
        return self._seeds[i]

    def setup(self) -> None:
        """Load the workload config and generate the first iteration's inputs."""
        raise NotImplementedError

    def iterate(self, i: int):
        """Run iteration i in the simulator; returns its raw output."""
        raise NotImplementedError

    def runs_per_iter(self) -> int:
        raise NotImplementedError

    def check_iteration(self, output, results) -> tuple[list[str], list[str]]:
        """(violations, digest lines) of one iteration's aggregate output."""
        raise NotImplementedError


class ExperimentWorkload(Workload):
    """One `run_experiment` call per iteration on an in-memory config."""

    mode = ""
    n_ues = 0
    runs = 1
    overrides: dict[str, dict[str, float]] = {}

    def setup(self) -> None:
        from scnsim import config

        cfg = config.default_config()
        cfg.run.mode = self.mode
        cfg.layout.n_ues = self.n_ues
        cfg.run.runs = self.runs
        cfg.run.jobs = 1
        for section, values in self.overrides.items():
            for key, value in values.items():
                setattr(getattr(cfg, section), key, value)
        if self.smoke:
            cfg.run.steps = 20
        cfg.run.seed = self.scn_seed(0)
        config.validate_config(cfg)
        self.cfg = cfg

    def runs_per_iter(self) -> int:
        return self.cfg.run.runs

    def iterate(self, i: int):
        from scnsim import sim

        self.cfg.run.seed = self.scn_seed(i)
        return sim.run_experiment(self.cfg)

    def check_iteration(self, output, results):
        bad = []
        if len(output.runs) != self.cfg.run.runs:
            bad.append(f"expected {self.cfg.run.runs} runs, got {len(output.runs)}")
        agg = [output.mean_cost_per_bs, output.ci95, output.mean_energy_per_bs,
               output.mean_load, output.cluster_count, output.mean_cluster_size]
        if not all(math.isfinite(v) for v in agg):
            bad.append("an aggregate is not finite")
        if not 0.0 <= output.mean_load <= 1.0:
            bad.append("aggregate mean_load outside [0, 1]")
        if output.mean_energy_per_bs < 0 or np.any(output.energy_samples < 0):
            bad.append("negative aggregate energy")
        return bad, [f"seed {self.cfg.run.seed} " + " ".join(fmt(v) for v in agg)]


class ClassicalDense(ExperimentWorkload):
    name = "classical_dense"
    why = ("classical mode at 75 UEs: no clustering, coordination or learning, "
           "so per-call netmodel/association cost and per-run set-up dominate")
    mode = "classical"
    n_ues = 75
    runs = 10


class ReclusterHeavy(ExperimentWorkload):
    name = "recluster_heavy"
    why = ("learning_clustered at 54 UEs, eps_d 400 m, recluster every 2 of 100 "
           "steps: spectral clustering does ~60% of the work, ~2% in ue_sweep")
    mode = "learning_clustered"
    n_ues = 54
    runs = 4
    # 100 steps, not 400, so a window holds ~100 distinct drops: enough for
    # a p90 tail and a steady mean over drops whose cost differs by up to 2x
    overrides = {"clustering": {"eps_d_m": 400.0, "recluster_every": 2},
                 "run": {"steps": 100}}


class UeSweep(Workload):
    """`scnsim sweep` through cli.main on a benchmark-owned INI file."""

    name = "ue_sweep"
    why = ("the acceptance sweep shape via cli.main: 6 UE counts x 3 modes with "
           "traces; fixed point, sim loop, learning, config and CSV output")
    records = True
    ini = {
        "layout": {"n_small": 10},
        "clustering": {"recluster_every": 50},
        "run": {"steps": 400, "runs": 1, "jobs": 1},
    }

    def setup(self) -> None:
        from scnsim import config

        work = self.root / ".perfbench_work" / self.name
        work.mkdir(parents=True, exist_ok=True)
        sections = copy.deepcopy(self.ini)
        if self.smoke:
            sections["run"]["steps"] = 20
        sections["run"]["seed"] = self.scn_seed(0)
        lines = []
        for section, values in sections.items():
            lines.append(f"[{section}]")
            lines += [f"{key} = {value}" for key, value in values.items()]
        self.ini_path = work / "sweep.ini"
        self.ini_path.write_text("\n".join(lines) + "\n")
        self.cfg = config.load_config(str(self.ini_path))
        self.out_dir = work / "out"
        self.argv(0)

    def argv(self, i: int) -> list[str]:
        return [
            "sweep", "--config", str(self.ini_path), "--seed", str(self.scn_seed(i)),
            "--out", str(self.out_dir), "--jobs", "1",
            "--vary", "ues=" + ",".join(str(u) for u in SWEEP_UES),
            "--modes", "all", "--trace", "--dump-clusters",
        ]

    def runs_per_iter(self) -> int:
        return 3 * len(SWEEP_UES) * self.cfg.run.runs

    def iterate(self, i: int):
        from scnsim import cli

        argv = self.argv(i)
        if self.out_dir.exists():
            for path in self.out_dir.iterdir():
                path.unlink()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue()

    def check_iteration(self, output, results):
        code, stderr = output
        if code != 0:
            return [f"cli.main exited {code}: {stderr.strip()}"], []
        bad, lines = [], []
        names = ["summary.csv", "energy_cdf.csv", "steps.csv", "clusters.csv"] + [
            f"energy_cdf_{m}.csv" for m in dict.fromkeys(r.mode for r in results)
        ]
        for name in names:
            path = self.out_dir / name
            if not path.exists():
                bad.append(f"{name} missing")
                continue
            lines.append(f"{name} {hashlib.sha256(path.read_bytes()).hexdigest()}")
        if bad:
            return bad, lines
        with open(self.out_dir / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        want = 3 * len(SWEEP_UES)
        if len(rows) != want:
            bad.append(f"summary.csv has {len(rows)} rows, expected {want}")
        for row in rows:
            nums = [float(row[k]) for k in row if k != "mode"]
            if not all(math.isfinite(v) for v in nums):
                bad.append(f"summary row {row['mode']}/{row['ue_count']} not finite")
            if not 0.0 <= float(row["mean_load"]) <= 1.0:
                bad.append(f"summary mean_load {row['mean_load']} outside [0, 1]")
            if float(row["mean_energy_per_bs"]) < 0:
                bad.append("summary energy negative")
        with open(self.out_dir / "steps.csv", newline="") as fh:
            steps = sum(1 for _ in fh) - 1
        if steps != self.runs_per_iter() * self.cfg.run.steps:
            bad.append(f"steps.csv has {steps} rows")
        return bad, lines


WORKLOADS = {w.name: w for w in (UeSweep, ReclusterHeavy, ClassicalDense)}
