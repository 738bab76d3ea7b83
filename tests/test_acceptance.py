"""End-to-end acceptance checks, one test per shipped criterion.

Each test prints a single "criterion N: PASS ..." line with its headline
numbers (visible with pytest -s or on failure), and the test outcome itself
is the pass/fail signal. The heavyweight sweeps are module-scoped fixtures
shared by the criteria that read them.
"""

import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import scnsim
from scnsim.association import associate_all
from scnsim.clustering import (
    build_adjacency,
    distance_similarity,
    joint_similarity,
    load_similarity,
    spectral_cluster,
)
from scnsim.config import ClusteringConfig, default_config
from scnsim.coordination import rebalance
from scnsim.learning import LearnerTable
from scnsim.sim import sweep

UE_GRID = [10, 21, 32, 43, 54, 65]


@pytest.fixture(scope="module")
def ue_sweep():
    """10 SBSs, 10 -> 65 UEs, 24 runs per point, all three modes (timed)."""
    cfg = default_config()
    cfg.run.runs = 24
    cfg.run.steps = 400
    t0 = time.perf_counter()
    results = sweep(cfg, "ues", UE_GRID)
    wall = time.perf_counter() - t0
    by_mode = {}
    for r in results:
        by_mode.setdefault(r.mode, []).append(r)
    return by_mode, wall


@pytest.fixture(scope="module")
def ue75_point():
    """Extra 75-UE point so the energy pool spans 10-75 UEs."""
    cfg = default_config()
    cfg.run.runs = 24
    cfg.run.steps = 400
    results = sweep(cfg, "ues", [75])
    return {r.mode: r for r in results}


@pytest.fixture(scope="module")
def ordering_point():
    """Dedicated 54-UE point with a long horizon for the ordering invariant."""
    cfg = default_config()
    cfg.run.runs = 32
    cfg.run.steps = 800
    results = sweep(cfg, "ues", [54])
    return {r.mode: r for r in results}


def test_criterion_1_cost_trend(ue_sweep):
    by_mode, wall = ue_sweep
    rhos = {}
    for mode, results in by_mode.items():
        costs = [r.mean_cost_per_bs for r in results]
        rho = stats.spearmanr(UE_GRID, costs).statistic
        rhos[mode] = rho
        assert rho > 0.9, f"{mode}: cost not increasing in UEs (rho={rho:.3f})"
    classical_65 = by_mode["classical"][-1].mean_cost_per_bs
    clustered_65 = by_mode["learning_clustered"][-1].mean_cost_per_bs
    reduction = 1.0 - clustered_65 / classical_65
    assert reduction >= 0.20, f"cost reduction at 65 UEs only {reduction:.1%}"
    assert wall < 300.0, f"sweep took {wall:.0f} s (budget 300 s)"
    print(
        f"criterion 1: PASS - spearman "
        f"{', '.join(f'{m}={v:.3f}' for m, v in sorted(rhos.items()))}; "
        f"cost cut at 65 UEs {reduction:.1%} (floor 20%); sweep {wall:.0f} s"
    )


def test_criterion_2_energy_cdf(ue_sweep, ue75_point):
    by_mode, _ = ue_sweep
    pooled = {}
    for mode, results in by_mode.items():
        samples = [r.energy_samples for r in results]
        samples.append(ue75_point[mode].energy_samples)
        pooled[mode] = np.concatenate(samples)
    clustered = pooled["learning_clustered"]
    classical = pooled["classical"]
    assert clustered.size == classical.size == 10 * 24 * (len(UE_GRID) + 1)
    reduction = 1.0 - clustered.mean() / classical.mean()
    assert reduction >= 0.20, f"energy reduction only {reduction:.1%}"
    q50 = (np.quantile(clustered, 0.5), np.quantile(classical, 0.5))
    q90 = (np.quantile(clustered, 0.9), np.quantile(classical, 0.9))
    assert q50[0] < q50[1], f"no CDF dominance at 0.5: {q50}"
    assert q90[0] < q90[1], f"no CDF dominance at 0.9: {q90}"
    print(
        f"criterion 2: PASS - pooled energy cut {reduction:.1%} (floor 20%); "
        f"q50 {q50[0]:.1f}<{q50[1]:.1f} J, q90 {q90[0]:.1f}<{q90[1]:.1f} J"
    )


def test_criterion_3_cluster_structure():
    cfg = default_config()
    cfg.run.runs = 6
    cfg.run.steps = 60
    eps_grid = [50.0 + 25.0 * i for i in range(15)]
    rho_by_theta = {}
    for theta in (0.0, 0.5, 1.0):
        cfg.clustering.theta = theta
        results = sweep(cfg, "eps_d", eps_grid, modes=["learning_clustered"])
        sizes = [r.mean_cluster_size for r in results]
        counts = [r.cluster_count for r in results]
        assert all(s >= 1.0 for s in sizes)
        assert all(c >= 1.0 for c in counts)
        rho_by_theta[theta] = (
            stats.spearmanr(eps_grid, sizes).statistic,
            stats.spearmanr(eps_grid, counts).statistic,
        )
    rho_size, rho_count = rho_by_theta[1.0]
    assert rho_size > 0.9, f"theta=1 size trend rho={rho_size:.3f}"
    assert rho_count < -0.9, f"theta=1 count trend rho={rho_count:.3f}"
    print(
        f"criterion 3: PASS - theta=1 spearman size {rho_size:+.3f} "
        f"count {rho_count:+.3f}; theta=0 size {rho_by_theta[0.0][0]:+.3f}, "
        f"theta=0.5 size {rho_by_theta[0.5][0]:+.3f}"
    )


def test_criterion_4_scheduling_oracle():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    lp_exact = 0
    rounded_match = 0
    tie_notes = []
    gap_notes = []
    for instance in range(500):
        n_b = int(rng.integers(1, 5))
        n_m = int(rng.integers(1, 7))
        costs = rng.uniform(0.01, 2.0, size=(n_b, n_m))
        active = rng.random(n_b) < 0.75
        if not active.any():
            active[int(rng.integers(n_b))] = True
        # one cluster holding every station; each UE starts at station 0
        choice = rebalance(
            costs, np.zeros(n_b, dtype=int), np.zeros(n_m, dtype=int), active
        )
        z_sched = np.zeros_like(costs)
        z_sched[choice, np.arange(n_m)] = 1.0
        masked = np.where(active[:, None], costs, 0.0)

        # evaluate every LP vertex (one active station per UE) with the
        # same float expression used for the schedule objectives
        rows = np.flatnonzero(active)
        cols = np.arange(n_m)
        best, best_count = np.inf, 0
        for combo in itertools.product(rows, repeat=n_m):
            z = np.zeros_like(costs)
            z[list(combo), cols] = 1.0
            obj = float(np.sum(z * masked))
            if obj < best:
                best, best_count = obj, 1
            elif obj == best:
                best_count += 1

        # the relaxation's optimum is integral, so rebalance's one-hot
        # assignment is both the fractional and the rounded schedule
        frac_obj = float(np.sum(z_sched * masked))
        binary_obj = float(np.sum(z_sched * masked))
        lp_exact += frac_obj == best
        if binary_obj == best:
            rounded_match += 1
            if best_count > 1:
                tie_notes.append((instance, best_count))
        else:
            gap_notes.append((instance, binary_obj - best))
    wall = time.perf_counter() - t0
    assert lp_exact == 500, f"fractional != vertex optimum on {500 - lp_exact}"
    assert rounded_match >= 475, f"rounded matched only {rounded_match}/500"
    assert wall < 10.0, f"oracle loop took {wall:.1f} s"
    print(
        f"criterion 4: PASS - LP exact 500/500, rounded {rounded_match}/500 "
        f"({len(tie_notes)} tied optima, {len(gap_notes)} gaps) in {wall:.1f} s"
    )


def test_criterion_5_spectral_oracle():
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    recovered = 0
    for graph in range(200):
        k = int(rng.integers(2, 5))
        size = int(rng.integers(2, 4))
        n = k * size
        sim = np.zeros((n, n))
        weight = float(rng.uniform(0.3, 1.0))
        for j in range(k):
            a, b = j * size, (j + 1) * size
            block = weight * (1.0 + rng.uniform(-0.02, 0.02, size=(size, size)))
            sim[a:b, a:b] = (block + block.T) / 2.0
        np.fill_diagonal(sim, 0.0)
        part = spectral_cluster(sim, list(range(n)), np.random.default_rng(graph))
        planted = {frozenset(range(j * size, (j + 1) * size)) for j in range(k)}
        got = {frozenset(c) for c in part.clusters}
        recovered += part.n_clusters == k and got == planted
    wall = time.perf_counter() - t0
    assert recovered == 200, f"recovered only {recovered}/200 planted partitions"
    assert wall < 10.0, f"oracle loop took {wall:.1f} s"
    print(f"criterion 5: PASS - 200/200 planted partitions in {wall:.1f} s")


def test_criterion_6_learner_sanity():
    # one learner row of a 2-member cluster: four actions, the third best
    utilities = np.array([-10.0, -5.0, 0.0, -7.5])
    learner = LearnerTable(default_config().learning)
    learner.restack([2], [-1])
    assert learner.pi.size == 4
    rng = np.random.default_rng(123)
    first_cross = None
    for t in range(1, 10001):
        played = learner.sample([rng.random()])
        learner.update(played, utilities[played])
        assert abs(learner.pi.sum() - 1.0) <= 1e-9
        assert np.all(learner.pi >= 0.0)
        if first_cross is None and learner.pi[2] > 0.9:
            first_cross = t
    assert first_cross is not None, "pi never crossed 0.9 within 10000 steps"
    assert learner.pi[2] > 0.9, f"final pi_best={learner.pi[2]:.3f}"
    print(
        f"criterion 6: PASS - pi_best crossed 0.9 at step {first_cross}, "
        f"final {learner.pi[2]:.3f}, simplex error <= 1e-9 throughout"
    )


def test_criterion_7_special_cases(ue_sweep):
    # (a) delta = 0 equals strongest-signal selection, 1000 random drops
    rng = np.random.default_rng(9)
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        rx = rng.lognormal(0.0, 2.0, size=n)
        state = (rng.random(n) < 0.7).astype(int)
        if not state.any():
            state[int(rng.integers(n))] = 1
        rho_hat = rng.uniform(0.0, 1.0, size=n)
        rssi = max((b for b in range(n) if state[b]), key=lambda b: rx[b])
        assert associate_all(rx[:, None], state, rho_hat, delta=0.0)[0] == rssi

    # (b) theta = 1 joint similarity equals distance similarity entrywise
    for trial in range(50):
        pos = rng.uniform(0.0, 1000.0, size=(8, 2))
        loads = rng.uniform(0.0, 1.0, size=8)
        cfg = ClusteringConfig(eps_d_m=250.0, sigma_d_m=300.0, sigma_l=1.0,
                               theta=1.0)
        adj = build_adjacency(pos, cfg.eps_d_m)
        s_d = distance_similarity(pos, adj, cfg.sigma_d_m)
        s_l = load_similarity(loads, cfg.sigma_l, cfg.load_sign)
        joint = joint_similarity(s_d, s_l, cfg.theta)
        assert np.max(np.abs(joint - s_d)) <= 1e-12

    # (c) classical mode never flips a station
    by_mode, _ = ue_sweep
    flips = sum(
        rr.state_changes for res in by_mode["classical"] for rr in res.runs
    )
    assert flips == 0
    print(
        "criterion 7: PASS - 1000/1000 RSSI matches, theta=1 similarity "
        f"within 1e-12, classical flips {flips}"
    )


def test_criterion_8_byte_identical_runs(tmp_path):
    cfg_path = tmp_path / "repro.ini"
    cfg_path.write_text(
        "[layout]\nn_small = 6\nn_ues = 20\n"
        "[run]\nsteps = 60\nruns = 3\nseed = 11\n"
    )
    # the child imports the package this process imported, installed or not
    path = [str(Path(scnsim.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "scnsim", "run", "--config", str(cfg_path),
             "--out", str(out)],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append((out / "summary.csv").read_bytes())
    assert outs[0] == outs[1]
    print(
        f"criterion 8: PASS - two `run` executions wrote byte-identical "
        f"summary.csv ({len(outs[0])} bytes)"
    )


def test_mode_ordering_invariant(ordering_point):
    """Clustered <= singleton <= classical mean cost, run-level significance.

    Runs are paired across modes (mode does not enter the seed stream), so
    each leg is checked with a one-sided sign test on the paired per-run
    differences plus the plain ordering of the means.
    """
    cl = np.array([r.mean_cost_per_bs
                   for r in ordering_point["classical"].runs])
    nc = np.array([r.mean_cost_per_bs
                   for r in ordering_point["learning_no_clusters"].runs])
    cu = np.array([r.mean_cost_per_bs
                   for r in ordering_point["learning_clustered"].runs])
    assert cu.mean() <= nc.mean() <= cl.mean(), (
        f"means out of order: clustered {cu.mean():.5f}, "
        f"singleton {nc.mean():.5f}, classical {cl.mean():.5f}"
    )
    pvals = {}
    for name, diff in (("clustered<=singleton", nc - cu),
                       ("singleton<=classical", cl - nc)):
        nonzero = diff[diff != 0.0]
        wins = int(np.sum(nonzero > 0.0))
        p = stats.binomtest(wins, nonzero.size, 0.5,
                            alternative="greater").pvalue
        pvals[name] = (wins, nonzero.size, p)
        assert p < 0.05, f"{name}: {wins}/{nonzero.size} positive, p={p:.3g}"
    print(
        "mode ordering: PASS - "
        + "; ".join(f"{k} {v[0]}/{v[1]} runs, p={v[2]:.2g}"
                    for k, v in pvals.items())
        + f"; means {cu.mean():.5f} <= {nc.mean():.5f} <= {cl.mean():.5f}"
    )
