"""Scenario generation, step loop, and Monte-Carlo aggregation tests."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scnsim import association, clustering, netmodel
from scnsim.cli import _fmt
from scnsim.clustering import LAPLACIAN_MODES, LOAD_SIGN_MODES, ClusterPartition
from scnsim.config import (
    MODES,
    TRAFFIC_DISTRIBUTIONS,
    ConfigError,
    default_config,
    validate_config,
)
from scnsim.coordination import rebalance
from scnsim.sim import (
    MEMO_SIZE,
    STEP_SECONDS,
    World,
    burn_in_steps,
    generate_scenario,
    run_experiment,
    run_once,
    sweep,
)
from test_coordination import solve_cluster_schedule


def small_cfg(mode="learning_clustered", n_small=5, n_ues=12, steps=30):
    cfg = default_config()
    cfg.run.mode = mode
    cfg.run.steps = steps
    cfg.run.runs = 2
    cfg.layout.n_small = n_small
    cfg.layout.n_ues = n_ues
    return cfg


def test_macro_only_network():
    cfg = small_cfg(n_small=0, n_ues=4, steps=10)
    result = run_once(cfg, 0)
    assert result.n_sbs == 0
    assert result.mean_cost_per_bs == 0.0
    assert result.total_energy == 0.0


def test_scenario_layout_and_determinism():
    cfg = small_cfg()
    a = generate_scenario(cfg, np.random.default_rng(42))
    b = generate_scenario(cfg, np.random.default_rng(42))
    for x, y in zip(a, b):
        assert x.tobytes() == y.tobytes()
    bs_pos, macro, ue_pos, traffic = a
    assert bs_pos.shape == (6, 2) and ue_pos.shape == (12, 2)
    assert traffic.shape == (12,) and np.all(traffic > 0)
    assert macro.tolist() == [True] + [False] * 5
    assert bs_pos[0].tolist() == [cfg.layout.side_m / 2, cfg.layout.side_m / 2]


def test_min_distances_hold_across_seeds():
    cfg = default_config()  # Table-style defaults: 10 SBSs, 50 UEs
    lay = cfg.layout
    for seed in range(1000):
        pos, _, upos, _ = generate_scenario(cfg, np.random.default_rng(seed))
        assert np.all((pos >= 0) & (pos <= lay.side_m))
        assert np.all((upos >= 0) & (upos <= lay.side_m))
        d_bs = np.hypot(pos[:, None, 0] - pos[None, :, 0],
                        pos[:, None, 1] - pos[None, :, 1])
        assert np.all(d_bs[0, 1:] >= lay.min_dist_macro_small_m)
        off_diag = d_bs[1:, 1:][~np.eye(len(pos) - 1, dtype=bool)]
        assert np.all(off_diag >= lay.min_dist_small_small_m)
        d_ue = np.hypot(pos[:, None, 0] - upos[None, :, 0],
                        pos[:, None, 1] - upos[None, :, 1])
        assert np.all(d_ue[0] >= lay.min_dist_macro_ue_m)
        assert np.all(d_ue[1:] >= lay.min_dist_small_ue_m)


def test_infeasible_density():
    cfg = small_cfg(n_small=6)
    cfg.layout.side_m = 100.0
    cfg.layout.min_dist_small_small_m = 200.0
    with pytest.raises(ConfigError, match="infeasible density") as err:
        generate_scenario(cfg, np.random.default_rng(0))
    for key in ("side_m = 100", "n_small = 6", "min_dist_small_small_m = 200"):
        assert key in str(err.value)


def test_run_determinism():
    cfg = small_cfg()
    a = run_once(cfg, 3, keep_records=True)
    b = run_once(cfg, 3, keep_records=True)
    assert a.mean_cost_per_bs == b.mean_cost_per_bs
    assert a.total_energy == b.total_energy
    assert a.state_changes == b.state_changes
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.sbs_load, rb.sbs_load)
        assert np.array_equal(ra.sbs_state, rb.sbs_state)


def test_classical_mode_is_static():
    result = run_once(small_cfg("classical"), 0, keep_records=True)
    assert result.state_changes == 0
    assert result.cluster_count == 0.0
    for rec in result.records:
        assert np.all(rec.sbs_state == 1)
        assert rec.n_clusters == 0


def test_no_clusters_mode_uses_singletons():
    result = run_once(small_cfg("learning_no_clusters"), 0,
                      keep_clusters=True)
    assert len(result.cluster_events) == 1  # installed once, never refreshed
    part = result.cluster_events[0].partition
    assert part.clusters == tuple((b,) for b in range(1, 6))
    assert part.heads == tuple(range(1, 6))


def test_clustered_mode_recluster_schedule():
    cfg = small_cfg(steps=12)
    cfg.clustering.recluster_every = 5
    result = run_once(cfg, 0, keep_clusters=True)
    assert [ev.step for ev in result.cluster_events] == [1, 5, 10]
    for ev in result.cluster_events:
        covered = sorted(b for members in ev.partition.clusters
                         for b in members)
        assert covered == list(range(1, 6))


def test_zero_ues_prefer_sleep():
    cfg = small_cfg("learning_no_clusters", n_small=5, n_ues=0, steps=600)
    result = run_once(cfg, 0, keep_records=True)
    window = result.records[300:]
    sleep_frac = 1.0 - float(np.mean([r.sbs_state for r in window]))
    # with no load, sleeping is strictly cheaper and the policy tilts there
    assert sleep_frac > 0.5
    assert result.mean_cost_per_bs < 0.09  # always-on would cost 0.1


def test_every_ue_served_each_step():
    cfg = small_cfg(steps=25)
    world = World(cfg, *generate_scenario(cfg, np.random.default_rng(8)),
                  np.random.default_rng(1), np.random.default_rng(2))
    for t in range(1, cfg.run.steps + 1):
        world.step(t)
        assert world.last_serving.shape == (cfg.layout.n_ues,)
        assert np.all(world.last_serving >= 0)  # nobody uncovered
        assert np.all(world.net.state[world.last_serving] == 1)


def test_all_asleep_charges_penalty():
    # a macro-less world can actually go dark; the step must not abort and
    # each learner must observe -(alpha * sum p_max + beta * member count)
    cfg = small_cfg("learning_no_clusters", n_small=0, n_ues=2, steps=5)
    # two small cells (1 W p_max at the default config) and two UEs
    world = World(cfg, np.array([[100.0, 100.0], [900.0, 900.0]]),
                  np.array([False, False]),
                  np.array([[150.0, 150.0], [850.0, 850.0]]), np.full(2, 1e5),
                  np.random.default_rng(0), np.random.default_rng(0))
    world.step(1)  # installs the singleton learners
    for learner in world.learners.values():
        learner.pi[:] = [0.0, 1.0]  # force the sleep action
    rec = world.step(2)
    assert np.all(rec.sbs_state == 0)
    assert np.all(world.last_serving == -1)
    for learner in world.learners.values():
        assert np.all(learner.prev_utility == -1.0)  # 0.5 * 1 W + 0.5 * 1 member


def test_learners_survive_unchanged_partition():
    cfg = small_cfg(steps=2)
    world = World(cfg, *generate_scenario(cfg, np.random.default_rng(3)),
                  np.random.default_rng(1), np.random.default_rng(2))
    part = ClusterPartition(((1, 2), (3, 4, 5)), (1, 3), epoch=1)
    world._set_partition(part, 1)
    for learner in world.learners.values():  # one observed step per row
        learner.update(np.zeros(learner.n_rows, dtype=int), -np.ones(learner.n_rows))
    kept = world.slots[(1, 2)]
    world._set_partition(ClusterPartition(((1, 2), (3, 4, 5)), (2, 4),
                                          epoch=2), 2)
    assert world.slots[(1, 2)] == kept  # same member set, same learner
    assert kept[0].t[kept[1]] == 1
    world._set_partition(ClusterPartition(((1, 3), (2, 4, 5)), (1, 2),
                                          epoch=3), 3)
    learner, row = world.slots[(1, 3)]
    assert learner.t[row] == 0  # membership changed: reset


def test_rebalance_matches_per_cluster_schedules():
    # the vectorised stage-(5) rebalance on World's cached labels equals one
    # solve_cluster_schedule per cluster over the UEs of its members
    cfg = small_cfg(n_small=7, n_ues=14)
    world = World(cfg, *generate_scenario(cfg, np.random.default_rng(4)),
                  np.random.default_rng(1), np.random.default_rng(2))
    rng = np.random.default_rng(99)
    n_bs, n_ue = world.n_bs, world.traffic.size
    for trial in range(300):
        labels = rng.integers(0, 4, size=n_bs - 1)
        clusters = tuple(
            tuple(int(b) + 1 for b in np.flatnonzero(labels == j))
            for j in range(4) if np.any(labels == j)
        )
        world._set_partition(ClusterPartition(clusters, (), epoch=trial), trial)
        assert np.array_equal(world.excl,
                              netmodel.exclusion_matrix(n_bs, clusters))
        active = rng.random(n_bs) < 0.6
        active[0] = True  # the macro never sleeps
        # coarse costs so ties between members occur; sleepers cost inf
        costs = np.where(active[:, None],
                         rng.integers(1, 4, size=(n_bs, n_ue)) / 10.0, np.inf)
        serving = rng.choice(np.flatnonzero(active), size=n_ue)

        want = serving.copy()
        for members in clusters:
            midx = np.array(members)
            sel = np.flatnonzero(np.isin(serving, midx))
            if sel.size:
                binary = solve_cluster_schedule(costs[np.ix_(midx, sel)], active[midx])
                want[sel] = midx[np.argmax(binary, axis=0)]
        got = rebalance(costs, world.label, serving, active)
        assert np.array_equal(got, want)


def test_kmeans_iters_reaches_kmeans(monkeypatch):
    seen = []
    real = clustering.kmeans

    def spy(*args, **kwargs):
        seen.append(kwargs["max_iter"])
        return real(*args, **kwargs)

    monkeypatch.setattr(clustering, "kmeans", spy)
    cfg = small_cfg(steps=6)
    cfg.clustering.kmeans_iters = 7
    cfg.clustering.recluster_every = 5
    run_once(cfg, 0)
    assert seen == [7, 7]  # reclusters at steps 1 and 5


def test_step_exposes_fixed_point_iterations():
    cfg = small_cfg(steps=3)
    world = World(cfg, *generate_scenario(cfg, np.random.default_rng(6)),
                  np.random.default_rng(1), np.random.default_rng(2))
    for t in range(1, 4):
        world.step(t)
        assert 1 <= world.net.iterations <= cfg.run.load_max_iter


_associate_all = association.associate_all  # unpatched, for fresh solves


def _fresh_step_inputs(world, rec, prev_load, delta, associate=None):
    """Serving vector, loads and SBS powers and costs of the step that
    returned rec, recomputed from scratch."""
    state = np.ones(world.n_bs, dtype=np.int64)
    state[world.sbs_idx] = rec.sbs_state
    n_ue = world.traffic.size
    if not n_ue:
        serving = np.zeros(0, dtype=int)
    elif not state.any():
        serving = np.full(n_ue, -1)
    else:
        serving = (associate or _associate_all)(
            world.p_max[:, None] * world.gains, state, world.estimate.rho_hat, delta)
        if world.excl is not None:
            rates = netmodel.rate_matrix(world.channel, world.gains, world.p_max,
                                         state, prev_load, world.excl)
            with np.errstate(divide="ignore"):
                costs = world.traffic[None, :] / rates
            serving = rebalance(costs, world.label, serving, state == 1)
    rc = world.cfg.run
    net = netmodel.compute_loads(
        world.channel, world.gains, world.p_max, state, serving, world.traffic,
        excl=world.excl, tol=rc.load_tol, max_iter=rc.load_max_iter,
        init=prev_load)
    totals = netmodel.total_powers(world.p_max, world.p_idle, world.idle_scale, net)
    lcfg = world.cfg.learning
    cost = lcfg.alpha * totals + lcfg.beta * net.load_raw
    return serving, net, totals[world.sbs_idx], cost[world.sbs_idx]


def _assert_step_equals_fresh(world, rec, prev_load, delta, associate=None):
    serving, fresh, power, cost = _fresh_step_inputs(world, rec, prev_load, delta,
                                                     associate)
    assert serving.tobytes() == world.last_serving.tobytes()
    for name in ("state", "load", "load_raw"):
        assert getattr(fresh, name).tobytes() == getattr(world.net, name).tobytes()
    assert (fresh.converged, fresh.iterations) == (
        world.net.converged, world.net.iterations)
    assert power.tobytes() == rec.sbs_power.tobytes()
    assert cost.tobytes() == rec.sbs_cost.tobytes()


@pytest.mark.parametrize("scenario_seed", [0, 3])
@pytest.mark.parametrize("mode, delta", [
    ("classical", 1.0),
    ("learning_no_clusters", 1.0),
    ("learning_clustered", 1.0),
    ("learning_no_clusters", 0.0),  # RSSI association: stage (4) reuse too
])
def test_reused_solves_equal_fresh_solves(mode, delta, scenario_seed, monkeypatch):
    # World skips the fixed point (and, with delta = 0, the association)
    # when its inputs repeat a remembered solve's bit for bit; every
    # step must still equal a solve from that step's own inputs. In drop 0
    # the macro serves every UE, so even learning-mode solves repeat; in
    # drop 3 SBSs serve some UEs under RSSI, so the reused association
    # matters
    associations = []
    monkeypatch.setattr(association, "associate_all",
                        lambda *args: associations.append(1) or _associate_all(*args))
    cfg = small_cfg(mode, n_small=4, n_ues=24, steps=150)
    cfg.association.delta = delta
    cfg.clustering.eps_d_m = 400.0
    cfg.clustering.recluster_every = 5
    world = World(cfg, *generate_scenario(cfg, np.random.default_rng(scenario_seed)),
                  np.random.default_rng(1), np.random.default_rng(2))
    effective_delta = 0.0 if mode == "classical" else delta
    sbs_served = 0
    for t in range(1, cfg.run.steps + 1):
        prev_load = world.net.load.copy()
        rec = world.step(t)
        _assert_step_equals_fresh(world, rec, prev_load, effective_delta)
        sbs_served += int(np.any(world.last_serving > 0))
    assert 1 <= world.fp_solves <= cfg.run.steps
    if mode == "classical" or scenario_seed == 0:
        assert world.fp_solves < cfg.run.steps
    if effective_delta == 0:
        assert len(associations) < cfg.run.steps
        assert (sbs_served > 0) == (scenario_seed == 3)
    else:
        assert len(associations) == cfg.run.steps


@pytest.mark.parametrize("mode", MODES)
def test_reused_step_records_are_read_only_solve_slices(mode):
    # the memo holds each solve's SBS record arrays, sliced once; a reused
    # step's record shares them, so they must equal fresh slices of that
    # step's own solve and refuse writes. At 12 Mbit/s per UE in drop 1,
    # every mode reuses most solves and some reused steps overload an SBS,
    # so its clamped and raw loads differ
    cfg = small_cfg(mode, n_small=4, n_ues=24, steps=150)
    cfg.traffic.mean_rate_bps = 12e6
    cfg.clustering.eps_d_m = 400.0
    cfg.clustering.recluster_every = 5
    world = World(cfg, *generate_scenario(cfg, np.random.default_rng(1)),
                  np.random.default_rng(1), np.random.default_rng(2))
    delta = 0.0 if mode == "classical" else cfg.association.delta
    s = world.sbs_idx
    reused = overloaded = 0
    for t in range(1, cfg.run.steps + 1):
        prev_load = world.net.load.copy()
        solves = world.fp_solves
        rec = world.step(t)
        if world.fp_solves > solves:
            continue
        reused += 1
        _, fresh, power, cost = _fresh_step_inputs(world, rec, prev_load, delta)
        want = [world.net.state[s], power, fresh.load[s], fresh.load_raw[s], cost]
        got = [rec.sbs_state, rec.sbs_power, rec.sbs_load, rec.sbs_load_raw,
               rec.sbs_cost]
        for have, expected in zip(got, want):
            assert have.tobytes() == expected.tobytes()
            assert not have.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rec.sbs_load[:] = 0.0
        overloaded += bool(np.any(rec.sbs_load_raw > 1.0))
    assert reused > cfg.run.steps // 2
    assert overloaded > 0


def test_period_two_solve_keys_run_two_solves():
    # planted: the warm-started iterate of classical drop 1 ends in a
    # period-2 cycle a -> b -> a in the last bit. A World started on a
    # alternates its solve keys A, B, A, B, which a memo of only the
    # last solve never matches; with two entries it solves exactly twice
    cfg = small_cfg("classical", n_small=4, n_ues=24, steps=12)
    world = World(cfg, *generate_scenario(cfg, np.random.default_rng(1)),
                  np.random.default_rng(1), np.random.default_rng(2))
    state = np.ones(world.n_bs, dtype=np.int64)
    serving = _associate_all(world.rx, state, np.zeros(world.n_bs), 0.0)
    rc = cfg.run
    loads = [np.zeros(world.n_bs)]
    while len(loads) < 3 or loads[-1].tobytes() != loads[-3].tobytes():
        assert len(loads) < 100
        loads.append(netmodel.compute_loads(
            world.channel, world.gains, world.p_max, state, serving, world.traffic,
            tol=rc.load_tol, max_iter=rc.load_max_iter,
            init=loads[-1]).load)
    a, b = loads[-3], loads[-2]
    assert a.tobytes() != b.tobytes()

    world.net.load = a.copy()
    keys = []
    for t in range(1, cfg.run.steps + 1):
        prev_load = world.net.load.copy()
        rec = world.step(t)
        keys.append(prev_load.tobytes())
        _assert_step_equals_fresh(world, rec, prev_load, 0.0)
    assert keys == [a.tobytes(), b.tobytes()] * (cfg.run.steps // 2)
    assert world.fp_solves == 2


@pytest.mark.parametrize("run_index, period", [(0, 12), (2, 16)])
def test_long_solve_cycles_are_held_whole(run_index, period):
    # planted: the warm-started iterate of classical 75-UE
    # drops 0 and 2 (seed 1) ends in a cycle of 12 and 16 distinct loads in
    # the last bits, so a memo of the last two solves solves every step.
    # The memo holds whole cycles: once the iterate is on its cycle no step
    # is solved again, and every reused step equals a fresh solve
    cfg = default_config()
    cfg.run.mode = "classical"
    cfg.layout.n_ues = 75
    scen, kmeans, learner = np.random.SeedSequence([1, run_index]).spawn(3)
    world = World(cfg, *generate_scenario(cfg, np.random.default_rng(scen)),
                  np.random.default_rng(kmeans), np.random.default_rng(learner))
    keys = []
    for t in range(1, 121):
        prev_load = world.net.load.copy()
        rec = world.step(t)
        keys.append(prev_load.tobytes())
        _assert_step_equals_fresh(world, rec, prev_load, 0.0)
    # classical state and serving never change, so the loads are the key
    cycle = next(p for p in range(1, len(keys)) if keys[-1] == keys[-1 - p])
    transient = next(i for i in range(len(keys)) if keys[i] == keys[i + cycle])
    assert cycle == period <= MEMO_SIZE
    assert world.fp_solves <= transient + cycle < len(keys)


def test_memo_stays_bounded_in_learning_mode():
    # learning-mode loads rarely repeat, so nearly every step adds a solve;
    # the oldest are evicted once MEMO_SIZE are held
    cfg = small_cfg("learning_clustered", n_small=6, n_ues=30, steps=200)
    cfg.clustering.eps_d_m = 400.0
    cfg.clustering.recluster_every = 500  # one partition, one memo
    world = World(cfg, *generate_scenario(cfg, np.random.default_rng(4)),
                  np.random.default_rng(1), np.random.default_rng(2))
    for t in range(1, cfg.run.steps + 1):
        world.step(t)
        assert len(world._solves) <= MEMO_SIZE
    assert world.fp_solves > MEMO_SIZE


@pytest.mark.parametrize("change", ["serving", "excl"])
def test_new_serving_or_exclusion_forces_a_solve(change, monkeypatch):
    # serving and the exclusion matrix object are part of the reuse key:
    # a step that repeats a remembered solve's other inputs is solved again
    cfg = small_cfg("classical", n_small=4, n_ues=24)
    world = World(cfg, *generate_scenario(cfg, np.random.default_rng(3)),
                  np.random.default_rng(1), np.random.default_rng(2))
    for t in range(1, 101):
        world.step(t)
    solves = world.fp_solves
    world.step(101)
    assert world.fp_solves == solves  # a repeat

    def to_macro(*args):  # the first SBS-served UE moves to the macro
        serving = _associate_all(*args)
        serving[np.flatnonzero(serving > 0)[0]] = 0
        return serving

    if change == "serving":
        monkeypatch.setattr(association, "associate_all", to_macro)
        world._assoc = None  # drop the cached association
    else:
        clusters = [(1, 2), (3, 4)]
        world.excl = netmodel.exclusion_matrix(world.n_bs, clusters)
        world.label = netmodel.cluster_labels(world.n_bs, clusters)
    prev_load = world.net.load.copy()
    rec = world.step(102)
    assert world.fp_solves == solves + 1
    _assert_step_equals_fresh(world, rec, prev_load, 0.0,
                              associate=to_macro if change == "serving" else None)


def test_classical_world_reuses_most_solves():
    # the warm-started iteration reaches an exact fixed point and classical
    # states never change, so most steps repeat the last solve's inputs
    cfg = small_cfg("classical", n_small=10, n_ues=54, steps=200)
    world = World(cfg, *generate_scenario(cfg, np.random.default_rng(5)),
                  np.random.default_rng(1), np.random.default_rng(2))
    for t in range(1, cfg.run.steps + 1):
        world.step(t)
    assert world.fp_solves < cfg.run.steps / 2


@pytest.mark.parametrize("seed", [1, 3])
def test_dense_clusters_fit_the_action_cap(seed):
    # 20 SBSs with a 400 m radius: k-means forms clusters of 12 (seed 1) and
    # 14 (seed 3) SBSs, whose 2^12 and 2^14 joint actions exceed the
    # default cap of 1024; bisection keeps every cluster at <= 10 members
    cfg = default_config()
    cfg.run.mode = "learning_clustered"
    cfg.run.seed = seed
    cfg.run.steps = 6
    cfg.layout.n_small = 20
    cfg.layout.n_ues = 30
    cfg.clustering.eps_d_m = 400.0
    cfg.clustering.recluster_every = 2
    validate_config(cfg)
    result = run_once(cfg, 0, keep_clusters=True)
    for event in result.cluster_events:
        assert sorted(b for c in event.partition.clusters for b in c) == list(range(1, 21))
        assert max(event.partition.sizes()) <= 10


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    n_small=st.integers(0, 24),
    eps_d_m=st.floats(50.0, 600.0),
    max_actions=st.integers(2, 1024),
    recluster_every=st.integers(1, 5),
    n_ues=st.integers(0, 30),
    steps=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_clustered_runs_keep_partition_invariants(
    n_small, eps_d_m, max_actions, recluster_every, n_ues, steps, seed
):
    cfg = default_config()
    cfg.run.mode = "learning_clustered"
    cfg.run.seed = seed
    cfg.run.steps = steps
    cfg.layout.n_small = n_small
    cfg.layout.n_ues = n_ues
    cfg.clustering.eps_d_m = eps_d_m
    cfg.clustering.recluster_every = recluster_every
    cfg.learning.max_actions = max_actions
    validate_config(cfg)
    result = run_once(cfg, 0, keep_records=True, keep_clusters=True)
    s_max = int(np.floor(np.log2(max_actions)))
    assert result.cluster_events
    for event in result.cluster_events:
        members = sorted(b for c in event.partition.clusters for b in c)
        assert members == list(range(1, n_small + 1))  # each SBS exactly once
        assert all(len(c) <= s_max for c in event.partition.clusters)
    for rec in result.records:
        assert np.all((rec.sbs_load >= 0.0) & (rec.sbs_load <= 1.0))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    mode=st.sampled_from(["classical", "learning_no_clusters", "learning_clustered"]),
    n_small=st.integers(0, 14),
    n_ues=st.integers(0, 40),
    eps_d_m=st.floats(50.0, 600.0),
    recluster_every=st.integers(1, 6),
    steps=st.integers(1, 15),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_invariants_hold_in_every_mode(
    mode, n_small, n_ues, eps_d_m, recluster_every, steps, seed
):
    cfg = default_config()
    cfg.run.mode = mode
    cfg.run.seed = seed
    cfg.run.steps = steps
    cfg.layout.n_small = n_small
    cfg.layout.n_ues = n_ues
    cfg.clustering.eps_d_m = eps_d_m
    cfg.clustering.recluster_every = recluster_every
    validate_config(cfg)
    # the same three streams run_once spawns for run 0
    scen, kmeans, learner_seed = np.random.SeedSequence([seed, 0]).spawn(3)
    world = World(cfg, *generate_scenario(cfg, np.random.default_rng(scen)),
                  np.random.default_rng(kmeans), np.random.default_rng(learner_seed))
    powers = []
    for t in range(1, steps + 1):
        rec = world.step(t)
        powers.append(rec.sbs_power)
        for learner in world.learners.values():
            assert np.all(learner.pi >= 0.0)
            assert np.all(np.abs(learner.pi.sum(axis=1) - 1.0) <= 1e-9)
        assert world.net.state[0] == 1  # the macro never sleeps ...
        assert np.all(world.last_serving >= 0)  # ... so every UE is served
        assert np.all(world.net.state[world.last_serving] == 1)
        assert np.all((world.net.load >= 0.0) & (world.net.load <= 1.0))
    result = run_once(cfg, 0)
    assert result.total_energy == pytest.approx(
        math.fsum(float(p) for step_power in powers for p in step_power) * STEP_SECONDS,
        rel=1e-12, abs=1e-12,
    )


_DEFAULT = default_config()
# (section, key) of every int and float field of ScenarioConfig
_NUMERIC_FIELDS = [
    (section.name, f.name)
    for section in dataclasses.fields(_DEFAULT)
    for f in dataclasses.fields(getattr(_DEFAULT, section.name))
    if isinstance(getattr(getattr(_DEFAULT, section.name), f.name), (int, float))
]
# the counts that size a run stay small, so an example takes milliseconds
_COUNT_CAPS = {("layout", "n_small"): 12, ("layout", "n_ues"): 30,
               ("run", "steps"): 8, ("run", "load_max_iter"): 500}


def _field_values(section, key):
    default = getattr(getattr(_DEFAULT, section), key)
    if isinstance(default, int):
        cap = _COUNT_CAPS.get((section, key), 10**6)
        return st.sampled_from([default, 0, -1]) | st.integers(-cap, cap)
    return st.sampled_from(
        [default, 0.0, -1.0, 1e6, -1e6, math.inf, -math.inf, math.nan]
    ) | st.floats(-1e6, 1e6)


@st.composite
def _scenario_configs(draw):
    """Default configs with about three numeric fields drawn from a hostile pool."""
    cfg = default_config()
    cfg.run.mode = draw(st.sampled_from(MODES))
    cfg.traffic.distribution = draw(st.sampled_from(TRAFFIC_DISTRIBUTIONS))
    cfg.clustering.load_sign = draw(st.sampled_from(LOAD_SIGN_MODES))
    cfg.clustering.laplacian = draw(st.sampled_from(LAPLACIAN_MODES))
    for (section, key), cap in _COUNT_CAPS.items():
        setattr(getattr(cfg, section), key, draw(st.integers(-1, cap)))
    for section, key in _NUMERIC_FIELDS:
        if draw(st.integers(0, 12)) == 0:
            setattr(getattr(cfg, section), key, draw(_field_values(section, key)))
    return cfg


def _edge_cfg(mode, **values):
    """A short default run in `mode`; values maps "section.key" to a value."""
    cfg = default_config()
    cfg.run.mode, cfg.run.steps, cfg.layout.n_ues = mode, 8, 20
    for name, value in values.items():
        section, key = name.split(".")
        setattr(getattr(cfg, section), key, value)
    return cfg


# each of these passed validation before its bound existed, then divided by
# a zero rate (1 + SINR rounds to 1 far from the serving station) or
# overflowed in the reciprocal load kernel mid-run
_EDGE_CFGS = [
    _edge_cfg("classical", **{"channel.noise_psd_dbm_hz": 30.0}),
    # the macro still reaches the corners; a far SBS does not, and load-aware
    # association hands it UEs once the macro's estimate nears 1
    _edge_cfg("learning_no_clusters", **{"channel.noise_psd_dbm_hz": 0.0, "run.steps": 40}),
    _edge_cfg("learning_clustered", **{
        "clustering.load_sign": "reciprocal", "clustering.sigma_l": 1e-6,
        "clustering.recluster_every": 2,
    }),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, derandomize=True, deadline=None)
@given(cfg=_scenario_configs())
@example(cfg=_EDGE_CFGS[0])
@example(cfg=_EDGE_CFGS[1])
@example(cfg=_EDGE_CFGS[2])
def test_random_configs_are_rejected_or_run_finite(cfg):
    # a config either fails as a ConfigError naming its fault, or runs to
    # the end with finite numbers and loads in [0, 1]; it never crashes
    # mid-run, and no division by zero or overflow happens on the way
    try:
        validate_config(cfg)
        result = run_once(cfg, 0, keep_records=True)
    except ConfigError:
        return
    numbers = [
        result.mean_cost_per_bs, result.mean_energy_per_bs, result.total_energy,
        result.mean_load, result.cluster_count, result.mean_cluster_size,
        result.converged_frac, *result.energy_per_sbs,
    ]
    assert np.all(np.isfinite(numbers))
    for rec in result.records:
        assert np.all((rec.sbs_load >= 0.0) & (rec.sbs_load <= 1.0))
        assert np.all(np.isfinite(rec.sbs_cost))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(cfg=_scenario_configs())
def test_random_valid_configs_keep_step_invariants(cfg):
    # over the same hostile pool, every config that validates keeps two
    # invariants at every step: each UE is served by an awake station
    # while any station is awake, and every learner row of pi is on the
    # simplex
    try:
        validate_config(cfg)
        scen, kmeans, learner_seed = np.random.SeedSequence([cfg.run.seed, 0]).spawn(3)
        world = World(cfg, *generate_scenario(cfg, np.random.default_rng(scen)),
                      np.random.default_rng(kmeans), np.random.default_rng(learner_seed))
    except ConfigError:
        return
    for t in range(1, cfg.run.steps + 1):
        world.step(t)
        if world.net.state.any():
            assert np.all(world.last_serving >= 0)
            assert np.all(world.net.state[world.last_serving] == 1)
        for row in (r for learner in world.learners.values() for r in learner.pi):
            assert np.all(row >= 0.0)
            assert abs(row.sum() - 1.0) <= 1e-9


def test_burn_in_steps():
    assert burn_in_steps(400, 0.3) == 120
    assert burn_in_steps(10, 0.0) == 0
    assert burn_in_steps(1, 0.9) == 0  # never drops the whole run
    assert burn_in_steps(3, 0.99) == 2


def test_energy_accounting_identity():
    cfg = small_cfg(steps=20)
    cfg.run.burn_in_frac = 0.0
    result = run_once(cfg, 0, keep_records=True)
    total = float(np.sum([np.sum(r.sbs_power) for r in result.records]))
    assert result.total_energy == pytest.approx(total, rel=1e-12)
    assert result.energy_per_sbs.shape == (5,)
    assert result.mean_energy_per_bs == pytest.approx(
        result.total_energy / 5, rel=1e-12
    )


def test_single_run_aggregate_matches_run():
    cfg = small_cfg(steps=15)
    cfg.run.runs = 1
    agg = run_experiment(cfg)
    solo = run_once(cfg, 0)
    assert agg.mean_cost_per_bs == solo.mean_cost_per_bs
    assert agg.mean_energy_per_bs == solo.mean_energy_per_bs
    assert agg.ci95 == 0.0
    assert np.array_equal(agg.energy_samples, np.sort(solo.energy_per_sbs))


def test_experiment_pools_energy_samples():
    cfg = small_cfg(steps=15)
    cfg.run.runs = 3
    agg = run_experiment(cfg)
    # one sample per (SBS, run), sorted for direct CDF use
    assert agg.energy_samples.shape == (5 * 3,)
    assert np.all(np.diff(agg.energy_samples) >= 0)
    assert len(agg.runs) == 3
    assert [r.run for r in agg.runs] == [0, 1, 2]


def test_parallel_pool_matches_serial():
    cfg = small_cfg(steps=12)
    cfg.run.runs = 4
    serial = run_experiment(cfg)
    cfg.run.jobs = 2
    pooled = run_experiment(cfg)
    assert pooled.mean_cost_per_bs == serial.mean_cost_per_bs
    assert np.array_equal(pooled.energy_samples, serial.energy_samples)


def test_disjoint_seeds_agree_within_bands():
    cfg = small_cfg(steps=60)
    cfg.run.runs = 12
    cfg.run.seed = 1
    a = run_experiment(cfg)
    cfg.run.seed = 1001
    b = run_experiment(cfg)
    assert abs(a.mean_cost_per_bs - b.mean_cost_per_bs) <= a.ci95 + b.ci95


def test_sweep_shares_ue_prefix():
    cfg = small_cfg(n_ues=10)
    rng = np.random.default_rng(5)
    _, _, short_pos, short_traffic = generate_scenario(cfg, rng)
    cfg.layout.n_ues = 20
    rng = np.random.default_rng(5)
    _, _, long_pos, long_traffic = generate_scenario(cfg, rng)
    assert short_pos.tobytes() == long_pos[:10].tobytes()
    assert short_traffic.tobytes() == long_traffic[:10].tobytes()


def test_sweep_emits_one_result_per_point():
    cfg = small_cfg(steps=8)
    cfg.run.runs = 1
    results = sweep(cfg, "ues", [4, 8], modes=["classical",
                                               "learning_clustered"])
    assert [(r.mode, r.ue_count) for r in results] == [
        ("classical", 4), ("classical", 8),
        ("learning_clustered", 4), ("learning_clustered", 8),
    ]
    with pytest.raises(ValueError, match="sweep parameter"):
        sweep(cfg, "zeta", [1.0])


# SHA-256 prefixes of every StepRecord field at 9 significant digits (the
# CSV format), recorded when the undamped fixed point became the default; a
# refactor that keeps the simulator's numbers keeps these.
GOLDEN_STEP_DIGESTS_UNDAMPED = {
    "classical": "65766a5640994482",
    "learning_no_clusters": "a0d30a649fd6f8ed",
    "learning_clustered": "1c52c6dd75c5e0b8",
}


def _records_digest(records):
    h = hashlib.sha256()
    for rec in records:
        for f in dataclasses.fields(rec):
            value = getattr(rec, f.name)
            items = value.ravel().tolist() if isinstance(value, np.ndarray) else [value]
            h.update(f"{f.name}={','.join(_fmt(x) for x in items)};".encode())
    return h.hexdigest()[:16]


def _golden_cfg(mode):
    cfg = default_config()
    cfg.run.mode = mode
    cfg.run.steps = 80
    cfg.layout.n_ues = 32
    cfg.clustering.eps_d_m = 400.0  # wide adjacency: multi-SBS clusters
    cfg.clustering.recluster_every = 5
    return cfg


def _golden_records_digest(mode):
    result = run_once(_golden_cfg(mode), 0, keep_records=True)
    if mode == "learning_clustered":
        assert max(r.mean_cluster_size for r in result.records) > 1.0
    return _records_digest(result.records)


@pytest.mark.parametrize("mode", sorted(GOLDEN_STEP_DIGESTS_UNDAMPED))
def test_golden_step_records_undamped(mode):
    assert _golden_records_digest(mode) == GOLDEN_STEP_DIGESTS_UNDAMPED[mode]


def test_classical_world_keeps_no_load_estimate():
    # classical association ignores rho_hat (delta = 0) and classical never
    # reclusters, so its World skips the estimate: rho_hat stays at zeros,
    # and the records keep the digest recorded while it was still updated
    cfg = _golden_cfg("classical")
    # the same three streams run_once spawns for run 0
    scen, kmeans, learner = np.random.SeedSequence([cfg.run.seed, 0]).spawn(3)
    world = World(cfg, *generate_scenario(cfg, np.random.default_rng(scen)),
                  np.random.default_rng(kmeans), np.random.default_rng(learner))
    records = [world.step(t) for t in range(1, cfg.run.steps + 1)]
    assert world.net.load.any()
    assert not world.estimate.rho_hat.any()
    assert _records_digest(records) == GOLDEN_STEP_DIGESTS_UNDAMPED["classical"]
