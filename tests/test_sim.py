"""Scenario generation, step loop, and Monte-Carlo aggregation tests."""

import copy
import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from scnsim import association, clustering, netmodel, sim
from scnsim.cli import _fmt
from scnsim.clustering import LOAD_SIGN_MODES, ClusterPartition
from scnsim.config import (
    MODES,
    TRAFFIC_DISTRIBUTIONS,
    ConfigError,
    default_config,
    validate_config,
)
from scnsim.coordination import rebalance
from scnsim.sim import (
    MAX_PLACEMENT_TRIES,
    STEP_SECONDS,
    RunResult,
    StepRecord,
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
    cfg.clustering.recluster_every = 5
    result = run_once(cfg, 0, keep_clusters=True)
    assert result.n_sbs == 0
    assert result.mean_cost_per_bs == 0.0
    assert result.total_energy == 0.0
    # the recluster pipeline runs on the empty SBS set and installs empty
    # partitions on schedule
    assert [part.epoch for part in result.cluster_events] == [1, 5, 10]
    for part in result.cluster_events:
        assert part.clusters == () and part.heads == ()


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


def _reference_sample_position(rng, lay, anchors, min_dists):
    ax, ay = anchors[:, 0], anchors[:, 1]
    for _ in range(MAX_PLACEMENT_TRIES):
        p = rng.uniform(0.0, lay.side_m, size=2)
        x, y = p.tolist()
        if (np.hypot(ax - x, ay - y) >= min_dists).all():
            return p
    raise ConfigError(
        f"infeasible density: could not place a node after {MAX_PLACEMENT_TRIES} "
        f"draws; layout.side_m = {lay.side_m:g} is too small for n_small = "
        f"{lay.n_small}, n_ues = {lay.n_ues} at min_dist_macro_small_m = "
        f"{lay.min_dist_macro_small_m:g}, min_dist_small_small_m = "
        f"{lay.min_dist_small_small_m:g}, min_dist_macro_ue_m = "
        f"{lay.min_dist_macro_ue_m:g}, min_dist_small_ue_m = "
        f"{lay.min_dist_small_ue_m:g}"
    )


def reference_generate_scenario(cfg, rng):
    """generate_scenario as a sequential rejection loop, one node at a time:
    each UE draws candidates until one fits; then, with exponential
    traffic, each UE's traffic one draw at a time from the first child of
    rng's SeedSequence (rng is fresh here, so spawn gives that child)."""
    lay = cfg.layout
    n_bs = 1 + lay.n_small
    bs_pos = np.empty((n_bs, 2))
    bs_pos[0] = lay.side_m / 2.0
    dmin = np.array(
        [lay.min_dist_macro_small_m] + [lay.min_dist_small_small_m] * lay.n_small
    )
    for b in range(1, n_bs):
        bs_pos[b] = _reference_sample_position(rng, lay, bs_pos[:b], dmin[:b])
    dmin = np.array([lay.min_dist_macro_ue_m] + [lay.min_dist_small_ue_m] * lay.n_small)
    ue_pos = np.empty((lay.n_ues, 2))
    for m in range(lay.n_ues):
        ue_pos[m] = _reference_sample_position(rng, lay, bs_pos, dmin)
    traffic = np.full(lay.n_ues, float(cfg.traffic.mean_rate_bps))
    if cfg.traffic.distribution == "exponential":
        traffic_rng = np.random.default_rng(rng.bit_generator.seed_seq.spawn(1)[0])
        for m in range(lay.n_ues):
            traffic[m] = traffic_rng.exponential(cfg.traffic.mean_rate_bps)
    return bs_pos, np.arange(n_bs) == 0, ue_pos, traffic


def _first_ue_misfit(cfg, seed):
    """Index of the first UE whose first candidate misfits (None: none does)."""
    rng = np.random.default_rng(seed)
    lay = dataclasses.replace(cfg.layout, n_ues=0)
    bs_pos = reference_generate_scenario(dataclasses.replace(cfg, layout=lay), rng)[0]
    dmin = np.array([lay.min_dist_macro_ue_m] + [lay.min_dist_small_ue_m] * lay.n_small)
    for m in range(cfg.layout.n_ues):
        x, y = rng.uniform(0.0, lay.side_m, size=2).tolist()
        if not (np.hypot(bs_pos[:, 0] - x, bs_pos[:, 1] - y) >= dmin).all():
            return m
    return None


def _first_sbs_misfit(cfg, seed):
    """Index of the first SBS whose first candidate misfits (None: none does)."""
    lay = cfg.layout
    rng = np.random.default_rng(seed)
    bs_pos = np.full((1 + lay.n_small, 2), lay.side_m / 2.0)
    dmin = np.array(
        [lay.min_dist_macro_small_m] + [lay.min_dist_small_small_m] * lay.n_small
    )
    for b in range(1, 1 + lay.n_small):
        x, y = bs_pos[b] = rng.uniform(0.0, lay.side_m, size=2)
        if not (np.hypot(bs_pos[:b, 0] - x, bs_pos[:b, 1] - y) >= dmin[:b]).all():
            return b
    return None


def _assert_drop_matches_reference(cfg, seed):
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        want = reference_generate_scenario(cfg, want_rng)
    except ConfigError as err:
        with pytest.raises(ConfigError) as got_err:
            generate_scenario(cfg, got_rng)
        assert str(got_err.value) == str(err)
        return
    got = generate_scenario(cfg, got_rng)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    # the stream is left where the sequential loop leaves it
    assert got_rng.random() == want_rng.random()


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    side_m=st.sampled_from([1000.0, 400.0, 200.0, 150.0]),
    n_small=st.integers(0, 10),
    n_ues=st.integers(0, 80),
    distribution=st.sampled_from(TRAFFIC_DISTRIBUTIONS),
    seed=st.integers(0, 2**32 - 1),
)
def test_generate_scenario_matches_sequential_placement(
        side_m, n_small, n_ues, distribution, seed):
    # the speculative SBS and UE passes and their rewinds give the
    # sequential loop's arrays and RNG stream bit for bit, misfits or not
    cfg = small_cfg(n_small=n_small, n_ues=n_ues)
    cfg.layout.side_m = side_m
    cfg.traffic.distribution = distribution
    _assert_drop_matches_reference(cfg, seed)


def test_generate_scenario_first_or_last_ue_misfits():
    # the rewind skips no UE's draws when UE 0 misfits and every UE's but
    # one when the last UE does; seeds found by _first_ue_misfit, checked
    # here. UE positions do not depend on the traffic law, so one seed
    # serves both
    cases = [
        (20, 1000.0, 0, 89),
        (20, 1000.0, 19, 338),
        (60, 300.0, 0, 6),
        (60, 300.0, 59, 1279),
    ]
    for n_ues, side_m, misfit, seed in cases:
        for distribution in TRAFFIC_DISTRIBUTIONS:
            cfg = small_cfg(n_small=10, n_ues=n_ues)
            cfg.layout.side_m = side_m
            cfg.traffic.distribution = distribution
            assert _first_ue_misfit(cfg, seed) == misfit
            _assert_drop_matches_reference(cfg, seed)


def test_ue_positions_do_not_depend_on_traffic():
    # traffic has its own stream, so the traffic law and the mean rate move
    # no UE; SBS positions never depended on either
    cfg = small_cfg(n_small=10, n_ues=60)
    cfg.layout.side_m = 400.0  # most drops misfit: the rewinds run too
    for seed in range(20):
        drops = []
        for distribution, rate in [("constant", 1e6), ("exponential", 1e6),
                                   ("exponential", 7e6)]:
            cfg.traffic.distribution, cfg.traffic.mean_rate_bps = distribution, rate
            drops.append(generate_scenario(cfg, np.random.default_rng(seed)))
        for bs_pos, _, ue_pos, _ in drops[1:]:
            assert bs_pos.tobytes() == drops[0][0].tobytes()
            assert ue_pos.tobytes() == drops[0][2].tobytes()
        # the exponential draws scale with the mean: one stream, two rates
        np.testing.assert_allclose(drops[2][3], 7.0 * drops[1][3], rtol=1e-15)


def test_traffic_stream_leaves_the_seed_sequence_as_it_was():
    # the traffic stream is child 0 of the drop stream's SeedSequence,
    # built without spawning, so the same SeedSequence object gives the
    # same drop every time, however many children it spawned before
    cfg = small_cfg(n_ues=30)
    ss = np.random.SeedSequence([7, 2], spawn_key=(0,))
    first = generate_scenario(cfg, np.random.default_rng(ss))
    assert ss.n_children_spawned == 0
    ss.spawn(3)
    again = generate_scenario(cfg, np.random.default_rng(ss))
    for a, b in zip(first, again):
        assert a.tobytes() == b.tobytes()
    child = np.random.SeedSequence([7, 2], spawn_key=(0, 0))
    want = np.random.default_rng(child).exponential(cfg.traffic.mean_rate_bps, 30)
    assert first[3].tobytes() == want.tobytes()


# SHA-256 prefixes of what the separate traffic stream must not move,
# recorded before it: every array of constant-traffic drops (side_m,
# n_small, n_ues, seed), the StepRecords (9 significant digits) of
# constant-traffic runs in every mode, and SBS positions of default drops
PINNED_CONSTANT_DROPS = {
    (1000.0, 10, 50, 0): "9eed56a6b428ef0a",
    (1000.0, 10, 75, 1): "3992c3be3bcd69fa",
    (300.0, 4, 60, 7): "bd35611217ace4cf",
    (1000.0, 5, 12, 42): "6e172567793a4f84",
}
PINNED_CONSTANT_RUNS = {
    "classical": "12e79319101ab6dd",
    "learning_no_clusters": "c5b1bffa4cad70d1",
    "learning_clustered": "3d9562ca3a4606dd",
}
PINNED_DEFAULT_SBS = {0: "03fb1abd09ad8717", 1: "a96a0b5942f5dfcb", 2: "afc43b2f99dadb04"}


def _arrays_digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def test_constant_traffic_and_sbs_drops_are_pinned():
    for (side_m, n_small, n_ues, seed), want in PINNED_CONSTANT_DROPS.items():
        cfg = small_cfg(n_small=n_small, n_ues=n_ues)
        cfg.layout.side_m = side_m
        cfg.traffic.distribution = "constant"
        assert _arrays_digest(generate_scenario(cfg, np.random.default_rng(seed))) == want
    for mode, want in PINNED_CONSTANT_RUNS.items():
        cfg = _golden_cfg(mode)
        cfg.traffic.distribution = "constant"
        assert _records_digest(run_once(cfg, 0, keep_records=True).records) == want
    for seed, want in PINNED_DEFAULT_SBS.items():
        drop = generate_scenario(default_config(), np.random.default_rng(seed))
        assert _arrays_digest([drop[0]]) == want


class _CountedDraws:
    """A Generator whose random() calls record how many doubles each drew."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.bit_generator, self.doubles = self.rng.bit_generator, []

    def random(self, size=None, out=None):
        self.doubles.append(out.size if out is not None else np.prod(size))
        return self.rng.random(size, out=out)


def test_generate_scenario_first_or_last_sbs_misfits():
    # the SBS pass skips no SBS's draws when SBS 1 misfits and every SBS's
    # but one when the last SBS does; seeds found by _first_sbs_misfit,
    # checked here. The first pass draws every SBS's candidate; at the
    # planted misfit it rewinds, skips the draws of the SBSs up to and
    # including it, and passes again from it
    cases = [
        (10, 1000.0, 1, 39),
        (10, 1000.0, 10, 9),
        (10, 400.0, 1, 6),
        (10, 400.0, 10, 9),
        (4, 200.0, 1, 0),
        (4, 200.0, 4, 28),
    ]
    for n_small, side_m, misfit, seed in cases:
        cfg = small_cfg(n_small=n_small, n_ues=20)
        cfg.layout.side_m = side_m
        assert _first_sbs_misfit(cfg, seed) == misfit
        _assert_drop_matches_reference(cfg, seed)
        rng = _CountedDraws(seed)
        generate_scenario(cfg, rng)
        assert rng.doubles[:3] == [2 * n_small, 2 * misfit, 2 * (n_small - misfit + 1)]


def test_infeasible_density():
    # no point of a 100 m square lies 75 m from the macro at its center,
    # so the SBS pass misfits at SBS 1 and the sequential loop gives up
    cfg = small_cfg(n_small=6)
    cfg.layout.side_m = 100.0
    cfg.layout.min_dist_small_small_m = 200.0
    want = (
        "infeasible density: could not place a node after 10000 draws; "
        "layout.side_m = 100 is too small for n_small = 6, n_ues = 12 at "
        "min_dist_macro_small_m = 75, min_dist_small_small_m = 200, "
        "min_dist_macro_ue_m = 35, min_dist_small_ue_m = 10"
    )
    with pytest.raises(ConfigError) as err:
        generate_scenario(cfg, np.random.default_rng(0))
    assert str(err.value) == want
    _assert_drop_matches_reference(cfg, 0)


def test_infeasible_ue_density():
    # the SBSs fit but no UE position lies 2 km from every small cell, so
    # the speculative pass misfits at UE 0 and the sequential loop gives up
    cfg = small_cfg(n_small=3, n_ues=5)
    cfg.layout.min_dist_small_ue_m = 2000.0
    want = (
        "infeasible density: could not place a node after 10000 draws; "
        "layout.side_m = 1000 is too small for n_small = 3, n_ues = 5 at "
        "min_dist_macro_small_m = 75, min_dist_small_small_m = 40, "
        "min_dist_macro_ue_m = 35, min_dist_small_ue_m = 2000"
    )
    with pytest.raises(ConfigError) as err:
        generate_scenario(cfg, np.random.default_rng(0))
    assert str(err.value) == want
    _assert_drop_matches_reference(cfg, 0)


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
    part = result.cluster_events[0]
    assert part.clusters == tuple((b,) for b in range(1, 6))
    assert part.heads == tuple(range(1, 6))


def test_clustered_mode_recluster_schedule():
    cfg = small_cfg(steps=12)
    cfg.clustering.recluster_every = 5
    result = run_once(cfg, 0, keep_clusters=True)
    assert [part.epoch for part in result.cluster_events] == [1, 5, 10]
    for part in result.cluster_events:
        covered = sorted(b for members in part.clusters
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
        assert np.all(world.last_serving >= 0)  # every UE served
        assert np.all(world.net.state[world.last_serving] == 1)


def test_macro_less_world_raises():
    # the macro never sleeps, so a World without one could leave UEs unserved
    cfg = small_cfg("learning_no_clusters", n_small=0, n_ues=2, steps=5)
    with pytest.raises(ValueError, match="a World needs a macro station"):
        World(cfg, np.array([[100.0, 100.0], [900.0, 900.0]]),
              np.array([False, False]),
              np.array([[150.0, 150.0], [850.0, 850.0]]), np.full(2, 1e5),
              np.random.default_rng(0), np.random.default_rng(0))


def test_learners_survive_unchanged_partition():
    cfg = small_cfg(steps=2)
    world = World(cfg, *generate_scenario(cfg, np.random.default_rng(3)),
                  np.random.default_rng(1), np.random.default_rng(2))
    part = ClusterPartition(((1, 2), (3, 4, 5)), (1, 3), epoch=1)
    world._set_partition(part)
    table = world.table
    table.update(np.zeros(table.n_rows, dtype=int), -np.ones(table.n_rows))
    kept = world.rows[(1, 2)]
    world._set_partition(ClusterPartition(((1, 2), (3, 4, 5)), (2, 4), epoch=2))
    assert world.rows[(1, 2)] == kept  # same member set, same row
    assert table.t[kept] == 1
    world._set_partition(ClusterPartition(((1, 3), (2, 4, 5)), (1, 2), epoch=3))
    assert table.t.tolist() == [0, 0]  # membership changed: reset
    table.update(np.array([1, 2]), np.array([-2.0, -3.0]))
    pi = table.pi[:4].copy()  # row of (1, 3): the 2-member block comes first
    # (1, 3) is kept and moves to the second row, behind the new singleton
    world._set_partition(ClusterPartition(((5,), (1, 3), (2, 4)), (5, 1, 2), epoch=4))
    assert world.rows == {(5,): 0, (1, 3): 1, (2, 4): 2}
    assert world.order.tolist() == [0, 1, 2]
    assert table.t.tolist() == [0, 1, 0] and table.prev_utility[1] == -2.0
    assert table.pi[2:6].tobytes() == pi.tobytes()
    assert [members.tolist() for _, members, _ in world.blocks] == [[[5]], [[1, 3], [2, 4]]]


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
        world._set_partition(ClusterPartition(clusters, (), epoch=trial))
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


def test_held_reclusters_equal_the_full_pipeline():
    # every held recluster installs the clusters and heads spectral_cluster
    # returns on the same inputs, which draws nothing there either
    seen = {"held": 0, "changed": 0}

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(theta=st.floats(0.0, 1.0),
           sigma_l=st.sampled_from([0.003, 0.01, 0.03, 0.1, 0.3, 1.0]),
           load_sign=st.sampled_from(LOAD_SIGN_MODES),
           eps_d_m=st.sampled_from([0.0, 150.0, 400.0]), max_actions=st.integers(2, 16),
           rate=st.floats(0.18e6, 12e6), recluster_every=st.integers(1, 3),
           n_small=st.sampled_from([4, 7, 10]), seed=st.integers(0, 2**16))
    def check(theta, sigma_l, load_sign, eps_d_m, max_actions, rate, recluster_every,
              n_small, seed):
        steps = 40
        cfg = small_cfg(n_small=n_small, n_ues=30, steps=steps)
        cc = cfg.clustering
        cc.theta, cc.sigma_l, cc.load_sign = theta, sigma_l, load_sign
        cc.eps_d_m, cc.recluster_every = eps_d_m, recluster_every
        cfg.learning.max_actions, cfg.traffic.mean_rate_bps, cfg.run.seed = (
            max_actions, rate, seed)
        assume(_valid(cfg))
        scen = np.random.SeedSequence([seed, 0]).spawn(3)[0]
        world = World(cfg, *generate_scenario(cfg, np.random.default_rng(scen)),
                      np.random.default_rng(seed + 1), np.random.default_rng(seed + 2))
        ids = world.sbs_idx
        for t in range(1, steps + 1):
            held, before = world.held_reclusters, world.partition
            init = world.label[ids].copy()
            world.step(t)
            if world.held_reclusters > held:
                loads = world.rho_hat[ids]
                s = clustering.joint_similarity(
                    world.s_dist, clustering.load_similarity(loads, cc.sigma_l, load_sign),
                    theta)
                rng = copy.deepcopy(world.kmeans_rng)
                want = clustering.spectral_cluster(
                    s, ids, rng, loads=loads, epoch=t, init_labels=init,
                    max_size=world.max_cluster_size)
                assert world.partition == want, t
                assert rng.bit_generator.state == world.kmeans_rng.bit_generator.state
                seen["held"] += 1
            elif before is not None and world.partition.clusters != before.clusters:
                seen["changed"] += 1

    check()
    assert seen["held"] > 0 and seen["changed"] > 0, seen


def test_step_exposes_fixed_point_iterations():
    cfg = small_cfg(steps=3)
    world = World(cfg, *generate_scenario(cfg, np.random.default_rng(6)),
                  np.random.default_rng(1), np.random.default_rng(2))
    for t in range(1, 4):
        world.step(t)
        assert 1 <= world.net.iterations <= cfg.run.load_max_iter


_associate_all = association.associate_all  # unpatched, for fresh solves


_SBS_FIELDS = ("sbs_state", "sbs_power", "sbs_load", "sbs_load_raw", "sbs_cost")


def _fresh_step_inputs(world, prev_load, delta):
    """Serving vector, solve and SBS record arrays (_SBS_FIELDS order) of
    the step just run, recomputed from scratch at its state."""
    state = world.net.state.copy()
    n_ue = world.traffic.size
    if not n_ue:
        serving = np.zeros(0, dtype=int)
    else:
        serving = _associate_all(
            world.p_max[:, None] * world.gains, state, world.rho_hat, delta)
        if world.excl is not None:
            rates = netmodel.rate_matrix(world.cfg.channel, world.gains, world.p_max,
                                         state, prev_load, world.excl)
            with np.errstate(divide="ignore"):
                costs = world.traffic[None, :] / rates
            serving = rebalance(costs, world.label, serving, state == 1)
    rc = world.cfg.run
    net = netmodel.compute_loads(
        world.cfg.channel, world.gains, world.p_max, state, serving, world.traffic,
        excl=world.excl, tol=rc.load_tol, max_iter=rc.load_max_iter,
        init=prev_load)
    totals = netmodel.total_powers(world.p_max, world.p_idle, world.idle_scale, net)
    lcfg = world.cfg.learning
    cost = lcfg.alpha * totals + (1 - lcfg.alpha) * net.load_raw
    s = world.sbs_idx
    return serving, net, (state[s], totals[s], net.load[s], net.load_raw[s], cost[s])


def _assert_step_equals_fresh(world, prev_load, delta):
    """The step just run equals a fresh solve from its own inputs; returns
    the fresh SBS record arrays, for _assert_records_equal."""
    serving, fresh, row = _fresh_step_inputs(world, prev_load, delta)
    assert serving.tobytes() == world.last_serving.tobytes()
    for name in ("state", "load", "load_raw"):
        assert getattr(fresh, name).tobytes() == getattr(world.net, name).tobytes()
    assert (fresh.converged, fresh.iterations) == (
        world.net.converged, world.net.iterations)
    return row


def _assert_records_equal(records, rows):
    """Each record's SBS arrays equal the fresh ones in bytes and are read-only."""
    assert len(records) == len(rows)
    for rec, row in zip(records, rows):
        for name, want in zip(_SBS_FIELDS, row):
            got = getattr(rec, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), (rec.step, name)
            assert not got.flags.writeable


@pytest.mark.parametrize("scenario_seed", [0, 3])
@pytest.mark.parametrize("mode, delta", [
    ("classical", 1.0),
    ("learning_no_clusters", 1.0),
    ("learning_clustered", 1.0),
    ("learning_no_clusters", 0.0),  # RSSI association
])
def test_every_step_equals_a_fresh_solve(mode, delta, scenario_seed, monkeypatch):
    # a step associates once and solves once, from its own inputs, in every
    # mode, so it equals an association and a compute_loads from scratch
    # at that step's state, load estimates and previous loads. In drop 0
    # the macro serves every UE; in drop 3 SBSs serve some UEs under RSSI
    calls = []
    monkeypatch.setattr(association, "associate_all",
                        lambda *args: calls.append("associate_all") or _associate_all(*args))
    monkeypatch.setattr(netmodel, "compute_loads", lambda *args, **kwargs: (
        calls.append("compute_loads") or _compute_loads(*args, **kwargs)))
    cfg = small_cfg(mode, n_small=4, n_ues=24, steps=150)
    cfg.association.delta = delta
    cfg.clustering.eps_d_m = 400.0
    cfg.clustering.recluster_every = 5
    world = World(cfg, *generate_scenario(cfg, np.random.default_rng(scenario_seed)),
                  np.random.default_rng(1), np.random.default_rng(2))
    effective_delta = 0.0 if mode == "classical" else delta
    sbs_served = 0
    rows = []
    for t in range(1, cfg.run.steps + 1):
        prev_load = world.net.load.copy()
        calls.clear()
        world.step(t)
        assert calls == ["associate_all", "compute_loads"], t
        rows.append(_assert_step_equals_fresh(world, prev_load, effective_delta))
        sbs_served += int(np.any(world.last_serving > 0))
    _assert_records_equal(world.trace(), rows)
    if effective_delta == 0:
        assert (sbs_served > 0) == (scenario_seed == 3)


def _load_orbit(world):
    """(loads, transient) of a classical World's solves: the loads of
    literal compute_loads calls from zero loads, each from the previous
    one's, up to the first repeat, which equals loads[transient]."""
    rc = world.cfg.run
    state = np.ones(world.n_bs, dtype=np.int64)
    serving = _associate_all(world.rx, state, np.zeros(world.n_bs), 0.0)
    seen, loads = {}, [np.zeros(world.n_bs)]
    while loads[-1].tobytes() not in seen:
        assert len(seen) < 1000
        seen[loads[-1].tobytes()] = len(seen)
        loads.append(netmodel.compute_loads(
            world.cfg.channel, world.gains, world.p_max, state, serving, world.traffic,
            tol=rc.load_tol, max_iter=rc.load_max_iter, init=loads[-1]).load)
    return loads[:-1], seen[loads[-1].tobytes()]


def _search_drop(cfgs, fits, start=0, runs=300):
    """(cfg, run index, loads, transient) of the first classical drop, over
    the configs in order and the `runs` drops from `start` under each, whose
    load orbit has a period that `fits`. The orbit's last bits follow how
    the host's BLAS kernel rounds w @ gains, so which drops cycle, and with
    what period, is searched for on this host."""
    for cfg in cfgs:
        for run_index in range(start, start + runs):
            loads, transient = _load_orbit(_classical_world(cfg, run_index))
            if fits(len(loads) - transient):
                return cfg, run_index, loads, transient
    pytest.fail(f"none of {runs} drops has a load orbit of the period sought")


@pytest.mark.parametrize("start", [pytest.param(0, id="0-12"), pytest.param(2, id="2-16")])
def test_long_load_cycles_replay_as_one_static_solve(start, monkeypatch):
    # a 75-UE drop whose warm-started iterate ends in a cycle of three or
    # more distinct loads in the last bits. Every step of a World stepped
    # by hand through the cycle twice equals a fresh solve, and run_once
    # gives every step the solve at the cycle's first repeated previous
    # loads. The search starts at drop `start`, first at the default rate,
    # where under OpenBLAS's SkylakeX kernel drops 0 and 2 cycle with
    # periods 12 and 16 (the cases' names), then at 6 Mbit/s per UE, where
    # more drops cycle at period 3 or more under other kernels
    cfg = default_config()
    cfg.run.mode = "classical"
    cfg.layout.n_ues = 75
    fast = dataclasses.replace(cfg, traffic=dataclasses.replace(cfg.traffic, mean_rate_bps=6e6))
    cfg, run_index, loads, transient = _search_drop(
        [cfg, fast], lambda period: period >= 3, start)
    period = len(loads) - transient
    world = _classical_world(cfg, run_index)
    keys, rows = [], []
    for t in range(1, transient + 2 * period + 2):
        prev_load = world.net.load.copy()
        world.step(t)
        keys.append(prev_load.tobytes())
        rows.append(_assert_step_equals_fresh(world, prev_load, 0.0))
    _assert_records_equal(world.trace(), rows)
    # classical state and serving never change, so the loads are the key
    assert next(p for p in range(1, len(keys)) if keys[-1] == keys[-1 - p]) == period
    cfg.run.steps = 120
    _assert_replay_equals_stepping(cfg, run_index, monkeypatch)


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
    for part in result.cluster_events:
        assert sorted(b for c in part.clusters for b in c) == list(range(1, 21))
        assert max(part.sizes()) <= 10


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
    for part in result.cluster_events:
        members = sorted(b for c in part.clusters for b in c)
        assert members == list(range(1, n_small + 1))  # each SBS exactly once
        assert all(len(c) <= s_max for c in part.clusters)
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
    keys = []
    for t in range(1, steps + 1):
        keys.append(world.net.load.tobytes())
        world.step(t)
        table = world.table  # None in classical mode
        if table is not None and table.n_rows:
            assert np.all(table.pi >= 0.0)
            assert np.all(np.abs(np.add.reduceat(table.pi, table.start) - 1.0) <= 1e-9)
        assert world.net.state[0] == 1  # the macro never sleeps ...
        assert np.all(world.last_serving >= 0)  # ... so every UE is served
        assert np.all(world.net.state[world.last_serving] == 1)
        assert np.all((world.net.load >= 0.0) & (world.net.load <= 1.0))
    powers = [rec.sbs_power for rec in _run_records(world, keys)]
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


def _validates(section, key, value):
    """The default config with only section.key set to value passes validation."""
    cfg = default_config()
    setattr(getattr(cfg, section), key, value)
    try:
        validate_config(cfg)
    except ConfigError:
        return False
    return True


def _single_field_valid_values(section, key):
    """Values of one field, from the hostile pool's fixed values and half and
    twice the default, that pass validation with every other field at its
    default."""
    default = getattr(getattr(_DEFAULT, section), key)
    if isinstance(default, int):
        pool = [default, 0, -1, 1, 2, default // 2, default * 2]
    else:
        pool = [default, 0.0, -1.0, 1e6, -1e6, default / 2, default * 2]
    return sorted({v for v in pool if _validates(section, key, v)})


# counts drawn in their valid range, up to the cap, and every other field's
# single-field valid values
_VALID_COUNT_LOW = {
    field: min(v for v in range(-1, 3) if _validates(*field, v)) for field in _COUNT_CAPS
}
_VALID_VALUES = {
    field: _single_field_valid_values(*field)
    for field in _NUMERIC_FIELDS if field not in _COUNT_CAPS
}


@st.composite
def _scenario_configs(draw, valid=False):
    """Default configs with about three numeric fields drawn from a hostile pool.

    With valid=True the counts are drawn in their valid range and the
    other fields from their single-field valid values, so nearly every
    draw validates; the rare rest combine values that only fail together,
    or cannot place their drop.
    """
    cfg = default_config()
    cfg.run.mode = draw(st.sampled_from(MODES))
    cfg.traffic.distribution = draw(st.sampled_from(TRAFFIC_DISTRIBUTIONS))
    cfg.clustering.load_sign = draw(st.sampled_from(LOAD_SIGN_MODES))
    for (section, key), cap in _COUNT_CAPS.items():
        low = _VALID_COUNT_LOW[(section, key)] if valid else -1
        setattr(getattr(cfg, section), key, draw(st.integers(low, cap)))
    for section, key in _NUMERIC_FIELDS:
        if valid and (section, key) in _COUNT_CAPS:
            continue
        if draw(st.integers(0, 12)) == 0:
            values = (st.sampled_from(_VALID_VALUES[(section, key)]) if valid
                      else _field_values(section, key))
            setattr(getattr(cfg, section), key, draw(values))
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
    # over the same hostile pool, every config that validates keeps its
    # invariants at every step: the macro is awake, each UE is served by an
    # awake station, and every learner row of pi is on the simplex
    try:
        validate_config(cfg)
        scen, kmeans, learner_seed = np.random.SeedSequence([cfg.run.seed, 0]).spawn(3)
        world = World(cfg, *generate_scenario(cfg, np.random.default_rng(scen)),
                      np.random.default_rng(kmeans), np.random.default_rng(learner_seed))
    except ConfigError:
        return
    for t in range(1, cfg.run.steps + 1):
        world.step(t)
        assert world.net.state[0] == 1
        assert world.last_serving.shape == world.traffic.shape
        assert np.all(world.last_serving >= 0)
        assert np.all(world.net.state[world.last_serving] == 1)
        table = world.table  # None in classical mode
        if table is not None and table.n_rows:
            assert np.all(table.pi >= 0.0)
            assert np.all(np.abs(np.add.reduceat(table.pi, table.start) - 1.0) <= 1e-9)


def _clustered(cfg):
    cfg.run.mode = "learning_clustered"
    cfg.clustering.recluster_every = min(cfg.clustering.recluster_every, 3)
    return cfg


_compute_loads = netmodel.compute_loads  # unpatched


def _assert_airtimes_are_the_first_sweep(args, kwargs):
    """A solve's handed-over airtimes equal, UE by UE, those its own first
    iteration computes; the solve's result is the same either way."""
    channel, gains, power, state, serving, traffic = args
    kw = {key: kwargs[key] for key in ("excl", "tol", "max_iter", "init")}
    airtime = kwargs["airtime"]
    n_ue = traffic.size
    handed = airtime[serving, np.arange(n_ue)]
    for m in np.flatnonzero(serving >= 0).tolist():
        # with every other UE's traffic at 0, the sum of BS serving[m]'s
        # airtimes is UE m's alone, exactly
        alone = np.where(np.arange(n_ue) == m, traffic, 0.0)
        swept = _compute_loads(channel, gains, power, state, serving, alone,
                               **{**kw, "max_iter": 1})
        assert swept.load_raw[serving[m]].tobytes() == handed[m].tobytes()
    for max_iter in (1, kw["max_iter"]):
        a = _compute_loads(*args, **{**kw, "max_iter": max_iter})
        b = _compute_loads(*args, **{**kw, "max_iter": max_iter}, airtime=airtime)
        for name in ("state", "load", "load_raw"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert (a.converged, a.iterations) == (b.converged, b.iterations)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(cfg=_scenario_configs(valid=True).map(_clustered))
def test_rebalance_costs_are_the_fixed_points_first_sweep(cfg):
    # stage (5) prices every UE at every station with the previous loads;
    # at the rebalanced serving entries those prices are the per-UE airtimes
    # of the fixed point's first iteration from the same loads, which the
    # solve reads instead of sweeping again
    assume(_valid(cfg))
    scen, kmeans_seed, learner_seed = np.random.SeedSequence([cfg.run.seed, 0]).spawn(3)
    world = World(cfg, *generate_scenario(cfg, np.random.default_rng(scen)),
                  np.random.default_rng(kmeans_seed), np.random.default_rng(learner_seed))
    calls = []

    def spy(*args, **kwargs):
        if kwargs.get("airtime") is not None:
            calls.append((args, kwargs))
        return _compute_loads(*args, **kwargs)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(netmodel, "compute_loads", spy)
        for t in range(1, cfg.run.steps + 1):
            world.step(t)
    for args, kwargs in calls:
        _assert_airtimes_are_the_first_sweep(args, kwargs)


_rate_matrix = netmodel.rate_matrix  # unpatched


def _coordinated_step(world, prev_load):
    """Serving and solve of the step just run along the full coordination
    path (stage (5) and the exclusion product whenever the partition has
    a multi-member cluster), and whether a UE's station had an awake
    co-member, counted from the labels."""
    state = world.net.state
    serving = _associate_all(world.rx, state, world.rho_hat, world.cfg.association.delta)
    lab = world.label[serving]
    awake = (world.label[:, None] == lab[None, :]) & (state == 1)[:, None]
    coordinated = bool(((lab >= 0) & (awake.sum(axis=0) > 1)).any())
    rc, costs = world.cfg.run, None
    if world.excl is not None:
        rates = _rate_matrix(world.cfg.channel, world.gains, world.p_max,
                             state, prev_load, world.excl)
        with np.errstate(divide="ignore"):
            costs = world.traffic[None, :] / rates
        serving = rebalance(costs, world.label, serving, state == 1)
    net = _compute_loads(
        world.cfg.channel, world.gains, world.p_max, state, serving, world.traffic,
        excl=world.excl, tol=rc.load_tol, max_iter=rc.load_max_iter, init=prev_load,
        airtime=costs)
    return serving, net, coordinated


def _assert_steps_match_full_coordination(cfg, steps):
    """Every step equals the full coordination path in serving and solve
    bytes; returns how many steps had a UE with an awake co-member, and
    how many had none."""
    scen, kmeans_seed, learner_seed = np.random.SeedSequence([cfg.run.seed, 0]).spawn(3)
    world = World(cfg, *generate_scenario(cfg, np.random.default_rng(scen)),
                  np.random.default_rng(kmeans_seed), np.random.default_rng(learner_seed))
    paths = [0, 0]
    for t in range(1, steps + 1):
        prev_load = world.net.load
        world.step(t)
        serving, net, coordinated = _coordinated_step(world, prev_load)
        assert serving.tobytes() == world.last_serving.tobytes(), t
        for name in ("state", "load", "load_raw"):
            assert getattr(net, name).tobytes() == getattr(world.net, name).tobytes(), t
        assert (net.converged, net.iterations) == (world.net.converged, world.net.iterations)
        paths[coordinated] += 1
    return paths[1], paths[0]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(cfg=_scenario_configs(valid=True).map(_clustered),
       eps_d_m=st.sampled_from([None, 400.0]), recluster_every=st.sampled_from([None, 2]))
def test_skipped_coordination_equals_the_full_path(cfg, eps_d_m, recluster_every):
    # a step coordinates only where a UE's station has an awake co-member;
    # elsewhere rebalance keeps every UE and the exclusion product is each
    # BS's own term, so skipping both gives the full path's bytes
    if eps_d_m is not None:
        cfg.clustering.eps_d_m = eps_d_m
    if recluster_every is not None:
        cfg.clustering.recluster_every = recluster_every
    assume(_valid(cfg))
    _assert_steps_match_full_coordination(cfg, 5 * cfg.run.steps)


def test_one_run_takes_both_coordination_paths(monkeypatch):
    # planted: in this dense clustered drop some steps' UEs all sit at
    # stations whose co-members sleep, and others have a co-member awake;
    # World prices the rates of stage (5) in exactly the latter
    cfg = small_cfg(n_small=10, n_ues=32, steps=40)
    cfg.clustering.eps_d_m = 400.0
    cfg.clustering.recluster_every = 2
    priced = []

    def spy(*args):
        priced.append(args)
        return _rate_matrix(*args)

    monkeypatch.setattr(netmodel, "rate_matrix", spy)
    coordinated, skipped = _assert_steps_match_full_coordination(cfg, cfg.run.steps)
    assert coordinated > 0 and skipped > 0
    assert len(priced) == coordinated


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


def _assert_traces_equal_read_only(got, want):
    for name in vars(want):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
        assert not a.flags.writeable, name


@pytest.mark.parametrize("mode", MODES)
def test_traces_pickle_as_held(mode):
    # a pickled Trace comes back read-only, and a classical run's broadcast
    # fields travel as one row each: its pickle is a few KB, not the 174 KB
    # of whole (steps, n_sbs) arrays
    cfg = small_cfg(mode, n_small=10, n_ues=54, steps=400)
    result = run_once(cfg, 0, keep_records=True)
    data = pickle.dumps(result)
    back = pickle.loads(data).records
    _assert_traces_equal_read_only(back, result.records)
    if mode == "classical":
        assert len(data) < 17_431
        assert back.sbs_load.strides == (0, 8) and back.converged.strides == (0,)


@pytest.mark.parametrize("mode", ["classical", "learning_clustered"])
def test_pool_records_equal_serial_records(mode):
    cfg = small_cfg(mode, steps=12)
    cfg.run.runs = 3
    serial = run_experiment(cfg, keep_records=True)
    cfg.run.jobs = 2
    pooled = run_experiment(cfg, keep_records=True)
    for a, b in zip(pooled.runs, serial.runs, strict=True):
        _assert_traces_equal_read_only(a.records, b.records)


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


@pytest.mark.parametrize("distribution", TRAFFIC_DISTRIBUTIONS)
def test_run_drops_share_ue_prefixes(distribution, monkeypatch):
    # run_once's drops for one (seed, run) at 10, 25 and 40 UEs share their
    # SBSs and the first UEs' positions and traffic, and equal the World a
    # hand-built drop stream gives
    drops, draw = [], sim.generate_scenario
    monkeypatch.setattr(sim, "generate_scenario",
                        lambda cfg, rng: drops.append(draw(cfg, rng)) or drops[-1])
    cfg = small_cfg("classical", n_small=6, steps=3)
    cfg.traffic.distribution = distribution
    for n_ues in (10, 25, 40):
        cfg.layout.n_ues = n_ues
        run_once(cfg, 4)
    scen = np.random.SeedSequence([cfg.run.seed, 4]).spawn(3)[0]
    by_hand = draw(cfg, np.random.default_rng(scen))
    for got, want in zip(drops[-1], by_hand):
        assert got.tobytes() == want.tobytes()
    for (bs_pos, _, ue_pos, traffic), n in zip(drops, (10, 25, 40)):
        assert bs_pos.tobytes() == by_hand[0].tobytes()
        assert ue_pos.tobytes() == by_hand[2][:n].tobytes()
        assert traffic.tobytes() == by_hand[3][:n].tobytes()


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
# CSV format), recorded when UE traffic got its own stream (exponential
# traffic, the default, moved every drop's UEs); a refactor that keeps the
# simulator's numbers keeps these.
GOLDEN_STEP_DIGESTS_UNDAMPED = {
    "classical": "2fea7cd08fca8a04",
    "learning_no_clusters": "d9d5204ae15d2fbe",
    "learning_clustered": "a918b4fd52fe5430",
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


# the classical golden run's World stepped by hand, every step its own solve
HAND_STEPPED_CLASSICAL_DIGEST = "51fd11337630c0d6"


def test_classical_world_keeps_no_load_estimate():
    # classical association ignores rho_hat (delta = 0) and classical never
    # reclusters, so its World skips the estimate: rho_hat stays at zeros,
    # and the records keep the digest recorded while it was still updated.
    # It has no learner either, so it never builds a learner table
    cfg = _golden_cfg("classical")
    # the same three streams run_once spawns for run 0
    scen, kmeans, learner = np.random.SeedSequence([cfg.run.seed, 0]).spawn(3)
    world = World(cfg, *generate_scenario(cfg, np.random.default_rng(scen)),
                  np.random.default_rng(kmeans), np.random.default_rng(learner))
    for t in range(1, cfg.run.steps + 1):
        world.step(t)
    records = world.trace()
    assert world.net.load.any()
    assert not world.rho_hat.any()
    assert world.table is None
    assert _records_digest(records) == HAND_STEPPED_CLASSICAL_DIGEST


def _hand_stepped(cfg, run_index):
    """(World, keys): the World run_once builds for run_index, stepped by
    hand through the whole run; keys[t - 1] holds the bytes of the previous
    loads step t solved from."""
    ss = np.random.SeedSequence([int(cfg.run.seed), int(run_index)])
    scen_seed, kmeans_seed, learn_seed = ss.spawn(3)
    world = World(
        cfg, *generate_scenario(cfg, np.random.default_rng(scen_seed)),
        np.random.default_rng(kmeans_seed), np.random.default_rng(learn_seed),
    )
    keys = []
    for t in range(1, cfg.run.steps + 1):
        keys.append(world.net.load.tobytes())
        world.step(t)
    return world, keys


def _static_step(keys):
    """The step whose solve a classical run gives every step: in a
    hand-stepped World, the first step to solve from the previous loads
    that recur first, else the last step."""
    return next((keys.index(k) + 1 for t, k in enumerate(keys) if k in keys[:t]), len(keys))


def _run_records(world, keys):
    """The records run_once gives for a World stepped by hand through its
    run: its trace, or in classical mode the row of _static_step(keys) at
    every step."""
    trace = world.trace()
    if world.mode != "classical":
        return trace
    row = trace[_static_step(keys) - 1]
    return [dataclasses.replace(row, step=u) for u in range(1, len(trace) + 1)]


def _reduce(cfg, run_index, world, records):
    """A RunResult reduced from records one by one, with numpy's reductions
    over the record arrays."""
    burn = burn_in_steps(cfg.run.steps, cfg.run.burn_in_frac)
    window = records[burn:]
    n_sbs = int(world.sbs_idx.size)

    if n_sbs:
        power = np.array([r.sbs_power for r in records])
        cost_rows = np.array([r.sbs_cost for r in window])
        cost = float((cost_rows.sum(axis=1) / n_sbs).mean())
        energy = power[burn:].sum(axis=0) * STEP_SECONDS
        mean_energy = float(np.mean(energy))
        mean_load = float(np.mean([r.sbs_load for r in window]))
        total_energy = float(power.sum(axis=1).sum() * STEP_SECONDS)
    else:
        cost, mean_energy, mean_load, total_energy = 0.0, 0.0, 0.0, 0.0
        energy = np.zeros(0)

    return RunResult(
        run=run_index,
        mode=cfg.run.mode,
        n_sbs=n_sbs,
        n_ues=int(world.traffic.size),
        mean_cost_per_bs=cost,
        mean_energy_per_bs=mean_energy,
        energy_per_sbs=energy,
        total_energy=total_energy,
        mean_load=mean_load,
        cluster_count=float(np.mean([r.n_clusters for r in window])),
        mean_cluster_size=float(np.mean([r.mean_cluster_size for r in window])),
        state_changes=int(sum(r.state_changes for r in records)),
        converged_frac=float(np.mean([r.converged for r in records])),
        records=records,
        cluster_events=world.cluster_events,
    )


def _assert_same_bytes(got, want, where):
    assert type(got) is type(want), where
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape), where
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), where


# RunResult's reductions over the post-burn-in window, and over every step
_WINDOW_FIELDS = ("mean_cost_per_bs", "mean_energy_per_bs", "energy_per_sbs", "mean_load",
                  "cluster_count", "mean_cluster_size")
_RUN_FIELDS = ("total_energy", "converged_frac")


def _assert_replay_equals_stepping(cfg, run_index, monkeypatch):
    """run_once equals the World stepped by hand through the same run.

    A learning run steps that World itself, and every field and record
    equals the stepped one in bytes. A classical run steps nothing: it runs
    as many solves as the stepped World, at most one per step, and each
    record is, in bytes, the stepped row of _static_step, read-only. Its
    summary lies within 1e-12 relative of the one-by-one reductions of
    those records, and its window fields within 1e-12 of the stepped
    trace's own where the window starts at or after _static_step, so it
    holds only rows of the cycle that step starts. Returns (stepped World,
    keys).
    """
    oracle, keys = _hand_stepped(cfg, run_index)
    want = _reduce(cfg, run_index, oracle, _run_records(oracle, keys))
    worlds, solves = [], []
    step, fixed_point = World.step, netmodel._fixed_point

    def counted(self, t):
        worlds.append(self)
        return step(self, t)

    def counted_solve(*args):
        solves.append(args)
        return fixed_point(*args)

    with monkeypatch.context() as m:
        m.setattr(World, "step", counted)
        m.setattr(netmodel, "_fixed_point", counted_solve)
        got = run_once(cfg, run_index, keep_records=True, keep_clusters=True)
    classical = cfg.run.mode == "classical"
    assert len(worlds) == (0 if classical else cfg.run.steps)
    assert len(set(map(id, worlds))) <= 1
    assert len(solves) == (len(set(keys)) if classical else cfg.run.steps)

    # records are built only when asked for, and the summary is the same
    plain = run_once(cfg, run_index)
    assert plain.records is None and plain.cluster_events is None
    burn = burn_in_steps(cfg.run.steps, cfg.run.burn_in_frac)
    stepped = _reduce(cfg, run_index, oracle, oracle.trace())
    for f in dataclasses.fields(RunResult):
        if f.name in ("records", "cluster_events"):
            continue
        for res in (got, plain):
            if not classical or f.name not in _WINDOW_FIELDS + _RUN_FIELDS:
                _assert_same_bytes(getattr(res, f.name), getattr(want, f.name), f.name)
                continue
            np.testing.assert_allclose(getattr(res, f.name), getattr(want, f.name),
                                       rtol=1e-12, atol=0, err_msg=f.name)
            if f.name in _WINDOW_FIELDS and _static_step(keys) <= burn + 1:
                np.testing.assert_allclose(getattr(res, f.name), getattr(stepped, f.name),
                                           rtol=1e-12, atol=0, err_msg=f.name)
    assert got.cluster_events == want.cluster_events
    assert len(got.records) == len(want.records) == cfg.run.steps
    for u, (a, b) in enumerate(zip(got.records, want.records), 1):
        for f in dataclasses.fields(StepRecord):
            _assert_same_bytes(getattr(a, f.name), getattr(b, f.name), (u, f.name))
    for name in ("step", "n_clusters", "mean_cluster_size", "state_changes", "converged",
                 *_SBS_FIELDS):
        assert not getattr(got.records, name).flags.writeable, name
    return oracle, keys


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("edge", [
    {"n_ues": 0}, {"n_small": 0}, {"steps": 1}, {},
], ids=["no_ues", "no_sbs", "one_step", "default"])
def test_edge_runs_replay_as_stepped(mode, edge, monkeypatch):
    cfg = small_cfg(mode, n_small=edge.get("n_small", 5),
                    n_ues=edge.get("n_ues", 12), steps=edge.get("steps", 40))
    _assert_replay_equals_stepping(cfg, 1, monkeypatch)


def _valid(cfg):
    """cfg passes validate_config and places the drop of its run 0."""
    try:
        validate_config(cfg)
        scen = np.random.SeedSequence([cfg.run.seed, 0]).spawn(3)[0]
        generate_scenario(cfg, np.random.default_rng(scen))
    except ConfigError:
        return False
    return True


@settings(max_examples=100, derandomize=True, deadline=None)
@given(cfg=_scenario_configs(valid=True), steps=st.integers(1, 400),
       max_iter=st.sampled_from([None, 1, 2, 3]))
# a 75-UE drop whose solves end in a cycle of 75 distinct loads on
# OpenBLAS's SkylakeX kernel (a short one on others)
@example(cfg=_edge_cfg("classical", **{"layout.n_ues": 75, "run.seed": 1863244118}),
         steps=400, max_iter=None)
def test_random_classical_configs_replay_as_stepped(cfg, steps, max_iter):
    # a classical run is one static solve broadcast over every step: the
    # limit of a World stepped by hand, whatever the run length and however
    # few iterations each solve may take
    cfg.run.mode, cfg.run.steps = "classical", steps
    if max_iter is not None:
        cfg.run.load_max_iter = max_iter
    assume(_valid(cfg))
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_replay_equals_stepping(cfg, 0, monkeypatch)


def _classical_world(cfg, run_index):
    """A classical World on the drop run_once draws for run_index."""
    scen = np.random.SeedSequence([cfg.run.seed, run_index], spawn_key=(0,))
    return World(cfg, *generate_scenario(cfg, np.random.default_rng(scen)), None, None)


def _solve_results(cfg, run_index, monkeypatch):
    """The _fixed_point results of run_once(cfg, run_index), in order."""
    results, fixed_point = [], netmodel._fixed_point
    with monkeypatch.context() as m:
        m.setattr(netmodel, "_fixed_point",
                  lambda *args: results.append(fixed_point(*args)) or results[-1])
        run_once(cfg, run_index)
    return [(iterations, converged) for *_, converged, iterations in results]


@pytest.mark.parametrize("max_iter, later", [
    (2, [(2, False), (1, True)]),
    (3, [(2, True), (1, True)]),
])
def test_orbit_steps_iterate_past_one(max_iter, later, monkeypatch):
    # the first solve stops unconverged at load_max_iter, so the static
    # solve's next solves iterate again, to load_max_iter unconverged or to
    # convergence in two iterations, as the stepped ones do. The first run
    # from 0 with that start is searched for (run 2 at max_iter 2, run 27
    # at 3)
    cfg = default_config()
    cfg.run.mode, cfg.run.steps, cfg.run.load_max_iter = "classical", 40, max_iter
    run_index = next((i for i in range(100) if _solve_results(cfg, i, monkeypatch)[:3]
                      == [(max_iter, False), *later]), None)
    assert run_index is not None, "no run of 100 starts its solves as sought"
    oracle, _ = _assert_replay_equals_stepping(cfg, run_index, monkeypatch)
    got = _solve_results(cfg, run_index, monkeypatch)
    assert got == [(net.iterations, net.converged) for net, *_ in oracle.history[:len(got)]]
    assert got[0] == (max_iter, False) and got[1:1 + len(later)] == later


def test_trace_before_any_step_raises():
    world = _classical_world(small_cfg("classical"), 0)
    with pytest.raises(ValueError, match="no step has run"):
        world.trace()


def _literal_classical_rows(cfg, run_index):
    """A classical run's SBS record arrays (_SBS_FIELDS order), converged
    flags and previous-load keys by a literal per-step compute_loads."""
    world = _classical_world(cfg, run_index)
    state = np.ones(world.n_bs, dtype=np.int64)
    serving = _associate_all(world.rx, state, np.zeros(world.n_bs), 0.0)
    rc, lcfg, s = cfg.run, cfg.learning, world.sbs_idx
    load, rows, converged, keys = np.zeros(world.n_bs), [], [], []
    for _ in range(rc.steps):
        keys.append(load.tobytes())
        net = netmodel.compute_loads(
            cfg.channel, world.gains, world.p_max, state, serving, world.traffic,
            tol=rc.load_tol, max_iter=rc.load_max_iter, init=load)
        load = net.load
        power = netmodel.total_powers(world.p_max, world.p_idle, world.idle_scale, net)
        cost = lcfg.alpha * power + (1 - lcfg.alpha) * net.load_raw
        rows.append((net.state[s], power[s], net.load[s], net.load_raw[s], cost[s]))
        converged.append(net.converged)
    return rows, converged, keys


@settings(max_examples=60, derandomize=True, deadline=None)
@given(cfg=_scenario_configs(valid=True), steps=st.integers(1, 400),
       tol=st.sampled_from([1e-6, 1e-9, 1e-13]),
       max_iter=st.sampled_from([1, 2, 3, 200]))
def test_orbit_trace_equals_literal_per_step_solves(cfg, steps, tol, max_iter):
    # the classical slice of a whole-step reference: every row of a
    # classical run is the literal per-step solve at the first repeat of the
    # previous loads (the last step's without one)
    cfg.run.mode, cfg.run.steps = "classical", steps
    cfg.run.load_tol, cfg.run.load_max_iter = tol, max_iter
    assume(_valid(cfg))
    records = run_once(cfg, 0, keep_records=True).records
    rows, converged, keys = _literal_classical_rows(cfg, 0)
    j = _static_step(keys) - 1
    _assert_records_equal(records, [rows[j]] * steps)
    assert records.converged.tolist() == [converged[j]] * steps
    assert not records.n_clusters.any() and not records.state_changes.any()
    assert not records.mean_cluster_size.any()


@pytest.mark.parametrize("seed, run_index", [(0, 0), (1, 7), (2**31 - 1, 123)])
def test_stream_children_draw_what_spawn_draws(seed, run_index):
    spawned = np.random.SeedSequence([seed, run_index]).spawn(3)
    for i, child in enumerate(spawned):
        alone = np.random.SeedSequence([seed, run_index], spawn_key=(i,))
        assert alone.generate_state(8).tobytes() == child.generate_state(8).tobytes()
        a, b = np.random.default_rng(alone), np.random.default_rng(child)
        assert a.random(16).tobytes() == b.random(16).tobytes()
        assert a.exponential(3.0, 16).tobytes() == b.exponential(3.0, 16).tobytes()


@pytest.mark.parametrize("mode, keys", [
    ("classical", [(0,)]),
    ("learning_no_clusters", [(0,), (2,)]),
    ("learning_clustered", [(0,), (1,), (2,)]),
])
def test_run_builds_only_the_streams_its_mode_draws(mode, keys, monkeypatch):
    # exponential traffic adds the drop stream's child 0, built last
    built = []
    default_rng = np.random.default_rng

    def counted(seed=None):
        built.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    cfg = small_cfg(mode, steps=5)
    for distribution, extra in [("constant", []), ("exponential", [(0, 0)])]:
        cfg.traffic.distribution = distribution
        built.clear()
        run_once(cfg, 3)
        assert [(ss.entropy, ss.spawn_key) for ss in built] == [
            ([cfg.run.seed, 3], key) for key in keys + extra]


@pytest.mark.parametrize("mode, kmeans, learner", [
    ("learning_clustered", None, 1),
    ("learning_clustered", 1, None),
    ("learning_no_clusters", None, None),
])
def test_world_rejects_none_for_a_stream_its_mode_draws(mode, kmeans, learner):
    cfg = small_cfg(mode)
    drop = generate_scenario(cfg, np.random.default_rng(0))
    rngs = [None if r is None else np.random.default_rng(r) for r in (kmeans, learner)]
    with pytest.raises(ValueError, match="draws from a stream given as None"):
        World(cfg, *drop, *rngs)
