"""A whole run against a literal per-step reference world, in every mode."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from scnsim import clustering as clust
from scnsim import netmodel
from scnsim.clustering import ClusterPartition
from scnsim.config import ConfigError
from scnsim.sim import generate_scenario, run_once
from test_association import associate
from test_clustering import reference_spectral_cluster
from test_coordination import solve_cluster_schedule
from test_learning import ReferenceLearner
from test_netmodel import reference_gain_matrix
from test_sim import _SBS_FIELDS, _edge_cfg, _scenario_configs, _static_step, _valid


def _action_states(size, action):
    """Member states of on/off action `action` of a size-member cluster:
    the action index in binary, most significant bit first, 1 meaning off."""
    return [1 - (action >> (size - 1 - j) & 1) for j in range(size)]


class ReferenceWorld:
    """One run written out step by step, the oracle of World and run_once.

    A lone ReferenceLearner per cluster with its own scalar draw, the
    scalar associate and solve_cluster_schedule oracles per UE and per
    cluster, and a fresh compute_loads every step, as World runs one. It
    prices each cluster's UEs by their load coefficients from rate_matrix,
    where World ranks co-members by received power, and never skips
    coordination. The RNG
    streams are SeedSequence([seed, run]).spawn(3), drawn in order: the
    drop, then per recluster k-means, then one uniform per cluster in
    partition order at every step.
    """

    def __init__(self, cfg, run_index):
        self.cfg = cfg
        streams = np.random.SeedSequence([cfg.run.seed, run_index]).spawn(3)
        scen, self.kmeans_rng, self.learner_rng = (np.random.default_rng(s) for s in streams)
        bs_pos, macro, ue_pos, self.traffic = generate_scenario(cfg, scen)
        pw = cfg.power
        self.n_bs = macro.size
        self.sbs = np.flatnonzero(~macro)
        self.bs_pos = bs_pos
        self.p_max = np.array([netmodel.dbm_to_watt(
            pw.macro_p_max_dbm if m else pw.small_p_max_dbm) for m in macro.tolist()])
        self.p_idle = np.array([pw.macro_p_idle_w if m else pw.small_p_idle_w
                                for m in macro.tolist()], dtype=float)
        self.gains = reference_gain_matrix(bs_pos, macro, ue_pos, cfg.layout)
        self.rx = self.p_max[:, None] * self.gains
        self.rho_hat = np.zeros(self.n_bs)
        self.load = np.zeros(self.n_bs)
        self.state = np.ones(self.n_bs, dtype=np.int64)
        self.partition = None
        self.learners = {}  # member tuple -> ReferenceLearner
        self.events, self.rows = [], []
        self.keys = []  # per step, the bytes of the loads it solved from

    def _partition(self, t):
        cc, mode = self.cfg.clustering, self.cfg.run.mode
        ids = self.sbs
        if mode == "learning_no_clusters":
            if t > 1:
                return
            part = ClusterPartition(tuple((int(b),) for b in ids), tuple(ids.tolist()), t)
        elif t == 1 or t % cc.recluster_every == 0:
            pos = self.bs_pos[ids]
            s_dist = clust.distance_similarity(pos, clust.build_adjacency(pos, cc.eps_d_m),
                                               cc.sigma_d_m)
            loads = self.rho_hat[ids]
            s_load = clust.load_similarity(loads, cc.sigma_l, cc.load_sign)
            init = None
            if self.partition is not None and ids.size:
                label = {b: i for i, c in enumerate(self.partition.clusters) for b in c}
                init = np.array([label[b] for b in ids.tolist()])
            max_size = int(self.cfg.learning.max_actions).bit_length() - 1
            part = reference_spectral_cluster(
                clust.joint_similarity(s_dist, s_load, cc.theta), ids, self.kmeans_rng,
                loads=loads, epoch=t, init_labels=init, max_size=max_size)
        else:
            return
        self.events.append(part)
        self.partition = part
        lcfg = self.cfg.learning
        self.learners = {c: self.learners.get(c) or ReferenceLearner(
            1 << len(c), lcfg.kappa, lcfg.utility_exp, lcfg.regret_exp, lcfg.policy_exp)
            for c in part.clusters}

    def step(self, t):
        cfg, mode = self.cfg, self.cfg.run.mode
        prev_load, prev_state = self.load, self.state
        if mode != "classical":
            nu = 1.0 / t**cfg.association.nu_exponent
            self.rho_hat = self.rho_hat + nu * (prev_load - self.rho_hat)
            self._partition(t)
        clusters = self.partition.clusters if self.partition else ()

        state = np.ones(self.n_bs, dtype=np.int64)
        played = []
        for c in clusters:
            played.append(self.learners[c].sample(self.learner_rng))
            state[list(c)] = _action_states(len(c), played[-1])

        delta = 0.0 if mode == "classical" else cfg.association.delta
        serving = np.array([associate(self.rx[:, m], state, self.rho_hat, delta)
                            for m in range(self.traffic.size)], dtype=int)

        excl = None
        if any(len(c) > 1 for c in clusters):
            excl = netmodel.exclusion_matrix(self.n_bs, clusters).astype(float)
            rates = netmodel.rate_matrix(cfg.channel, self.gains, self.p_max, state,
                                         prev_load, excl)
            with np.errstate(divide="ignore"):
                costs = self.traffic[None, :] / rates
            for c in clusters:
                awake = np.array([b for b in c if state[b] == 1], dtype=int)
                ues = np.flatnonzero(np.isin(serving, c))
                if awake.size and ues.size:
                    binary = solve_cluster_schedule(costs[np.ix_(awake, ues)],
                                                    np.ones(awake.size, dtype=bool))
                    serving[ues] = awake[binary.argmax(axis=0)]

        rc = cfg.run
        self.keys.append(prev_load.tobytes())
        net = netmodel.compute_loads(cfg.channel, self.gains, self.p_max, state, serving,
                                     self.traffic, excl=excl, tol=rc.load_tol,
                                     max_iter=rc.load_max_iter, init=prev_load)
        power = np.where(state == 1,
                         net.load * self.p_max + cfg.power.idle_scale_active * self.p_idle,
                         self.p_idle)
        alpha = cfg.learning.alpha
        cost = alpha * power + (1 - alpha) * net.load_raw
        for c, a in zip(clusters, played):
            self.learners[c].update(a, -np.sum(cost[list(c)]))

        s = self.sbs
        sizes = [len(c) for c in clusters]
        self.rows.append((t, len(clusters), float(np.mean(sizes)) if sizes else 0.0,
                          int(np.count_nonzero(state != prev_state)), net.converged,
                          state[s], power[s], net.load[s], net.load_raw[s], cost[s]))
        self.load, self.state = net.load, state

    def run(self):
        for t in range(1, self.cfg.run.steps + 1):
            self.step(t)
        return self.rows, self.events


def assert_run_equals_reference(cfg, run_index):
    """Every StepRecord and installed partition of run_once equals the
    reference world's, bit for bit. A classical run is one static solve:
    every record equals the reference row test_sim._static_step picks, the
    step solved from the first loads to recur as a later step's previous
    loads (the last step without one)."""
    result = run_once(cfg, run_index, keep_records=True, keep_clusters=True)
    world = ReferenceWorld(cfg, run_index)
    rows, events = world.run()
    if cfg.run.mode == "classical":
        row = rows[_static_step(world.keys) - 1]
        rows = [(t, *row[1:]) for t in range(1, len(rows) + 1)]
    assert len(result.records) == len(rows)
    for rec, row in zip(result.records, rows):
        scalars = (rec.step, rec.n_clusters, rec.mean_cluster_size, rec.state_changes,
                   rec.converged)
        assert scalars == row[:5], rec.step
        for name, want in zip(_SBS_FIELDS, row[5:]):
            got = getattr(rec, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), (rec.step, name)
            assert got.tobytes() == want.tobytes(), (rec.step, name)
    if cfg.run.mode == "classical":
        assert result.cluster_events == []
    else:
        assert result.cluster_events == events


@settings(max_examples=80, derandomize=True, deadline=None)
@given(cfg=_scenario_configs(valid=True), steps=st.integers(1, 40),
       eps_d_m=st.sampled_from([None, 400.0]), recluster_every=st.sampled_from([None, 2, 3]),
       rate=st.sampled_from([None, 6e6, 12e6]), run_index=st.integers(0, 3))
# planted, at 6 Mbit/s per UE: load-aware association serves UEs from
# different stations in two steps with the same state and previous loads
# (the default seed 1), and rebalance moves UEs (seed 5 at eps_d 400 m)
@example(cfg=_edge_cfg("learning_clustered", **{"layout.n_small": 4, "layout.n_ues": 24}),
         steps=40, eps_d_m=None, recluster_every=None, rate=6e6, run_index=0)
@example(cfg=_edge_cfg("learning_clustered", **{
    "layout.n_small": 4, "layout.n_ues": 24, "run.seed": 5}),
         steps=40, eps_d_m=400.0, recluster_every=None, rate=6e6, run_index=0)
def test_runs_equal_the_reference_world(cfg, steps, eps_d_m, recluster_every, rate,
                                        run_index):
    # every cache, skip and stacked update of World is invisible in its
    # output: the same run written out literally writes the same bytes
    cfg.run.steps = steps
    for value, section, key in ((eps_d_m, cfg.clustering, "eps_d_m"),
                                (recluster_every, cfg.clustering, "recluster_every"),
                                (rate, cfg.traffic, "mean_rate_bps")):
        if value is not None:
            setattr(section, key, value)
    assume(_valid(cfg))
    try:
        assert_run_equals_reference(cfg, run_index)
    except ConfigError:  # this run's drop cannot be placed; the reference's neither
        with pytest.raises(ConfigError):
            ReferenceWorld(cfg, run_index)
