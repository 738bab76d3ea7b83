"""Scenario generation, the per-step network loop, Monte-Carlo runs, and sweeps.

One run builds a random drop (macro at the area center, small cells and UEs
rejection-sampled with minimum separations), then steps a World through
time. Each step, in order: the advertised load estimates fold in the
previous step's loads; the partition refreshes when due; every cluster
samples a sleep/wake action; UEs associate; cluster heads rebalance their
members' UEs; the load-coupled fixed point runs; costs are charged and the
learners update. A classical run has one operating point, so run_once
solves it once (World._static_solve) and broadcasts that row over every
step. Monte-Carlo runs use independent seed streams from (seed, run_index),
so results are reproducible run-by-run and independent of worker scheduling.
"""

from __future__ import annotations

import copy
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import association as assoc
from . import clustering as clust
from . import coordination as coord
from . import learning as learn
from . import netmodel
from .config import MODES, ConfigError, LayoutConfig, ScenarioConfig, validate_config

STEP_SECONDS = 1.0  # logical tick length; energy (J) = power (W) x ticks
MAX_PLACEMENT_TRIES = 10000

SWEEP_PARAMS = ("ues", "eps_d", "theta")
# the RNG streams each mode draws from: 0 the drop, 1 k-means, 2 learners;
# exponential traffic draws from 0's child (0, 0), in generate_scenario
STREAMS = {"classical": (0,), "learning_no_clusters": (0, 2), "learning_clustered": (0, 1, 2)}


def _place(rng: np.random.Generator, lay: LayoutConfig, pos: np.ndarray, anchors: np.ndarray,
           dmin: np.ndarray, nested: bool) -> None:
    """Place each row of pos as a one-at-a-time rejection loop would: row m
    draws candidates side_m * rng.random(2) until one lies at least dmin[i]
    from every anchors[i]; nested: pos is anchors[1:], so row m keeps its
    distances from anchors[:m + 1] only. A pass speculates that every
    remaining row's next candidate fits, drawn in one call and checked in
    one broadcast; at the first misfit it rewinds the stream to just after
    that candidate and passes again from its row."""
    m = tries = 0
    while m < len(pos):
        start = rng.bit_generator.state
        rest = pos[m:]
        rng.random(out=rest)
        rest *= lay.side_m
        d = np.hypot(anchors[:, 0] - rest[:, :1], anchors[:, 1] - rest[:, 1:])
        fits = d >= dmin
        if nested:  # a row's own anchor and the later ones are not placed yet
            fits |= np.arange(len(anchors)) > np.arange(m, len(pos))[:, None]
        fits = fits.all(axis=1)
        if fits.all():
            return
        k = m + int(fits.argmin())
        tries = tries + 1 if k == m else 1  # row k's misfits so far
        if tries == MAX_PLACEMENT_TRIES:
            raise ConfigError(
                f"infeasible density: could not place a node after {MAX_PLACEMENT_TRIES} "
                f"draws; layout.side_m = {lay.side_m:g} is too small for n_small = "
                f"{lay.n_small}, n_ues = {lay.n_ues} at min_dist_macro_small_m = "
                f"{lay.min_dist_macro_small_m:g}, min_dist_small_small_m = "
                f"{lay.min_dist_small_small_m:g}, min_dist_macro_ue_m = "
                f"{lay.min_dist_macro_ue_m:g}, min_dist_small_ue_m = "
                f"{lay.min_dist_small_ue_m:g}"
            )
        rng.bit_generator.state = start
        rng.random(2 * (k + 1 - m))  # rows m to k - 1 keep their candidates
        m = k


def generate_scenario(
    cfg: ScenarioConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw one network drop: macro at the center, then SBSs, then UEs.

    Returns (BS positions (n_bs, 2), macro mask (n_bs,), UE positions
    (n_ue, 2), UE traffic in bit/s (n_ue,)); BS 0 is the macro. Positions
    come from rng; exponential traffic comes from child 0 of rng's
    SeedSequence, which draws nothing from rng, so positions do not depend
    on the traffic law. Two configs differing only in the UE count share
    their first min(n, n') UE positions and traffic when given the same RNG
    state (common random numbers across sweep points).
    """
    lay, tcfg = cfg.layout, cfg.traffic
    n_bs = 1 + lay.n_small
    bs_pos = np.empty((n_bs, 2))
    bs_pos[0] = lay.side_m / 2.0
    dmin = np.array(
        [lay.min_dist_macro_small_m] + [lay.min_dist_small_small_m] * lay.n_small
    )
    _place(rng, lay, bs_pos[1:], bs_pos, dmin, nested=True)

    dmin = np.array([lay.min_dist_macro_ue_m] + [lay.min_dist_small_ue_m] * lay.n_small)
    ue_pos = np.empty((lay.n_ues, 2))
    _place(rng, lay, ue_pos, bs_pos, dmin, nested=False)
    if tcfg.distribution == "exponential":
        ss = rng.bit_generator.seed_seq
        child = np.random.SeedSequence(ss.entropy, spawn_key=(*ss.spawn_key, 0),
                                       pool_size=ss.pool_size)
        traffic = np.random.default_rng(child).exponential(tcfg.mean_rate_bps, lay.n_ues)
    else:
        traffic = np.full(lay.n_ues, float(tcfg.mean_rate_bps))
    return bs_pos, np.arange(n_bs) == 0, ue_pos, traffic


@dataclass(frozen=True)
class StepRecord:
    """Per-step SBS metrics; the macro, always awake, is in no record."""

    step: int
    n_clusters: int
    mean_cluster_size: float
    state_changes: int  # SBS on/off flips versus the previous step
    converged: bool  # load fixed point hit tolerance
    sbs_state: np.ndarray
    sbs_power: np.ndarray  # consumed watts per SBS
    sbs_load: np.ndarray  # clamped duty cycles
    sbs_load_raw: np.ndarray
    sbs_cost: np.ndarray  # alpha * power + (1 - alpha) * raw load


@dataclass(eq=False)
class Trace(Sequence):
    """A run's StepRecord fields as read-only arrays, one row per step.

    Scalar fields are (steps,) arrays and sbs_* fields (steps, n_sbs)
    arrays; a classical run's are one row broadcast over every step.
    Indexing builds StepRecords on demand, whose sbs_* arrays are read-only
    views of one row.
    """

    step: np.ndarray
    n_clusters: np.ndarray
    mean_cluster_size: np.ndarray
    state_changes: np.ndarray
    converged: np.ndarray
    sbs_state: np.ndarray
    sbs_power: np.ndarray
    sbs_load: np.ndarray
    sbs_load_raw: np.ndarray
    sbs_cost: np.ndarray

    def __len__(self) -> int:
        return self.step.size

    def __getitem__(self, u):
        if isinstance(u, slice):
            return [self[i] for i in range(*u.indices(len(self)))]
        return StepRecord(
            self.step[u].item(), self.n_clusters[u].item(),
            self.mean_cluster_size[u].item(), self.state_changes[u].item(),
            self.converged[u].item(), self.sbs_state[u], self.sbs_power[u],
            self.sbs_load[u], self.sbs_load_raw[u], self.sbs_cost[u],
        )

    def __reduce__(self):
        # a field broadcast over the steps pickles as its one row
        rows = [a[:1] if a.strides[:1] == (0,) else a for a in vars(self).values()]
        return _unpickle_trace, (len(self), rows)


def _unpickle_trace(steps: int, rows: list[np.ndarray]) -> Trace:
    """Trace.__reduce__'s inverse: every field a read-only view, as it was held."""
    return Trace(*(np.broadcast_to(a, (steps, *a.shape[1:])) for a in rows))


class World:
    """One dropped network stepped through time under a single mode."""

    def __init__(
        self,
        cfg: ScenarioConfig,
        bs_positions: np.ndarray,
        macro: np.ndarray,
        ue_positions: np.ndarray,
        traffic: np.ndarray,
        kmeans_rng: np.random.Generator | None,
        learner_rng: np.random.Generator | None,
    ):
        """Stations and UEs come as generate_scenario's arrays.

        BS b is a macro cell where macro[b], else a small cell; both kinds
        take their p_max, p_idle and active-state multiplier from cfg.power.
        At least one BS must be a macro; it never sleeps, so every UE is served.
        A stream the mode never draws from (see STREAMS) may be None.
        """
        if cfg.run.mode not in MODES:
            raise ValueError(f"unknown mode {cfg.run.mode!r}")
        drawn = STREAMS[cfg.run.mode]
        if kmeans_rng is None and 1 in drawn or learner_rng is None and 2 in drawn:
            raise ValueError(f"mode {cfg.run.mode!r} draws from a stream given as None")
        macro = np.asarray(macro, dtype=bool)
        if not macro.any():
            raise ValueError(
                "a World needs a macro station: it never sleeps, so every UE is served")
        self.cfg = cfg
        self.mode = cfg.run.mode
        self.bs_positions = np.asarray(bs_positions, dtype=float).reshape(-1, 2)
        self.n_bs = macro.size
        self.sbs_idx = np.flatnonzero(~macro)
        self.traffic = np.asarray(traffic, dtype=float)
        pw = cfg.power
        self.p_max = np.where(
            macro, netmodel.dbm_to_watt(pw.macro_p_max_dbm),
            netmodel.dbm_to_watt(pw.small_p_max_dbm),
        )
        self.p_idle = np.where(macro, float(pw.macro_p_idle_w), float(pw.small_p_idle_w))
        self.idle_scale = float(pw.idle_scale_active)
        self._all_on = np.ones(self.n_bs, dtype=np.int64)
        self._all_on.flags.writeable = False  # learners act on a copy
        # each member is on or asleep, so a cluster of s members has 2^s
        # joint actions: bound s so the action set fits max_actions
        self.max_cluster_size = int(cfg.learning.max_actions).bit_length() - 1
        self.gains = netmodel.gain_matrix(
            self.bs_positions, macro, ue_positions, cfg.layout
        )
        # every station transmits at its p_max, so received powers are fixed
        self.rx = self.p_max[:, None] * self.gains
        self.net = netmodel.NetworkConfiguration(
            np.ones(self.n_bs, dtype=np.int64), np.zeros(self.n_bs), np.zeros(self.n_bs)
        )
        # advertised load estimates; stay at zeros in classical mode, where
        # nothing reads them
        self.rho_hat = np.zeros(self.n_bs)
        self.kmeans_rng = kmeans_rng
        self.learner_rng = learner_rng
        self.partition: clust.ClusterPartition | None = None
        # per-partition caches: cluster count and mean size, cluster index
        # per BS (-1: none), float exclusion matrix (None: only singletons,
        # so each BS excludes only itself and stage (5) is the identity)
        self.n_clusters = 0
        self.mean_cluster_size = 0.0
        self.label = np.full(self.n_bs, -1, dtype=int)
        self.excl: np.ndarray | None = None
        # SBS distance similarity, fixed per drop; the first recluster builds it
        self.s_dist: np.ndarray | None = None
        # the last full recluster's certificate (clustering.spectral_cluster's
        # hold), and the reclusters run in full and held so far
        self._hold: tuple = ()
        self.full_reclusters = 0
        self.held_reclusters = 0
        # one learner row per cluster, rows of one size in one block, from
        # the first partition on (classical mode never builds it): rows
        # maps a cluster's member ids to its row, order holds the partition
        # index of each row, and blocks lists (table rows, member ids per
        # row, on/off action set) per block
        self.table: learn.LearnerTable | None = None
        self.rows: dict[tuple[int, ...], int] = {}
        self.order = np.zeros(0, dtype=np.intp)
        self.blocks: list[tuple[slice, np.ndarray, np.ndarray]] = []
        # every installed partition; its epoch is the step that installed it
        self.cluster_events: list[clust.ClusterPartition] = []
        # serving station per UE after the last step
        self.last_serving = np.zeros(0, dtype=int)
        # one entry per step run: (net, cluster count, mean cluster size,
        # SBS flips); trace() stacks it
        self.history: list[tuple[netmodel.NetworkConfiguration, int, float, int]] = []

    def _set_partition(self, partition: clust.ClusterPartition) -> None:
        """Install a partition, keeping the learner row of every unchanged cluster.

        Clusters of the same size play the same action set and form one
        block of the learner table; kept rows carry over by index and new
        clusters get fresh rows. An unchanged cluster tuple only swaps in
        the new heads.
        """
        self.cluster_events.append(partition)
        unchanged = (
            self.partition is not None and partition.clusters == self.partition.clusters
        )
        self.partition = partition
        if unchanged:
            return
        clusters = partition.clusters
        self.n_clusters = partition.n_clusters
        self.mean_cluster_size = partition.mean_size()
        self.label = netmodel.cluster_labels(self.n_bs, clusters)
        self.excl = None
        if any(len(members) > 1 for members in clusters):
            self.excl = netmodel.exclusion_matrix(self.n_bs, clusters).astype(float)

        # rows by size, in partition order within a size
        if self.table is None:
            self.table = learn.LearnerTable(self.cfg.learning)
        sizes = np.array([len(members) for members in clusters], dtype=np.intp)
        order = np.argsort(sizes, kind="stable")
        ordered = [clusters[i] for i in order.tolist()]
        self.table.restack(sizes[order], [self.rows.get(c, -1) for c in ordered])
        self.rows = {c: r for r, c in enumerate(ordered)}
        self.order = order
        self.blocks = [
            (block, np.array(ordered[block]), actions)
            for block, actions in zip(self.table.blocks, self.table.actions)
        ]

    def _recluster(self, t: int) -> None:
        """Refresh the partition at step t: spectral_cluster's, warm-started
        from the installed one, held while the last full recluster's hold
        covers it."""
        ids = self.sbs_idx
        cc = self.cfg.clustering
        if self.s_dist is None:
            pos = self.bs_positions[ids]
            adj = clust.build_adjacency(pos, cc.eps_d_m)
            self.s_dist = clust.distance_similarity(pos, adj, cc.sigma_d_m)
        loads = self.rho_hat[ids]
        s_load = clust.load_similarity(loads, cc.sigma_l, cc.load_sign)
        init_labels = self.label[ids]  # warm start from the current partition
        if (init_labels < 0).any():
            init_labels = None
        part, hold = clust.spectral_cluster(
            clust.joint_similarity(self.s_dist, s_load, cc.theta),
            ids,
            self.kmeans_rng,
            loads=loads,
            epoch=t,
            init_labels=init_labels,
            max_size=self.max_cluster_size,
            hold=self._hold,
        )
        if hold is self._hold:
            self.held_reclusters += 1
        else:
            self.full_reclusters += 1
            self._hold = hold
        self._set_partition(part)

    def _singletons(self, t: int) -> None:
        ids = self.sbs_idx.tolist()
        part = clust.ClusterPartition(
            tuple((b,) for b in ids), tuple(ids), epoch=t
        )
        self._set_partition(part)

    def step(self, t: int) -> None:
        """Run step t and append its solve and scalars to the history.

        A classical World stepped by hand solves each step from the previous
        step's loads; _static_solve returns the limit of those solves."""
        rc = self.cfg.run
        # a solve's arrays are never written after it returns (the history
        # holds them), so the previous step's need no copy
        prev_load = self.net.load
        prev_state = self.net.state

        # (1) advertised loads trail realized loads by one step. Classical
        # association ignores them (delta = 0) and never reclusters
        if self.mode != "classical":
            assoc.update_load_estimate(
                self.rho_hat, prev_load, t, self.cfg.association.nu_exponent
            )

        # (2) partition refresh when due
        if self.mode == "learning_clustered":
            if t == 1 or t % self.cfg.clustering.recluster_every == 0:
                self._recluster(t)
        elif self.mode == "learning_no_clusters":
            if t == 1:
                self._singletons(t)

        # (3) clusters draw sleep/wake actions; classical stays on. One
        # uniform per cluster, drawn in partition order
        state = self._all_on
        if self.blocks:
            state = state.copy()
            draws = self.learner_rng.random(self.n_clusters)
            played = self.table.sample(draws[self.order])
            for rows, members, actions in self.blocks:
                state[members] = actions[played[rows]]

        # (4) association against active stations only, the macro among them
        delta = 0.0 if self.mode == "classical" else self.cfg.association.delta
        serving = assoc.associate_all(self.rx, state, self.rho_hat, delta)

        # (5) each cluster head rebalances the UEs attached to its members,
        # with interference frozen at the previous step's loads; a UE
        # enters only when attached to an active member, so it stays served.
        # A head coordinates only where a UE's station has an awake
        # co-member (excl.dot(state) counts the awake stations of each
        # BS's exclusion set, itself included). Elsewhere it can only keep its
        # UEs where they are, and a sleeping co-member's interference is
        # +0.0, so the exclusion product is each BS's own term: excl None
        # solves the step bit for bit
        excl, costs = self.excl, None
        if excl is not None and np.count_nonzero(excl.dot(state)[serving] > 1):
            rates = netmodel.rate_matrix(
                self.cfg.channel, self.gains, self.p_max, state, prev_load, excl
            )
            with np.errstate(divide="ignore"):
                costs = self.traffic[None, :] / rates
            serving = coord.rebalance(costs, self.label, serving, state == 1)
        else:
            excl = None

        # (6) realized loads from the coupled fixed point, warm-started from
        # prev_load. Where stage (5) ran, its costs at the serving entries
        # are the per-UE airtimes of the fixed point's first iteration from
        # prev_load, so the solve starts from them
        self.net = netmodel.compute_loads(
            self.cfg.channel, self.gains, self.p_max, state, serving, self.traffic,
            excl=excl, tol=rc.load_tol, max_iter=rc.load_max_iter,
            init=prev_load, airtime=costs,
        )

        # (7) the running cost per BS; (8) every learner observes the
        # negated cost of its own members
        if self.blocks:
            per_bs_cost = self._power_cost(self.net)[1]
            charged = np.empty(self.n_clusters)
            for rows, members, _ in self.blocks:
                np.add.reduce(per_bs_cost[members], axis=1, out=charged[rows])
            self.table.update(played, np.negative(charged, out=charged))

        # (9) SBS-scope bookkeeping
        self.last_serving = serving
        # the macro never sleeps, so every flip is an SBS flip
        flips = np.count_nonzero(state != prev_state)
        self.history.append((self.net, self.n_clusters, self.mean_cluster_size, flips))

    def _power_cost(self, net: netmodel.NetworkConfiguration) -> tuple[np.ndarray, np.ndarray]:
        """Each BS's total power and its cost alpha * power + (1 - alpha) * raw
        load in `net`, one step's or a stacked trace's: elementwise, so the two
        round alike."""
        power = netmodel.total_powers(self.p_max, self.p_idle, self.idle_scale, net)
        alpha = self.cfg.learning.alpha
        return power, alpha * power + (1.0 - alpha) * net.load_raw

    def _sbs_fields(self, net: netmodel.NetworkConfiguration) -> list[np.ndarray]:
        """The sbs_* StepRecord fields of `net`, one step's or a stacked trace's."""
        power, cost = self._power_cost(net)
        return [a.take(self.sbs_idx, axis=-1)
                for a in (net.state, power, net.load, net.load_raw, cost)]

    def _static_solve(self, steps: int) -> netmodel.NetworkConfiguration:
        """A classical run's one operating point, the row of all its steps.

        State and serving never change, so each of step's solves is the fixed
        point from the previous loads alone. From the World's loads (zeros
        before a step) they run until those bytes repeat or `steps` solves
        have run: the result is the solve from the first previous-load bytes
        to repeat (else the last solve)."""
        rc, state = self.cfg.run, self._all_on
        serving = assoc.associate_all(self.rx, state, self.rho_hat, 0.0)
        setup = netmodel.load_setup(self.cfg.channel, self.gains, self.p_max, state, serving)
        solves, load = {}, self.net.load
        while len(solves) < steps:
            key = load.tobytes()
            if key in solves:
                break
            solves[key] = netmodel._fixed_point(
                setup, self.gains, self.traffic, load, rc.load_tol, rc.load_max_iter)
            load = solves[key][0]
        return netmodel.NetworkConfiguration(state, *solves[key])

    def trace(self) -> Trace:
        """The history as StepRecord fields, one row per step run from step 1.

        Powers and costs are computed here for every stepped solve at once,
        elementwise, so they round as a per-step computation does.
        """
        if not self.history:
            raise ValueError("no step has run, so there is no trace")
        nets, n_clusters, sizes, flips = zip(*self.history)
        stacked = netmodel.NetworkConfiguration(
            *(np.array([getattr(net, name) for net in nets])
              for name in ("state", "load", "load_raw")))
        fields = [
            np.arange(1, len(nets) + 1), np.array(n_clusters), np.array(sizes),
            np.array(flips), np.array([net.converged for net in nets]),
            *self._sbs_fields(stacked),
        ]
        for a in fields:
            a.setflags(write=False)
        return Trace(*fields)


@dataclass
class RunResult:
    """Post-burn-in summary of one run; energies in joules, powers in watts."""

    run: int
    mode: str
    n_sbs: int
    n_ues: int
    mean_cost_per_bs: float
    mean_energy_per_bs: float
    energy_per_sbs: np.ndarray  # one sample per SBS (window energy)
    total_energy: float  # all steps, all SBSs; classical: its static row at every step
    mean_load: float
    cluster_count: float
    mean_cluster_size: float
    state_changes: int
    converged_frac: float  # steps whose solve converged; classical: its static solve's, 1 or 0
    records: Trace | None = None  # every step, with keep_records
    cluster_events: list[clust.ClusterPartition] | None = None


def burn_in_steps(steps: int, frac: float) -> int:
    """Leading steps dropped from summaries; always leaves a non-empty window."""
    return min(int(round(frac * steps)), steps - 1)


def run_once(
    cfg: ScenarioConfig,
    run_index: int,
    keep_records: bool = False,
    keep_clusters: bool = False,
) -> RunResult:
    """Execute one seeded run and reduce it to a RunResult.

    Three independent RNG streams, the children of SeedSequence([seed,
    run_index]), serve the drop, k-means restarts and learner action draws,
    so changing e.g. the learning dynamics never perturbs the geometry; a
    run builds only the children its mode draws from (STREAMS), and the
    drop's exponential traffic builds the drop stream's own child.
    """
    key = [int(cfg.run.seed), int(run_index)]
    scen, kmeans, learner = (
        np.random.default_rng(np.random.SeedSequence(key, spawn_key=(i,)))
        if i in STREAMS[cfg.run.mode] else None for i in range(3))
    world = World(cfg, *generate_scenario(cfg, scen), kmeans, learner)
    steps = cfg.run.steps
    burn = burn_in_steps(steps, cfg.run.burn_in_frac)
    n_sbs = int(world.sbs_idx.size)
    if world.mode == "classical":
        # one row for every step: closed-form reductions, read-only broadcasts
        net = world._static_solve(steps)
        _, power, load, _, cost = rows = world._sbs_fields(net)
        energy = power * (steps - burn) * STEP_SECONDS
        cost, mean_energy, mean_load = (
            (float(cost.sum() / n_sbs), float(energy.mean()), float(load.mean()))
            if n_sbs else (0.0, 0.0, 0.0))
        total_energy = float(power.sum() * steps * STEP_SECONDS)
        cluster_count, mean_cluster_size, state_changes, converged_frac = (
            0.0, 0.0, 0, float(net.converged))
        trace = Trace(np.broadcast_to(np.arange(1, steps + 1), steps), *(
            np.broadcast_to(a, (steps, *np.shape(a)))
            for a in (0, 0.0, 0, net.converged, *rows))) if keep_records else None
    else:
        for t in range(1, steps + 1):
            world.step(t)
        trace = world.trace()
        if n_sbs:
            # (steps, n_sbs) arrays; a row sum rounds as np.sum of that record
            power = trace.sbs_power
            cost = float((trace.sbs_cost[burn:].sum(axis=1) / n_sbs).mean())
            energy = power[burn:].sum(axis=0) * STEP_SECONDS
            mean_energy = float(energy.mean())
            mean_load = float(trace.sbs_load[burn:].mean())
            total_energy = float(power.sum(axis=1).sum() * STEP_SECONDS)
        else:
            cost, mean_energy, mean_load, total_energy = 0.0, 0.0, 0.0, 0.0
            energy = np.zeros(0)
        cluster_count = float(trace.n_clusters[burn:].mean())
        mean_cluster_size = float(trace.mean_cluster_size[burn:].mean())
        state_changes = int(trace.state_changes.sum())
        converged_frac = float(trace.converged.mean())
        trace = trace if keep_records else None

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
        cluster_count=cluster_count,
        mean_cluster_size=mean_cluster_size,
        state_changes=state_changes,
        converged_frac=converged_frac,
        records=trace,
        cluster_events=world.cluster_events if keep_clusters else None,
    )


def _run_once_star(args):
    return run_once(*args)


@dataclass
class ExperimentResult:
    """Aggregate over the Monte-Carlo runs of one sweep point."""

    mode: str
    ue_count: int
    eps_d: float
    theta: float
    mean_cost_per_bs: float
    ci95: float  # 1.96 * sd / sqrt(runs) of the per-run mean cost
    mean_energy_per_bs: float
    mean_load: float
    cluster_count: float
    mean_cluster_size: float
    energy_samples: np.ndarray  # pooled per-SBS window energies, sorted
    runs: list[RunResult]


def run_experiment(
    cfg: ScenarioConfig,
    keep_records: bool = False,
    keep_clusters: bool = False,
) -> ExperimentResult:
    """Run cfg.run.runs seeded runs (in a process pool when jobs > 1)."""
    n = cfg.run.runs
    tasks = [(cfg, i, keep_records, keep_clusters) for i in range(n)]
    if cfg.run.jobs > 1 and n > 1:
        # imported here: a serial run never pays for the pool machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(cfg.run.jobs, n)) as pool:
            results = list(pool.map(_run_once_star, tasks))
    else:
        results = [run_once(*task) for task in tasks]
    results.sort(key=lambda r: r.run)

    costs = np.array([r.mean_cost_per_bs for r in results])
    ci95 = 1.96 * float(costs.std(ddof=1)) / float(np.sqrt(n)) if n > 1 else 0.0
    pooled = (
        np.sort(np.concatenate([r.energy_per_sbs for r in results]))
        if results and results[0].n_sbs
        else np.zeros(0)
    )
    return ExperimentResult(
        mode=cfg.run.mode,
        ue_count=cfg.layout.n_ues,
        eps_d=cfg.clustering.eps_d_m,
        theta=cfg.clustering.theta,
        mean_cost_per_bs=float(costs.mean()),
        ci95=ci95,
        mean_energy_per_bs=float(np.array([r.mean_energy_per_bs for r in results]).mean()),
        mean_load=float(np.array([r.mean_load for r in results]).mean()),
        cluster_count=float(np.array([r.cluster_count for r in results]).mean()),
        mean_cluster_size=float(np.array([r.mean_cluster_size for r in results]).mean()),
        energy_samples=pooled,
        runs=results,
    )


def apply_sweep_param(cfg: ScenarioConfig, param: str, value: float) -> None:
    if param == "ues":
        cfg.layout.n_ues = int(value)
    elif param == "eps_d":
        cfg.clustering.eps_d_m = float(value)
    elif param == "theta":
        cfg.clustering.theta = float(value)
    else:
        raise ValueError(
            f"unknown sweep parameter {param!r}; expected one of {SWEEP_PARAMS}"
        )


def sweep_points(cfg: ScenarioConfig, param: str, values, modes=None) -> list[ScenarioConfig]:
    """One validated config per (mode, value) combination; outer loop over modes.

    Every point passes validate_config before any is returned, so a bad
    value raises ConfigError naming its key and nothing runs.
    """
    modes = list(MODES) if modes is None else list(modes)
    points = []
    for mode in modes:
        for v in values:
            point = copy.deepcopy(cfg)
            point.run.mode = mode
            apply_sweep_param(point, param, v)
            validate_config(point)
            points.append(point)
    return points


def sweep(
    cfg: ScenarioConfig,
    param: str,
    values,
    modes=None,
    keep_records: bool = False,
    keep_clusters: bool = False,
) -> list[ExperimentResult]:
    """Run every point of sweep_points(cfg, param, values, modes).

    All sweep points reuse the same base seed, so scenario draws are common
    random numbers across points (identical BS drops; shared UE prefixes).
    """
    return [
        run_experiment(point, keep_records=keep_records, keep_clusters=keep_clusters)
        for point in sweep_points(cfg, param, values, modes)
    ]
