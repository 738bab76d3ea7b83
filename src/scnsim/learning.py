"""Regret learning of cluster sleep/wake decisions.

Each cluster is a player whose action sets every member on or asleep; an
awake member transmits at its p_max. Players track per-action utility and
regret estimates with decreasing gains and mix according to a
Boltzmann-Gibbs distribution over positive regrets:

    G_a(r) = exp(kappa * max(r_a, 0)) / sum_a' exp(kappa * max(r_a', 0))

The three estimator gains decay as 1/t^x with exponents ordered
utility < regret < policy so the utility estimate moves fastest and the
mixed strategy slowest; validate_config rejects any other order. The
two-timescale convergence argument also wants each exponent in (0.5, 1];
that is advice only, and validation holds each exponent to (0, 1].
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .config import LearningConfig


# 1 / t**x at step count t (row) per gain exponent x (column), one table per
# exponent triple: it depends on its key alone, so all learners share it.
# Column-major, so each exponent's gains are one contiguous array
_GAINS: dict[tuple[float, float, float], np.ndarray] = {}


def build_action_set(size: int, cap: int) -> np.ndarray:
    """On/off table of a cluster of `size` members: 2^size rows, one per action.

    Row i holds the members' states (1 on, 0 asleep) in member-id order:
    the cartesian product of (1, 0) per member, so the all-on action comes
    first and all-off last. Raises ValueError when 2^size exceeds cap.
    """
    if 1 << size > cap:
        raise ValueError(
            f"action set would hold {1 << size} joint actions (cap {cap}); "
            "reduce cluster size"
        )
    # row i is i in binary, most significant bit first, with 1 meaning off
    bits = np.arange(1 << size)[:, None] >> np.arange(size - 1, -1, -1)
    return 1 - (bits & 1)


class LearnerTable:
    """Regret learners of every cluster of a partition, one row per cluster.

    Row r keeps a utility estimate per action (updated only for the played
    action), a regret estimate per action (updated for all actions against
    the previously observed utility), a mixed strategy tracked toward the
    Boltzmann-Gibbs distribution, the last observed utility and its own
    step count t. Updates are synchronous: each step uses the previous
    step's estimates on the right-hand side.

    The per-action state of all rows sits in flat buffers, row after row,
    row r from entry start[r] on. Consecutive rows of one member count s
    form a block: a contiguous (rows, 2^s) slice that plays
    build_action_set(s, cap). Elementwise steps run once over the whole
    buffer, with each row's gains, last utility and row reductions gathered
    per entry. The row reductions (the Boltzmann-Gibbs max and sum, the
    policy's renormalising sum and sample's cumsum) run per block on its
    2-D view, so a row's numbers are those of a lone learner, bit for bit.
    """

    def __init__(self, cfg: LearningConfig):
        self.kappa = float(cfg.kappa)
        # the gain exponents, which key this table's gain table
        self.exps = (float(cfg.utility_exp), float(cfg.regret_exp), float(cfg.policy_exp))
        self.cap = int(cfg.max_actions)
        self._action_sets: dict[int, np.ndarray] = {}
        self.pi = self.utility_est = self.regret_est = np.empty(0)
        self.prev_utility = np.empty(0)
        self.t = np.empty(0, dtype=np.int64)
        self.start = np.empty(0, dtype=np.intp)
        self.restack([], [])

    @property
    def n_rows(self) -> int:
        return self.t.size

    def restack(self, sizes: Sequence[int], keep: Sequence[int]) -> None:
        """Rebuild the table with one row of sizes[i] members per entry of sizes.

        Row i carries over the state of current row keep[i], which has as
        many members, or starts as a new learner when keep[i] < 0: uniform
        policy, zero estimates and t = 0. Raises ValueError when a size's
        action set would exceed the cap.
        """
        sizes = np.asarray(sizes, dtype=np.intp).reshape(-1)
        keep = np.asarray(keep, dtype=np.intp).reshape(-1)
        width = 1 << sizes
        start = np.cumsum(width) - width
        entry_row = np.repeat(np.arange(sizes.size), width)
        # entry j of a kept row takes entry j of its old row
        src_row = keep[entry_row]
        kept = np.flatnonzero(src_row >= 0)
        src = self.start[src_row[kept]] + kept - start[entry_row[kept]]
        pi = 1.0 / width[entry_row]
        pi[kept] = self.pi[src]
        utility_est, regret_est = np.zeros(pi.size), np.zeros(pi.size)
        utility_est[kept] = self.utility_est[src]
        regret_est[kept] = self.regret_est[src]
        old = np.flatnonzero(keep >= 0)
        prev_utility, t = np.zeros(sizes.size), np.zeros(sizes.size, dtype=np.int64)
        prev_utility[old] = self.prev_utility[keep[old]]
        t[old] = self.t[keep[old]]
        self.pi, self.utility_est, self.regret_est = pi, utility_est, regret_est
        self.prev_utility, self.t, self.start = prev_utility, t, start
        self._entry_row = entry_row
        self._target = np.empty(pi.size)  # update's scratch buffer
        self._cdf = np.empty(pi.size)  # sample's scratch buffer
        self._reduced = np.empty(sizes.size)  # one row reduction per row
        # every entry but the last of its row
        self._inner = np.ones(pi.size, dtype=bool)
        self._inner[start + width - 1] = False

        # one block per run of equal sizes: its rows in self.blocks, its
        # action set in self.actions, and in self._views 2-D views of pi and
        # of the scratch buffers with its rows' slice of self._reduced
        self.blocks, self.actions, self._views = [], [], []
        cuts = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist(), sizes.size]
        for r0, r1 in zip(cuts[:-1], cuts[1:]):
            if r0 == r1:
                continue
            size = int(sizes[r0])
            actions = self._action_sets.get(size)
            if actions is None:
                actions = self._action_sets[size] = build_action_set(size, self.cap)
            rows = slice(r0, r1)
            span = slice(int(start[r0]), int(start[r0]) + (r1 - r0) * len(actions))
            shape = (r1 - r0, len(actions))
            self.blocks.append(rows)
            self.actions.append(actions)
            views = (a[span].reshape(shape) for a in (pi, self._target, self._cdf))
            self._views.append((*views, self._reduced[rows]))

    def sample(self, draws) -> np.ndarray:
        """Action index per row from its mixed strategy and a uniform draw.

        draws holds one uniform [0, 1) number per row. The index is the
        first one whose cumulative probability exceeds the draw, or the
        last one when no earlier one does (rounding may leave the total
        below the draw).
        """
        # the index counts the running sums at or below the row's draw,
        # all but the row's total
        draws = np.asarray(draws)
        if len(self._views) == 1:  # fewer calls on one block's 2-D view
            cdf = self._views[0][0][:, :-1].cumsum(axis=1)
            return (cdf <= draws.reshape(-1, 1)).sum(axis=1)
        for pi, _, cdf, _ in self._views:
            pi.cumsum(axis=1, out=cdf)
        below = self._cdf <= draws[self._entry_row]
        below &= self._inner
        return np.add.reduceat(below, self.start, dtype=np.intp)

    def update(self, played, utilities) -> None:
        """Fold one observed (action index, utility) pair per row into the estimates."""
        self.t += 1
        try:
            tau_of, iota_of, eps_of = _GAINS[self.exps].T
            tau = tau_of[self.t]
        except (KeyError, IndexError):
            # Python-float powers call C pow, as a lone learner's scalar gains
            # do; np.power may take a SIMD path that rounds differently
            size = 2 * int(self.t.max(initial=0)) + 1
            _GAINS[self.exps] = np.asfortranarray([[np.nan] * 3] + [
                [1.0 / t**x for x in self.exps] for t in range(1, size)])
            tau_of, iota_of, eps_of = _GAINS[self.exps].T
            tau = tau_of[self.t]
        # every row has entries, so their step counts fit the table as t's do
        entry = self._entry_row
        t_entry = self.t[entry]
        iota, eps = iota_of[t_entry], eps_of[t_entry]

        # the Boltzmann-Gibbs target of the pre-update regrets, in place; each
        # row reduction lands in self._reduced, which every entry then reads
        target, reduced = self._target, self._reduced
        np.maximum(self.regret_est, 0.0, out=target)
        target *= self.kappa
        for _, z, _, row_max in self._views:
            np.maximum.reduce(z, axis=1, out=row_max)
        target -= reduced[entry]
        np.exp(target, out=target)
        for _, w, _, row_sum in self._views:
            np.add.reduce(w, axis=1, out=row_sum)
        target /= reduced[entry]

        step = self.utility_est - self.prev_utility[entry]
        step -= self.regret_est
        step *= iota
        self.regret_est += step
        flat = self.start + played
        old = self.utility_est[flat]
        self.utility_est[flat] = old + tau * (utilities - old)
        # pi stays >= +0 with no clamp. For an entry p >= 0 with target
        # g >= 0 and eps in (0, 1]: g - p >= -p, eps * (g - p) >= -p and
        # p + eps * (g - p) >= p - p = +0 hold exactly, and rounding is
        # monotone with -p and +0 representable, so each holds rounded too
        target -= self.pi
        target *= eps
        self.pi += target
        for pi, _, _, row_sum in self._views:
            np.add.reduce(pi, axis=1, out=row_sum)
        self.pi /= reduced[entry]

        self.prev_utility[:] = utilities
