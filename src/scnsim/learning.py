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
# exponent triple: it depends on its key alone, so all learners share it
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


def penalty_cost(p_max: np.ndarray, cfg: LearningConfig) -> np.ndarray:
    """Worst-case stand-in cost when an action leaves cluster UEs unserved.

    p_max holds the members' transmit ceilings along its last axis, one
    cluster per row, and the result holds one cost per row: cfg.alpha
    weighs power (W), cfg.beta the members' full load.
    """
    p_max = np.asarray(p_max, dtype=float)
    return cfg.alpha * np.sum(p_max, axis=-1) + cfg.beta * p_max.shape[-1]


def bg_distribution(regrets: np.ndarray, kappa: float) -> np.ndarray:
    """Boltzmann-Gibbs mixing over positive regrets, along the last axis.

    All-nonpositive regrets give the uniform distribution; larger kappa
    concentrates mass on the largest positive regret.
    """
    r_plus = np.maximum(np.asarray(regrets, dtype=float), 0.0)
    z = kappa * r_plus
    z = z - z.max(axis=-1, keepdims=True)
    w = np.exp(z)
    return w / w.sum(axis=-1, keepdims=True)


class ClusterLearner:
    """Regret learners of the clusters that share one joint action set.

    Row i is one cluster's learner. It keeps a utility estimate per action
    (updated only for the played action), a regret estimate per action
    (updated for all actions against the previously observed utility), a
    mixed strategy tracked toward the Boltzmann-Gibbs distribution, the
    last observed utility and its own step count t. Updates are
    synchronous: each step uses the previous step's estimates on the
    right-hand side.

    Rows are stacked only to batch the arithmetic. Every reduction runs
    along one row, and the decreasing gains are read per row at its own
    t, so a row's numbers are those of a lone learner, bit for bit.
    """

    def __init__(
        self,
        actions: np.ndarray,
        rows: int = 1,
        kappa: float = 10.0,
        utility_exp: float = 0.6,
        regret_exp: float = 0.7,
        policy_exp: float = 0.8,
    ):
        if len(actions) == 0:
            raise ValueError("need at least one action")
        # (n_actions, members) on/off states, for indexing by draw
        self.actions = np.asarray(actions)
        self.kappa = float(kappa)
        # the gain exponents, which key this learner's gain table
        self.exps = (float(utility_exp), float(regret_exp), float(policy_exp))
        n = len(self.actions)
        self.pi = self.utility_est = self.regret_est = np.empty((0, n))
        self.prev_utility = np.empty(0)
        self.t = np.empty(0, dtype=np.int64)
        self.restack([], rows)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @property
    def n_rows(self) -> int:
        return self.pi.shape[0]

    def restack(self, keep: Sequence[int], fresh: int) -> None:
        """Keep the listed rows, in that order, then append `fresh` new learners.

        A new learner starts from the uniform policy, zero estimates and t = 0.
        """
        keep = np.asarray(keep, dtype=np.intp)
        n = self.n_actions
        self.pi = np.concatenate([self.pi[keep], np.full((fresh, n), 1.0 / n)])
        self.utility_est = np.concatenate([self.utility_est[keep], np.zeros((fresh, n))])
        self.regret_est = np.concatenate([self.regret_est[keep], np.zeros((fresh, n))])
        self.prev_utility = np.concatenate([self.prev_utility[keep], np.zeros(fresh)])
        self.t = np.concatenate([self.t[keep], np.zeros(fresh, dtype=np.int64)])

    def sample(self, draws) -> np.ndarray:
        """Action index per row from its mixed strategy and a uniform draw.

        draws holds one uniform [0, 1) number per row. The index is the
        first one whose cumulative probability exceeds the draw, or the
        last one when no earlier one does (rounding may leave the total
        below the draw).
        """
        cdf = self.pi[:, :-1].cumsum(axis=1)
        return (cdf <= np.reshape(draws, (-1, 1))).sum(axis=1)

    def update(self, played, utilities) -> None:
        """Fold one observed (action, utility) pair per row into the estimates."""
        self.t += 1
        try:
            gains = _GAINS[self.exps][self.t]
        except (KeyError, IndexError):
            # Python-float powers call C pow, as a lone learner's scalar gains
            # do; np.power may take a SIMD path that rounds differently
            size = 2 * int(self.t.max(initial=0)) + 1
            _GAINS[self.exps] = np.array([[np.nan] * 3] + [
                [1.0 / t**x for x in self.exps] for t in range(1, size)])
            gains = _GAINS[self.exps][self.t]
        tau, iota, eps = gains[:, 0], gains[:, 1:2], gains[:, 2:3]
        rows = np.arange(self.n_rows)

        # the target and the regret step read the pre-update estimates
        target = bg_distribution(self.regret_est, self.kappa)
        self.regret_est += iota * (
            self.utility_est - self.prev_utility[:, None] - self.regret_est
        )
        old = self.utility_est[rows, played]
        self.utility_est[rows, played] = old + tau * (utilities - old)
        self.pi += eps * (target - self.pi)
        np.maximum(self.pi, 0.0, out=self.pi)
        self.pi /= self.pi.sum(axis=1, keepdims=True)

        self.prev_utility[:] = utilities
