"""Regret learning of cluster sleep/wake (and power level) decisions.

Each cluster is a player whose action fixes, for every member, a transmit
level and an on/off state. Players track per-action utility and regret
estimates with decreasing gains and mix according to a Boltzmann-Gibbs
distribution over positive regrets:

    G_a(r) = exp(kappa * max(r_a, 0)) / sum_a' exp(kappa * max(r_a', 0))

The three estimator gains decay as 1/t^x with exponents ordered
utility < regret < policy so the utility estimate moves fastest and the
mixed strategy slowest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

MAX_ACTIONS = 1024


@dataclass
class CostParams:
    """Weights of the power / load terms in a station's running cost."""

    alpha: float = 0.5  # weight on consumed power (W)
    beta: float = 0.5  # weight on offered load (dimensionless)


class ClusterAction(NamedTuple):
    """Per-member transmit levels and on/off states, in member-id order."""

    powers: tuple[float, ...]
    states: tuple[int, ...]


def build_action_set(
    power_levels: Sequence[Sequence[float]], cap: int = MAX_ACTIONS
) -> tuple[ClusterAction, ...]:
    """Enumerate joint actions: each member picks an on-level or sleeps.

    power_levels[i] lists the transmit powers member i may use while on;
    sleeping is always available. Options per member are ordered on-levels
    first, then off, and the joint set is their cartesian product in member
    order (so the all-on action comes first and all-off last).
    """
    options = []
    for levels in power_levels:
        if len(levels) == 0:
            raise ValueError("each member needs at least one transmit level")
        options.append([(float(p), 1) for p in levels] + [(0.0, 0)])
    size = int(np.prod([len(o) for o in options])) if options else 1
    if size > cap:
        raise ValueError(
            f"action set would hold {size} joint actions (cap {cap}); "
            "reduce cluster size or transmit levels"
        )
    actions = []
    for combo in itertools.product(*options):
        powers, states = zip(*combo) if combo else ((), ())
        actions.append(ClusterAction(tuple(powers), tuple(states)))
    return tuple(actions)


def cluster_cost(
    total_powers: np.ndarray, raw_loads: np.ndarray, params: CostParams
) -> float:
    """Summed member cost: alpha * consumed power + beta * unclamped load."""
    return float(
        params.alpha * np.sum(total_powers) + params.beta * np.sum(raw_loads)
    )


def penalty_cost(p_max: Sequence[float], params: CostParams) -> float:
    """Worst-case stand-in cost when an action leaves cluster UEs unserved."""
    p_max = np.asarray(p_max, dtype=float)
    return float(params.alpha * np.sum(p_max) + params.beta * p_max.size)


def bg_distribution(regrets: np.ndarray, kappa: float) -> np.ndarray:
    """Boltzmann-Gibbs mixing over positive regrets.

    All-nonpositive regrets give the uniform distribution; larger kappa
    concentrates mass on the largest positive regret.
    """
    r_plus = np.maximum(np.asarray(regrets, dtype=float), 0.0)
    z = kappa * r_plus
    z = z - z.max()
    w = np.exp(z)
    return w / w.sum()


class ClusterLearner:
    """Regret learner for one cluster's joint action.

    Keeps a utility estimate per action (updated only for the played
    action), a regret estimate per action (updated for all actions against
    the previously observed utility), and a mixed strategy tracked toward
    the Boltzmann-Gibbs distribution. Updates are synchronous: each step
    uses the previous step's estimates on the right-hand side.
    """

    def __init__(
        self,
        member_ids: Sequence[int],
        actions: Sequence[ClusterAction],
        kappa: float = 10.0,
        utility_exp: float = 0.6,
        regret_exp: float = 0.7,
        policy_exp: float = 0.8,
    ):
        if len(actions) == 0:
            raise ValueError("need at least one action")
        self.member_ids = tuple(int(b) for b in member_ids)
        self.actions = tuple(actions)
        self.kappa = float(kappa)
        self.utility_exp = float(utility_exp)
        self.regret_exp = float(regret_exp)
        self.policy_exp = float(policy_exp)
        n = len(self.actions)
        self.pi = np.full(n, 1.0 / n)
        self.utility_est = np.zeros(n)
        self.regret_est = np.zeros(n)
        self.prev_utility = 0.0
        self.t = 0

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def sample(self, rng: np.random.Generator) -> int:
        """Draw an action index from the current mixed strategy."""
        cdf = np.cumsum(self.pi)
        idx = int(np.searchsorted(cdf, rng.random(), side="right"))
        return min(idx, self.n_actions - 1)

    def update(self, played: int, utility: float) -> None:
        """Fold one observed (action, utility) pair into the estimates."""
        self.t += 1
        tau = 1.0 / self.t**self.utility_exp
        iota = 1.0 / self.t**self.regret_exp
        eps = 1.0 / self.t**self.policy_exp
        utility = float(utility)

        # the target and the regret step read the pre-update estimates
        target = bg_distribution(self.regret_est, self.kappa)
        self.regret_est += iota * (self.utility_est - self.prev_utility - self.regret_est)
        self.utility_est[played] += tau * (utility - self.utility_est[played])
        self.pi += eps * (target - self.pi)
        np.clip(self.pi, 0.0, None, out=self.pi)
        self.pi /= self.pi.sum()

        self.prev_utility = utility
