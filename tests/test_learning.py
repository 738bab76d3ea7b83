"""Regret-learning tests: action sets, costs, mixing, and updates."""

import itertools

import numpy as np
import pytest

from scnsim import learning
from scnsim.config import LearningConfig
from scnsim.learning import (
    ClusterLearner,
    bg_distribution,
    build_action_set,
    penalty_cost,
)


class ReferenceLearner:
    """One cluster's learner, written per cluster with scalar draws.

    This is the arithmetic every row of the stacked ClusterLearner must
    reproduce bit for bit: a 1-D policy, one rng.random() per sample, and
    gains from Python-float powers of the learner's own step count.
    """

    def __init__(self, n_actions, kappa=10.0, utility_exp=0.6, regret_exp=0.7,
                 policy_exp=0.8):
        self.n_actions = n_actions
        self.kappa = kappa
        self.utility_exp = utility_exp
        self.regret_exp = regret_exp
        self.policy_exp = policy_exp
        self.pi = np.full(n_actions, 1.0 / n_actions)
        self.utility_est = np.zeros(n_actions)
        self.regret_est = np.zeros(n_actions)
        self.prev_utility = 0.0
        self.t = 0

    def sample(self, rng):
        cdf = np.cumsum(self.pi)
        idx = int(np.searchsorted(cdf, rng.random(), side="right"))
        return min(idx, self.n_actions - 1)

    def update(self, played, utility):
        self.t += 1
        tau = 1.0 / self.t**self.utility_exp
        iota = 1.0 / self.t**self.regret_exp
        eps = 1.0 / self.t**self.policy_exp
        utility = float(utility)
        z = self.kappa * np.maximum(self.regret_est, 0.0)
        z = z - z.max()
        w = np.exp(z)
        target = w / w.sum()
        self.regret_est += iota * (self.utility_est - self.prev_utility - self.regret_est)
        self.utility_est[played] += tau * (utility - self.utility_est[played])
        self.pi += eps * (target - self.pi)
        np.clip(self.pi, 0.0, None, out=self.pi)
        self.pi /= self.pi.sum()
        self.prev_utility = utility


def test_action_set_shapes_and_order():
    # one on/off row per joint action, all-on first and all-off last: the
    # cartesian product of (1, 0) per member, in member order
    for size in range(11):
        table = build_action_set(size, 1024)
        assert table.shape == (2**size, size)
        assert [tuple(row) for row in table.tolist()] == list(
            itertools.product((1, 0), repeat=size)
        )
    assert build_action_set(1, 2).tolist() == [[1], [0]]


def test_action_set_cap():
    # 2^10 joint actions sits exactly at a cap of 1024
    assert len(build_action_set(10, 1024)) == 1024
    with pytest.raises(ValueError):
        build_action_set(11, 1024)
    assert len(build_action_set(2, 7)) == 4
    with pytest.raises(ValueError):
        build_action_set(3, 7)


def test_cost_values():
    params = LearningConfig(alpha=0.5, beta=0.5)
    assert penalty_cost([6.3, 6.3], params) == pytest.approx(7.3)
    # one cost per row for a stack of clusters
    rows = penalty_cost(np.array([[6.3, 6.3], [1.0, 3.0]]), params)
    assert rows == pytest.approx([7.3, 3.0])


def test_bg_distribution():
    # nonpositive regrets all collapse to the uniform mix
    assert np.allclose(bg_distribution(np.zeros(4), 10.0), 0.25)
    assert np.allclose(bg_distribution(np.array([-5.0, -1.0]), 10.0), 0.5)
    # two actions, kappa * gap = 1 gives the logistic split e/(1+e)
    pi = bg_distribution(np.array([0.0, 0.1]), 10.0)
    assert pi[0] == pytest.approx(0.2689414213699951, rel=1e-12)
    assert pi[1] == pytest.approx(0.7310585786300049, rel=1e-12)
    # kappa = 0 ignores regrets entirely
    assert np.allclose(bg_distribution(np.array([0.0, 9.0]), 0.0), 0.5)
    # permutation equivariance
    r = np.array([0.2, 0.0, 1.3])
    perm = np.array([2, 0, 1])
    assert np.allclose(bg_distribution(r[perm], 5.0),
                       bg_distribution(r, 5.0)[perm])
    # huge regrets stay finite thanks to max subtraction
    pi = bg_distribution(np.array([0.0, 1e6]), 10.0)
    assert np.isfinite(pi).all() and pi.sum() == pytest.approx(1.0)


def test_first_update_has_unit_gains():
    learner = ClusterLearner(build_action_set(1, 1024))
    learner.update(played=0, utilities=-3.0)
    # t = 1 makes every gain 1: the utility estimate jumps to the sample,
    # regrets stay zero (old estimates were zero), and the policy moves to
    # the Boltzmann-Gibbs image of the old zero regrets, i.e. uniform
    assert np.array_equal(learner.utility_est[0], [-3.0, 0.0])
    assert np.array_equal(learner.regret_est[0], [0.0, 0.0])
    assert np.array_equal(learner.pi[0], [0.5, 0.5])
    assert learner.prev_utility[0] == -3.0


def test_second_update_hand_computed():
    learner = ClusterLearner(build_action_set(1, 1024))
    learner.update(played=0, utilities=-3.0)
    learner.update(played=1, utilities=-1.0)
    # tau(2) = 2^-0.6; only the played action's utility estimate moves
    assert learner.utility_est[0, 0] == pytest.approx(-3.0)
    assert learner.utility_est[0, 1] == pytest.approx(-0.6597539553864471,
                                                      rel=1e-12)
    # iota(2) = 2^-0.7 against reference utility -3 and old estimates
    # [-3, 0]: regret advantage is 0 for action 0 and 3 for action 1
    assert learner.regret_est[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert learner.regret_est[0, 1] == pytest.approx(1.8467166200173746,
                                                     rel=1e-12)
    # policy target was G(old regrets = 0) = uniform, so pi is unchanged
    assert np.allclose(learner.pi[0], [0.5, 0.5])
    assert learner.prev_utility[0] == -1.0


def test_policy_stays_on_simplex():
    rng = np.random.default_rng(31)
    learner = ClusterLearner(build_action_set(3, 1024))
    for _ in range(2000):
        played = learner.sample(rng.random())
        learner.update(played, rng.uniform(-5.0, 0.0))
        assert np.all(learner.pi >= 0.0)
        assert abs(learner.pi[0].sum() - 1.0) <= 1e-9
        assert np.isfinite(learner.pi).all()


def test_concentrates_on_better_action():
    rng = np.random.default_rng(7)
    learner = ClusterLearner(build_action_set(1, 1024))
    for _ in range(10000):
        played = learner.sample(rng.random())
        learner.update(played, 0.0 if played[0] == 1 else -1.0)
    # the all-off action (index 1) dominates by a utility gap of 1
    assert learner.pi[0, 1] > 0.7
    assert learner.pi[0, 1] == learner.pi.max()


def test_sampling_matches_policy():
    rng = np.random.default_rng(0)
    learner = ClusterLearner(build_action_set(1, 1024))
    learner.pi = np.array([[0.25, 0.75]])
    draws = np.array([learner.sample(rng.random())[0] for _ in range(100000)])
    assert np.mean(draws == 1) == pytest.approx(0.75, abs=0.01)
    learner.pi = np.array([[0.0, 1.0]])
    assert all(learner.sample(rng.random())[0] == 1 for _ in range(100))


def test_sampling_reproducible():
    learner = ClusterLearner(build_action_set(2, 1024))
    a = [learner.sample(np.random.default_rng(99).random()) for _ in range(20)]
    b = [learner.sample(np.random.default_rng(99).random()) for _ in range(20)]
    assert a == b


def test_empty_action_set_rejected():
    with pytest.raises(ValueError):
        ClusterLearner([])


def test_sample_matches_searchsorted_at_cdf_points():
    learner = ClusterLearner(build_action_set(2, 4)[:3], rows=6)
    learner.pi[:] = [0.25, 0.5, 0.25]
    draws = np.array([0.0, 0.25, 0.5, 0.75, 0.9999999999999999, 0.1])
    want = np.minimum(np.searchsorted(np.cumsum(learner.pi[0]), draws,
                                      side="right"), 2)
    assert np.array_equal(learner.sample(draws), want)


def test_stacked_rows_match_independent_learners():
    # six action sets (2 to 512 actions, and 6, which no cluster size
    # gives: the learner reads only the table's row count), rows joining at
    # different steps so their t differ, and rows kept, reordered or
    # dropped at each recluster; draws come from one vector in a shuffled
    # partition order, the references draw one scalar each
    sets = [build_action_set(s, 1024) for s in (1, 2, 3, 4, 9)]
    sets.append(build_action_set(3, 1024)[:6])
    gen = np.random.default_rng(2024)
    stacked = [ClusterLearner(a, rows=0, kappa=20.0) for a in sets]
    refs = [[] for _ in sets]
    rng_ref, rng_new = np.random.default_rng(5), np.random.default_rng(5)
    for step in range(300):
        if step % 40 == 0:
            for g, learner in enumerate(stacked):
                n = learner.n_rows
                keep = gen.permutation(n)[: int(gen.integers(n // 2, n + 1))]
                fresh = int(gen.integers(0 if n else 1, 3))
                learner.restack(keep, fresh)
                refs[g] = [refs[g][i] for i in keep] + [
                    ReferenceLearner(len(sets[g]), kappa=20.0) for _ in range(fresh)
                ]
        slots = [(g, r) for g, learner in enumerate(stacked)
                 for r in range(learner.n_rows)]
        slots = [slots[i] for i in gen.permutation(len(slots))]
        position = {slot: i for i, slot in enumerate(slots)}
        want = {slot: refs[slot[0]][slot[1]].sample(rng_ref) for slot in slots}
        draws = rng_new.random(len(slots))
        for g, learner in enumerate(stacked):
            played = learner.sample(draws[[position[(g, r)] for r in range(learner.n_rows)]])
            assert played.tolist() == [want[(g, r)] for r in range(learner.n_rows)]
            utilities = gen.uniform(-3.0, 0.0, size=learner.n_rows)
            learner.update(played, utilities)
            for r, ref in enumerate(refs[g]):
                ref.update(int(played[r]), utilities[r])
                assert learner.pi[r].tobytes() == ref.pi.tobytes()
                assert learner.utility_est[r].tobytes() == ref.utility_est.tobytes()
                assert learner.regret_est[r].tobytes() == ref.regret_est.tobytes()
                assert learner.prev_utility[r] == ref.prev_utility
                assert learner.t[r] == ref.t
    assert len({int(t) for learner in stacked for t in learner.t}) > 3


def test_gain_table_matches_per_row_powers(monkeypatch):
    # update reads 1 / t**x from a table grown on demand. Its rows must be
    # the per-row Python-float powers, reshaped to (rows, 3), bit for bit;
    # rows that joined at different steps read their own t
    monkeypatch.setattr(learning, "_GAINS", {})
    learner = ClusterLearner(build_action_set(2, 4), rows=1)
    refs = [ReferenceLearner(4)]
    rng = np.random.default_rng(9)
    sizes = set()
    for step in range(3000):
        if step == 700:
            learner.restack([0], 1)
            refs.append(ReferenceLearner(4))
        played = rng.integers(0, 4, size=learner.n_rows)
        utilities = rng.uniform(-3.0, 0.0, size=learner.n_rows)
        learner.update(played, utilities)
        for r, ref in enumerate(refs):
            ref.update(int(played[r]), utilities[r])
        sizes.add(len(learning._GAINS[learner.exps]))
    assert len(sizes) > 1  # the table grew at least once
    table = learning._GAINS[learner.exps]
    want = np.reshape(
        [[1.0 / t**x for x in learner.exps] for t in range(1, 3001)], (-1, 3))
    assert table[1:3001].tobytes() == want.tobytes()
    for r, ref in enumerate(refs):
        assert learner.pi[r].tobytes() == ref.pi.tobytes()
        assert learner.regret_est[r].tobytes() == ref.regret_est.tobytes()
