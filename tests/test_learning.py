"""Regret-learning tests: action sets, costs, mixing, and updates."""

import itertools

import numpy as np
import pytest

from scnsim import learning
from scnsim.config import LearningConfig
from scnsim.learning import LearnerTable, build_action_set


class ReferenceLearner:
    """One cluster's learner, written per cluster with scalar draws.

    This is the arithmetic every row of a LearnerTable must reproduce bit
    for bit: a 1-D policy, one rng.random() per sample, and
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


def bg_distribution(regrets, kappa):
    """The mixed strategy a fresh row holding these regrets moves to.

    At t = 1 every gain is 1, so its first update sets pi to the
    Boltzmann-Gibbs target of the regrets (through pi + (target - pi) and
    the renormalising division, so to within rounding).
    """
    regrets = np.asarray(regrets, dtype=float)
    table = _table([regrets.size.bit_length() - 1], kappa=kappa)
    table.regret_est[:] = regrets
    table.update([0], [0.0])
    return table.pi


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
    r = np.array([0.2, 0.0, 1.3, -0.4])
    perm = np.array([2, 0, 3, 1])
    assert np.allclose(bg_distribution(r[perm], 5.0),
                       bg_distribution(r, 5.0)[perm])
    # huge regrets stay finite thanks to max subtraction
    pi = bg_distribution(np.array([0.0, 1e6]), 10.0)
    assert np.isfinite(pi).all() and pi.sum() == pytest.approx(1.0)


def _table(sizes, **learning):
    """A LearnerTable of fresh rows with sizes[i] members each."""
    table = LearnerTable(LearningConfig(**learning))
    table.restack(sizes, [-1] * len(sizes))
    return table


def _row(table, r):
    """Entries of row r in the table's flat buffers."""
    stop = table.start[r + 1] if r + 1 < table.n_rows else table.pi.size
    return slice(int(table.start[r]), int(stop))


def test_first_update_has_unit_gains():
    table = _table([1])
    table.update(played=[0], utilities=[-3.0])
    # t = 1 makes every gain 1: the utility estimate jumps to the sample,
    # regrets stay zero (old estimates were zero), and the policy moves to
    # the Boltzmann-Gibbs image of the old zero regrets, i.e. uniform
    assert np.array_equal(table.utility_est, [-3.0, 0.0])
    assert np.array_equal(table.regret_est, [0.0, 0.0])
    assert np.array_equal(table.pi, [0.5, 0.5])
    assert table.prev_utility[0] == -3.0


def test_second_update_hand_computed():
    table = _table([1])
    table.update(played=[0], utilities=[-3.0])
    table.update(played=[1], utilities=[-1.0])
    # tau(2) = 2^-0.6; only the played action's utility estimate moves
    assert table.utility_est[0] == pytest.approx(-3.0)
    assert table.utility_est[1] == pytest.approx(-0.6597539553864471, rel=1e-12)
    # iota(2) = 2^-0.7 against reference utility -3 and old estimates
    # [-3, 0]: regret advantage is 0 for action 0 and 3 for action 1
    assert table.regret_est[0] == pytest.approx(0.0, abs=1e-15)
    assert table.regret_est[1] == pytest.approx(1.8467166200173746, rel=1e-12)
    # policy target was G(old regrets = 0) = uniform, so pi is unchanged
    assert np.allclose(table.pi, [0.5, 0.5])
    assert table.prev_utility[0] == -1.0


def test_policy_stays_on_simplex():
    # a 3-member and a 1-member row in one table, so two blocks renormalise
    rng = np.random.default_rng(31)
    table = _table([3, 1])
    for _ in range(2000):
        played = table.sample(rng.random(2))
        table.update(played, rng.uniform(-5.0, 0.0, size=2))
        assert np.all(table.pi >= 0.0)
        for r in range(2):
            assert abs(table.pi[_row(table, r)].sum() - 1.0) <= 1e-9
        assert np.isfinite(table.pi).all()


def test_concentrates_on_better_action():
    rng = np.random.default_rng(7)
    table = _table([1])
    for _ in range(10000):
        played = table.sample([rng.random()])
        table.update(played, [0.0 if played[0] == 1 else -1.0])
    # the all-off action (index 1) dominates by a utility gap of 1
    assert table.pi[1] > 0.7
    assert table.pi[1] == table.pi.max()


def test_sampling_matches_policy():
    rng = np.random.default_rng(0)
    table = _table([1])
    table.pi[:] = [0.25, 0.75]
    draws = np.array([table.sample([rng.random()])[0] for _ in range(100000)])
    assert np.mean(draws == 1) == pytest.approx(0.75, abs=0.01)
    table.pi[:] = [0.0, 1.0]
    assert all(table.sample([rng.random()])[0] == 1 for _ in range(100))


def test_sampling_reproducible():
    table = _table([2, 1])
    a = [table.sample(np.random.default_rng(99).random(2)).tolist() for _ in range(20)]
    b = [table.sample(np.random.default_rng(99).random(2)).tolist() for _ in range(20)]
    assert a == b


def test_sample_matches_searchsorted_at_cdf_points():
    # draws at the running sums, and in the last row one past a total that
    # fell short of 1, which picks the last action; a 1-member block first
    table = _table([1] + [2] * 7)
    pi = np.array([0.25, 0.5, 0.125, 0.125])
    short = np.array([0.25, 0.25, 0.25, 0.2])
    table.pi[:] = np.concatenate([[0.5, 0.5], np.tile(pi, 6), short])
    draws = np.array([0.75, 0.0, 0.25, 0.75, 0.875, 0.9999999999999999, 0.1, 0.97])
    want = [1] + [min(int(np.searchsorted(np.cumsum(row), d, side="right")), 3)
                  for row, d in zip([pi] * 6 + [short], draws[1:])]
    assert table.sample(draws).tolist() == want
    assert want[-1] == 3
    # the same rows as the one block of a table of 2-member rows
    table = _table([2] * 7)
    table.pi[:] = np.concatenate([np.tile(pi, 6), short])
    assert table.sample(draws[1:]).tolist() == want[1:]


def test_table_blocks_follow_runs_of_equal_sizes():
    # one block per run of equal sizes, each a (rows, 2^s) slice of the
    # flat buffers playing that size's action set; a size over the cap
    # raises
    table = _table([1, 1, 3, 2, 2, 2], max_actions=8)
    assert table.blocks == [slice(0, 2), slice(2, 3), slice(3, 6)]
    assert [a.shape for a in table.actions] == [(2, 1), (8, 3), (4, 2)]
    assert table.start.tolist() == [0, 2, 4, 12, 16, 20]
    assert table.pi.size == 24
    assert np.array_equal(table.pi, np.repeat([0.5, 0.5, 0.125, 0.25, 0.25, 0.25],
                                              [2, 2, 8, 4, 4, 4]))
    with pytest.raises(ValueError):
        _table([4], max_actions=8)
    empty = _table([])
    assert empty.n_rows == 0 and empty.blocks == [] and empty.pi.size == 0


def _assert_rows_equal_references(table, refs):
    for r, ref in enumerate(refs):
        entries = _row(table, r)
        assert table.pi[entries].tobytes() == ref.pi.tobytes()
        assert table.utility_est[entries].tobytes() == ref.utility_est.tobytes()
        assert table.regret_est[entries].tobytes() == ref.regret_est.tobytes()
        assert table.prev_utility[r] == ref.prev_utility
        assert table.t[r] == ref.t


def _assert_table_matches_independent_learners(pool):
    """300 steps of a table of clusters with sizes drawn from pool, against
    one ReferenceLearner per row.

    Rows join at different steps so their t differ, and rows are kept,
    reordered or dropped at each restack, with the table's rows sorted by
    size as World installs them. Draws come from one vector in a shuffled
    partition order; the references draw one scalar each.
    """
    gen = np.random.default_rng(2024)
    table = LearnerTable(LearningConfig(kappa=20.0))
    refs, sizes, ages, blocks = [], [], 0, 0
    rng_ref, rng_new = np.random.default_rng(5), np.random.default_rng(5)
    for step in range(300):
        if step % 40 == 0:
            n = len(refs)
            keep = gen.permutation(n)[: int(gen.integers(n // 2, n + 1))].tolist()
            fresh = [int(s) for s in gen.choice(pool, size=int(gen.integers(0 if n else 1, 4)))]
            new_sizes = [sizes[i] for i in keep] + fresh
            order = np.argsort(new_sizes, kind="stable").tolist()
            src = keep + [-1] * len(fresh)
            table.restack([new_sizes[i] for i in order], [src[i] for i in order])
            refs = [refs[src[i]] if src[i] >= 0 else
                    ReferenceLearner(1 << new_sizes[i], kappa=20.0) for i in order]
            sizes = [new_sizes[i] for i in order]
        position = gen.permutation(len(refs))  # each row's partition index
        by_position = np.argsort(position)
        want = [0] * len(refs)
        for r in by_position.tolist():
            want[r] = refs[r].sample(rng_ref)
        draws = rng_new.random(len(refs))
        played = table.sample(draws[position])
        assert played.tolist() == want
        utilities = gen.uniform(-3.0, 0.0, size=len(refs))
        table.update(played, utilities)
        for r, ref in enumerate(refs):
            ref.update(int(played[r]), utilities[r])
        _assert_rows_equal_references(table, refs)
        ages = max(ages, len(set(table.t.tolist())))
        blocks = max(blocks, len(table.blocks))
    assert ages > 3
    assert blocks == len(pool)  # every size held in one table at once


def test_stacked_rows_match_independent_learners():
    # clusters of sizes 1, 2, 3, 4 and 9 (2 to 512 actions) in one table
    _assert_table_matches_independent_learners((1, 2, 3, 4, 9))


def test_one_block_rows_match_independent_learners():
    # singletons alone, the one block of learning_no_clusters
    _assert_table_matches_independent_learners((1,))


def test_gain_table_matches_per_row_powers(monkeypatch):
    # update reads 1 / t**x from a table grown on demand. Its rows must be
    # the per-row Python-float powers, reshaped to (rows, 3), bit for bit;
    # rows that joined at different steps read their own t
    monkeypatch.setattr(learning, "_GAINS", {})
    table = _table([2])
    refs = [ReferenceLearner(4)]
    rng = np.random.default_rng(9)
    sizes = set()
    for step in range(3000):
        if step == 700:
            table.restack([2, 2], [0, -1])
            refs.append(ReferenceLearner(4))
        played = rng.integers(0, 4, size=table.n_rows)
        utilities = rng.uniform(-3.0, 0.0, size=table.n_rows)
        table.update(played, utilities)
        for r, ref in enumerate(refs):
            ref.update(int(played[r]), utilities[r])
        sizes.add(len(learning._GAINS[table.exps]))
    assert len(sizes) > 1  # the table grew at least once
    gains = learning._GAINS[table.exps]
    want = np.reshape(
        [[1.0 / t**x for x in table.exps] for t in range(1, 3001)], (-1, 3))
    assert gains[1:3001].tobytes() == want.tobytes()
    _assert_rows_equal_references(table, refs)
