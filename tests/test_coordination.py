"""Cluster-head election and intra-cluster scheduling tests."""

import itertools

import numpy as np
import pytest
from scipy import optimize

from scnsim.coordination import elect_head, rebalance


def solve_cluster_schedule(costs, active):
    """One cluster's schedule, solved on its own: the oracle of rebalance.

    costs[b, m] is the load coefficient of serving UE m from member b
    (members in ascending id order). Sleeping members cannot serve. The
    fractional optimum puts each UE's whole mass on its cheapest active
    member, ties to the lowest id; rounding keeps the member with the
    largest fractional value, same tie rule. Returns the binary
    (members, UEs) assignment.
    """
    costs = np.asarray(costs, dtype=float)
    n_b, n_m = costs.shape
    fractional = np.zeros((n_b, n_m))
    binary = np.zeros((n_b, n_m))
    if n_m > 0:
        masked = np.where(np.asarray(active, dtype=bool)[:, None], costs, np.inf)
        fractional[np.argmin(masked, axis=0), np.arange(n_m)] = 1.0
        binary[np.argmax(fractional, axis=0), np.arange(n_m)] = 1.0
    return binary


def schedule_one_cluster(costs, active):
    """rebalance on one cluster holding every station and every UE.

    Returns the binary (stations, UEs) assignment it picks.
    """
    n_b, n_m = costs.shape
    choice = rebalance(costs, np.zeros(n_b, dtype=int), np.zeros(n_m, dtype=int),
                       np.asarray(active, dtype=bool))
    z = np.zeros((n_b, n_m))
    z[choice, np.arange(n_m)] = 1.0
    return z


def relaxed_lp_arrays(costs, active):
    """The scheduling relaxation in standard LP form over flattened z.

    Returns (c, A_eq, b_eq, bounds) for min c.z s.t. A_eq z = b_eq,
    bounds elementwise, with z flattened row-major (member-major). Sleeping
    members are pinned to zero through their bounds.
    """
    costs = np.asarray(costs, dtype=float)
    active = np.asarray(active, dtype=bool)
    n_b, n_m = costs.shape
    c = costs.flatten()
    a_eq = np.zeros((n_m, n_b * n_m))
    for m in range(n_m):
        a_eq[m, m::n_m] = 1.0
    b_eq = np.ones(n_m)
    bounds = [
        (0.0, 1.0 if active[b] else 0.0) for b in range(n_b) for _ in range(n_m)
    ]
    return c, a_eq, b_eq, bounds


def test_elect_head():
    assert elect_head([5, 6, 7], [0.2, 0.7, 0.1]) == 6
    assert elect_head([9], [0.0]) == 9
    assert elect_head([4, 2], [0.5, 0.5]) == 2  # tie -> lowest id
    with pytest.raises(ValueError):
        elect_head([], [])
    with pytest.raises(ValueError):
        elect_head([1, 2], [0.1])


def test_single_active_member_takes_all():
    costs = np.array([[0.5, 0.2, 0.9], [0.1, 0.1, 0.1]])
    z = schedule_one_cluster(costs, [False, True])
    assert np.array_equal(z, [[0, 0, 0], [1, 1, 1]])
    assert float(np.sum(z * costs)) == pytest.approx(0.3)


def test_two_member_one_ue_example():
    # cheaper member takes the whole unit of mass
    z = schedule_one_cluster(np.array([[0.1], [0.3]]), [True, True])
    assert np.array_equal(z, [[1.0], [0.0]])


def test_cost_tie_prefers_lowest_member_id():
    z = schedule_one_cluster(np.array([[0.2], [0.2]]), [True, True])
    assert z[0, 0] == 1.0 and z[1, 0] == 0.0


def test_all_inf_members_keep_the_lowest_id_active_member():
    # every active member prices the UE at inf, so all of them tie: the UE
    # stays in its cluster, with its lowest-id active member, even where
    # station 0 (outside the cluster) ties with them
    label = np.array([-1, 0, 0, 0])
    costs = np.full((4, 2), np.inf)
    serving = np.array([3, 2])
    assert rebalance(costs, label, serving, np.array([True, False, True, True])).tolist() == [2, 2]
    assert rebalance(costs, label, serving, np.array([True, True, False, True])).tolist() == [1, 1]
    # a finite member cost still wins
    costs[3, 0] = 1.0
    assert rebalance(costs, label, serving, np.array([True, True, True, True])).tolist() == [3, 1]
    assert rebalance(np.full((3, 1), np.inf), label[:3], np.array([2]),
                     np.array([True, False, True])).tolist() == [2]


def brute_force_best(costs, active):
    """Best binary assignment by exhaustive search; objective via np.sum."""
    n_b, n_m = costs.shape
    rows = [b for b in range(n_b) if active[b]]
    best = np.inf
    for combo in itertools.product(rows, repeat=n_m):
        z = np.zeros_like(costs)
        z[list(combo), np.arange(n_m)] = 1.0
        obj = float(np.sum(z * np.where(active[:, None], costs, 0.0)))
        if obj < best:
            best = obj
    return best


def test_rounded_matches_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(50):
        costs = rng.uniform(0.01, 1.0, size=(3, 4))
        active = np.array([True, True, rng.random() < 0.7])
        z = schedule_one_cluster(costs, active)
        rounded_obj = float(np.sum(z * np.where(active[:, None], costs, 0.0)))
        assert rounded_obj == brute_force_best(costs, active)


def test_fractional_certifies_every_binary():
    # the relaxation's optimum, which rebalance picks, lower-bounds each
    # feasible binary assignment
    rng = np.random.default_rng(29)
    for _ in range(20):
        n_b = int(rng.integers(2, 5))
        n_m = int(rng.integers(1, 7))
        costs = rng.uniform(0.0, 2.0, size=(n_b, n_m))
        frac_obj = float(np.sum(schedule_one_cluster(costs, np.ones(n_b)) * costs))
        rows = list(range(n_b))
        for combo in itertools.product(rows, repeat=n_m):
            z = np.zeros_like(costs)
            z[list(combo), np.arange(n_m)] = 1.0
            assert frac_obj <= float(np.sum(z * costs))


def test_matches_generic_lp_solver():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n_b = int(rng.integers(2, 5))
        n_m = int(rng.integers(1, 6))
        costs = rng.uniform(0.05, 1.5, size=(n_b, n_m))
        active = rng.random(n_b) < 0.8
        if not active.any():
            active[0] = True
        z = schedule_one_cluster(costs, active)
        c, a_eq, b_eq, bounds = relaxed_lp_arrays(costs, active)
        res = optimize.linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                               method="highs")
        assert res.success
        frac_obj = float(np.sum(z * np.where(active[:, None], costs, 0.0)))
        assert frac_obj == pytest.approx(res.fun, rel=1e-9, abs=1e-12)


def test_rounding_feasibility():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n_b = int(rng.integers(1, 5))
        n_m = int(rng.integers(0, 6))
        costs = rng.uniform(0.0, 1.0, size=(n_b, n_m))
        active = rng.random(n_b) < 0.6
        if not active.any():
            active[int(rng.integers(n_b))] = True
        z = schedule_one_cluster(costs, active)
        assert np.array_equal(z.sum(axis=0), np.ones(n_m))
        assert np.all(z[~active, :] == 0.0)
        assert np.array_equal(z, solve_cluster_schedule(costs, active))
