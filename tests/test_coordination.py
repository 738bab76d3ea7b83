"""Cluster-head election and intra-cluster scheduling tests."""

import itertools

import numpy as np
import pytest
from scipy import optimize

from scnsim.coordination import (
    UncoveredUEsError,
    elect_head,
    solve_cluster_schedule,
)


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
    sched = solve_cluster_schedule(costs, [3, 4], [0, 1, 2],
                                   np.array([False, True]))
    assert np.array_equal(sched.fractional, [[0, 0, 0], [1, 1, 1]])
    assert np.array_equal(sched.binary, sched.fractional)
    assert sched.cluster_load == pytest.approx(0.3)


def test_two_member_one_ue_example():
    # cheaper member takes the whole unit of fractional mass
    sched = solve_cluster_schedule(np.array([[0.1], [0.3]]), [1, 2], [0],
                                   np.array([True, True]))
    assert np.array_equal(sched.fractional, [[1.0], [0.0]])
    assert np.array_equal(sched.binary, [[1.0], [0.0]])
    assert sched.cluster_load == pytest.approx(0.1)
    assert not sched.overload


def test_cost_tie_prefers_lowest_member_id():
    sched = solve_cluster_schedule(np.array([[0.2], [0.2]]), [3, 9], [0],
                                   np.array([True, True]))
    assert sched.binary[0, 0] == 1.0 and sched.binary[1, 0] == 0.0


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
        sched = solve_cluster_schedule(costs, [0, 1, 2], list(range(4)), active)
        rounded_obj = float(np.sum(sched.binary * np.where(active[:, None],
                                                           costs, 0.0)))
        assert rounded_obj == brute_force_best(costs, active)


def test_fractional_certifies_every_binary():
    # LP optimum lower-bounds each feasible binary assignment
    rng = np.random.default_rng(29)
    for _ in range(20):
        n_b = int(rng.integers(2, 5))
        n_m = int(rng.integers(1, 7))
        costs = rng.uniform(0.0, 2.0, size=(n_b, n_m))
        active = np.ones(n_b, dtype=bool)
        sched = solve_cluster_schedule(costs, list(range(n_b)),
                                       list(range(n_m)), active)
        frac_obj = float(np.sum(sched.fractional * costs))
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
        sched = solve_cluster_schedule(costs, list(range(n_b)),
                                       list(range(n_m)), active)
        c, a_eq, b_eq, bounds = relaxed_lp_arrays(costs, active)
        res = optimize.linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                               method="highs")
        assert res.success
        frac_obj = float(np.sum(sched.fractional *
                                np.where(active[:, None], costs, 0.0)))
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
        sched = solve_cluster_schedule(costs, list(range(n_b)),
                                       list(range(n_m)), active)
        if n_m:
            assert np.array_equal(sched.fractional.sum(axis=0), np.ones(n_m))
            assert np.array_equal(sched.binary.sum(axis=0), np.ones(n_m))
            assert np.all(sched.binary[~active, :] == 0.0)
        else:
            assert sched.cluster_load == 0.0


def test_overload_flag_and_rate_scale():
    sched = solve_cluster_schedule(np.array([[0.7, 0.6]]), [0], [0, 1],
                                   np.array([True]))
    assert sched.cluster_load == pytest.approx(1.3)
    assert sched.overload
    sched = solve_cluster_schedule(np.array([[0.3, 0.2]]), [0], [0, 1],
                                   np.array([True]))
    assert not sched.overload


def test_uncovered_ues_error():
    with pytest.raises(UncoveredUEsError):
        solve_cluster_schedule(np.array([[0.1], [0.2]]), [0, 1], [0],
                               np.array([False, False]))
    # no UEs means nothing to cover even when everyone sleeps
    sched = solve_cluster_schedule(np.zeros((2, 0)), [0, 1], [],
                                   np.array([False, False]))
    assert sched.cluster_load == 0.0 and not sched.overload


def test_shape_validation():
    with pytest.raises(ValueError):
        solve_cluster_schedule(np.zeros((2, 3)), [0], [0, 1, 2],
                               np.array([True, True]))
    with pytest.raises(ValueError):
        solve_cluster_schedule(np.zeros((2, 3)), [0, 1], [0],
                               np.array([True, True]))
