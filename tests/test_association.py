"""Load-aware association and slow load-estimate tests."""

import numpy as np
import pytest

from scnsim.association import associate_all, update_load_estimate


def associate(rx_power, state, rho_hat, delta=1.0):
    """One UE's serving station, scored on its own: the oracle of associate_all.

    Scores active stations by (1 - rho_hat)^delta * rx_power; ties break by
    raw received power, then by lowest station index.
    """
    rx_power = np.asarray(rx_power, dtype=float)
    rho_hat = np.asarray(rho_hat, dtype=float)
    active = np.flatnonzero(np.asarray(state) != 0)
    scores = np.power(1.0 - rho_hat[active], delta) * rx_power[active]
    tied = active[scores == scores.max()]
    if tied.size > 1:
        tied = tied[rx_power[tied] == rx_power[tied].max()]
    return int(tied[0])


def pick(rx_power, state, rho_hat, delta=1.0):
    """associate_all for a single UE."""
    return int(associate_all(np.asarray(rx_power)[:, None], state, rho_hat, delta)[0])


def test_load_aware_choice():
    rx = np.array([2.0, 1.0])
    rho_hat = np.array([0.75, 0.25])
    state = np.array([1, 1])
    # scores (0.5, 0.75): the lightly loaded station wins despite weaker signal
    assert pick(rx, state, rho_hat, delta=1.0) == 1
    # delta = 0 ignores load and reverts to strongest signal
    assert pick(rx, state, rho_hat, delta=0.0) == 0


def test_delta_zero_matches_rssi():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        rx = rng.lognormal(0.0, 2.0, size=n)
        state = (rng.random(n) < 0.6).astype(int)
        if not state.any():
            state[int(rng.integers(n))] = 1
        rho_hat = rng.uniform(0.0, 1.0, size=n)
        best, choice = -np.inf, -1
        for b in range(n):
            if state[b] and rx[b] > best:
                best, choice = rx[b], b
        assert pick(rx, state, rho_hat, delta=0.0) == choice


def test_sleeping_station_never_chosen():
    rx = np.array([10.0, 1.0, 2.0])
    state = np.array([0, 1, 1])
    assert pick(rx, state, np.zeros(3), delta=1.0) == 2


def test_every_station_asleep_raises():
    # a World's macro never sleeps, so this is a caller's bad input
    with pytest.raises(ValueError, match="every station is asleep"):
        associate_all(np.ones((2, 3)), np.array([0, 0]), np.zeros(2))


def test_tie_breaks_by_raw_power_then_index():
    # scores tie at 1.0 but station 1 has the stronger raw signal
    rx = np.array([1.0, 2.0])
    rho_hat = np.array([0.0, 0.5])
    assert pick(rx, np.array([1, 1]), rho_hat, delta=1.0) == 1
    # fully identical stations fall back to the lowest index
    assert pick(np.array([1.0, 1.0]), np.array([1, 1]),
                     np.array([0.3, 0.3]), delta=1.0) == 0


def test_scale_invariance():
    rng = np.random.default_rng(11)
    for _ in range(50):
        rx = rng.lognormal(0.0, 1.5, size=4)
        rho_hat = rng.uniform(0.0, 0.9, size=4)
        state = np.array([1, 1, 0, 1])
        base = pick(rx, state, rho_hat, delta=1.0)
        assert pick(rx * 1e6, state, rho_hat, delta=1.0) == base


def test_associate_all_matches_scalar():
    rng = np.random.default_rng(23)
    for delta in (0.0, 0.7, 1.0):
        rx = rng.lognormal(0.0, 1.0, size=(5, 12))
        rx[:, 6] = rx[:, 2]  # duplicated column
        rx[3, :] = rx[1, :]  # duplicated station forces ties
        state = np.array([1, 1, 0, 1, 1])
        rho_hat = rng.uniform(0.0, 0.8, size=5)
        rho_hat[3] = rho_hat[1]
        serving = associate_all(rx, state, rho_hat, delta=delta)
        for m in range(12):
            assert serving[m] == associate(rx[:, m], state, rho_hat, delta)


def test_associate_all_planted_ties_match_scalar():
    # exact score ties planted three ways: equal raw power at equal load,
    # a weaker signal at a lighter load (delta = 1 halves 4.0 to 2.0), and
    # ties on sleeping stations that must not count
    rng = np.random.default_rng(8)
    for trial in range(400):
        n_bs, n_ue = int(rng.integers(1, 7)), int(rng.integers(1, 25))
        rx = rng.integers(1, 5, size=(n_bs, n_ue)).astype(float)
        rho_hat = rng.choice([0.0, 0.5, 0.75], size=n_bs)
        state = (rng.random(n_bs) < 0.6).astype(int)
        if not state.any():
            state[int(rng.integers(n_bs))] = 1
        delta = [0.0, 1.0, 2.0][trial % 3]
        serving = associate_all(rx, state, rho_hat, delta=delta)
        for m in range(n_ue):
            assert serving[m] == associate(rx[:, m], state, rho_hat, delta)
        assert np.all(state[serving] == 1)
    # a sleeping station with the strongest tied signal is skipped
    rx = np.array([[2.0], [4.0], [4.0], [2.0]])
    state = np.array([1, 0, 1, 1])
    rho_hat = np.array([0.0, 0.0, 0.5, 0.0])
    assert associate_all(rx, state, rho_hat, delta=1.0).tolist() == [2]
    assert associate(rx[:, 0], state, rho_hat, delta=1.0) == 2


def test_estimator_first_step_snaps_to_load():
    rho_hat = np.zeros(2)
    update_load_estimate(rho_hat, np.array([0.6, 0.3]), t=1)
    # nu(1) = 1, so the estimate jumps straight onto the observed load
    assert np.array_equal(rho_hat, [0.6, 0.3])


def test_estimator_second_step_value():
    rho_hat = np.zeros(2)
    update_load_estimate(rho_hat, np.array([0.6, 0.3]), t=1)
    update_load_estimate(rho_hat, np.array([0.2, 0.3]), t=2)
    # 0.6 + (0.2 - 0.6) / 2^0.9
    assert rho_hat[0] == pytest.approx(0.3856453074927414, abs=1e-15)
    assert rho_hat[1] == pytest.approx(0.3, abs=1e-15)


def test_estimator_tracks_constant_signal():
    rng = np.random.default_rng(5)
    rho_hat = np.zeros(1)
    for t in range(1, 11):
        update_load_estimate(rho_hat, rng.uniform(0.0, 1.0, size=1), t)
    for t in range(11, 2001):
        update_load_estimate(rho_hat, np.array([0.8]), t)
    assert abs(rho_hat[0] - 0.8) < 1e-3


def test_estimator_stays_in_unit_interval():
    rng = np.random.default_rng(17)
    rho_hat = rng.uniform(0.0, 1.0, size=4)
    for t in range(1, 200):
        update_load_estimate(rho_hat, rng.uniform(0.0, 1.0, size=4), t)
        assert np.all(rho_hat >= 0.0) and np.all(rho_hat <= 1.0)


def test_time_index_validation():
    rho_hat = np.zeros(2)
    with pytest.raises(ValueError):
        update_load_estimate(rho_hat, np.zeros(2), t=0)
