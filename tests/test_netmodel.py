"""Channel gain, SINR rate, load fixed point, and power model tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scnsim.association import associate_all
from scnsim.config import default_config
from scnsim.netmodel import (
    MACRO,
    SMALL,
    InactiveServerError,
    NetworkConfiguration,
    compute_loads,
    dbm_to_watt,
    exclusion_matrix,
    gain,
    gain_matrix,
    noise_w,
    pathloss_db,
    rate_matrix,
    total_powers,
)
from scnsim.sim import generate_scenario


# the default clamp distances: 35 m (macro) and 10 m (small cell)
LAYOUT = default_config().layout


def all_on(n):
    """Unit transmit powers and all-on states for n BSs."""
    return np.ones(n), np.ones(n, dtype=np.int64)


def macro_drop(rng, n_bs):
    """Macro at the centre (39.8 W) and n_bs - 1 small cells (1 W) in 1 km^2.

    Returns (positions, macro mask, p_max).
    """
    pos = np.vstack([[500.0, 500.0], rng.uniform(0, 1000, size=(n_bs - 1, 2))])
    macro = np.arange(n_bs) == 0
    return pos, macro, np.where(macro, 39.8, 1.0)


def test_dbm_watt_conversions():
    assert dbm_to_watt(30.0) == pytest.approx(1.0, abs=1e-15)
    assert dbm_to_watt(46.0) == pytest.approx(39.810717055349734, rel=1e-14)
    assert dbm_to_watt(0.0) == pytest.approx(1e-3, rel=1e-14)


def test_pathloss_reference_values():
    # at d = 1 km the log term vanishes and the offsets read off directly
    assert pathloss_db(MACRO, 1000.0, LAYOUT) == pytest.approx(128.1, abs=1e-12)
    assert pathloss_db(SMALL, 1000.0, LAYOUT) == pytest.approx(140.7, abs=1e-12)
    # one decade closer takes one slope off: 140.7 - 37.6 = 103.1
    assert pathloss_db(SMALL, 100.0, LAYOUT) == pytest.approx(103.1, abs=1e-12)
    assert gain(MACRO, 1000.0, LAYOUT) == pytest.approx(10 ** (-12.81), rel=1e-12)


def test_pathloss_minimum_distance_clamp():
    assert pathloss_db(MACRO, 0.0, LAYOUT) == pathloss_db(MACRO, 35.0, LAYOUT)
    assert pathloss_db(SMALL, 0.0, LAYOUT) == pathloss_db(SMALL, 10.0, LAYOUT)
    assert pathloss_db(MACRO, 1.0, LAYOUT) == pathloss_db(MACRO, 35.0, LAYOUT)
    # the clamp caps the gain at the min-distance value, inside (0, 1]
    rng = np.random.default_rng(7)
    d = rng.uniform(0.0, 5000.0, size=200)
    for kind in (MACRO, SMALL):
        g = gain(kind, d, LAYOUT)
        assert np.all(g > 0.0) and np.all(g <= 1.0)


def test_gain_monotone_in_distance():
    d = np.linspace(10.0, 3000.0, 300)
    for kind in (MACRO, SMALL):
        g = gain(kind, d, LAYOUT)
        assert np.all(np.diff(g) <= 0.0)


def reference_gain_matrix(bs_positions, macro, ue_positions, layout):
    """gain_matrix as one hypot and one gain() call per station."""
    pos = np.asarray(ue_positions, dtype=float).reshape(-1, 2)
    out = np.empty((len(macro), pos.shape[0]))
    for i, (x, y) in enumerate(np.asarray(bs_positions, dtype=float).tolist()):
        d = np.hypot(pos[:, 0] - x, pos[:, 1] - y)
        out[i] = gain(MACRO if macro[i] else SMALL, d, layout)
    return out


def test_gain_matrix_against_scalar():
    pts = np.array([[30.0, 40.0], [500.0, 0.0]])
    mat = gain_matrix(np.array([[0.0, 0.0], [100.0, 0.0]]),
                      np.array([True, False]), pts, LAYOUT)
    assert mat.shape == (2, 2)
    assert mat[0, 0] == gain(MACRO, 50.0, LAYOUT)
    assert mat[1, 1] == gain(SMALL, 400.0, LAYOUT)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n_bs=st.integers(0, 16),
    n_ues=st.integers(0, 90),
    side=st.sampled_from([20.0, 150.0, 1000.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gain_matrix_matches_per_station_loop(n_bs, n_ues, side, seed):
    # any macro mask, stations and UEs anywhere, distances below both clamps
    rng = np.random.default_rng(seed)
    bs_pos = rng.uniform(0.0, side, size=(n_bs, 2))
    macro = rng.random(n_bs) < 0.3
    ue_pos = rng.uniform(0.0, side, size=(n_ues, 2))
    got = gain_matrix(bs_pos, macro, ue_pos, LAYOUT)
    want = reference_gain_matrix(bs_pos, macro, ue_pos, LAYOUT)
    assert got.shape == want.shape == (n_bs, n_ues)
    assert got.tobytes() == want.tobytes()


def test_rate_snr_one_identity():
    # single BS, gain tuned so P * h equals the noise power: R = bw * log2(2)
    ch = default_config().channel
    gains = np.array([[noise_w(ch) / 1.0]])
    r = rate_matrix(ch, gains, *all_on(1), np.zeros(1), exclusion_matrix(1, None))
    assert r[0, 0] == pytest.approx(ch.bandwidth_hz, rel=1e-12)


def test_rate_two_bs_interference():
    # serving P*h = 10 noise, interferer duty-cycled power rho*P*h = 4 noise:
    # SINR = 10 / (4 + 1) = 2, R = bw * log2(3)
    ch = default_config().channel
    load = np.array([0.0, 0.8])
    gains = np.array([[10.0 * noise_w(ch)], [4.0 * noise_w(ch) / 0.8]])
    r = rate_matrix(ch, gains, *all_on(2), load, exclusion_matrix(2, None))
    assert r[0, 0] == pytest.approx(ch.bandwidth_hz * np.log2(3.0), rel=1e-12)


def test_rate_same_cluster_orthogonalized():
    # the same interferer inside the serving BS's cluster stops counting:
    # SINR = 10, R = bw * log2(11)
    ch = default_config().channel
    load = np.array([0.0, 0.8])
    gains = np.array([[10.0 * noise_w(ch)], [4.0 * noise_w(ch) / 0.8]])
    r = rate_matrix(ch, gains, *all_on(2), load, exclusion_matrix(2, [(0, 1)]))
    expected = ch.bandwidth_hz * np.log2(11.0)
    assert r[0, 0] == pytest.approx(expected, rel=1e-12)
    # a sleeping interferer is equally silent, cluster or not
    r = rate_matrix(ch, gains, np.ones(2), np.array([1, 0]), load,
                    exclusion_matrix(2, None))
    assert r[0, 0] == pytest.approx(expected, rel=1e-12)


def test_rate_monotonicity():
    ch = default_config().channel
    gains = np.array([[3e-13], [1e-13]])
    excl = exclusion_matrix(2, None)

    def rate_at(p_serve, rho_interf):
        return rate_matrix(ch, gains, np.array([p_serve, 1.0]), np.ones(2),
                           np.array([0.0, rho_interf]), excl)[0, 0]

    powers = np.linspace(0.1, 1.0, 8)
    rates = [rate_at(p, 0.5) for p in powers]
    assert np.all(np.diff(rates) >= 0.0)
    loads = np.linspace(0.0, 1.0, 8)
    rates = [rate_at(1.0, rho) for rho in loads]
    assert np.all(np.diff(rates) <= 0.0)


def test_loads_empty_and_single_ue():
    ch = default_config().channel
    res = compute_loads(ch, np.zeros((1, 0)), *all_on(1),
                        np.zeros(0, dtype=int), np.zeros(0))
    assert res.converged and res.load[0] == 0.0 and res.load_raw[0] == 0.0

    # gain tuned for R = 1.8 Mbit/s; 180 kbit/s of demand then loads it to 0.1
    sinr = 2.0 ** 0.18 - 1.0
    gains = np.array([[sinr * noise_w(ch)]])
    res = compute_loads(ch, gains, *all_on(1), np.array([0]),
                        np.array([180e3]))
    assert res.converged
    assert res.load[0] == pytest.approx(0.1, abs=1e-5)
    assert res.load_raw[0] == pytest.approx(0.1, abs=1e-5)


def test_loads_symmetric_pair():
    ch = default_config().channel
    gains = np.array([[2e-12, 4e-14], [4e-14, 2e-12]])
    serving = np.array([0, 1])
    traffic = np.array([5e5, 5e5])
    res = compute_loads(ch, gains, *all_on(2), serving, traffic)
    assert res.converged
    assert res.load[0] == pytest.approx(res.load[1], rel=1e-9)
    assert 0.0 < res.load[0] < 1.0


def test_load_locality_single_sweep():
    # with interference frozen, moving a UE between BSs a and b cannot
    # change the load of a third BS c
    ch = default_config().channel
    rng = np.random.default_rng(3)
    gains = rng.uniform(1e-14, 1e-12, size=(3, 4))
    traffic = rng.uniform(1e5, 5e5, size=4)
    frozen = np.array([0.3, 0.2, 0.1])

    s1 = np.array([0, 0, 1, 2])
    s2 = np.array([0, 1, 1, 2])  # UE 1 moves a -> b
    res1 = compute_loads(ch, gains, *all_on(3), s1, traffic,
                         max_iter=1, init=frozen)
    res2 = compute_loads(ch, gains, *all_on(3), s2, traffic,
                         max_iter=1, init=frozen)
    assert res1.load_raw[2] == res2.load_raw[2]
    assert res2.load_raw[1] > res1.load_raw[1]


def test_load_fixed_point_identity():
    # a converged load vector reproduces itself through one frozen sweep
    ch = default_config().channel
    rng = np.random.default_rng(5)
    rng.uniform(0, 500, size=(4, 2))  # BS positions: unused, drawn as before
    gains = rng.uniform(1e-13, 5e-12, size=(4, 6))
    traffic = rng.uniform(1e5, 1e6, size=6)
    serving = rng.integers(0, 4, size=6)

    res = compute_loads(ch, gains, *all_on(4), serving, traffic, tol=1e-9)
    assert res.converged
    again = compute_loads(ch, gains, *all_on(4), serving, traffic,
                          max_iter=1, init=res.load)
    assert np.max(np.abs(again.load - res.load)) < 1e-6


def _reference_loads(ch, gains, power, state, z, traffic, excl, tol, max_iter,
                     init):
    """The fixed point as a plain loop over full rate_matrix evaluations."""
    n_bs = len(power)
    serving = np.argmax(z, axis=0)
    x = np.zeros(n_bs) if init is None else np.clip(init, 0.0, 1.0)
    raw = np.zeros(n_bs)
    converged, iterations = False, 0
    for iterations in range(1, max_iter + 1):
        rates = rate_matrix(ch, gains, power, state, x, excl)
        serving_rate = rates[serving, np.arange(len(serving))]
        raw = np.bincount(serving, weights=traffic / serving_rate, minlength=n_bs)
        x_new = np.minimum(raw, 1.0)
        if np.max(np.abs(x_new - x)) < tol:
            x, converged = x_new, True
            break
        x = x_new
    return np.minimum(x, 1.0), raw, converged, iterations


@pytest.mark.parametrize("full_share, tol, max_iter, warm", [
    (0.5, 1e-6, 200, False),
    (0.5, 1e-6, 200, True),
    (1.0, 1e-9, 200, True),
    (0.5, 1e-12, 3, False),  # stops at max_iter unconverged
    (1.0, 1e-6, 1, True),  # one frozen-interference sweep
])
def test_compute_loads_matches_rate_matrix_loop(full_share, tol, max_iter, warm):
    # clustered exclusion, one sleeping SBS and transmit levels drawn per
    # station (p_max with probability full_share, else 0.6 p_max; 1.0 is
    # World's every-station-at-p_max case): the hoisted solver must equal
    # the loop exactly
    ch = default_config().channel
    rng = np.random.default_rng(17)
    clusters = [(1, 2, 3), (4, 5)]
    for _ in range(8):
        pos, macro, p_max = macro_drop(rng, 7)
        n_ue = 15
        gains = gain_matrix(pos, macro, rng.uniform(0, 1000, size=(n_ue, 2)), LAYOUT)
        traffic = rng.exponential(3e5, size=n_ue)
        power = np.where(rng.random(7) < full_share, p_max, 0.6 * p_max)
        state = np.array([1, 1, 0, 1, 1, 1, 1])
        serving = rng.choice([0, 1, 3, 4, 5, 6], size=n_ue)
        z = np.zeros((7, n_ue))
        z[serving, np.arange(n_ue)] = 1.0
        init = rng.uniform(0, 1.2, size=7) if warm else None
        excl = exclusion_matrix(7, clusters)

        got = compute_loads(ch, gains, power, state, serving, traffic,
                            excl=excl, tol=tol, max_iter=max_iter, init=init)
        load, raw, converged, iterations = _reference_loads(
            ch, gains, power, state, z, traffic, excl, tol, max_iter,
            init)
        assert np.array_equal(got.load, load)
        assert np.array_equal(got.load_raw, raw)
        assert got.converged == converged
        assert got.iterations == iterations
        assert got.load_raw[2] == 0.0  # the sleeping SBS carries nothing


def test_compute_loads_counts_iterations():
    ch = default_config().channel
    power, state = all_on(2)
    gains = np.array([[2e-12, 4e-14], [4e-14, 2e-12]])
    serving, traffic = np.array([0, 1]), np.array([5e5, 5e5])
    res = compute_loads(ch, gains, power, state, serving, traffic)
    assert res.converged and 1 < res.iterations < 200
    capped = compute_loads(ch, gains, power, state, serving, traffic, max_iter=2)
    assert not capped.converged and capped.iterations == 2
    sweep = compute_loads(ch, gains, power, state, serving, traffic, max_iter=1,
                          init=res.load)
    assert sweep.iterations == 1
    # no excl is the identity exclusion: every other BS interferes
    assert np.array_equal(
        compute_loads(ch, gains, power, state, serving, traffic,
                      excl=exclusion_matrix(2, None)).load, res.load)
    assert NetworkConfiguration(state, np.zeros(2), np.zeros(2)).iterations == 0


def test_nan_loads_never_read_as_converged():
    # a NaN init load poisons every rate; BS 0 serves no UE, so its step is
    # 0 and only BS 1's is NaN, after it: a max over the steps that skips
    # NaN would read converged
    ch = default_config().channel
    gains = np.array([[2e-12, 4e-14], [4e-14, 2e-12]])
    with np.errstate(invalid="ignore"):
        res = compute_loads(ch, gains, *all_on(2), np.array([1, 1]), np.array([5e5, 5e5]),
                            init=np.array([0.0, np.nan]), max_iter=3)
    assert np.isnan(res.load[1]) and res.load[0] == 0.0
    assert not res.converged and res.iterations == 3


def test_own_cell_term_equals_identity_gemm():
    # without excl, compute_loads takes w[srv] * gains[srv, cols] for the
    # excluded term instead of ((eye * w) @ gains)[srv, cols]; the gemm adds
    # only exact zeros to that one product, so the two agree bit for bit
    rng = np.random.default_rng(2)
    for _ in range(3000):
        n_bs, n_ue = int(rng.integers(1, 30)), int(rng.integers(1, 90))
        gains = 10.0 ** rng.uniform(-16.0, -8.0, size=(n_bs, n_ue))
        w = rng.uniform(0.0, 40.0, size=n_bs) * (rng.random(n_bs) < 0.8)
        srv = rng.integers(0, n_bs, size=n_ue)
        cols = np.arange(n_ue)
        gemm = ((np.eye(n_bs, dtype=bool) * w[None, :]) @ gains)[srv, cols]
        assert (w[srv] * gains[srv, cols]).tobytes() == gemm.tobytes()


def test_compute_loads_without_excl_equals_identity_excl():
    ch = default_config().channel
    rng = np.random.default_rng(23)
    for _ in range(60):
        n_bs, n_ue = int(rng.integers(2, 12)), int(rng.integers(0, 60))
        pos, macro, p_max = macro_drop(rng, n_bs)
        gains = gain_matrix(pos, macro, rng.uniform(0, 1000, size=(n_ue, 2)), LAYOUT)
        traffic = rng.exponential(3e5, size=n_ue)
        state = (rng.random(n_bs) < 0.7).astype(np.int64)
        state[0] = 1
        serving = rng.choice(np.flatnonzero(state), size=n_ue)
        init = rng.uniform(0, 1, size=n_bs)
        a = compute_loads(ch, gains, p_max, state, serving, traffic, init=init)
        b = compute_loads(ch, gains, p_max, state, serving, traffic, init=init,
                          excl=exclusion_matrix(n_bs, None))
        assert a.load.tobytes() == b.load.tobytes()
        assert a.load_raw.tobytes() == b.load_raw.tobytes()
        assert (a.converged, a.iterations) == (b.converged, b.iterations)


def test_compute_loads_rejects_sleeping_server():
    ch = default_config().channel
    with pytest.raises(InactiveServerError):
        compute_loads(ch, np.full((2, 1), 1e-13), np.ones(2), np.array([1, 0]),
                      np.array([1]), np.array([1e5]))


def test_compute_loads_rejects_negative_serving_entry():
    # every UE is served; a -1 entry is a caller's bad input, not "unserved"
    ch = default_config().channel
    with pytest.raises(ValueError):
        compute_loads(ch, np.full((2, 2), 1e-13), np.ones(2), np.array([1, 1]),
                      np.array([0, -1]), np.array([1e5, 1e5]))
    # -1 would wrap to the last station; asleep, it must not pass for a
    # sleeping server (InactiveServerError is a RuntimeError)
    with pytest.raises(ValueError, match=r"UEs \[1\] have negative serving entries"):
        compute_loads(ch, np.full((2, 2), 1e-13), np.ones(2), np.array([1, 0]),
                      np.array([0, -1]), np.array([1e5, 1e5]))


def test_exclusion_matrix():
    excl = exclusion_matrix(4, [(1, 2)])
    assert np.array_equal(np.diag(excl), np.ones(4, dtype=bool))
    assert excl[1, 2] and excl[2, 1]
    assert not excl[0, 1] and not excl[3, 2]
    assert np.array_equal(exclusion_matrix(3, None), np.eye(3, dtype=bool))
    assert np.array_equal(exclusion_matrix(3, []), np.eye(3, dtype=bool))
    # random partitions, some BSs left out, against the per-cluster loop
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(1, 16))
        label = rng.integers(-1, 4, size=n)  # -1: in no cluster
        clusters = [tuple(np.flatnonzero(label == j).tolist())
                    for j in rng.permutation(4) if np.any(label == j)]
        want = np.eye(n, dtype=bool)
        for members in clusters:
            want[np.ix_(members, members)] = True
        got = exclusion_matrix(n, clusters)
        assert got.dtype == bool and np.array_equal(got, want)


def total_power(p_max, p_idle, scale, state, load):
    """The two-state power model for one BS, the oracle for total_powers.

    load is the clamped duty cycle, p_max the transmit power while on.
    """
    if state == 0:
        return p_idle
    return load * p_max + scale * p_idle


def test_total_power_branches():
    assert total_power(1.0, 0.1, 1.1, 0, 0.7) == pytest.approx(0.1, abs=1e-15)
    assert total_power(1.0, 0.1, 1.1, 1, 0.0) == pytest.approx(0.11, abs=1e-15)
    # the two-term active draw: 0.5 * 1 + 1.1 * 0.1 = 0.61 W
    assert total_power(1.0, 0.1, 1.1, 1, 0.5) == pytest.approx(0.61, abs=1e-12)
    assert total_power(0.5, 0.1, 1.1, 1, 0.5) == pytest.approx(0.36, abs=1e-12)


def test_total_powers_vector_matches_scalar():
    rng = np.random.default_rng(9)
    p_max = np.array([39.8, 0.7, 1.0])
    p_idle = np.array([1.0, 0.1, 0.1])
    scale = np.array([1.1, 1.1, 2.0])
    cfg = NetworkConfiguration(np.array([1, 0, 1]), rng.uniform(0, 1, 3), np.zeros(3))
    vec = total_powers(p_max, p_idle, scale, cfg)
    for i in range(3):
        want = total_power(p_max[i], p_idle[i], scale[i], int(cfg.state[i]),
                           float(cfg.load[i]))
        assert vec[i] == pytest.approx(want, rel=1e-14)
    # World passes one active-state multiplier for every BS
    assert total_powers(p_max, p_idle, 1.1, cfg).tobytes() == total_powers(
        p_max, p_idle, np.full(3, 1.1), cfg).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_small=st.integers(0, 12),
    n_ues=st.integers(1, 60),
    mean_rate=st.sampled_from([180e3, 2e6, 2e7]),
    clustered=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_warm_and_cold_started_loads_agree(n_small, n_ues, mean_rate, clustered, seed):
    # the clamped map rho -> min(sum traffic / R(rho), 1) is a standard
    # interference function (Yates 1995), so its plain iteration converges
    # from any start to one fixed point: a warm start anywhere in [0, 1]
    # and the cold start from zero agree within 10 * tol
    cfg = default_config()
    cfg.layout.n_small, cfg.layout.n_ues = n_small, n_ues
    cfg.traffic.mean_rate_bps = mean_rate
    rng = np.random.default_rng(seed)
    bs_pos, macro, ue_pos, traffic = generate_scenario(cfg, rng)
    n_bs = macro.size
    ch = cfg.channel
    gains = gain_matrix(bs_pos, macro, ue_pos, cfg.layout)
    power = np.where(macro, 39.8, 1.0)
    state = rng.integers(0, 2, size=n_bs)
    state[0] |= not state.any()
    serving = associate_all(power[:, None] * gains, state, np.zeros(n_bs), 0.0)
    excl = None
    if clustered:
        labels = rng.integers(0, max(1, n_bs // 2), size=n_bs)
        excl = exclusion_matrix(n_bs, [np.flatnonzero(labels == k) for k in set(labels)])
    tol = 1e-6
    loads = [
        compute_loads(ch, gains, power, state, serving, traffic, excl=excl,
                      tol=tol, max_iter=200, init=init)
        for init in (rng.uniform(0.0, 1.0, size=n_bs), None)
    ]
    assert all(net.converged for net in loads)
    assert np.all((loads[0].load >= 0) & (loads[0].load <= 1))
    assert np.max(np.abs(loads[0].load - loads[1].load)) <= 10 * tol
