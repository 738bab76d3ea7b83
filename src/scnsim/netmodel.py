"""Downlink physical layer and power model for a co-channel small-cell network.

Implements distance-based channel gains, SINR rates with state-dependent
interference, the load-coupled fixed point that ties per-BS loads to rates,
and the two-state base-station power model

    P_total = p_idle                               if sleeping
    P_total = load * p_max + scale * p_idle        if active, scale > 1

where load is the BS duty cycle and p_max its transmit power: an awake BS
always transmits at p_max. Stations are described by arrays indexed by BS:
positions, a macro mask, p_max, p_idle.
All powers are in watts, distances in metres, rates in bit/s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:
    from .config import ChannelConfig, LayoutConfig

MACRO = "macro"
SMALL = "small"
# log-distance path loss PL(d) = offset + slope * log10(d_km), dB, per BS kind
PATHLOSS_DB = {MACRO: (128.1, 37.6), SMALL: (140.7, 37.6)}


class InactiveServerError(RuntimeError):
    """A sleeping BS was asked to serve a UE."""


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def noise_w(channel: ChannelConfig) -> float:
    """Thermal noise power over the full band, watts."""
    return dbm_to_watt(channel.noise_psd_dbm_hz) * channel.bandwidth_hz


def pathloss_db(
    kind: str, distance_m: np.ndarray | float, layout: LayoutConfig
) -> np.ndarray:
    """Log-distance path loss per BS kind:

    PL_macro(d) = 128.1 + 37.6 log10(d_km)   [dB]
    PL_small(d) = 140.7 + 37.6 log10(d_km)   [dB]

    Distances below the kind's UE minimum in layout are clamped to it;
    validate_config holds each minimum where its gain 10^(-PL/10) is at
    most 1, so every gain lies inside (0, 1].
    """
    if kind not in PATHLOSS_DB:
        raise ValueError(f"unknown BS kind {kind!r}")
    return _pathloss_db(np.asarray(distance_m, dtype=float), kind == MACRO, layout)


def _pathloss_db(d: np.ndarray, macro, layout: LayoutConfig) -> np.ndarray:
    """pathloss_db elementwise, the macro law where macro (a bool, or a mask
    that broadcasts against d) holds, else the small-cell one."""
    offset, slope, floor = (np.where(macro, m, s) for m, s in zip(
        (*PATHLOSS_DB[MACRO], layout.min_dist_macro_ue_m),
        (*PATHLOSS_DB[SMALL], layout.min_dist_small_ue_m)))
    return offset + slope * np.log10(np.maximum(d, floor) / 1000.0)


def gain(kind: str, distance_m: np.ndarray | float, layout: LayoutConfig) -> np.ndarray:
    return 10.0 ** (-pathloss_db(kind, distance_m, layout) / 10.0)


def gain_matrix(
    bs_positions: np.ndarray, macro: np.ndarray, ue_positions: np.ndarray,
    layout: LayoutConfig,
) -> np.ndarray:
    """(n_bs, n_ue) channel gains; positions are (n, 2) in metres.

    macro[b] selects the macro path-loss law for BS b, else the small-cell
    one. One pass over every station, each row with its own law's terms:
    elementwise, so each entry rounds as gain() does.
    """
    pos = np.asarray(ue_positions, dtype=float).reshape(-1, 2)
    bs = np.asarray(bs_positions, dtype=float).reshape(-1, 2)
    d = np.hypot(pos[:, 0] - bs[:, :1], pos[:, 1] - bs[:, 1:])
    macro = np.asarray(macro, dtype=bool)[:, None]
    return 10.0 ** (-_pathloss_db(d, macro, layout) / 10.0)


@dataclass
class NetworkConfiguration:
    """Joint state/load snapshot of all BSs, index-aligned to the station arrays."""

    state: np.ndarray  # 1 active, 0 sleeping
    load: np.ndarray  # duty cycle in [0, 1]
    load_raw: np.ndarray  # unclamped load, for cost accounting
    converged: bool = True
    iterations: int = 0  # load fixed-point iterations that produced `load`


def cluster_labels(n_bs: int, clusters: Sequence[Sequence[int]] | None) -> np.ndarray:
    """Cluster index per BS (-1: in no cluster); clusters must be disjoint."""
    label = np.full(n_bs, -1, dtype=int)
    for i, members in enumerate(clusters or ()):
        label[list(members)] = i
    return label


def exclusion_matrix(n_bs: int, clusters: Sequence[Sequence[int]] | None) -> np.ndarray:
    """Boolean (n_bs, n_bs); entry [b, b'] True when b' never interferes with b.

    The diagonal is always excluded. Members of a common cluster are mutually
    excluded because the cluster head time-orthogonalizes their transmissions.
    """
    label = cluster_labels(n_bs, clusters)
    same = (label[:, None] == label[None, :]) & (label >= 0)[:, None]
    return same | np.eye(n_bs, dtype=bool)


def rate_matrix(
    channel: ChannelConfig,
    gains: np.ndarray,
    power: np.ndarray,
    state: np.ndarray,
    load: np.ndarray,
    excl: np.ndarray,
) -> np.ndarray:
    """(n_bs, n_ue) achievable rates, bit/s.

    Entry [b, m] is the Shannon rate BS b offers UE m while every other
    active BS outside b's exclusion set transmits at its duty-cycled power
    load * power. Sleeping BSs (state 0) neither serve nor interfere; rows
    of sleeping BSs are 0.
    """
    w = load * power * state  # effective interference power per BS
    total = w @ gains  # (n_ue,) all-BS interference at each UE
    # remove each serving BS's own exclusion set from the total
    excluded = (excl * w[None, :]) @ gains  # (n_bs, n_ue)
    denom = total[None, :] - excluded + noise_w(channel)
    sinr = (power * state)[:, None] * gains / denom
    return channel.bandwidth_hz * np.log2(1.0 + sinr)


class LoadSetup(NamedTuple):
    """compute_loads's loop invariants for one (state, serving, excl).

    srv is serving as intp and flat its entries of the flattened
    (n_bs, n_ue) arrays; tx is power * state, own_gain and signal the
    serving station's gain and received power per UE, excl_w the float
    exclusion matrix (None: each BS excludes only itself), consts the noise,
    bandwidth and 1.0 per UE and 1.0 per BS: numpy applies an array operand
    faster than a Python float, and rounds the same.
    """

    srv: np.ndarray
    flat: np.ndarray
    own_gain: np.ndarray
    tx: np.ndarray
    signal: np.ndarray
    excl_w: np.ndarray | None
    consts: tuple[np.ndarray, ...]


@lru_cache(maxsize=16)
def _constants(n_ue: int, n_bs: int, noise: float, bandwidth: float) -> tuple[np.ndarray, ...]:
    """LoadSetup.consts, read-only, so all set-ups of a shape and channel share one."""
    per_ue, per_bs = np.full((3, n_ue), [[noise], [bandwidth], [1.0]]), np.ones(n_bs)
    per_ue.flags.writeable = per_bs.flags.writeable = False
    return (*per_ue, per_bs)


def load_setup(
    channel: ChannelConfig,
    gains: np.ndarray,
    power: np.ndarray,
    state: np.ndarray,
    serving: np.ndarray,
    excl: np.ndarray | None = None,
) -> LoadSetup:
    """Check serving against state and build compute_loads's loop invariants."""
    n_ue = gains.shape[1]
    srv = np.asarray(serving, dtype=np.intp)
    if np.count_nonzero(state[srv]) < srv.size:
        negative = np.flatnonzero(srv < 0).tolist()
        if negative:
            raise ValueError(f"UEs {negative} have negative serving entries")
        bad = np.flatnonzero(state[srv] == 0).tolist()
        raise InactiveServerError(f"UEs {bad} assigned to sleeping BSs")
    # state is 0/1, so x * (power * state) rounds as (x * power) * state does
    tx = power * state
    flat = srv * n_ue + np.arange(n_ue)
    own_gain = gains.ravel()[flat]
    excl_w = None if excl is None else np.asarray(excl, dtype=float)
    return LoadSetup(srv, flat, own_gain, tx, tx[srv] * own_gain, excl_w,
                     _constants(n_ue, state.size, noise_w(channel), channel.bandwidth_hz))


def compute_loads(
    channel: ChannelConfig,
    gains: np.ndarray,
    power: np.ndarray,
    state: np.ndarray,
    serving: np.ndarray,
    traffic: np.ndarray,
    excl: np.ndarray | None = None,
    tol: float = 1e-6,
    max_iter: int = 200,
    init: np.ndarray | None = None,
    airtime: np.ndarray | None = None,
) -> NetworkConfiguration:
    """Solve the load-coupled fixed point rho_b = sum_{m -> b} traffic_m / R_b(x_m).

    Rates depend on every BS's duty cycle through interference, so the
    clamped load vector x <- min(sum traffic / R(x), 1) is iterated until it
    moves less than tol in max-norm (or max_iter is hit; the result's
    converged flag records which). That clamped map is a standard
    interference function (positive, monotone, scalable; Yates 1995), so
    the iteration converges from any init. Pass max_iter=1 with an explicit
    init for a single frozen-interference sweep. Returns a new configuration
    carrying a copy of state, the clamped load, the raw (unclamped) load at
    the converged interference state, the convergence flag and the number
    of iterations run.

    serving holds one active BS index per UE. excl is rate_matrix's
    exclusion matrix (None: each BS excludes only itself). Iterations
    evaluate rate_matrix at the serving entries only, with the same
    full-size products, so the rounding is rate_matrix's bit for bit.
    Without excl the excluded term is the serving BS's own power times its
    gain, the single nonzero product of rate_matrix's identity-matrix sum.

    airtime, when given, is traffic / rate_matrix(channel, gains, power,
    state, init, excl) for an init in [0, 1]: the first iteration's per-UE
    airtimes sit at its serving entries, so that iteration reads them
    instead of sweeping. It still counts as iteration 1.
    """
    setup = load_setup(channel, gains, power, state, serving, excl)
    # clamped as np.clip does it, -0.0 to +0.0 included
    x = np.zeros(gains.shape[0]) if init is None else np.minimum(np.maximum(init, 0.0), 1.0)
    return NetworkConfiguration(state.copy(), *_fixed_point(
        setup, gains, traffic, x, tol, max_iter, airtime))


def _fixed_point(setup: LoadSetup, gains: np.ndarray, traffic: np.ndarray, x: np.ndarray,
                 tol: float, max_iter: int,
                 airtime: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, bool, int]:
    """compute_loads's iteration from loads x in [0, 1], with no -0.0, as a
    solve returns them: (load, raw load, converged, iterations)."""
    srv, flat, own_gain, tx, signal, excl_w, (noise, bandwidth, one, cap) = setup
    rate = np.empty(srv.size)
    converged, iterations = False, 0
    for iterations in range(1, max_iter + 1):
        if airtime is not None:
            rate, airtime = airtime.ravel()[flat], None
        else:
            # full-size matmuls keep rate_matrix's rounding bit for bit
            w = x * tx
            denom = w @ gains
            if excl_w is None:
                excluded = w[srv]
                excluded *= own_gain
            else:
                excluded = ((excl_w * w) @ gains).ravel()[flat]
            denom -= excluded
            denom += noise
            np.divide(signal, denom, out=rate)
            rate += one
            np.log2(rate, out=rate)
            rate *= bandwidth
            np.divide(traffic, rate, out=rate)  # per-UE airtime
        raw = np.bincount(srv, weights=rate, minlength=cap.size)
        x_new = np.minimum(raw, cap)
        # one Python pass over the few BSs; like numpy's max, NaN never converges
        converged = all(abs(d) < tol for d in (x_new - x).tolist())
        x = x_new
        if converged:
            break
    return x, raw, converged, iterations


def total_powers(
    p_max: np.ndarray,
    p_idle: np.ndarray,
    idle_scale_active: float | np.ndarray,
    cfg: NetworkConfiguration,
) -> np.ndarray:
    """Consumed powers, watts, of BSs with cfg's states and loads.

    p_max and p_idle are the per-BS station parameters, aligned with cfg's
    last axis; the formula is elementwise, so a cfg whose arrays stack
    (steps, n_bs) rows gives each row's powers bit for bit.
    """
    active = cfg.load * p_max + idle_scale_active * p_idle
    return np.where(cfg.state == 1, active, p_idle)
