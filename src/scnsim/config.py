"""Configuration tree and INI loader for the simulator.

Configs are plain dataclasses grouped by concern; ``load_config`` fills them
from a flat INI file and fails fast on unknown sections, unknown keys, or
values that do not parse as the field's type.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .clustering import LAPLACIAN_MODES, LOAD_SIGN_MODES
from .netmodel import MACRO, SMALL, dbm_to_watt, gain, noise_w

MODES = ("classical", "learning_no_clusters", "learning_clustered")
TRAFFIC_DISTRIBUTIONS = ("exponential", "constant")


class ConfigError(ValueError):
    """Bad config file: unknown keys, bad types, or invalid values."""


@dataclass
class LayoutConfig:
    side_m: float = 1000.0  # square service area edge
    n_small: int = 10
    n_ues: int = 50
    min_dist_macro_small_m: float = 75.0
    min_dist_macro_ue_m: float = 35.0
    min_dist_small_small_m: float = 40.0
    min_dist_small_ue_m: float = 10.0


@dataclass
class PowerConfig:
    macro_p_max_dbm: float = 46.0
    macro_p_idle_w: float = 1.0
    small_p_max_dbm: float = 30.0
    small_p_idle_w: float = 0.1
    # active-state overhead multiplier on idle draw; > 1 so sleeping saves
    # the (q - 1) * p_idle base draw on top of the load-scaled transmit term
    idle_scale_active: float = 2.0


@dataclass
class ChannelConfig:
    bandwidth_hz: float = 10e6
    noise_psd_dbm_hz: float = -174.0


@dataclass
class TrafficConfig:
    mean_rate_bps: float = 180e3
    distribution: str = "exponential"  # per-UE draw; "constant" pins the mean


@dataclass
class ClusteringConfig:
    eps_d_m: float = 250.0  # adjacency distance cutoff
    sigma_d_m: float = 300.0  # distance similarity scale
    sigma_l: float = 1.0  # load similarity scale
    theta: float = 0.5  # distance weight in the joint similarity
    load_sign: str = "gaussian"
    laplacian: str = "standard"
    recluster_every: int = 50  # steps between partition refreshes
    kmeans_iters: int = 100


@dataclass
class AssociationConfig:
    delta: float = 1.0  # load-awareness exponent, 0 = RSSI
    nu_exponent: float = 0.9  # load-estimate gain decay


@dataclass
class LearningConfig:
    alpha: float = 0.5  # cost weight on power
    beta: float = 0.5  # cost weight on load
    kappa: float = 10.0  # Boltzmann-Gibbs temperature
    utility_exp: float = 0.6
    regret_exp: float = 0.7
    policy_exp: float = 0.8
    max_actions: int = 1024


@dataclass
class RunConfig:
    mode: str = "learning_clustered"
    steps: int = 400
    runs: int = 20
    seed: int = 1
    burn_in_frac: float = 0.3  # fraction of steps dropped from summaries
    jobs: int = 1  # parallel worker processes for Monte-Carlo runs
    load_tol: float = 1e-6
    load_max_iter: int = 200


@dataclass
class ScenarioConfig:
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    power: PowerConfig = field(default_factory=PowerConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    association: AssociationConfig = field(default_factory=AssociationConfig)
    learning: LearningConfig = field(default_factory=LearningConfig)
    run: RunConfig = field(default_factory=RunConfig)


def default_config() -> ScenarioConfig:
    return ScenarioConfig()


def _coerce(section: str, key: str, raw: str, current):
    kind = type(current)
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {kind.__name__}"
        ) from exc


def _watts(key: str, dbm: float, watts=None) -> float:
    """dbm in watts, or watts() when given; an overflow names config key."""
    try:
        return dbm_to_watt(dbm) if watts is None else watts()
    except OverflowError:
        raise ConfigError(f"{key} = {dbm:g} dBm overflows in watts") from None


def validate_config(cfg: ScenarioConfig) -> None:
    for section in dataclasses.fields(cfg):
        group = getattr(cfg, section.name)
        for f in dataclasses.fields(group):
            value = getattr(group, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{section.name}.{f.name} must be finite, got {value}")
    run, lay, pw = cfg.run, cfg.layout, cfg.power
    macro_p_max = _watts("power.macro_p_max_dbm", pw.macro_p_max_dbm)
    small_p_max = _watts("power.small_p_max_dbm", pw.small_p_max_dbm)
    ch = cfg.channel
    noise = _watts("channel.noise_psd_dbm_hz", ch.noise_psd_dbm_hz, lambda: noise_w(ch))
    with np.errstate(all="ignore"):  # gains at the clamp distances; 0 m gives inf
        ue_gains = {kind: gain(kind, 0.0, lay) for kind in (MACRO, SMALL)}
        # noise-limited rates at the farthest UE each kind of station can
        # serve: the macro from the center to a corner, an SBS corner to corner
        far_rates = ch.bandwidth_hz * np.log2(1.0 + np.array([
            macro_p_max * gain(MACRO, lay.side_m / math.sqrt(2.0), lay),
            small_p_max * gain(SMALL, lay.side_m * math.sqrt(2.0), lay),
        ]) / noise)
    # load estimates lie in [0, 1], so the reciprocal load kernel is at most
    # exp(1 / (2 sigma_l^2)); 4 n_small^2 times that bounds the Laplacian's
    # spectrum and its gaps, which must stay finite
    kernel_room = math.log(sys.float_info.max / 4) - 2 * math.log(max(lay.n_small, 1))
    checks = [
        (run.mode in MODES, f"run.mode must be one of {MODES}, got {run.mode!r}"),
        (run.steps >= 1, "run.steps must be >= 1"),
        (run.runs >= 1, "run.runs must be >= 1"),
        (run.jobs >= 1, "run.jobs must be >= 1"),
        (run.seed >= 0, "run.seed must be >= 0"),
        (0.0 <= run.burn_in_frac < 1.0, "run.burn_in_frac must be in [0, 1)"),
        (run.load_tol > 0, "run.load_tol must be positive"),
        (run.load_max_iter >= 1, "run.load_max_iter must be >= 1"),
        (lay.side_m > 0, "layout.side_m must be positive"),
        (lay.n_small >= 0, "layout.n_small must be >= 0"),
        (lay.n_ues >= 0, "layout.n_ues must be >= 0"),
        *(
            (getattr(lay, key) >= 0, f"layout.{key} must be >= 0")
            for key in (
                "min_dist_macro_small_m", "min_dist_macro_ue_m",
                "min_dist_small_small_m", "min_dist_small_ue_m",
            )
        ),
        (ch.bandwidth_hz > 0, "channel.bandwidth_hz must be positive"),
        # below the least normal float, every SINR at zero load is inf
        (
            sys.float_info.min <= noise < math.inf,
            "channel.noise_psd_dbm_hz over channel.bandwidth_hz overflows or "
            "underflows in watts",
        ),
        (ue_gains[MACRO] <= 1, "layout.min_dist_macro_ue_m must keep the macro gain <= 1"),
        (ue_gains[SMALL] <= 1, "layout.min_dist_small_ue_m must keep the small gain <= 1"),
        (pw.idle_scale_active > 1.0, "power.idle_scale_active must exceed 1"),
        (
            0.0 < pw.macro_p_idle_w < macro_p_max,
            "need 0 < power.macro_p_idle_w < macro p_max (macro_p_max_dbm in W)",
        ),
        (
            0.0 < pw.small_p_idle_w < small_p_max,
            "need 0 < power.small_p_idle_w < small p_max (small_p_max_dbm in W)",
        ),
        # a UE at a zero rate would need infinite airtime
        (
            bool(np.all(far_rates > 0.0)),
            "channel.noise_psd_dbm_hz leaves a station a zero rate across "
            "layout.side_m",
        ),
        (
            cfg.traffic.distribution in TRAFFIC_DISTRIBUTIONS,
            f"traffic.distribution must be one of {TRAFFIC_DISTRIBUTIONS}",
        ),
        (cfg.traffic.mean_rate_bps > 0, "traffic.mean_rate_bps must be positive"),
        (cfg.clustering.recluster_every >= 1, "clustering.recluster_every must be >= 1"),
        (cfg.clustering.kmeans_iters >= 1, "clustering.kmeans_iters must be >= 1"),
        (cfg.clustering.sigma_d_m > 0, "clustering.sigma_d_m must be positive"),
        (cfg.clustering.sigma_l > 0, "clustering.sigma_l must be positive"),
        (
            cfg.clustering.load_sign != "reciprocal"
            or kernel_room > 0 and cfg.clustering.sigma_l > 1.0 / math.sqrt(2.0 * kernel_room),
            "clustering.sigma_l is too small for load_sign = reciprocal: its load "
            "kernel overflows",
        ),
        (cfg.clustering.eps_d_m >= 0, "clustering.eps_d_m must be >= 0"),
        (0.0 <= cfg.clustering.theta <= 1.0, "clustering.theta must be in [0, 1]"),
        (
            cfg.clustering.load_sign in LOAD_SIGN_MODES,
            f"clustering.load_sign must be one of {LOAD_SIGN_MODES}",
        ),
        (
            cfg.clustering.laplacian in LAPLACIAN_MODES,
            f"clustering.laplacian must be one of {LAPLACIAN_MODES}",
        ),
        (cfg.learning.alpha >= 0, "learning.alpha must be >= 0"),
        (cfg.learning.beta >= 0, "learning.beta must be >= 0"),
        (cfg.learning.kappa >= 0, "learning.kappa must be >= 0"),
        # gains 1 / t^exp decrease only for exp > 0, and their sum diverges
        # (the stochastic-approximation condition) only for exp <= 1
        *(
            (0.0 < getattr(cfg.learning, key) <= 1.0, f"learning.{key} must be in (0, 1]")
            for key in ("utility_exp", "regret_exp", "policy_exp")
        ),
        # two-timescale learning: the utility estimate moves fastest and
        # the mixed strategy slowest
        (
            cfg.learning.utility_exp < cfg.learning.regret_exp < cfg.learning.policy_exp,
            "need learning.utility_exp < learning.regret_exp < learning.policy_exp",
        ),
        (
            0.0 < cfg.association.nu_exponent <= 1.0,
            "association.nu_exponent must be in (0, 1]",
        ),
        (cfg.learning.max_actions >= 2, "learning.max_actions must be >= 2"),
        (cfg.association.delta >= 0, "association.delta must be >= 0"),
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)


def load_config(path: str) -> ScenarioConfig:
    """Read an INI file into a ScenarioConfig, failing fast on anything odd."""
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None
    )
    loaded = parser.read(path)
    if not loaded:
        raise ConfigError(f"config file not found: {path}")
    cfg = default_config()
    sections = {f.name for f in dataclasses.fields(cfg)}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}]")
        target = getattr(cfg, section)
        known = {f.name for f in dataclasses.fields(target)}
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            setattr(target, key, _coerce(section, key, raw, getattr(target, key)))
    validate_config(cfg)
    return cfg
