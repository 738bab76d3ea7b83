"""Config defaults, INI loading, coercion, and validation tests."""

import dataclasses
import math
from pathlib import Path

import pytest

from scnsim.config import (
    MODES,
    ConfigError,
    default_config,
    load_config,
    validate_config,
)
from scnsim.netmodel import gain


def test_defaults_are_valid():
    cfg = default_config()
    validate_config(cfg)
    assert cfg.run.mode in MODES
    assert cfg.layout.n_small == 10
    assert cfg.channel.bandwidth_hz == 10e6
    assert cfg.power.idle_scale_active > 1.0


def test_load_ini(tmp_path):
    path = tmp_path / "case.ini"
    path.write_text(
        "[layout]\n"
        "n_small = 4\n"
        "n_ues = 12  # inline comment\n"
        "side_m = 500\n"
        "[run]\n"
        "mode = classical\n"
        "steps = 25\n"
        "[clustering]\n"
        "theta = 0.25\n"
    )
    cfg = load_config(str(path))
    assert cfg.layout.n_small == 4
    assert cfg.layout.n_ues == 12
    assert cfg.layout.side_m == 500.0
    assert cfg.run.mode == "classical"
    assert cfg.run.steps == 25
    assert cfg.clustering.theta == 0.25
    # untouched sections keep their defaults
    assert cfg.power.small_p_idle_w == 0.1


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.name)
def test_shipped_configs_load(path):
    cfg = load_config(str(path))
    validate_config(cfg)
    if path.name == "example.ini":  # its header: every key at its default
        assert cfg == default_config()


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/nowhere.ini")


def test_unknown_section(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[warp_drive]\nspeed = 9\n")
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(str(path))


@pytest.mark.parametrize("section, key", [
    ("layout", "n_giant"),
    # deleted keys: the one Laplacian is D - S, load weighs 1 - alpha, and
    # k-means runs to its fixed point under the default cap
    ("clustering", "laplacian"),
    ("learning", "beta"),
    ("clustering", "kmeans_iters"),
])
def test_unknown_key(tmp_path, section, key):
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{key} = 1\n")
    with pytest.raises(ConfigError, match=rf"unknown key '{key}' in section \[{section}\]"):
        load_config(str(path))


def test_load_gamma_is_an_unknown_key(tmp_path):
    # the load fixed point is always undamped; the old damping key is gone
    path = tmp_path / "old.ini"
    path.write_text("[run]\nload_gamma = 1.0\n")
    with pytest.raises(ConfigError, match="unknown key 'load_gamma'"):
        load_config(str(path))


def test_bad_type(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nsteps = soon\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(str(path))


def _set(group, **values):
    for key, value in values.items():
        setattr(group, key, value)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda c: setattr(c.run, "mode", "magic"), "run.mode"),
        (lambda c: setattr(c.run, "steps", 0), "run.steps"),
        (lambda c: setattr(c.run, "runs", 0), "run.runs"),
        (lambda c: setattr(c.run, "seed", -1), "run.seed"),
        (lambda c: setattr(c.run, "burn_in_frac", 1.0), "burn_in_frac"),
        (lambda c: setattr(c.layout, "side_m", -5.0), "side_m"),
        (lambda c: setattr(c.power, "idle_scale_active", 1.0), "idle_scale"),
        (lambda c: setattr(c.traffic, "distribution", "pareto"), "traffic"),
        (lambda c: setattr(c.traffic, "mean_rate_bps", 0.0), "mean_rate"),
        (lambda c: setattr(c.clustering, "recluster_every", 0), "recluster"),
        (lambda c: setattr(c.clustering, "theta", 1.5), "theta"),
        (lambda c: setattr(c.clustering, "load_sign", "odd"), "load"),
        (lambda c: setattr(c.association, "delta", -0.5), "delta"),
        (lambda c: setattr(c.learning, "max_actions", 1), "max_actions"),
        (lambda c: setattr(c.clustering, "sigma_l", 0.0), "sigma_l"),
        (lambda c: setattr(c.clustering, "sigma_d_m", 0.0), "sigma_d_m"),
        (lambda c: setattr(c.run, "load_max_iter", 0), "load_max_iter"),
        (lambda c: setattr(c.run, "load_tol", 0.0), "load_tol"),
        (lambda c: setattr(c.learning, "kappa", -1.0), "kappa"),
        # each BS kind needs 0 < p_idle < p_max; the small-cell p_max is 1 W
        (lambda c: setattr(c.power, "small_p_idle_w", 1.0), "small_p_idle_w"),
        (lambda c: setattr(c.power, "small_p_idle_w", 2.0), "small_p_idle_w"),
        (lambda c: setattr(c.power, "macro_p_idle_w", 0.0), "macro_p_idle_w"),
        (lambda c: setattr(c.power, "macro_p_max_dbm", -1000.0), "macro_p_max_dbm"),
        (lambda c: setattr(c.channel, "bandwidth_hz", 0.0), "channel.bandwidth_hz"),
        (lambda c: setattr(c.learning, "utility_exp", 0.0), "learning.utility_exp"),
        (lambda c: setattr(c.learning, "regret_exp", 0.0), "learning.regret_exp"),
        (lambda c: setattr(c.learning, "policy_exp", -1.0), "learning.policy_exp"),
        (lambda c: setattr(c.association, "nu_exponent", -1.0),
         "association.nu_exponent"),
        # decreasing gains need exponents in (0, 1]; above 1 their sum
        # converges, and 1 / t**1e300 overflows at t = 2
        *(
            pytest.param(
                lambda c, s=section, k=key, v=value: setattr(getattr(c, s), k, v),
                rf"{section}\.{key} must be in \(0, 1\]",
                id=f"{section}.{key}={value:g}",
            )
            for section, key in [
                ("learning", "utility_exp"), ("learning", "regret_exp"),
                ("learning", "policy_exp"), ("association", "nu_exponent"),
            ]
            for value in (1.5, 1e300)
        ),
        # the gain exponents must be strictly ordered utility < regret < policy
        *(
            pytest.param(
                lambda c, v=values: _set(c.learning, **dict(zip(
                    ("utility_exp", "regret_exp", "policy_exp"), v))),
                r"need learning\.utility_exp < learning\.regret_exp < "
                r"learning\.policy_exp",
                id="exps={},{},{}".format(*values),
            )
            for values in [(0.7, 0.7, 0.8), (0.6, 0.8, 0.8), (0.8, 0.7, 0.6),
                           (0.6, 0.9, 0.8), (1.0, 1.0, 1.0)]
        ),
        # noise so strong that 1 + SINR rounds to 1: a station's rate is 0
        # and a UE it serves needs infinite airtime
        pytest.param(lambda c: setattr(c.channel, "noise_psd_dbm_hz", 30.0),
                     r"channel\.noise_psd_dbm_hz leaves a station a zero rate",
                     id="noise_psd_dbm_hz=30"),
        # still under the macro's bound, but over an SBS's corner to corner
        pytest.param(lambda c: setattr(c.channel, "noise_psd_dbm_hz", 0.0),
                     r"channel\.noise_psd_dbm_hz leaves a station a zero rate",
                     id="noise_psd_dbm_hz=0"),
        # exp(1 / (2 sigma_l^2)) at a load gap of 1 overflows, and the
        # Laplacian of an infinite similarity is NaN: LAPACK cannot solve it
        pytest.param(lambda c: _set(c.clustering, load_sign="reciprocal", sigma_l=1e-6),
                     r"clustering\.sigma_l is too small for load_sign = reciprocal",
                     id="reciprocal,sigma_l=1e-6"),
        pytest.param(lambda c: _set(c.clustering, load_sign="reciprocal", sigma_l=0.026),
                     r"clustering\.sigma_l is too small for load_sign = reciprocal",
                     id="reciprocal,sigma_l=0.026"),
        (lambda c: setattr(c.learning, "alpha", -5.0), "learning.alpha"),
        # alpha weighs power and 1 - alpha load, so both stay non-negative
        *(
            pytest.param(lambda c, v=value: setattr(c.learning, "alpha", v),
                         r"learning\.alpha must be in \[0, 1\]", id=f"learning.alpha={value:g}")
            for value in (1.5, -0.1)
        ),
        (lambda c: setattr(c.clustering, "eps_d_m", -1.0), "clustering.eps_d_m"),
        (lambda c: setattr(c.layout, "min_dist_macro_small_m", -1.0),
         "layout.min_dist_macro_small_m"),
        (lambda c: setattr(c.layout, "min_dist_macro_ue_m", -1.0),
         "layout.min_dist_macro_ue_m"),
        (lambda c: setattr(c.layout, "min_dist_small_small_m", -1.0),
         "layout.min_dist_small_small_m"),
        (lambda c: setattr(c.layout, "min_dist_small_ue_m", -1.0),
         "layout.min_dist_small_ue_m"),
        # a noise power below the least normal float (here about 4e-321 W)
        # makes every SINR at zero load inf, so x = 0 is a spurious fixed point
        pytest.param(lambda c: setattr(c.channel, "bandwidth_hz", 1e-300),
                     "channel.bandwidth_hz", id="bandwidth_hz=1e-300"),
        pytest.param(lambda c: setattr(c.channel, "noise_psd_dbm_hz", -4000.0),
                     "channel.noise_psd_dbm_hz", id="noise_psd_dbm_hz=-4000"),
        # a UE at 0 m from a BS has an infinite channel gain; the gain
        # passes 1 below about 0.39 m (macro) and 0.18 m (small cell)
        pytest.param(
            lambda c: _set(c.layout, side_m=1e-300, min_dist_macro_small_m=0.0,
                           min_dist_macro_ue_m=0.0, min_dist_small_small_m=0.0,
                           min_dist_small_ue_m=0.0),
            r"layout\.min_dist_macro_ue_m must keep the macro gain <= 1",
            id="side_m=1e-300,min_dist_*=0"),
        *(
            pytest.param(
                lambda c, k=key, v=value: setattr(c.layout, k, v),
                rf"layout\.{key} must keep the {kind} gain <= 1",
                id=f"{key}={value:g}",
            )
            for key, kind, value in [
                ("min_dist_macro_ue_m", "macro", 0.3),
                ("min_dist_small_ue_m", "small", 0.0),
                ("min_dist_small_ue_m", "small", 0.1),
            ]
        ),
    ],
)
def test_validation_rejects(mutate, message):
    cfg = default_config()
    mutate(cfg)
    with pytest.raises(ConfigError, match=message):
        validate_config(cfg)


def test_validation_admits_values_next_to_the_new_bounds():
    cfg = default_config()
    _set(cfg.learning, utility_exp=0.5, regret_exp=0.51, policy_exp=1.0)
    cfg.channel.noise_psd_dbm_hz = -30.0  # an SBS still reaches across the area
    validate_config(cfg)
    # the reciprocal kernel's bound holds for 10 SBSs at sigma_l = 0.027; the
    # gaussian kernel only underflows, so it takes any positive sigma_l
    _set(cfg.clustering, load_sign="reciprocal", sigma_l=0.027)
    validate_config(cfg)
    _set(cfg.clustering, load_sign="gaussian", sigma_l=1e-6)
    validate_config(cfg)


def test_gain_bound_admits_the_boundary_distances():
    # gains at 0.4 m (macro) and 0.2 m (small cell) are just below 1
    cfg = default_config()
    cfg.layout.min_dist_macro_ue_m, cfg.layout.min_dist_small_ue_m = 0.4, 0.2
    validate_config(cfg)
    assert gain("macro", 0.0, cfg.layout) < 1 and gain("small", 0.0, cfg.layout) < 1


_GROUPS = {s.name: getattr(default_config(), s.name)
           for s in dataclasses.fields(default_config())}
FLOAT_KEYS = [(name, f.name) for name, group in _GROUPS.items()
              for f in dataclasses.fields(group)
              if isinstance(getattr(group, f.name), float)]


@pytest.mark.parametrize("section, key", FLOAT_KEYS)
def test_validation_rejects_non_finite(section, key):
    for value in (math.inf, -math.inf, math.nan):
        cfg = default_config()
        setattr(getattr(cfg, section), key, value)
        with pytest.raises(ConfigError, match=rf"{section}\.{key} must be finite"):
            validate_config(cfg)


@pytest.mark.parametrize("key", ["macro_p_max_dbm", "small_p_max_dbm"])
def test_validation_rejects_overflowing_p_max(key):
    # 10 ** ((1e6 - 30) / 10) W overflows a float
    cfg = default_config()
    setattr(cfg.power, key, 1e6)
    with pytest.raises(ConfigError, match=f"power.{key}.*overflows"):
        validate_config(cfg)


@pytest.mark.parametrize("psd_dbm_hz", [1e6, 3080.0])
def test_validation_rejects_overflowing_noise_power(psd_dbm_hz):
    # 10 ** ((1e6 - 30) / 10) W/Hz overflows a float; 10 ** 305 W/Hz is
    # finite, but not over the default 10 MHz
    cfg = default_config()
    cfg.channel.noise_psd_dbm_hz = psd_dbm_hz
    with pytest.raises(ConfigError, match="channel.noise_psd_dbm_hz.*overflows"):
        validate_config(cfg)


def test_non_finite_ini_value_is_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[traffic]\nmean_rate_bps = inf\n")
    with pytest.raises(ConfigError, match="traffic.mean_rate_bps must be finite"):
        load_config(str(path))
