"""CLI tests: argument parsing, CSV schemas, and byte-identical reruns."""

import csv
import dataclasses
import hashlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from scnsim import cli
from scnsim.cli import (
    CDF_HEADER,
    SUMMARY_HEADER,
    _fmt,
    _trace_rows,
    build_parser,
    main,
    parse_vary,
)
from scnsim import sim
from scnsim.sim import StepRecord


def write_tiny_config(tmp_path, mode="learning_clustered"):
    path = tmp_path / "tiny.ini"
    path.write_text(
        "[layout]\n"
        "n_small = 4\n"
        "n_ues = 8\n"
        "[run]\n"
        f"mode = {mode}\n"
        "steps = 12\n"
        "runs = 2\n"
        "seed = 7\n"
    )
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_parse_vary_forms():
    name, values = parse_vary("ues=10:75:5")
    assert name == "ues"
    assert values == list(range(10, 76, 5))
    assert len(values) == 14
    assert all(isinstance(v, int) for v in values)

    name, values = parse_vary("theta=0,0.5,1")
    assert name == "theta"
    assert values == [0.0, 0.5, 1.0]

    name, values = parse_vary("eps_d=50:400:25")
    assert name == "eps_d"
    assert values[0] == 50.0 and values[-1] == 400.0 and len(values) == 15


@pytest.mark.parametrize(
    "text",
    ["ues", "ues=", "zeta=1,2", "ues=10:75", "ues=75:10:5", "ues=1:9:0",
     "theta=,", "ues=10.5", "ues=10:20:2.5"],
)
def test_parse_vary_rejects(text):
    with pytest.raises(ValueError):
        parse_vary(text)


def test_parser_requires_command_and_config(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run"])
    capsys.readouterr()


def test_bad_config_path_is_reported(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "absent.ini")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bad_vary_is_reported(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    rc = main(["sweep", "--config", str(cfg), "--vary", "zeta=1",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "sweep parameter" in capsys.readouterr().err


@pytest.mark.parametrize("vary, key", [
    ("eps_d=-50,100", "clustering.eps_d_m"),
    ("ues=-5:5:5", "layout.n_ues"),
])
def test_bad_sweep_point_is_reported(tmp_path, capsys, vary, key):
    # every point is validated as the INI is, before any point runs
    cfg = write_tiny_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["sweep", "--config", str(cfg), "--vary", vary, "--out", str(out)])
    assert rc == 2
    assert f"{key} must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--vary", "ues=4,8"]],
                         ids=["run", "sweep"])
@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "run.seed must be >= 0"),
    ("--jobs", "0", "run.jobs must be >= 1"),
], ids=["seed=-1", "jobs=0"])
def test_overrides_are_validated(tmp_path, capsys, command, flag, value, message):
    # the command-line overrides pass validate_config like the INI values
    cfg = write_tiny_config(tmp_path)
    out = tmp_path / "out"
    rc = main([*command, "--config", str(cfg), flag, value, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--vary", "ues=4,8"]],
                         ids=["run", "sweep"])
def test_out_naming_a_file_is_reported(tmp_path, capsys, monkeypatch, command):
    # the output directory is made before the first run, so an --out that
    # names a file fails up front with a one-line error, and nothing runs
    cfg = write_tiny_config(tmp_path, mode="classical")
    out = tmp_path / "taken"
    out.write_text("keep me\n")

    def no_run(*args, **kwargs):
        raise AssertionError("an experiment ran")

    monkeypatch.setattr(sim, "run_experiment", no_run)
    rc = main([*command, "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1
    assert out.read_text() == "keep me\n"


def test_unwritable_output_file_is_reported(tmp_path, capsys):
    # an output file that cannot be opened for writing fails after the runs
    # with a one-line error, not a traceback
    cfg = write_tiny_config(tmp_path, mode="classical")
    out = tmp_path / "out"
    (out / "summary.csv").mkdir(parents=True)
    rc = main(["run", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("classical ues=")
    err = captured.err
    assert err.startswith("error: ") and "summary.csv" in err and err.count("\n") == 1


def test_infeasible_density_is_reported(tmp_path, capsys):
    # a 100 m square cannot hold an SBS 75 m from the central macro
    path = tmp_path / "dense.ini"
    path.write_text("[layout]\nside_m = 100\nn_small = 30\n[run]\nsteps = 5\nruns = 1\n")
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "infeasible density" in err and "layout.side_m = 100" in err


def test_run_writes_summary_and_cdf(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg), "--out", str(out),
               "--trace", "--dump-clusters"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "cost/BS" in stdout and "wrote" in stdout

    rows = read_csv(out / "summary.csv")
    assert rows[0] == SUMMARY_HEADER
    assert len(rows) == 2  # header + one sweep point
    assert rows[1][0] == "learning_clustered"
    assert rows[1][1] == "8"

    cdf = read_csv(out / "energy_cdf.csv")
    assert cdf[0] == CDF_HEADER
    assert len(cdf) == 1 + 4 * 2  # one sample per (SBS, run)
    assert float(cdf[-1][1]) == 1.0

    steps = read_csv(out / "steps.csv")
    assert len(steps) == 1 + 12 * 2  # per step per run
    clusters = read_csv(out / "clusters.csv")
    assert len(clusters) > 1
    head_col = clusters[0].index("head")
    members_col = clusters[0].index("members")
    for row in clusters[1:]:
        assert row[head_col] in row[members_col].split(";")


def test_mode_override(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg), "--out", str(out),
               "--mode", "classical"])
    assert rc == 0
    capsys.readouterr()
    rows = read_csv(out / "summary.csv")
    assert rows[1][0] == "classical"
    assert rows[1][SUMMARY_HEADER.index("cluster_count")] == "0"


def test_sweep_outputs_per_mode_cdfs(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["sweep", "--config", str(cfg), "--out", str(out),
               "--vary", "ues=4,8",
               "--modes", "classical,learning_clustered"])
    assert rc == 0
    capsys.readouterr()
    rows = read_csv(out / "summary.csv")
    assert len(rows) == 1 + 4  # 2 modes x 2 points
    assert [r[0] for r in rows[1:]] == ["classical", "classical",
                                        "learning_clustered",
                                        "learning_clustered"]
    assert [r[1] for r in rows[1:]] == ["4", "8", "4", "8"]
    assert (out / "energy_cdf_classical.csv").exists()
    assert (out / "energy_cdf_learning_clustered.csv").exists()
    pooled = read_csv(out / "energy_cdf.csv")
    per_mode = read_csv(out / "energy_cdf_classical.csv")
    assert len(pooled) - 1 == 2 * (len(per_mode) - 1)


def test_reruns_are_byte_identical(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert (out_a / "summary.csv").read_bytes() == \
        (out_b / "summary.csv").read_bytes()
    assert (out_a / "energy_cdf.csv").read_bytes() == \
        (out_b / "energy_cdf.csv").read_bytes()


def test_seed_override_changes_output(tmp_path, capsys):
    cfg = write_tiny_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out_b),
                 "--seed", "99"]) == 0
    capsys.readouterr()
    assert (out_a / "summary.csv").read_bytes() != \
        (out_b / "summary.csv").read_bytes()


# SHA-256 prefixes of every CSV a traced, cluster-dumping three-mode sweep
# writes, recorded when UE traffic got its own stream, which moved every
# exponential-traffic drop's UEs; any change to
# the simulator's numbers, to the RunResult reductions or to the CSV writer
# shows here.
GOLDEN_SWEEP_DIGESTS_UNDAMPED = {
    "clusters.csv": "87d956c2cd8825a4",
    "energy_cdf.csv": "9c311834a5ce4ed8",
    "energy_cdf_classical.csv": "ff982b2de5396266",
    "energy_cdf_learning_clustered.csv": "0b5755088a8be6bd",
    "energy_cdf_learning_no_clusters.csv": "e827d9c8f6c8c7c1",
    "steps.csv": "a8e23f9761e2ea45",
    "summary.csv": "e887afbe3dd35451",
}


def test_golden_sweep_csvs_undamped(tmp_path, capsys):
    cfg = tmp_path / "golden.ini"
    cfg.write_text(
        "[layout]\n"
        "n_small = 6\n"
        "[clustering]\n"
        "eps_d_m = 400\n"
        "recluster_every = 5\n"
        "[run]\n"
        "steps = 40\n"
        "runs = 2\n"
        "seed = 11\n"
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--vary", "ues=9,30", "--modes", "all",
                 "--trace", "--dump-clusters"]) == 0
    capsys.readouterr()
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()[:16]
           for path in sorted(out.glob("*.csv"))}
    assert got == GOLDEN_SWEEP_DIGESTS_UNDAMPED


# configs/example.ini through `scnsim run --trace --dump-clusters`, with
# BLAS on one thread: 20 clustered runs of 400 steps, reclustering every 50
EXAMPLE_CONFIG_DIGESTS = {
    "clusters.csv": "96f28a4a3f8ac5cf",
    "energy_cdf.csv": "9cb591b62bffd6a7",
    "steps.csv": "4e1b2fa72b4aca68",
    "summary.csv": "54940b949ee9c9b9",
}


# the same with --mode classical: 20 runs of 400 steps, each one static
# solve broadcast over its steps
EXAMPLE_CLASSICAL_DIGESTS = {
    "clusters.csv": "4a9c864714fc7c12",
    "energy_cdf.csv": "8803e0e78f697b7b",
    "steps.csv": "854f04bfaff900b5",
    "summary.csv": "b7c4d456db5b8206",
}


def test_example_config_csvs_are_pinned(tmp_path, capsys):
    config = Path(__file__).resolve().parents[1] / "configs" / "example.ini"
    for mode, digests in [([], EXAMPLE_CONFIG_DIGESTS),
                          (["--mode", "classical"], EXAMPLE_CLASSICAL_DIGESTS)]:
        out = tmp_path / (mode[-1] if mode else "default")
        assert main(["run", "--config", str(config), "--out", str(out), *mode,
                     "--trace", "--dump-clusters"]) == 0
        capsys.readouterr()
        got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()[:16]
               for path in sorted(out.glob("*.csv"))}
        assert got == digests


def _trace_rows_per_record(results):
    """steps.csv rows with one numpy reduction per record: the reference."""
    for res in results:
        for rr in res.runs:
            n_sbs = max(rr.n_sbs, 1)
            for rec in rr.records:
                yield [
                    res.mode, res.ue_count, res.eps_d, res.theta, rr.run,
                    rec.step, rec.n_clusters, rec.mean_cluster_size,
                    rec.state_changes, int(np.sum(rec.sbs_state)),
                    float(np.sum(rec.sbs_power)),
                    float(np.mean(rec.sbs_load)) if rr.n_sbs else 0.0,
                    float(np.mean(rec.sbs_load_raw)) if rr.n_sbs else 0.0,
                    float(np.sum(rec.sbs_cost)) / n_sbs, rec.converged,
                ]


def test_stacked_trace_rows_match_per_record_reductions(monkeypatch):
    # steps.csv sums and means come from a Trace's (steps, n_sbs) arrays
    # reduced along axis 1; each must round exactly as np.sum / np.mean of its own
    # record, across the sizes where numpy's pairwise summation changes
    # shape. Rows are spelled column by column, each value as _fmt spells it
    rng = np.random.default_rng(0)
    runs = []
    for n_sbs in range(41):
        records = []
        for step in range(1, 6):
            scale = 10.0 ** rng.uniform(-6, 3, size=n_sbs)
            records.append(StepRecord(
                step=step, n_clusters=n_sbs, mean_cluster_size=rng.uniform(1.0, 4.0),
                state_changes=int(rng.integers(0, n_sbs + 1)),
                converged=bool(rng.integers(2)),
                sbs_state=rng.integers(0, 2, size=n_sbs),
                sbs_power=rng.random(n_sbs) * scale,
                sbs_load=rng.random(n_sbs),
                sbs_load_raw=rng.random(n_sbs) * scale,
                sbs_cost=rng.random(n_sbs) * scale,
            ))
        trace = sim.Trace(*(np.array([getattr(rec, f.name) for rec in records])
                            for f in dataclasses.fields(StepRecord)))
        runs.append(SimpleNamespace(run=n_sbs, n_sbs=n_sbs, records=trace))
    results = [SimpleNamespace(mode="classical", ue_count=9, eps_d=250.0,
                               theta=0.5, runs=runs)]

    want = [[_fmt(v) for v in row] for row in _trace_rows_per_record(results)]
    got = list(_trace_rows(results))
    assert got == want
    assert len(got) == 41 * 5
    # every float column, spelled exactly
    monkeypatch.setattr(cli, "_floats", lambda values: [v.hex() for v in values.tolist()])
    exact = [[_fmt(v) for v in row[:5]]
             + [v.hex() if isinstance(v, float) else _fmt(v) for v in row[5:]]
             for row in _trace_rows_per_record(results)]
    assert list(_trace_rows(results)) == exact
