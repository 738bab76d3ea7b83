"""Command-line front end: single runs and parameter sweeps to CSV files.

Outputs (under --out, default ./out):
  summary.csv     one row per (mode, sweep point) aggregate
  energy_cdf.csv  pooled per-SBS energy samples with empirical CDF values
  steps.csv       per-step trace rows (only with --trace)
  clusters.csv    partition snapshots (only with --dump-clusters)
Floats are written with 9 significant digits; identical config and seed
give byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import sim
from .config import MODES, ConfigError, load_config, validate_config

SUMMARY_HEADER = [
    "mode", "ue_count", "mean_cost_per_bs", "mean_energy_per_bs", "mean_load",
    "cluster_count", "mean_cluster_size", "ci95", "eps_d", "theta",
]
CDF_HEADER = ["sample", "ecdf"]
STEPS_HEADER = [
    "mode", "ue_count", "eps_d", "theta", "run", "step", "n_clusters",
    "mean_cluster_size", "state_changes", "active_sbs", "total_power_w",
    "mean_load", "mean_load_raw", "cost", "converged",
]
CLUSTERS_HEADER = [
    "mode", "ue_count", "eps_d", "theta", "run", "step", "cluster_index",
    "head", "size", "members",
]


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    return str(value)


def _formatted(rows):
    """Rows of values as rows of their CSV spellings."""
    return ([_fmt(v) for v in row] for row in rows)


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write header, then rows that are already lists of strings, as joined
    lines: no field holds a comma, quote or line break, so csv.writer
    would quote none of them."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def parse_vary(text: str) -> tuple[str, list[float]]:
    """Parse --vary specs like ues=10:75:5 (inclusive) or theta=0,0.5,1."""
    name, sep, rest = text.partition("=")
    name = name.strip()
    if not sep or not rest:
        raise ValueError(f"--vary expects name=values, got {text!r}")
    if name not in sim.SWEEP_PARAMS:
        raise ValueError(
            f"unknown sweep parameter {name!r}; expected one of {sim.SWEEP_PARAMS}"
        )
    if ":" in rest:
        parts = rest.split(":")
        if len(parts) != 3:
            raise ValueError(f"range form is start:stop:step, got {rest!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0 or stop < start:
            raise ValueError(f"need stop >= start and step > 0 in {rest!r}")
        count = int(np.floor((stop - start) / step + 1e-9)) + 1
        values = [start + i * step for i in range(count)]
    else:
        values = [float(p) for p in rest.split(",") if p.strip()]
        if not values:
            raise ValueError(f"empty value list in {text!r}")
    if name == "ues":
        fractional = [v for v in values if not float(v).is_integer()]
        if fractional:
            raise ValueError(f"ues takes whole UE counts, got {fractional[0]:g} in {text!r}")
        values = [int(v) for v in values]
    return name, values


def _parse_modes(text: str) -> list[str]:
    if text == "all":
        return list(MODES)
    modes = [m.strip() for m in text.split(",") if m.strip()]
    for m in modes:
        if m not in MODES:
            raise ValueError(f"unknown mode {m!r}; expected one of {MODES}")
    if not modes:
        raise ValueError("--modes got an empty list")
    return modes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scnsim", description="Small-cell network sleep/wake simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")
        p.add_argument("--out", default="out", help="output directory (default ./out)")
        p.add_argument("--jobs", type=int, default=None,
                       help="parallel worker processes for Monte-Carlo runs")
        p.add_argument("--trace", action="store_true",
                       help="write per-step rows to steps.csv")
        p.add_argument("--dump-clusters", action="store_true",
                       help="write partition snapshots to clusters.csv")

    run_p = sub.add_parser("run", help="run one sweep point")
    common(run_p)
    run_p.add_argument("--mode", choices=MODES, default=None,
                       help="override run.mode")

    sweep_p = sub.add_parser("sweep", help="sweep one parameter")
    common(sweep_p)
    sweep_p.add_argument("--vary", required=True,
                         help="ues=10:75:5 | eps_d=50:400:25 | theta=0,0.5,1")
    sweep_p.add_argument("--modes", default="all",
                         help="comma list of modes, or 'all' (default)")
    return parser


def _floats(values: np.ndarray) -> list[str]:
    """_fmt's spelling of every float of a 1-D array."""
    return [f"{v:.9g}" for v in values.tolist()]


def _trace_rows(results):
    """steps.csv rows, formatted column by column, each run's constants once."""
    for res in results:
        for rr in res.runs:
            if rr.records is None:
                continue
            trace = rr.records
            n_sbs = max(rr.n_sbs, 1)

            def ints(values):
                return [str(v) for v in values.tolist()]

            # a row sum rounds exactly as np.sum of that record's own vector,
            # and np.mean is that sum divided by n_sbs
            columns = [
                ints(trace.step),
                ints(trace.n_clusters),
                _floats(trace.mean_cluster_size),
                ints(trace.state_changes),
                ints(trace.sbs_state.sum(axis=1)),
                _floats(trace.sbs_power.sum(axis=1)),
                _floats(trace.sbs_load.sum(axis=1) / n_sbs),
                _floats(trace.sbs_load_raw.sum(axis=1) / n_sbs),
                _floats(trace.sbs_cost.sum(axis=1) / n_sbs),
                ints(trace.converged.astype(int)),
            ]
            run = [_fmt(v) for v in (res.mode, res.ue_count, res.eps_d, res.theta, rr.run)]
            yield from ([*run, *row] for row in zip(*columns))


def _cluster_rows(results):
    for res in results:
        for rr in res.runs:
            if rr.cluster_events is None:
                continue
            for part in rr.cluster_events:
                for i, members in enumerate(part.clusters):
                    yield [
                        res.mode, res.ue_count, res.eps_d, res.theta, rr.run,
                        part.epoch, i, part.heads[i], len(members),
                        ";".join(str(b) for b in members),
                    ]


def _write_outputs(out_dir: Path, results, trace: bool, dump_clusters: bool,
                   per_mode_cdf: bool) -> list[Path]:
    written = []

    summary = out_dir / "summary.csv"
    _write_csv(summary, SUMMARY_HEADER, _formatted(
        [r.mode, r.ue_count, r.mean_cost_per_bs, r.mean_energy_per_bs,
         r.mean_load, r.cluster_count, r.mean_cluster_size, r.ci95,
         r.eps_d, r.theta]
        for r in results
    ))
    written.append(summary)

    def cdf_rows(samples):
        pooled = np.sort(np.concatenate(samples)) if samples else np.zeros(0)
        n = pooled.size
        return _formatted([float(s), (i + 1) / n] for i, s in enumerate(pooled))

    cdf = out_dir / "energy_cdf.csv"
    _write_csv(cdf, CDF_HEADER,
               cdf_rows([r.energy_samples for r in results if r.energy_samples.size]))
    written.append(cdf)
    if per_mode_cdf:
        for mode in dict.fromkeys(r.mode for r in results):
            path = out_dir / f"energy_cdf_{mode}.csv"
            _write_csv(path, CDF_HEADER, cdf_rows(
                [r.energy_samples for r in results
                 if r.mode == mode and r.energy_samples.size]))
            written.append(path)

    if trace:
        path = out_dir / "steps.csv"
        _write_csv(path, STEPS_HEADER, _trace_rows(results))
        written.append(path)
    if dump_clusters:
        path = out_dir / "clusters.csv"
        _write_csv(path, CLUSTERS_HEADER, _formatted(_cluster_rows(results)))
        written.append(path)
    return written


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.run.seed = args.seed
        if args.jobs is not None:
            cfg.run.jobs = args.jobs
        if getattr(args, "mode", None) is not None:  # only `run` has --mode
            cfg.run.mode = args.mode
        validate_config(cfg)

        if args.command == "run":
            points, per_mode_cdf = [cfg], False
        else:
            param, values = parse_vary(args.vary)
            modes = _parse_modes(args.modes)
            points = sim.sweep_points(cfg, param, values, modes)
            per_mode_cdf = len(modes) > 1
        # made before the first run, so an unusable --out fails up front
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        results = [sim.run_experiment(point, keep_records=args.trace,
                                      keep_clusters=args.dump_clusters)
                   for point in points]
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for r in results:
        print(
            f"{r.mode} ues={r.ue_count} eps_d={r.eps_d:g} theta={r.theta:g}: "
            f"cost/BS {r.mean_cost_per_bs:.4g} +- {r.ci95:.2g}, "
            f"energy/BS {r.mean_energy_per_bs:.5g} J, load {r.mean_load:.3g}, "
            f"clusters {r.cluster_count:.3g} x {r.mean_cluster_size:.3g}"
        )
    try:
        written = _write_outputs(out_dir, results, args.trace,
                                 args.dump_clusters, per_mode_cdf)
    except OSError as exc:  # e.g. an output file name held by a directory
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("wrote " + ", ".join(str(p) for p in written))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
