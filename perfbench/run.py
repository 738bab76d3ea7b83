"""scnsim benchmark: timed end-to-end metrics or traced per-layer metrics.

    python3 perfbench/run.py --workload ue_sweep --seed 1 --seconds 30 --trace 0

Run from anywhere; the simulator is imported from ../src relative to this
file, and scratch files go to .perfbench_work/ beside it. With --trace 0
the last stdout line is a JSON object whose metrics are the end-to-end
metrics of BENCHMARK.json; with --trace 1 they are the per-layer metrics.
The lines above it are a human-readable report. See perfbench/README.md.
"""

import os

# pin BLAS to one thread before anything imports numpy
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
REFERENCE = HERE / "reference_digests.json"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("ue_sweep", "recluster_heavy", "classical_dense"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="20-step runs and 2 set-up probes, for the benchmark's tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import scnsim from this checkout's src/, or exit 2 if it is absent."""
    if not (SRC / "scnsim" / "__init__.py").is_file():
        print(f"error: no simulator source at {SRC}/scnsim", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import scnsim

    if Path(scnsim.__file__).resolve().parent != SRC / "scnsim":
        print(f"error: imported scnsim from {scnsim.__file__}", file=sys.stderr)
        raise SystemExit(2)
    import bench_workloads

    return bench_workloads


def make_workload(args):
    bw = import_program()
    wl = bw.WORKLOADS[args.workload](ROOT, args.seed, smoke=args.smoke)
    wl.setup()
    return wl


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until its first run could start.

    Returns (reference-speed seconds, host seconds) per probe; each probe is
    bracketed by calibration passes like the runs.
    """
    from bench_calib import REFERENCE_MS, kernel_ms

    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    scaled, raw = [], []
    for _ in range(2 if args.smoke else SETUP_REPEATS):
        before = kernel_ms()
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child
        raw.append(float(proc.stdout.split()[-1]) - t0)
        scaled.append(raw[-1] * 2.0 * REFERENCE_MS / (before + kernel_ms()))
    return scaled, raw


@dataclass
class Window:
    run_ms: list = field(default_factory=list)  # reference-speed ms per run
    raw_ms: list = field(default_factory=list)  # host ms per run
    iter_s: list = field(default_factory=list)  # reference-speed s per iteration
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digest_lines: list = field(default_factory=list)


def run_window(bw, wl, inst, seconds: float) -> Window:
    """Iterate from 0 for `seconds`, checking every run; iteration 0 always runs.

    Times are scaled to the reference host speed by the calibration the run
    timer takes around every run; calibration time itself is left out.
    """
    w = Window()
    t_start = perf_counter()
    i = 0
    while i == 0 or perf_counter() - t_start + 0.5 * (
        perf_counter() - t_start) / i <= seconds:
        n_ms, attempted0, raised0 = len(inst.run_ms), inst.attempted, len(inst.raised)
        calib0 = inst.calib_s
        t0 = perf_counter()
        try:
            output, err = wl.iterate(i), None
        except Exception as exc:  # a failing run counts; the window goes on
            output, err = None, f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - t0 - (inst.calib_s - calib0)
        raw, scales = inst.run_ms[n_ms:], inst.run_scale[n_ms:]
        scale = (sum(m * f for m, f in zip(raw, scales)) / sum(raw)) if raw else 1.0
        w.iter_s.append(wall * scale)
        w.raw_ms += raw
        w.run_ms += [m * f for m, f in zip(raw, scales)]
        if inst.trace:
            inst.fold(scale)
        results = list(inst.results)
        inst.results.clear()
        attempted = inst.attempted - attempted0
        failed = len(inst.raised) - raised0
        w.problems += inst.raised[raised0:]
        lines = [f"iteration {i}"]
        for res in results:
            bad = bw.check_run(res, wl.records)
            failed += bool(bad)
            w.problems += bad
            lines.append(bw.run_line(res))
        bad, extra = wl.check_iteration(output, results) if err is None else ([err], [])
        if not bad and attempted != wl.runs_per_iter():
            bad = [f"iteration {i} attempted {attempted} runs, "
                   f"expected {wl.runs_per_iter()}"]
        if bad:
            w.problems += bad
            attempted = max(attempted, 1)
            failed = attempted
        w.attempted += attempted
        w.failed += failed
        if i == 0:
            w.digest_lines += lines + extra
        i += 1
    return w


def environment() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']}-{blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    threads = ",".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS)
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas} {threads} jobs=1")


def reference_note(args, wl_digest: str) -> str:
    if args.smoke or not REFERENCE.exists():
        return "no reference"
    recorded = json.loads(REFERENCE.read_text())["digests"].get(args.workload, {})
    want = recorded.get(str(args.seed))
    if want is None:
        return "no reference for this seed"
    return "matches reference" if want == wl_digest else f"differs from reference {want}"


def tail(run_ms: list[float]) -> tuple[float, float]:
    """(ms, percentile) of the highest percentile with >= 10 runs beyond it."""
    ordered = sorted(run_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def timed(args, bw, wl):
    from bench_spans import Instrument

    setup, setup_raw = measure_setup(args)
    with Instrument(trace=False) as inst:
        w = run_window(bw, wl, inst, args.seconds)
    wall = sum(w.iter_s)
    tail_ms, tail_pct = tail(w.run_ms) if w.run_ms else (float("nan"), 0.0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "runs_per_s": (len(w.run_ms) / wall, "1/s"),
        "run_ms_p50": (statistics.median(w.run_ms) if w.run_ms else float("nan"), "ms"),
        "run_ms_tail": (tail_ms, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    dig = bw.digest(w.digest_lines)
    print(f"digest {dig} ({reference_note(args, dig)})")
    speed = statistics.median(w.run_ms) / statistics.median(w.raw_ms) if w.run_ms else 1.0
    print(f"host speed {speed:.3f} x reference (calibration kernel, median over runs); "
          f"host-time run_ms_p50 {statistics.median(w.raw_ms) if w.raw_ms else 0:.6g} ms, "
          f"setup_s {statistics.median(setup_raw):.6g} s")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "run_ms_tail":
            note = f"  (p{tail_pct:.1f} of {len(w.run_ms)} runs)"
        elif name == "setup_s":
            note = f"  (median of {len(setup)} fresh interpreters)"
        elif name == "runs_per_s":
            note = f"  ({len(w.run_ms)} runs in {wall:.2f} s, {len(w.iter_s)} iterations)"
        print(f"{name} {value:.6g} {unit}{note}")
    frac = w.failed / w.attempted if w.attempted else 1.0
    print(f"run_fail_frac {frac:.6g} frac  ({w.failed} of {w.attempted} runs attempted)")
    return w, metrics


def traced(args, bw, wl):
    from bench_spans import LAYER_METRICS, Instrument

    with Instrument(trace=False) as inst:
        base = run_window(bw, wl, inst, 0.0)
    with Instrument(trace=True) as inst:
        w = run_window(bw, wl, inst, args.seconds)
    # per-run ratios over the shared first iteration, so warm-up and spikes drop out
    n = len(base.run_ms)
    overhead = statistics.median(
        t / u for t, u in zip(w.run_ms[:n], base.run_ms)) - 1.0
    values = inst.layer_metrics(overhead)
    d_base, d_trace = bw.digest(base.digest_lines), bw.digest(w.digest_lines)
    if d_base != d_trace:
        w.problems.append(f"traced digest {d_trace} != untraced digest {d_base}")
    print(f"digest {d_trace} traced, {d_base} untraced ({reference_note(args, d_base)})")
    print(f"tracing overhead {100 * overhead:+.2f}% (median per-run ratio over {n} runs); "
          f"{inst.spans} spans over {len(w.run_ms)} runs")
    metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    w.attempted += base.attempted
    w.failed += base.failed
    w.problems += base.problems
    return w, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        make_workload(args)
        print(repr(perf_counter()))
        return 0
    wl = make_workload(args)
    bw = sys.modules["bench_workloads"]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}{' smoke' if args.smoke else ''}")
    print(f"env {environment()}")
    w, metrics = (traced if args.trace else timed)(args, bw, wl)
    for problem in w.problems[:20]:
        print(f"check failed: {problem}")
    correct = not w.problems and w.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
