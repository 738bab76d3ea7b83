"""Span tracing of the scnsim modules from outside the package.

`Instrument` patches callables of the simulator for the duration of a
`with` block and restores every original binding on exit:

- untraced (trace=False): only `sim.run_once` is wrapped, by a timer that
  records host ms per run, runs the calibration kernel of bench_calib
  right before and after it (outside the timed interval), and keeps the
  RunResult for the output checks;
- traced (trace=True): every public function and public-class method of
  the modules in MODULES (plus the private stages in EXTRA) is wrapped as
  well. Each call records a span (name, start, end, parent span, run
  index); spans of one `run_once` share its run index.

Spans are kept in compact arrays and folded into per-(name, parent, mode)
totals by `fold()`, which the benchmark calls between iterations, so memory
stays bounded however long a run measures. `layer_metrics()` turns the
totals into the per-layer metrics listed in LAYER_METRICS. Wrappers only
read the clock and append to arrays; they never touch an RNG, so traced
and untraced runs draw the same random numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np
from bench_calib import REFERENCE_MS, kernel_ms

MODULES = (
    "netmodel", "association", "coordination", "clustering", "learning",
    "sim", "cli", "config",
)
# private stages worth a span of their own: (module, class or None, attr)
EXTRA = {
    ("sim", "World", "__init__"): "sim.world_init",
    ("sim", "World", "_recluster"): "sim.recluster",
    ("sim", "World", "_set_partition"): "sim.set_partition",
    ("sim", "World", "_singletons"): "sim.singletons",
    ("learning", "ClusterLearner", "__init__"): "learning.learner_init",
    ("cli", None, "_write_outputs"): "cli.write_outputs",
}

MODE_TAGS = {
    "classical": "classical",
    "learning_no_clusters": "no_clusters",
    "learning_clustered": "clustered",
}
_MODES = tuple(MODE_TAGS)
_POOLED = len(_MODES)  # mode slot for spans outside any run

# (name, unit, per-mode variants too) for every per-layer metric
_STEP_LAYER = [
    ("netmodel.compute_loads.ms_per_step", "ms"),
    ("netmodel.compute_loads.self_ms_per_step", "ms"),
    ("netmodel.fp_iters_per_step", "count"),
    ("netmodel.fp_unconverged_frac", "frac"),
    ("netmodel.rate_matrix.calls_per_step", "count"),
    ("netmodel.rate_matrix.us_per_call", "us"),
    ("netmodel.exclusion_matrix.calls_per_step", "count"),
    ("netmodel.exclusion_matrix.ms_per_step", "ms"),
    ("netmodel.total_powers.ms_per_step", "ms"),
    ("netmodel.gain_matrix.ms_per_run", "ms"),
    ("sim.setup_ms_per_run", "ms"),
    ("sim.reduce_ms_per_run", "ms"),
    ("association.associate_all.ms_per_step", "ms"),
    ("association.tie_fallbacks_per_step", "count"),
    ("association.update_load_estimate.ms_per_step", "ms"),
    ("coordination.solve_cluster_schedule.calls_per_step", "count"),
    ("coordination.solve_cluster_schedule.ms_per_step", "ms"),
    ("clustering.spectral_cluster.calls_per_run", "count"),
    ("clustering.spectral_cluster.ms_per_call", "ms"),
    ("clustering.jacobi_eigh.ms_per_call", "ms"),
    ("clustering.kmeans.ms_per_call", "ms"),
    ("clustering.build_similarity.ms_per_call", "ms"),
    ("learning.learners_per_step", "count"),
    ("learning.actions_per_learner", "count"),
    ("learning.sample.ms_per_step", "ms"),
    ("learning.update.ms_per_step", "ms"),
    ("learning.learners_built_per_recluster", "count"),
    ("learning.build_action_set.ms_per_call", "ms"),
    ("sim.step.ms_per_step", "ms"),
    ("sim.step.self_ms_per_step", "ms"),
]
_SWEEP_LAYER = [
    ("cli.write_outputs.ms", "ms"),
    ("cli.bytes_written", "B"),
    ("config.load_config.ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans_per_run", "count"),
]

LAYER_METRICS: list[tuple[str, str]] = (
    _STEP_LAYER
    + [(f"{name}.{tag}", unit) for tag in MODE_TAGS.values()
       for name, unit in _STEP_LAYER]
    + _SWEEP_LAYER
)


def _targets():
    """Yield (span name, owner, attribute, original) for every wrapped callable."""
    for modname in MODULES:
        mod = importlib.import_module(f"scnsim.{modname}")
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                key = (modname, None, attr)
                if not attr.startswith("_") or key in EXTRA:
                    yield EXTRA.get(key, f"{modname}.{attr}"), mod, attr, obj
            elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                  and not attr.startswith("_")):
                for mattr, mobj in vars(obj).items():
                    key = (modname, attr, mattr)
                    if inspect.isfunction(mobj) and (
                        not mattr.startswith("_") or key in EXTRA
                    ):
                        yield EXTRA.get(key, f"{modname}.{mattr}"), obj, mattr, mobj


class Instrument:
    """Context manager that installs the run timer and, if traced, the spans."""

    def __init__(self, trace: bool):
        self.trace = trace
        self._patched: list[tuple[object, str, object]] = []
        # run timer state, read by the benchmark after each iteration
        self.run_ms: list[float] = []  # raw host ms per run
        self.run_scale: list[float] = []  # REFERENCE_MS / calibration ms
        self.calib_s = 0.0  # host seconds spent calibrating
        self.results: list = []
        self.attempted = 0
        self.raised: list[str] = []
        # span arrays of the current iteration
        self.names: list[str] = []
        self._sp_name = array("i")
        self._sp_parent = array("i")
        self._sp_run = array("i")
        self._sp_start = array("d")
        self._sp_end = array("d")
        self._stack = [-1]
        self._run = [-1, _POOLED]  # current run index and mode slot
        self.run_modes: list[int] = []
        self.counters: dict[tuple[str, int], float] = {}
        self.spans = 0
        self._totals: dict[tuple[int, int, int], list[float]] = {}

    # -- patching --------------------------------------------------------

    def _bind(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _bind_everywhere(self, original, wrapper) -> None:
        """Rebind every scnsim module attribute that holds `original`."""
        for modname, mod in list(sys.modules.items()):
            if modname == "scnsim" or modname.startswith("scnsim."):
                for attr, obj in list(vars(mod).items()):
                    if obj is original:
                        self._bind(mod, attr, wrapper)

    def __enter__(self) -> "Instrument":
        run_once = importlib.import_module("scnsim.sim").run_once
        try:
            if not self.trace:
                self._bind_everywhere(run_once, self._timed_run_once(run_once))
                return self
            seen = set()
            for name, owner, attr, original in list(_targets()):
                if name in seen:
                    raise RuntimeError(f"duplicate span name {name}")
                seen.add(name)
                wrapper = self._span_wrapper(name, original)
                if original is run_once:
                    # calibration runs in the timer, outside the run's span
                    wrapper = self._timed_run_once(wrapper)
                if inspect.ismodule(owner):
                    self._bind_everywhere(original, wrapper)
                else:
                    self._bind(owner, attr, wrapper)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- wrappers --------------------------------------------------------

    def _timed_run_once(self, fn):
        def calibrate() -> float:
            t0 = perf_counter()
            ms = kernel_ms()
            self.calib_s += perf_counter() - t0
            return ms

        @functools.wraps(fn)
        def run_once(*args, **kwargs):
            self.attempted += 1
            before = calibrate()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.raised.append(f"{type(exc).__name__}: {exc}")
                raise
            self.run_ms.append((perf_counter() - t0) * 1e3)
            self.run_scale.append(2.0 * REFERENCE_MS / (before + calibrate()))
            self.results.append(result)
            return result
        return run_once

    def _span_wrapper(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        sp_name, sp_parent, sp_run = self._sp_name, self._sp_parent, self._sp_run
        sp_start, sp_end, stack, run = (
            self._sp_start, self._sp_end, self._stack, self._run
        )

        def plain(*args, **kwargs):
            idx = len(sp_name)
            sp_name.append(nid)
            sp_parent.append(stack[-1])
            sp_run.append(run[0])
            sp_end.append(0.0)
            stack.append(idx)
            sp_start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                sp_end[idx] = perf_counter()
                stack.pop()

        probe = getattr(self, "_probe_" + name.replace(".", "_"), None)
        if name == "sim.run_once":
            def wrapper(*args, **kwargs):
                cfg = args[0] if args else kwargs["cfg"]
                run[0] = len(self.run_modes)
                run[1] = _MODES.index(cfg.run.mode)
                self.run_modes.append(run[1])
                try:
                    return plain(*args, **kwargs)
                finally:
                    run[0], run[1] = -1, _POOLED
        elif probe is not None:
            def wrapper(*args, **kwargs):
                result = plain(*args, **kwargs)
                probe(args, result)
                return result
        else:
            wrapper = plain
        return functools.wraps(fn)(wrapper)

    def _count(self, key: str, value: float) -> None:
        slot = (key, self._run[1])
        self.counters[slot] = self.counters.get(slot, 0.0) + value

    def _probe_netmodel_compute_loads(self, args, result) -> None:
        self._count("fp_unconverged", 0.0 if result.converged else 1.0)

    def _probe_learning_sample(self, args, result) -> None:
        self._count("actions_sampled", float(len(args[0].actions)))

    def _probe_cli_write_outputs(self, args, result) -> None:
        self._count("bytes_written", float(sum(p.stat().st_size for p in result)))

    # -- reduction -------------------------------------------------------

    def fold(self, scale: float = 1.0) -> None:
        """Fold finished spans into totals; call only between iterations.

        Durations are multiplied by `scale`, the iteration's calibration
        factor, so per-layer ms are reference-speed ms like the run times.
        """
        n = len(self._sp_name)
        if n == 0:
            return
        name = np.frombuffer(self._sp_name, dtype=np.int32).copy()
        parent = np.frombuffer(self._sp_parent, dtype=np.int32).copy()
        run = np.frombuffer(self._sp_run, dtype=np.int32).copy()
        dur = (np.frombuffer(self._sp_end) - np.frombuffer(self._sp_start)) * (1e3 * scale)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_ms = dur - child
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        modes = np.asarray(self.run_modes + [_POOLED], dtype=np.int64)
        mode = modes[run]  # run -1 picks the trailing pooled slot
        keys = np.stack([name, parent_name, mode], axis=1)
        uniq, inv = np.unique(keys, axis=0, return_inverse=True)
        inv = inv.ravel()
        counts = np.bincount(inv)
        dsum = np.bincount(inv, weights=dur)
        ssum = np.bincount(inv, weights=self_ms)
        for j, key in enumerate(map(tuple, uniq.tolist())):
            tot = self._totals.setdefault(key, [0.0, 0.0, 0.0])
            tot[0] += counts[j]
            tot[1] += dsum[j]
            tot[2] += ssum[j]
        self.spans += n
        for arr in (self._sp_name, self._sp_parent, self._sp_run,
                    self._sp_start, self._sp_end):
            del arr[:]

    def _sum(self, name: str, mode: int | None, field: int = 0,
             parent: str | None = None) -> float:
        """Total count (field 0), ms (1) or self ms (2) of spans called `name`."""
        if name not in self.names:
            return 0.0
        nid = self.names.index(name)
        pid = None if parent is None else self.names.index(parent)
        total = 0.0
        for (n, p, m), tot in self._totals.items():
            if n == nid and (mode is None or m == mode) and (pid is None or p == pid):
                total += tot[field]
        return total

    def _counter(self, key: str, mode: int | None) -> float:
        return sum(v for (k, m), v in self.counters.items()
                   if k == key and (mode is None or m == mode))

    def step_metrics(self, mode: int | None) -> dict[str, float]:
        """Per-step/per-run layer metrics over one mode (None pools all)."""
        def ratio(num, den):
            return num / den if den else 0.0

        s = functools.partial(self._sum, mode=mode)
        steps = s("sim.step")
        runs = s("sim.run_once")
        loads = s("netmodel.compute_loads")
        rate_calls = s("netmodel.rate_matrix")
        excl = s("netmodel.exclusion_matrix")
        spectral = s("clustering.spectral_cluster")
        samples = s("learning.sample")

        def per_call(name):
            return ratio(s(name, field=1), s(name))

        return {
            "netmodel.compute_loads.ms_per_step": ratio(s("netmodel.compute_loads", field=1), steps),
            "netmodel.compute_loads.self_ms_per_step": ratio(s("netmodel.compute_loads", field=2), steps),
            "netmodel.fp_iters_per_step": ratio(
                s("netmodel.rate_matrix", parent="netmodel.compute_loads"), loads),
            "netmodel.fp_unconverged_frac": ratio(self._counter("fp_unconverged", mode), loads),
            "netmodel.rate_matrix.calls_per_step": ratio(rate_calls, steps),
            "netmodel.rate_matrix.us_per_call": 1e3 * per_call("netmodel.rate_matrix"),
            "netmodel.exclusion_matrix.calls_per_step": ratio(excl, steps),
            "netmodel.exclusion_matrix.ms_per_step": ratio(s("netmodel.exclusion_matrix", field=1), steps),
            "netmodel.total_powers.ms_per_step": ratio(s("netmodel.total_powers", field=1), steps),
            "netmodel.gain_matrix.ms_per_run": ratio(s("netmodel.gain_matrix", field=1), runs),
            "sim.setup_ms_per_run": ratio(
                s("sim.generate_scenario", field=1) + s("sim.world_init", field=1), runs),
            "sim.reduce_ms_per_run": ratio(s("sim.run_once", field=2), runs),
            "association.associate_all.ms_per_step": ratio(s("association.associate_all", field=1), steps),
            "association.tie_fallbacks_per_step": ratio(
                s("association.associate", parent="association.associate_all"), steps),
            "association.update_load_estimate.ms_per_step": ratio(
                s("association.update_load_estimate", field=1), steps),
            "coordination.solve_cluster_schedule.calls_per_step": ratio(
                s("coordination.solve_cluster_schedule"), steps),
            "coordination.solve_cluster_schedule.ms_per_step": ratio(
                s("coordination.solve_cluster_schedule", field=1), steps),
            "clustering.spectral_cluster.calls_per_run": ratio(spectral, runs),
            "clustering.spectral_cluster.ms_per_call": per_call("clustering.spectral_cluster"),
            "clustering.jacobi_eigh.ms_per_call": per_call("clustering.jacobi_eigh"),
            "clustering.kmeans.ms_per_call": per_call("clustering.kmeans"),
            "clustering.build_similarity.ms_per_call": per_call("clustering.build_similarity"),
            "learning.learners_per_step": ratio(samples, steps),
            "learning.actions_per_learner": ratio(self._counter("actions_sampled", mode), samples),
            "learning.sample.ms_per_step": ratio(s("learning.sample", field=1), steps),
            "learning.update.ms_per_step": ratio(s("learning.update", field=1), steps),
            "learning.learners_built_per_recluster": ratio(
                s("learning.learner_init"), s("sim.set_partition")),
            "learning.build_action_set.ms_per_call": per_call("learning.build_action_set"),
            "sim.step.ms_per_step": ratio(s("sim.step", field=1), steps),
            "sim.step.self_ms_per_step": ratio(s("sim.step", field=2), steps),
        }

    def layer_metrics(self, overhead_frac: float) -> dict[str, float]:
        """Every metric of LAYER_METRICS, 0 where the layer never ran."""
        out = self.step_metrics(None)
        for slot, tag in enumerate(MODE_TAGS.values()):
            for name, value in self.step_metrics(slot).items():
                out[f"{name}.{tag}"] = value
        writes = self._sum("cli.write_outputs", None)
        loads = self._sum("config.load_config", None)
        runs = self._sum("sim.run_once", None)
        out["cli.write_outputs.ms"] = (
            self._sum("cli.write_outputs", None, field=1) / writes if writes else 0.0)
        out["cli.bytes_written"] = (
            self._counter("bytes_written", None) / writes if writes else 0.0)
        out["config.load_config.ms"] = (
            self._sum("config.load_config", None, field=1) / loads if loads else 0.0)
        out["trace.overhead_frac"] = overhead_frac
        out["trace.spans_per_run"] = self.spans / runs if runs else 0.0
        return out
