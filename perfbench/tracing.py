"""Per-layer tracing of chaoscontrol from outside the package.

The package is not edited.  Each traced public function is replaced *by
identity* in every loaded ``chaoscontrol.*`` module namespace, because
modules import one another's functions by name (``experiments`` calls its
own binding of ``simulate``, ``run_control`` and ``climate_stats``).
Predictor steps are too frequent for one span each (10k per control run),
so the public ``EsnModel.stepper`` / ``NgrcModel.stepper`` methods return a
proxy that adds each step's time to a per-kind total and to the enclosing
span's child time.

Spans (name, start, end, parent, unit) stay in memory and are written out
when the run ends.  A layer's self time is its spans' duration minus
their children, predictor steps included.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict

from chaoscontrol.esn import EsnModel
from chaoscontrol.ngrc import NgrcModel

from workloads import divergence_problems

# traced function -> metric that receives its self time
SELF_METRIC = {
    "dynamics.simulate": "dynamics.simulate_s",
    "dynamics.step_rk4": "dynamics.simulate_s",
    "esn.build_reservoir": "esn.build_s",
    "esn.train": "esn.train_s",
    "ngrc.train": "ngrc.train_s",
    "ridge.ridge_fit": "ridge.fit_s",
    "control.run_control": "control.loop_s",
    "metrics.correlation_dimension": "metrics.gp_s",
    "metrics.largest_lyapunov": "metrics.rosenstein_s",
    "experiments.run_sweep": "experiments.self_s",
    "experiments.run_single": "experiments.self_s",
    "experiments.prepare_trained_model": "experiments.self_s",
    "experiments.write_trajectory_csv": "experiments.write_s",
    "experiments.write_sweep_csv": "experiments.write_s",
    "experiments.write_summary_csv": "experiments.write_s",
    "modelio.save_model": "modelio.save_s",
    "modelio.load_model": "modelio.load_s",
    "svgplot.line_chart": "svgplot.s",
    "svgplot.errorbar_chart": "svgplot.s",
    "cli.main": "cli.self_s",
}

STEPPER_CLASSES = {"esn": EsnModel, "ngrc": NgrcModel}

# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("dynamics.simulate_s", "s"), ("dynamics.intervals", "count"),
    ("dynamics.interval_us", "us"),
    ("esn.build_s", "s"), ("esn.train_s", "s"), ("esn.step_s", "s"),
    ("esn.steps", "count"), ("esn.step_us", "us"),
    ("ngrc.train_s", "s"), ("ngrc.step_s", "s"), ("ngrc.steps", "count"),
    ("ngrc.step_us", "us"),
    ("ridge.fit_s", "s"), ("ridge.fits", "count"), ("ridge.design_cells", "count"),
    ("control.loop_s", "s"), ("control.intervals", "count"),
    ("control.interval_us", "us"), ("control.diverged_predict", "count"),
    ("control.diverged_control", "count"),
    ("metrics.gp_s", "s"), ("metrics.rosenstein_s", "s"), ("metrics.points", "count"),
    ("metrics.gp_pairs", "count"), ("metrics.valid_fraction_min", "frac"),
    ("metrics.low_fit", "count"),
    ("experiments.self_s", "s"), ("experiments.write_s", "s"),
    ("experiments.bytes_written", "B"),
    ("modelio.save_s", "s"), ("modelio.load_s", "s"), ("modelio.bytes", "B"),
    ("svgplot.s", "s"), ("cli.self_s", "s"),
    ("trace.overhead_frac", "frac"),
]

_COMMON = {
    "dynamics.simulate", "ridge.ridge_fit", "control.run_control", "experiments.run_single",
}
_ESN = {"esn.build_reservoir", "esn.train", "esn.step"}
_METRICS = {"metrics.correlation_dimension", "metrics.largest_lyapunov"}
# layers each workload must reach; zero calls there means the trace lost a layer
EXPECTED_CALLS = {
    "sweep_a2": (_COMMON - {"experiments.run_single"}) | _ESN | _METRICS | {
        "experiments.run_sweep", "experiments.write_sweep_csv",
        "experiments.write_summary_csv", "svgplot.errorbar_chart",
    },
    "single_ngrc_a3": _COMMON | {"ngrc.train", "ngrc.step"},
    "cli_pipeline": _COMMON | _ESN | _METRICS | {
        "experiments.prepare_trained_model", "experiments.write_trajectory_csv",
        "modelio.save_model", "modelio.load_model", "cli.main",
    },
}


class TraceCoverageError(RuntimeError):
    """The trace no longer sees a layer it is meant to measure."""


class Tracer:
    """In-memory spans, self times and work counts of one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, unit, child seconds]
        self._stack = []
        self.unit = None  # index of the unit being run; spans of one unit share it
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.valid_fraction_min = 1.0
        self.problems = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.unit, 0.0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        duration = span[2] - span[1]
        self.calls[span[0]] += 1
        self.self_s[SELF_METRIC[span[0]]] += duration - span[5]
        if span[3] is not None:
            self.spans[span[3]][5] += duration

    def record_step(self, kind: str, seconds: float) -> None:
        self.calls[f"{kind}.step"] += 1
        self.self_s[f"{kind}.step_s"] += seconds
        if self._stack:
            self.spans[self._stack[-1]][5] += seconds

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, unit, _ in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "unit": unit}
                ) + "\n")

    # -- work counts, fed by the wrappers after each call ------------------

    def count(self, name: str, args, kwargs, result, exc) -> None:
        c = self.counts
        if name == "dynamics.simulate" and exc is None:
            c["dynamics.intervals"] += len(result) - 1
        elif name == "dynamics.step_rk4" and exc is None:
            c["dynamics.intervals"] += 1
        elif name == "ridge.ridge_fit":
            rows, cols = args[0].shape
            c["ridge.fits"] += 1
            c["ridge.design_cells"] += rows * cols
        elif name == "control.run_control":
            self._count_control(result, exc)
        elif name == "metrics.correlation_dimension" and exc is None:
            diag = result[1]
            c["metrics.points"] += len(args[0])
            c["metrics.gp_pairs"] += diag.n_pairs
            c["metrics.low_fit"] += bool(diag.low_fit_quality or diag.degenerate)
        elif name == "metrics.largest_lyapunov" and exc is None:
            diag = result[1]
            self.valid_fraction_min = min(self.valid_fraction_min, diag.valid_fraction)
            c["metrics.low_fit"] += bool(diag.few_neighbors)
        elif name.startswith("experiments.write_") and exc is None:
            c["experiments.bytes_written"] += os.path.getsize(args[0])
        elif name.startswith("modelio.") and exc is None:
            c["modelio.bytes"] += os.path.getsize(args[0])

    def _count_control(self, result, exc) -> None:
        c = self.counts
        if exc is None:
            c["control.intervals"] += len(result.controlled) - 1
            return
        if not hasattr(exc, "phase"):
            return
        self.problems.extend(divergence_problems(exc))
        if exc.phase == "control":
            c["control.diverged_control"] += 1
            c["control.intervals"] += exc.step
        else:
            # predictor step s feeds interval s-1; the plant completed s-1 intervals
            c["control.diverged_predict"] += 1
            c["control.intervals"] += exc.step - 1

    # -- report ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer values by metric name (trace.overhead_frac excluded)."""
        values = defaultdict(float, self.self_s)
        values.update(self.counts)
        values["esn.steps"] = self.calls["esn.step"]
        values["ngrc.steps"] = self.calls["ngrc.step"]
        values["metrics.valid_fraction_min"] = self.valid_fraction_min
        for per_us, total, count in (
            ("dynamics.interval_us", "dynamics.simulate_s", "dynamics.intervals"),
            ("esn.step_us", "esn.step_s", "esn.steps"),
            ("ngrc.step_us", "ngrc.step_s", "ngrc.steps"),
            ("control.interval_us", "control.loop_s", "control.intervals"),
        ):
            values[per_us] = 1e6 * values[total] / values[count] if values[count] else 0.0
        return {name: float(values[name]) for name, _ in PER_LAYER
                if name != "trace.overhead_frac"}

    def check_coverage(self, workload: str) -> None:
        missing = sorted(n for n in EXPECTED_CALLS[workload] if not self.calls[n])
        if missing:
            raise TraceCoverageError(
                f"{workload}: traced layers recorded no calls: {', '.join(missing)}"
            )


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(index)
            tracer.count(name, args, kwargs, None, exc)
            raise
        tracer.close(index)
        tracer.count(name, args, kwargs, result, None)
        return result

    return traced


class _StepProxy:
    """Times ``step()`` of a predictor's stepper; forwards everything else."""

    def __init__(self, inner, tracer: Tracer, kind: str):
        self._inner = inner
        self._tracer = tracer
        self._kind = kind

    def step(self):
        t0 = time.perf_counter()
        try:
            return self._inner.step()
        finally:
            self._tracer.record_step(self._kind, time.perf_counter() - t0)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _stepper_wrapper(tracer: Tracer, kind: str, original):
    @functools.wraps(original)
    def stepper(self, *args, **kwargs):
        return _StepProxy(original(self, *args, **kwargs), tracer, kind)

    return stepper


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "chaoscontrol" or name.startswith("chaoscontrol."))]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every traced call through ``tracer`` while the block runs.

    Raises:
        TraceCoverageError: a traced name no longer exists in its module.
    """
    import chaoscontrol.cli  # noqa: F401  (loads every traced module)

    originals = {}
    for qualified in SELF_METRIC:
        module_name, attr = qualified.split(".")
        module = sys.modules[f"chaoscontrol.{module_name}"]
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise TraceCoverageError(f"traced function chaoscontrol.{qualified} is gone")
        originals[id(fn)] = (fn, _wrap(tracer, qualified, fn))

    patched = []
    for module in _package_modules():
        for key, value in list(vars(module).items()):
            entry = originals.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, key, entry[1])
                patched.append((module, key, value))
    for kind, cls in STEPPER_CLASSES.items():
        original = cls.__dict__.get("stepper")
        if original is None:
            raise TraceCoverageError(f"{cls.__name__}.stepper is gone")
        setattr(cls, "stepper", _stepper_wrapper(tracer, kind, original))
        patched.append((cls, "stepper", original))
    try:
        yield tracer
    finally:
        for owner, key, value in reversed(patched):
            setattr(owner, key, value)
