"""The benchmark's workloads: what one run executes and how its outputs are checked.

All workloads are closed loop: one caller issues one op at a time, with
``jobs=1``.  Every op uses the ``ExperimentConfig`` defaults (dt=0.05, 5
substeps, horizon 10k, 1000 transient steps); only the predictor kind, the
training length N, the master seed and the realization vary.  A run is a
list of *units* (a sweep call, one realization across the NG-RC lengths,
one CLI pipeline).  The unit count per run follows from ``--seconds`` and a
fixed nominal unit cost, so it is the same on every commit.

Output checks never compare against frozen numbers, because legitimate
estimator changes move lambda and nu; instead each unit yields a digest
that repeated executions of the same inputs must reproduce.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import shutil
import time
from dataclasses import dataclass, field, replace

import numpy as np

# calls go through the module attributes so that a traced run sees them
from chaoscontrol import cli, dynamics, experiments, metrics
from chaoscontrol.errors import DivergenceError
from chaoscontrol.experiments import ExperimentConfig, SweepSpec
from chaoscontrol.modelio import FORMAT_MAGIC

# state-X climate band of the training regime (A2's success measure)
X_LAMBDA = (0.45, 0.80)
X_NU = (1.15, 1.55)

NGRC_LENGTHS = (250, 500, 1000, 2000, 5000)
SWEEP_REALIZATIONS = 3
PREDICT_STEPS = 2000
# CLI steps whose exit 3 reports a diverged prediction, a legitimate outcome
DIVERGING_STEPS = ("predict", "control")

WHY = {
    "sweep_a2": (
        "A2 headline operating point (classic, N=5000) and the only workload with "
        "several realizations per (kind, N): realization batching shows here only"
    ),
    "single_ngrc_a3": (
        "only traffic through the ngrc layer; most ops diverge in predict before any "
        "climate work, so a metrics change leaves its median op unmoved"
    ),
    "cli_pipeline": (
        "interactive single experiment: one realization (no batching), the only "
        "workload that writes and re-reads trajectory CSVs and a .ccm model"
    ),
}


@dataclass
class Op:
    """Outcome of one op: a sweep cell, a run_single call or a CLI pipeline."""

    status: str  # "ok", "diverged", "degenerate" or "failed"
    phase: str | None = None  # where a DivergenceError was raised, when one was seen
    controlled: bool = False  # a controlled run that counts toward x_band_frac
    in_x_band: bool = False
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.status == "failed" or bool(self.problems)


@dataclass
class UnitResult:
    """Timed execution of one unit plus what its output checks found.

    ``op_spans`` holds the (start, end) clock readings of each latency
    sample in ``op_seconds``.
    """

    seconds: float
    op_seconds: list
    op_spans: list
    ops: list
    digest: str


def in_x_band(lam: float, nu: float) -> bool:
    return X_LAMBDA[0] <= lam <= X_LAMBDA[1] and X_NU[0] <= nu <= X_NU[1]


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _tree_bytes(root: str):
    """(relative path, content) for every file under ``root``, sorted."""
    out = []
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out.append((os.path.relpath(path, root), fh.read()))
    return sorted(out)


def _read_csv(path: str):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0] if rows else None), rows[1:]


def _check_csv(path: str, header: list, n_rows: int, problems: list) -> list:
    """Append a problem unless ``path`` has exactly ``header`` and ``n_rows`` rows."""
    if not os.path.isfile(path):
        problems.append(f"missing {os.path.basename(path)}")
        return []
    head, rows = _read_csv(path)
    if head != header:
        problems.append(f"{os.path.basename(path)}: header {head}")
    if len(rows) != n_rows:
        problems.append(f"{os.path.basename(path)}: {len(rows)} rows, want {n_rows}")
    return rows


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def divergence_problems(exc: DivergenceError) -> list:
    """A DivergenceError must say where it happened: phase and a step >= 1."""
    problems = []
    if exc.phase not in ("predict", "control"):
        problems.append(f"divergence phase {exc.phase!r}")
    if not (isinstance(exc.step, int) and exc.step >= 1):
        problems.append(f"divergence step {exc.step!r}")
    return problems


class Workload:
    """A named op stream; ``cfg`` is overridable only for the self-tests."""

    name = ""
    # mean cost of one unit measured when the benchmark was defined (2 vCPUs);
    # a constant, so a run of --seconds makes the same units on every commit
    unit_seconds = 1.0

    def __init__(self, cfg: ExperimentConfig = ExperimentConfig()):
        self.cfg = cfg

    def units(self, seed: int, seconds: float) -> list:
        count = max(1, round(seconds / self.unit_seconds))
        return [self.unit(seed, k) for k in range(count)]

    def unit(self, seed: int, k: int):
        raise NotImplementedError

    def run_unit(self, unit, workdir: str, clock) -> UnitResult:
        raise NotImplementedError


class SweepA2(Workload):
    """run_sweep on the A2 grid: classic, N=5000, R realizations and 2R reference cells."""

    name = "sweep_a2"
    unit_seconds = 15.0

    def __init__(self, cfg=ExperimentConfig(), n=5000, realizations=SWEEP_REALIZATIONS):
        super().__init__(cfg)
        self.n = n
        self.realizations = realizations

    def unit(self, seed, k):
        # one sweep call per unit; calls differ only in the master seed
        return 1000 * seed + k

    def run_unit(self, master_seed, workdir, clock):
        spec = SweepSpec(
            training_lengths=(self.n,), n_realizations=self.realizations,
            kinds=("classic",),
        )
        cfg = replace(self.cfg, master_seed=master_seed)
        t0 = clock()
        result = experiments.run_sweep(spec, cfg, out_dir=workdir, jobs=1, timestamp=False)
        t1 = clock()
        seconds = t1 - t0

        expected = sorted(
            [("classic", self.n, r) for r in range(self.realizations)]
            + [(kind, 0, r) for kind in ("ref_plant", "ref_train")
               for r in range(self.realizations)]
        )
        shared = []
        if sorted((r.kind, r.n, r.seed) for r in result.rows) != expected:
            shared.append("sweep rows do not match the grid")
        csv_rows = _check_csv(
            os.path.join(workdir, "sweep.csv"),
            ["kind", "N", "seed", "lambda_max", "corr_dim", "status"],
            len(expected), shared,
        )
        written = [
            [r.kind, str(r.n), str(r.seed), repr(r.lambda_max), repr(r.corr_dim), r.status]
            for r in result.rows
        ]
        if csv_rows and csv_rows != written:
            shared.append("sweep.csv differs from the returned rows")
        _check_csv(
            os.path.join(workdir, "summary.csv"),
            ["kind", "N", "lambda_mean", "lambda_std", "nu_mean", "nu_std", "n_ok"],
            3, shared,
        )
        for chart in ("sweep_lambda.svg", "sweep_nu.svg"):
            path = os.path.join(workdir, chart)
            if not (os.path.isfile(path) and os.path.getsize(path) > 0):
                shared.append(f"missing {chart}")

        ops = []
        for row in result.rows:
            op = Op(status=row.status, problems=list(shared))
            if row.status not in ("ok", "diverged", "degenerate", "failed"):
                op.problems.append(f"unknown status {row.status!r}")
            if row.status == "ok" and not _finite(row.lambda_max, row.corr_dim):
                op.problems.append("ok row with non-finite lambda or nu")
            if row.kind == "classic":
                op.controlled = True
                op.in_x_band = row.status == "ok" and in_x_band(row.lambda_max, row.corr_dim)
            ops.append(op)
        digest = _digest(_tree_bytes(workdir))
        return UnitResult(seconds, [seconds / len(ops)], [(t0, t1)], ops, digest)


class SingleNgrcA3(Workload):
    """run_single(kind="ngrc") across the A3/A4 lengths and successive realizations."""

    name = "single_ngrc_a3"
    unit_seconds = 1.25  # survivors included: ~5% of ops, ~70x a diverged op

    def __init__(self, cfg=ExperimentConfig(), lengths=NGRC_LENGTHS):
        super().__init__(cfg)
        self.lengths = tuple(lengths)

    def unit(self, seed, k):
        # unit k is realization k at every length, all under master seed ``seed``
        return seed, k

    def run_unit(self, unit, workdir, clock):
        master_seed, realization = unit
        ops, spans, outcomes = [], [], []
        for n in self.lengths:
            cfg = replace(
                self.cfg, kind="ngrc", training_steps=n, master_seed=master_seed
            )
            t0 = clock()
            try:
                report = experiments.run_single(cfg, realization)
            except DivergenceError as exc:
                spans.append((t0, clock()))
                ops.append(Op("diverged", exc.phase, problems=divergence_problems(exc)))
                outcomes.append((n, "diverged", exc.phase, exc.step))
                continue
            except Exception as exc:  # any other error is a failed op, not a crash
                spans.append((t0, clock()))
                ops.append(Op("failed", problems=[f"{type(exc).__name__}: {exc}"]))
                outcomes.append((n, "failed", type(exc).__name__))
                continue
            spans.append((t0, clock()))
            ops.append(self._check_report(report))
            climates = [
                (c.lambda_max, c.corr_dim)
                for c in (report.reference_climate, report.uncontrolled_climate,
                          report.controlled_climate)
            ]
            outcomes.append((n, "ok", climates))
        op_seconds = [t1 - t0 for t0, t1 in spans]
        return UnitResult(sum(op_seconds), op_seconds, spans, ops, _digest(outcomes))

    def _check_report(self, report) -> Op:
        op = Op("ok", controlled=True)
        horizon = self.cfg.horizon
        for name in ("controlled", "uncontrolled", "prediction", "forces"):
            if len(getattr(report, name)) != horizon + 1:
                op.problems.append(f"{name} has {len(getattr(report, name))} samples")
        for name in ("reference_climate", "uncontrolled_climate", "controlled_climate"):
            stats = getattr(report, name)
            if not _finite(stats.lambda_max, stats.corr_dim):
                op.problems.append(f"{name} not finite")
        ctl = report.controlled_climate
        op.in_x_band = not op.problems and in_x_band(ctl.lambda_max, ctl.corr_dim)
        return op


class CliPipeline(Workload):
    """chaosctl main() in-process: simulate, train, predict, metrics, control."""

    name = "cli_pipeline"
    unit_seconds = 6.25

    def __init__(self, cfg=ExperimentConfig(), predict_steps=PREDICT_STEPS):
        super().__init__(cfg)
        self.predict_steps = predict_steps

    def unit(self, seed, k):
        return 1000 * seed + k

    def _argv(self, workdir):
        d = {s: os.path.join(workdir, s) for s in ("sim", "model", "pred", "met", "ctl")}
        return [
            ("simulate", ["simulate", "--out", d["sim"]]),
            ("train", ["train", "--kind", "classic", "--out", d["model"]]),
            ("predict", ["predict", "--model", os.path.join(d["model"], "model.ccm"),
                         "--steps", str(self.predict_steps), "--out", d["pred"]]),
            ("metrics", ["metrics", "--input", os.path.join(d["sim"], "trajectory.csv"),
                         "--out", d["met"]]),
            ("control", ["control", "--kind", "classic", "--out", d["ctl"]]),
        ], d

    def _config_args(self, workdir):
        """Pass any non-default experiment field through a config file."""
        changed = {
            k: v for k, v in vars(self.cfg).items()
            if k not in ("kind", "master_seed") and v != getattr(ExperimentConfig(), k)
        }
        if not changed:
            return []
        path = os.path.join(workdir, "experiment.cfg")
        with open(path, "w") as fh:
            for key, value in changed.items():
                fh.write(f"{key}={value}\n")
        return ["--config", path]

    def run_unit(self, master_seed, workdir, clock):
        os.makedirs(workdir, exist_ok=True)
        extra = ["--seed", str(master_seed), "--no-timestamp"]
        extra += self._config_args(workdir)
        steps, dirs = self._argv(workdir)
        problems, codes, stdout, diverged = [], [], {}, []
        seconds = 0.0
        start = clock()
        for name, argv in steps:
            out = io.StringIO()
            t0 = clock()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    code = cli.main(argv + extra)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is a failed pipeline, not a crash
                code = f"{type(exc).__name__}: {exc}"
            seconds += clock() - t0
            codes.append(code)
            stdout[name] = out.getvalue()
            said = out.getvalue().strip().splitlines()
            if code == 3 and name in DIVERGING_STEPS and said[-1].startswith("divergence:"):
                # exit 3 is the CLI's contract for a prediction that blows up
                diverged.append(name)
            elif code != 0:
                problems.append(f"{name} exited {code!r}: {out.getvalue().strip()[-200:]}")
        end = clock()
        op = Op("diverged" if diverged else "ok", controlled="control" not in diverged)
        op.problems = problems or self._check_outputs(dirs, stdout, diverged, op)
        if op.problems:
            op.status = "failed"
        digest = _digest([codes] + _tree_bytes(workdir))
        return UnitResult(seconds, [seconds], [(start, end)], [op], digest)

    def _check_outputs(self, dirs, stdout, diverged, op) -> list:
        """Headers and row counts of every output; a diverged step wrote none."""
        problems = []
        traj = ["t", "x", "y", "z"]
        samples = self.cfg.horizon + 1
        _check_csv(os.path.join(dirs["sim"], "trajectory.csv"), traj, samples, problems)
        model = os.path.join(dirs["model"], "model.ccm")
        with open(model, "rb") as fh:
            head = fh.read(len(FORMAT_MAGIC) + 14)
        if not head.startswith((FORMAT_MAGIC + "\nkind=classic").encode()):
            problems.append("model.ccm: bad magic or kind")
        if "predict" not in diverged:
            _check_csv(os.path.join(dirs["pred"], "prediction.csv"), traj,
                       self.predict_steps, problems)
        _check_csv(os.path.join(dirs["met"], "lyapunov_diagnostics.csv"),
                   ["step", "mean_log_distance"], 61, problems)
        _check_csv(os.path.join(dirs["met"], "gp_diagnostics.csv"), ["r", "c"], 20, problems)
        printed = dict(
            line.split("=", 1) for line in stdout["metrics"].splitlines() if "=" in line
        )
        if not _finite(float(printed.get("lambda_max", "nan")),
                       float(printed.get("corr_dim", "nan"))):
            problems.append("metrics printed non-finite lambda or nu")
        if "control" in diverged:
            return problems
        ref_len = max(self.cfg.training_steps - 1, self.cfg.horizon) + 1
        for name in ("reference", "uncontrolled", "controlled", "prediction", "forces"):
            _check_csv(os.path.join(dirs["ctl"], f"{name}.csv"), traj,
                       ref_len if name == "reference" else samples, problems)
        rows = _check_csv(os.path.join(dirs["ctl"], "climate_summary.csv"),
                          ["series", "lambda_max", "corr_dim"], 3, problems)
        climates = {row[0]: (float(row[1]), float(row[2])) for row in rows}
        if set(climates) != {"reference", "uncontrolled", "controlled"} or not all(
            _finite(*v) for v in climates.values()
        ):
            problems.append("climate_summary.csv: missing or non-finite climates")
        elif not problems:
            op.in_x_band = in_x_band(*climates["controlled"])
        return problems

WORKLOADS = {w.name: w for w in (SweepA2, SingleNgrcA3, CliPipeline)}


def warm_up() -> None:
    """First-call warm-up: one tiny experiment per predictor kind, then one
    climate estimate of a horizon-length series.

    The first LAPACK call in a process costs up to a second; users pay it
    once per process, so it is set-up time, not op time.  The full-size
    climate estimate takes the process to the estimators' working set
    (about 200 MB here), so that peak_rss_mb does not hinge on whether any
    NG-RC op of a run survives to its climate phase.
    """
    for kind in ("classic", "ngrc"):
        cfg = ExperimentConfig(kind=kind, training_steps=300, horizon=300,
                               transient_steps=50)
        try:
            experiments.run_single(cfg)
        except DivergenceError:
            pass
    cfg = ExperimentConfig()
    u0 = dynamics.relax_to_attractor(
        dynamics.random_initial_state(np.random.default_rng(0)),
        cfg.train_params(), cfg.integrator(), cfg.transient_steps,
    )
    series = dynamics.simulate(u0, cfg.train_params(), cfg.integrator(), cfg.horizon)
    metrics.climate_stats(series)


def run_units(workload: Workload, units: list, workdir: str,
              clock=time.perf_counter) -> list:
    """Execute ``units`` in order, each in a fresh ``workdir`` removed afterwards;
    ops are timed with ``clock``."""
    results = []
    for unit in units:
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        results.append(workload.run_unit(unit, workdir, clock))
        shutil.rmtree(workdir, ignore_errors=True)
    return results
