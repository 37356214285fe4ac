"""Experiment orchestration: single control runs, training snapshots, sweeps.

Reproducibility contract
------------------------
Every random draw in an experiment comes from a ``numpy.random.Generator``
seeded through one documented counter scheme and nothing else (no global
RNG state):

    SeedSequence((master_seed, KIND_ID[kind], N, realization, stream))

where ``kind`` is the predictor kind or reference-climate label, ``N`` the
training length (0 for reference rows), ``realization`` the cell's index,
and ``stream`` separates independent uses (0 = trajectory initial
condition, 1 = reservoir sampling).  Two runs with the same master seed
therefore produce identical results cell by cell, independent of worker
scheduling; output rows are sorted by (kind, N, seed) before writing.

CSV schemas: trajectory files ``t,x,y,z`` (the training snapshot adds
``phase``); sweep file ``kind,N,seed,lambda_max,corr_dim,status``;
summary file ``kind,N,lambda_mean,lambda_std,nu_mean,nu_std,n_ok``.  A
timestamped header comment is written unless suppressed, which is the
one permitted byte difference between reruns.  Every CSV has ``csv``'s
bytes: CRLF rows and each float as its ``repr``.
"""

from __future__ import annotations

import csv
import math
import os
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass
from datetime import datetime, timezone
from typing import Optional, Sequence

import numpy as np

from .control import ControlConfig, run_control
from .dynamics import (
    IntegratorConfig,
    LorenzParams,
    Trajectory,
    random_initial_state,
    relax_to_attractor,
    simulate,
    step_rk4,
)
from .errors import ChaosControlError, ConfigError, DivergenceError
from .esn import EsnConfig
from .esn import train as esn_train
from .metrics import ClimateStats, climate_stats
from .modelio import field_parsers, parse_key_values
from .ngrc import NgrcConfig
from .ngrc import train as ngrc_train
from .svgplot import errorbar_chart, line_chart

__all__ = [
    "ExperimentConfig",
    "SweepSpec",
    "SweepRow",
    "SummaryRow",
    "SweepResult",
    "SingleRunReport",
    "PREDICTOR_KINDS",
    "MAX_STEPS",
    "REFERENCE_KINDS",
    "derive_seed_sequence",
    "attractor_series",
    "prepare_trained_model",
    "run_single",
    "run_sweep",
    "export_training_snapshot",
    "summarize_rows",
    "write_csv",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_sweep_csv",
    "write_summary_csv",
    "load_config_file",
    "config_from_mapping",
]

PREDICTOR_KINDS = ("classic", "ngrc")
# reference climates of the two unforced regimes, reported alongside sweeps
REFERENCE_KINDS = ("ref_train", "ref_plant")

# upper bound on training_steps, horizon and transient_steps: one (n + 1, 3)
# float64 series of this many intervals already takes 2.4 GB
MAX_STEPS = 100_000_000

_KIND_IDS = {"classic": 0, "ngrc": 1, "ref_train": 2, "ref_plant": 3}
_STREAM_TRAJECTORY = 0
_STREAM_RESERVOIR = 1
# rows per block of the trajectory CSV encoder (see ``_encode_rows``)
CSV_BLOCK = 4096
TRAJECTORY_COLUMNS = ("t", "x", "y", "z")


# --------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat description of one experiment; every field is overridable.

    ``washout=None`` applies the rule t_w = min(1000, N // 5), which meets
    both operating points used throughout (1000 at N=5000, 100 at N=500)
    and scales in between.
    """

    kind: str = "classic"
    training_steps: int = 5000
    washout: Optional[int] = None
    horizon: int = 10_000
    master_seed: int = 0
    dt: float = 0.05
    substeps: int = 5
    transient_steps: int = 1000
    sigma: float = 10.0
    rho_train: float = 166.15
    rho_plant: float = 167.2
    lorenz_beta: float = 8.0 / 3.0
    control_gain: float = 20.0
    esn_reservoir_dim: int = 300
    esn_edge_prob: float = 0.02
    esn_input_scale: float = 0.0084
    esn_spectral_radius: float = 0.0084
    esn_ridge_beta: float = 1e-11
    ngrc_k: int = 1
    ngrc_s: int = 57
    ngrc_orders: tuple[int, ...] = (1, 2, 3, 4)
    ngrc_ridge_beta: float = 1e-4

    def __post_init__(self):
        if self.kind not in PREDICTOR_KINDS:
            raise ConfigError(f"kind must be one of {PREDICTOR_KINDS}, got {self.kind!r}")
        for name, low in (("training_steps", 2), ("horizon", 1), ("transient_steps", 0)):
            if not low <= getattr(self, name) <= MAX_STEPS:
                raise ConfigError(f"{name} must lie in [{low}, {MAX_STEPS}]")
        if self.washout is not None and self.washout < 0:
            raise ConfigError("washout must be >= 0")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be >= 0")
        # every derived config validates its own fields; build each once so
        # a bad value fails here and not midway through a command, and name
        # the config keys it was built from
        derived = (
            ("sigma / rho_train / lorenz_beta", self.train_params),
            ("sigma / rho_plant / lorenz_beta", self.plant_params),
            ("dt / substeps", self.integrator),
            ("esn_reservoir_dim / esn_edge_prob / esn_input_scale / esn_spectral_radius"
             " / esn_ridge_beta", lambda: self.esn_config(seed=0, n=self.training_steps)),
            ("ngrc_k / ngrc_s / ngrc_orders / ngrc_ridge_beta", self.ngrc_config),
            ("control_gain", self.control_config),
        )
        for keys, build in derived:
            try:
                build()
            except ValueError as exc:
                raise ConfigError(f"{keys}: {exc}") from None

    def train_params(self) -> LorenzParams:
        return LorenzParams(self.sigma, self.rho_train, self.lorenz_beta)

    def plant_params(self) -> LorenzParams:
        return LorenzParams(self.sigma, self.rho_plant, self.lorenz_beta)

    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(dt=self.dt, substeps=self.substeps)

    def control_config(self) -> ControlConfig:
        return ControlConfig(
            plant_params=self.plant_params(), K=self.control_gain, n_steps=self.horizon
        )

    def washout_for(self, n: int) -> int:
        return self.washout if self.washout is not None else min(1000, n // 5)

    def esn_config(self, seed: int, n: int) -> EsnConfig:
        return EsnConfig(
            reservoir_dim=self.esn_reservoir_dim,
            edge_prob=self.esn_edge_prob,
            input_scale=self.esn_input_scale,
            spectral_radius=self.esn_spectral_radius,
            ridge_beta=self.esn_ridge_beta,
            washout=self.washout_for(n),
            seed=seed,
        )

    def ngrc_config(self) -> NgrcConfig:
        return NgrcConfig(
            k=self.ngrc_k,
            s=self.ngrc_s,
            orders=tuple(self.ngrc_orders),
            ridge_beta=self.ngrc_ridge_beta,
        )


@dataclass(frozen=True)
class SweepSpec:
    """Grid of a data-efficiency sweep."""

    training_lengths: tuple[int, ...] = (250, 500, 750, 1000, 1500, 2000, 3000, 4000, 5000)
    n_realizations: int = 100
    kinds: tuple[str, ...] = PREDICTOR_KINDS

    def __post_init__(self):
        lengths = tuple(self.training_lengths)
        # each length is one cell's training_steps
        if not lengths or any(not 2 <= n <= MAX_STEPS for n in lengths):
            raise ConfigError(f"training_lengths must lie in [2, {MAX_STEPS}]")
        if any(a >= b for a, b in zip(lengths, lengths[1:])):
            raise ConfigError("training_lengths must be strictly ascending")
        if not self.kinds or any(k not in PREDICTOR_KINDS for k in self.kinds):
            raise ConfigError(f"kinds must be drawn from {PREDICTOR_KINDS}")
        if len(set(self.kinds)) != len(self.kinds):
            raise ConfigError("kinds must not repeat")
        if self.n_realizations < 1:
            raise ConfigError("n_realizations must be >= 1")


# config-file keys of the SweepSpec fields; every other key is an
# ExperimentConfig field name
_SWEEP_KEYS = {
    "sweep_lengths": "training_lengths",
    "sweep_realizations": "n_realizations",
    "sweep_kinds": "kinds",
}


def load_config_file(path) -> dict:
    """Parse a flat key=value config file ('#' comments, blank lines ok).

    A key given twice is a ConfigError, like an unknown one.
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a UTF-8 text file ({exc.reason})") from None
    return parse_key_values(lines, path)


def config_from_mapping(mapping: dict) -> tuple:
    """Build (ExperimentConfig, SweepSpec) from string key=value pairs.

    A key is an ExperimentConfig field name or one of the three sweep keys,
    and each value is parsed by its field's annotated type.  Unknown keys
    are rejected so that typos fail loudly instead of running a silently
    different experiment.
    """
    exp_parsers, sweep_parsers = field_parsers(ExperimentConfig), field_parsers(SweepSpec)
    exp_kwargs, sweep_kwargs = {}, {}
    for key, raw in mapping.items():
        if key in exp_parsers:
            kwargs, name, parse = exp_kwargs, key, exp_parsers[key]
        elif key in _SWEEP_KEYS:
            name = _SWEEP_KEYS[key]
            kwargs, parse = sweep_kwargs, sweep_parsers[name]
        else:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            kwargs[name] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    return ExperimentConfig(**exp_kwargs), SweepSpec(**sweep_kwargs)


# --------------------------------------------------------------------------
# seed derivation


def derive_seed_sequence(
    master_seed: int, kind: str, n: int, realization: int, stream: int
) -> np.random.SeedSequence:
    """Counter-scheme seed: (master, kind id, N, realization, stream)."""
    return np.random.SeedSequence(
        (master_seed, _KIND_IDS[kind], n, realization, stream)
    )


def _derived_int(master_seed: int, kind: str, n: int, realization: int, stream: int) -> int:
    seq = derive_seed_sequence(master_seed, kind, n, realization, stream)
    return int(seq.generate_state(1, np.uint32)[0])


# --------------------------------------------------------------------------
# shared pipeline pieces


def attractor_series(
    cfg: ExperimentConfig, kind: str, n: int, realization: int, n_steps: int
) -> Trajectory:
    """Seeded attractor series of one cell, ``n_steps`` intervals long.

    The initial condition comes from the cell's trajectory stream; it is
    relaxed onto the attractor and then simulated, under the plant
    parameters for ``ref_plant`` and the training parameters otherwise.
    A cell's training series is ``attractor_series(cfg, kind, n, r, n - 1)``.
    """
    params = cfg.plant_params() if kind == "ref_plant" else cfg.train_params()
    rng = np.random.default_rng(
        derive_seed_sequence(cfg.master_seed, kind, n, realization, _STREAM_TRAJECTORY)
    )
    u0 = relax_to_attractor(
        random_initial_state(rng), params, cfg.integrator(), cfg.transient_steps
    )
    return simulate(u0, params, cfg.integrator(), n_steps)


def _fit_cell(cfg: ExperimentConfig, kind: str, n: int, realization: int) -> tuple:
    """(training, model) of one predictor cell: its N-sample series and fit."""
    training = attractor_series(cfg, kind, n, realization, n - 1)
    if kind == "classic":
        seed = _derived_int(cfg.master_seed, kind, n, realization, _STREAM_RESERVOIR)
        return training, esn_train(training, cfg.esn_config(seed=seed, n=n))
    return training, ngrc_train(training, cfg.ngrc_config())


def _control_cell(cfg: ExperimentConfig, kind: str, n: int, realization: int) -> tuple:
    """(training, ControlRun) of one predictor cell: fit, then steer the plant."""
    training, model = _fit_cell(cfg, kind, n, realization)
    # the plant starts one interval past the training end, already under the
    # target-regime parameters, aligning u with the predictor's first output
    u0 = step_rk4(training.samples[-1], cfg.plant_params(), cfg.integrator())
    return training, run_control(model.stepper(), u0, cfg.control_config(), cfg.integrator())


def prepare_trained_model(cfg: ExperimentConfig) -> tuple:
    """Generate the seeded training series and fit the configured predictor.

    Returns (training, model); the series is identical to the one
    realization 0 of a run_single/sweep cell with the same N trains on.
    """
    return _fit_cell(cfg, cfg.kind, cfg.training_steps, 0)


# --------------------------------------------------------------------------
# single runs


@dataclass
class SingleRunReport:
    """Everything one control experiment produces."""

    reference: Trajectory
    training: Trajectory
    uncontrolled: Trajectory
    controlled: Trajectory
    prediction: Trajectory
    forces: Trajectory
    reference_climate: ClimateStats
    uncontrolled_climate: ClimateStats
    controlled_climate: ClimateStats


def run_single(cfg: ExperimentConfig, realization: int = 0) -> SingleRunReport:
    """Train, switch the plant regime, control, and measure all climates.

    The reference is the unforced training-regime series from the training
    start, ``max(n - 1, horizon)`` intervals long.  Only the training part
    is simulated before control; the rest is appended after control
    returns, so a run that diverges never pays for it.  RK4 continues from
    the last training sample exactly as one long simulation would, so the
    reference is bit-identical to simulating it in one call.

    Raises:
        DivergenceError: if prediction or control blows up (phase tagged).
    """
    integ = cfg.integrator()
    n = cfg.training_steps
    training, run = _control_cell(cfg, cfg.kind, n, realization)
    reference = training
    if cfg.horizon > n - 1:
        tail = simulate(
            training.samples[-1], cfg.train_params(), integ, cfg.horizon - (n - 1)
        )
        reference = Trajectory(
            integ.dt, np.concatenate([training.samples, tail.samples[1:]])
        )
    u0c = run.controlled.samples[0]
    uncontrolled = simulate(u0c, cfg.plant_params(), integ, cfg.horizon)
    return SingleRunReport(
        reference=reference,
        training=training,
        uncontrolled=uncontrolled,
        controlled=run.controlled,
        prediction=run.hypothetical,
        forces=run.forces,
        reference_climate=climate_stats(reference),
        uncontrolled_climate=climate_stats(uncontrolled),
        controlled_climate=climate_stats(run.controlled),
    )


# --------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class SweepRow:
    kind: str
    n: int
    seed: int
    lambda_max: float
    corr_dim: float
    status: str


@dataclass(frozen=True)
class SummaryRow:
    kind: str
    n: int
    lambda_mean: float
    lambda_std: float
    nu_mean: float
    nu_std: float
    n_ok: int


@dataclass
class SweepResult:
    rows: list
    summary: list


def _run_cell(args) -> SweepRow:
    cfg, kind, n, realization = args
    lam = nu = float("nan")
    try:
        if kind in REFERENCE_KINDS:
            series = attractor_series(cfg, kind, n, realization, cfg.horizon)
        else:
            series = _control_cell(cfg, kind, n, realization)[1].controlled
        stats = climate_stats(series)
        lam, nu = stats.lambda_max, stats.corr_dim
        status = "ok" if math.isfinite(lam) and math.isfinite(nu) else "degenerate"
    except DivergenceError:
        status = "diverged"
    except ChaosControlError:
        status = "failed"
    return SweepRow(kind, n, realization, float(lam), float(nu), status)


def summarize_rows(rows: Sequence[SweepRow]) -> list:
    """Aggregate ok rows into per-(kind, N) means/stds (population std)."""
    cells = {}
    for row in rows:
        cells.setdefault((row.kind, row.n), []).append(row)
    summary = []
    for (kind, n) in sorted(cells):
        ok = [r for r in cells[(kind, n)] if r.status == "ok"]
        if ok:
            lams = np.array([r.lambda_max for r in ok])
            nus = np.array([r.corr_dim for r in ok])
            summary.append(
                SummaryRow(
                    kind, n,
                    float(lams.mean()), float(lams.std()),
                    float(nus.mean()), float(nus.std()),
                    len(ok),
                )
            )
        else:
            nan = float("nan")
            summary.append(SummaryRow(kind, n, nan, nan, nan, nan, 0))
    return summary


def run_sweep(
    spec: SweepSpec,
    cfg: ExperimentConfig,
    out_dir: Optional[str] = None,
    jobs: int = 1,
    timestamp: bool = True,
) -> SweepResult:
    """Run the full (kind x N x realization) grid plus reference cells.

    A diverged or otherwise failed realization contributes a logged row
    with a non-ok status and is excluded from the moments.  When
    ``out_dir`` is given, writes sweep.csv, summary.csv and one errorbar
    chart per climate measure.
    """
    grid = [
        (cfg, kind, n, r)
        for kind in spec.kinds
        for n in spec.training_lengths
        for r in range(spec.n_realizations)
    ]
    grid += [
        (cfg, kind, 0, r)
        for kind in REFERENCE_KINDS
        for r in range(spec.n_realizations)
    ]
    # the fork start method launches every worker up front, so never ask
    # for more than there are cells or cores
    workers = min(jobs, len(grid), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_cell, grid, chunksize=1))
    else:
        rows = [_run_cell(args) for args in grid]
    rows.sort(key=lambda r: (r.kind, r.n, r.seed))
    summary = summarize_rows(rows)
    result = SweepResult(rows=rows, summary=summary)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_sweep_csv(os.path.join(out_dir, "sweep.csv"), rows, timestamp)
        write_summary_csv(os.path.join(out_dir, "summary.csv"), summary, timestamp)
        _write_sweep_charts(out_dir, spec, summary)
    return result


def _write_sweep_charts(out_dir, spec: SweepSpec, summary) -> None:
    # the grid gives every (kind, N) of the spec, and the reference, one row
    rows = {(row.kind, row.n): row for row in summary}
    lengths = spec.training_lengths
    for field, err_field, label, fname in (
        ("lambda_mean", "lambda_std", "largest Lyapunov exponent", "sweep_lambda.svg"),
        ("nu_mean", "nu_std", "correlation dimension", "sweep_nu.svg"),
    ):
        series = [
            (kind, lengths, [getattr(rows[kind, n], field) for n in lengths],
             [getattr(rows[kind, n], err_field) for n in lengths])
            for kind in spec.kinds
        ]
        level = getattr(rows["ref_train", 0], field)
        errorbar_chart(
            os.path.join(out_dir, fname),
            series,
            title=f"controlled {label} vs training length",
            xlabel="training steps",
            ylabel=label,
            hlines=[(level, "target climate")] if math.isfinite(level) else [],
        )


# --------------------------------------------------------------------------
# CSV output


def _write_head(fh, columns: Sequence, timestamp: bool) -> None:
    """The optional stamp line, then the header row (names need no quoting)."""
    if timestamp:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        fh.write(f"# generated {stamp}\n")
    fh.write(",".join(columns) + "\r\n")


def write_csv(path, header: Sequence, rows, timestamp: bool) -> None:
    """Write one header row and the data rows, after the optional stamp.

    For the small mixed-type tables: sweep, summary, metrics diagnostics
    and climate summary.  Pass floats as Python floats (``tolist()``):
    ``csv`` writes those as their repr, which round-trips exactly.  Rows
    end in CRLF, the ``csv`` default; the stamp line ends in LF.
    """
    with open(path, "w", newline="") as fh:
        _write_head(fh, header, timestamp)
        csv.writer(fh).writerows(rows)


def _encode_rows(fh, traj: Trajectory, start: int, stop: int, row_end: str = "\r\n") -> None:
    """Write samples start..stop-1 of a 3-D ``traj`` as t,x,y,z text rows.

    Each block of ``CSV_BLOCK`` rows is stacked with its times, taken to
    Python floats and rendered by one ``%r`` format: the bytes ``csv``
    writes for the same floats, since ``str`` of a float is its ``repr``.
    Times are ``dt * i`` as in ``Trajectory.times``, formed per block, so
    memory stays bounded by one block.  ``row_end`` closes every row; it
    carries any constant trailing column and must hold no ``%``.
    """
    row = "%r,%r,%r,%r" + row_end
    for first in range(start, stop, CSV_BLOCK):
        last = min(first + CSV_BLOCK, stop)
        block = np.column_stack([traj.dt * np.arange(first, last), traj.samples[first:last]])
        fh.write((row * (last - first)) % tuple(block.ravel().tolist()))


def write_trajectory_csv(path, traj: Trajectory, timestamp: bool = True) -> None:
    """Write a trajectory as t,x,y,z rows (repr-exact floats)."""
    if traj.dim != 3:
        raise ValueError("trajectory CSV schema is fixed at three components")
    with open(path, "w", newline="") as fh:
        _write_head(fh, TRAJECTORY_COLUMNS, timestamp)
        _encode_rows(fh, traj, 0, len(traj))


def read_trajectory_csv(path) -> Trajectory:
    """Read the t,x,y,z columns of a trajectory CSV, after any ``#`` lines.

    Blank rows and further columns (the snapshot's ``phase``) are ignored.
    Rows are checked as they are read into one flat float buffer (about 32
    bytes a row beyond the series), so in a file with two faults the first
    one met is reported, and a non-UTF-8 byte surfaces when its block is
    decoded.  Faults raise ConfigError; sample N is the Nth non-empty row.
    """
    flat = array("d")
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(line for line in fh if not line.startswith("#"))
            if tuple(h.strip() for h in next(reader, ())[:4]) != TRAJECTORY_COLUMNS:
                raise ConfigError(
                    f"{path}: expected a {','.join(TRAJECTORY_COLUMNS)} trajectory CSV"
                )
            for sample, row in enumerate(filter(None, reader), 1):
                if len(row) < 4:
                    raise ConfigError(
                        f"{path}: sample {sample}: expected 4 values, got {len(row)}"
                    )
                try:
                    values = float(row[0]), float(row[1]), float(row[2]), float(row[3])
                except ValueError:
                    raise ConfigError(f"{path}: sample {sample}: non-numeric value") from None
                if not all(map(math.isfinite, values)):
                    raise ConfigError(f"{path}: sample {sample}: non-finite value")
                flat.extend(values)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a UTF-8 text file ({exc.reason})") from None
    except csv.Error as exc:
        raise ConfigError(f"{path}: malformed CSV ({exc})") from None
    data = np.frombuffer(flat).reshape(-1, 4)
    if len(data) < 2:
        raise ConfigError(f"{path}: need at least two samples")
    dt = float(data[1, 0] - data[0, 0])
    # lambda is a per-step slope over dt, so a wrong dt silently rescales it
    if not dt > 0 or np.any(np.abs(np.diff(data[:, 0]) - dt) > 1e-6 * dt):
        raise ConfigError(f"{path}: time column is not uniformly increasing")
    return Trajectory(dt, data[:, 1:])


def write_sweep_csv(path, rows: Sequence[SweepRow], timestamp: bool = True) -> None:
    header = ["kind", "N", "seed", "lambda_max", "corr_dim", "status"]
    write_csv(path, header, map(astuple, rows), timestamp)


def write_summary_csv(path, summary: Sequence[SummaryRow], timestamp: bool = True) -> None:
    header = ["kind", "N", "lambda_mean", "lambda_std", "nu_mean", "nu_std", "n_ok"]
    write_csv(path, header, map(astuple, summary), timestamp)


# --------------------------------------------------------------------------
# training snapshot


def export_training_snapshot(
    cfg: ExperimentConfig, out_dir: str, timestamp: bool = True
) -> str:
    """Write realization 0's training series with its discard boundary marked.

    Produces ``training_snapshot.csv`` (t,x,y,z,phase) and a matching SVG.
    The phase column separates samples the trainer discards (classic:
    reservoir washout; ngrc: tap warm-up) from those that form regression
    rows; the t column is generated identically to trajectory CSVs.
    """
    os.makedirs(out_dir, exist_ok=True)
    n = cfg.training_steps
    training = attractor_series(cfg, cfg.kind, n, 0, n - 1)
    if cfg.kind == "classic":
        boundary = cfg.washout_for(n)
        discard_phase = "washout"
    else:
        boundary = cfg.ngrc_config().warmup
        discard_phase = "warmup"

    csv_path = os.path.join(out_dir, "training_snapshot.csv")
    cut = min(boundary, len(training))
    with open(csv_path, "w", newline="") as fh:
        _write_head(fh, TRAJECTORY_COLUMNS + ("phase",), timestamp)
        _encode_rows(fh, training, 0, cut, f",{discard_phase}\r\n")
        _encode_rows(fh, training, cut, len(training), ",train\r\n")

    times = training.times
    line_chart(
        os.path.join(out_dir, "training_snapshot.svg"),
        [(comp, times, training.samples[:, j]) for j, comp in enumerate("xyz")],
        title=f"{cfg.kind} training data (N={n})",
        xlabel="t",
        ylabel="state",
        vlines=[(times[boundary], f"{discard_phase} end")]
        if 0 < boundary < len(times)
        else [],
    )
    return csv_path
