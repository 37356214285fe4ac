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

CSV schemas: trajectory files ``t,x,y,z``; sweep file
``kind,N,seed,lambda_max,corr_dim,status``; summary file
``kind,N,lambda_mean,lambda_std,nu_mean,nu_std,n_ok``.  A timestamped
header comment is written unless suppressed, which is the one permitted
byte difference between reruns.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass
from datetime import datetime, timezone
from typing import Optional, Sequence, Union

import numpy as np

from .control import ControlConfig, ControlRun, run_control
from .dynamics import (
    IntegratorConfig,
    LorenzParams,
    Trajectory,
    random_initial_state,
    relax_to_attractor,
    simulate,
    step_rk4,
)
from .errors import (
    ConfigError,
    DivergenceError,
    IllConditionedError,
    InsufficientDataError,
    IntegrationError,
    ReservoirSamplingError,
)
from .esn import EsnConfig, EsnModel, build_reservoir
from .esn import train as esn_train
from .metrics import ClimateStats, climate_stats
from .ngrc import NgrcConfig, NgrcModel
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
    "write_sweep_csv",
    "write_summary_csv",
    "load_config_file",
    "config_from_mapping",
]

PREDICTOR_KINDS = ("classic", "ngrc")
# reference climates of the two unforced regimes, reported alongside sweeps
REFERENCE_KINDS = ("ref_train", "ref_plant")

_KIND_IDS = {"classic": 0, "ngrc": 1, "ref_train": 2, "ref_plant": 3}
_STREAM_TRAJECTORY = 0
_STREAM_RESERVOIR = 1


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
    ngrc_orders: tuple = (1, 2, 3, 4)
    ngrc_ridge_beta: float = 1e-4

    def __post_init__(self):
        if self.kind not in PREDICTOR_KINDS:
            raise ConfigError(f"kind must be one of {PREDICTOR_KINDS}, got {self.kind!r}")
        if self.training_steps < 2:
            raise ConfigError("training_steps must be >= 2")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.washout is not None and self.washout < 0:
            raise ConfigError("washout must be >= 0")
        if not self.dt > 0:
            raise ConfigError("dt must be positive")

    def train_params(self) -> LorenzParams:
        return LorenzParams(self.sigma, self.rho_train, self.lorenz_beta)

    def plant_params(self) -> LorenzParams:
        return LorenzParams(self.sigma, self.rho_plant, self.lorenz_beta)

    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(dt=self.dt, substeps=self.substeps)

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

    training_lengths: tuple = (250, 500, 750, 1000, 1500, 2000, 3000, 4000, 5000)
    n_realizations: int = 100
    kinds: tuple = PREDICTOR_KINDS

    def __post_init__(self):
        lengths = tuple(self.training_lengths)
        if not lengths or any(n <= 0 for n in lengths):
            raise ConfigError("training_lengths must be positive")
        if list(lengths) != sorted(lengths):
            raise ConfigError("training_lengths must be ascending")
        if not self.kinds or any(k not in PREDICTOR_KINDS for k in self.kinds):
            raise ConfigError(f"kinds must be drawn from {PREDICTOR_KINDS}")
        if self.n_realizations < 1:
            raise ConfigError("n_realizations must be >= 1")


def _parse_int_tuple(text: str) -> tuple:
    return tuple(int(part) for part in text.replace(",", " ").split())


def _parse_str_tuple(text: str) -> tuple:
    return tuple(part for part in text.replace(",", " ").split())


def _parse_optional_int(text: str):
    return None if text.strip().lower() in ("", "none", "auto") else int(text)


_CONFIG_PARSERS = {
    "kind": str,
    "training_steps": int,
    "washout": _parse_optional_int,
    "horizon": int,
    "master_seed": int,
    "dt": float,
    "substeps": int,
    "transient_steps": int,
    "sigma": float,
    "rho_train": float,
    "rho_plant": float,
    "lorenz_beta": float,
    "control_gain": float,
    "esn_reservoir_dim": int,
    "esn_edge_prob": float,
    "esn_input_scale": float,
    "esn_spectral_radius": float,
    "esn_ridge_beta": float,
    "ngrc_k": int,
    "ngrc_s": int,
    "ngrc_orders": _parse_int_tuple,
    "ngrc_ridge_beta": float,
    "sweep_lengths": _parse_int_tuple,
    "sweep_realizations": int,
    "sweep_kinds": _parse_str_tuple,
}


def load_config_file(path) -> dict:
    """Parse a flat key=value config file ('#' comments, blank lines ok)."""
    mapping = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            mapping[key.strip()] = value.strip().strip("\"'")
    return mapping


def config_from_mapping(mapping: dict) -> tuple:
    """Build (ExperimentConfig, SweepSpec) from string key=value pairs.

    Unknown keys are rejected so that typos fail loudly instead of running
    a silently different experiment.
    """
    exp_kwargs, sweep_kwargs = {}, {}
    for key, raw in mapping.items():
        parser = _CONFIG_PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            value = parser(raw) if isinstance(raw, str) else raw
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
        if key.startswith("sweep_"):
            sweep_kwargs[key[len("sweep_"):].replace("lengths", "training_lengths")
                         .replace("realizations", "n_realizations")] = value
        else:
            exp_kwargs[key] = value
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


def _train_predictor(
    cfg: ExperimentConfig, kind: str, n: int, realization: int, training: Trajectory
) -> Union[EsnModel, NgrcModel]:
    if kind == "classic":
        seed = _derived_int(cfg.master_seed, kind, n, realization, _STREAM_RESERVOIR)
        model = build_reservoir(cfg.esn_config(seed=seed, n=n))
        esn_train(model, training)
        return model
    return ngrc_train(training, cfg.ngrc_config())


def _controlled_run(
    cfg: ExperimentConfig, kind: str, n: int, realization: int, training: Trajectory
) -> ControlRun:
    model = _train_predictor(cfg, kind, n, realization, training)
    # the plant starts one interval past the training end, already under the
    # target-regime parameters, aligning u with the predictor's first output
    u0 = step_rk4(training.samples[-1], cfg.plant_params(), cfg.integrator())
    ctl = ControlConfig(
        plant_params=cfg.plant_params(), K=cfg.control_gain, n_steps=cfg.horizon
    )
    return run_control(model.stepper(), u0, ctl, cfg.integrator())


def prepare_trained_model(
    cfg: ExperimentConfig, realization: int = 0
) -> tuple:
    """Generate the seeded training series and fit the configured predictor.

    Returns (training, model); the series is identical to the one a
    run_single/sweep cell with the same coordinates trains on.
    """
    n = cfg.training_steps
    training = attractor_series(cfg, cfg.kind, n, realization, n - 1)
    model = _train_predictor(cfg, cfg.kind, n, realization, training)
    return training, model


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
    training = attractor_series(cfg, cfg.kind, n, realization, n - 1)
    run = _controlled_run(cfg, cfg.kind, n, realization, training)
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

    def summary_for(self, kind: str, n: int) -> SummaryRow:
        for row in self.summary:
            if row.kind == kind and row.n == n:
                return row
        raise KeyError((kind, n))


def _run_cell(args) -> SweepRow:
    cfg, kind, n, realization = args
    lam = nu = float("nan")
    try:
        if kind in REFERENCE_KINDS:
            series = attractor_series(cfg, kind, n, realization, cfg.horizon)
        else:
            training = attractor_series(cfg, kind, n, realization, n - 1)
            series = _controlled_run(cfg, kind, n, realization, training).controlled
        stats = climate_stats(series)
        lam, nu = stats.lambda_max, stats.corr_dim
        status = "ok" if math.isfinite(lam) and math.isfinite(nu) else "degenerate"
    except DivergenceError:
        status = "diverged"
    except (
        IllConditionedError,
        InsufficientDataError,
        IntegrationError,
        ReservoirSamplingError,
    ):
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
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
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


def _series_for(summary, kind, lengths, field, err_field):
    xs, ys, es = [], [], []
    for n in lengths:
        for row in summary:
            if row.kind == kind and row.n == n:
                xs.append(n)
                ys.append(getattr(row, field))
                es.append(getattr(row, err_field))
    return xs, ys, es


def _write_sweep_charts(out_dir, spec: SweepSpec, summary) -> None:
    refs = {row.kind: row for row in summary if row.kind == "ref_train" and row.n == 0}
    ref = refs.get("ref_train")
    for field, err_field, label, fname in (
        ("lambda_mean", "lambda_std", "largest Lyapunov exponent", "sweep_lambda.svg"),
        ("nu_mean", "nu_std", "correlation dimension", "sweep_nu.svg"),
    ):
        series = [
            (kind, *_series_for(summary, kind, spec.training_lengths, field, err_field))
            for kind in spec.kinds
        ]
        hlines = []
        if ref is not None and math.isfinite(getattr(ref, field)):
            hlines.append((getattr(ref, field), "target climate"))
        errorbar_chart(
            os.path.join(out_dir, fname),
            series,
            title=f"controlled {label} vs training length",
            xlabel="training steps",
            ylabel=label,
            hlines=hlines,
        )


# --------------------------------------------------------------------------
# CSV output


def _header_lines(timestamp: bool) -> list:
    if not timestamp:
        return []
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return [f"# generated {stamp}"]


def write_csv(path, header: Sequence, rows, timestamp: bool) -> None:
    """Write one header row and the data rows, after the optional stamp.

    Pass floats as Python floats (``ndarray.tolist()``): ``csv`` writes
    those as their repr, which round-trips exactly.  Rows end in CRLF, the
    ``csv`` default; the stamp comment line ends in LF.
    """
    with open(path, "w", newline="") as fh:
        for line in _header_lines(timestamp):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _timed_rows(traj: Trajectory) -> list:
    """[t, *sample] per sample, as Python floats."""
    return np.column_stack([traj.times, traj.samples]).tolist()


def write_trajectory_csv(path, traj: Trajectory, timestamp: bool = True) -> None:
    """Write a trajectory as t,x,y,z rows (repr-exact floats)."""
    if traj.dim != 3:
        raise ValueError("trajectory CSV schema is fixed at three components")
    write_csv(path, ["t", "x", "y", "z"], _timed_rows(traj), timestamp)


def write_sweep_csv(path, rows: Sequence[SweepRow], timestamp: bool = True) -> None:
    header = ["kind", "N", "seed", "lambda_max", "corr_dim", "status"]
    write_csv(path, header, map(astuple, rows), timestamp)


def write_summary_csv(path, summary: Sequence[SummaryRow], timestamp: bool = True) -> None:
    header = ["kind", "N", "lambda_mean", "lambda_std", "nu_mean", "nu_std", "n_ok"]
    write_csv(path, header, map(astuple, summary), timestamp)


# --------------------------------------------------------------------------
# training snapshot


def export_training_snapshot(
    cfg: ExperimentConfig,
    out_dir: str,
    realization: int = 0,
    timestamp: bool = True,
) -> str:
    """Write the exact training series with its discard boundary marked.

    Produces ``training_snapshot.csv`` (t,x,y,z,phase) and a matching SVG.
    The phase column separates samples the trainer discards (classic:
    reservoir washout; ngrc: tap warm-up) from those that form regression
    rows; the t column is generated identically to trajectory CSVs.
    """
    os.makedirs(out_dir, exist_ok=True)
    n = cfg.training_steps
    training = attractor_series(cfg, cfg.kind, n, realization, n - 1)
    if cfg.kind == "classic":
        boundary = cfg.washout_for(n)
        discard_phase = "washout"
    else:
        boundary = cfg.ngrc_config().warmup
        discard_phase = "warmup"

    csv_path = os.path.join(out_dir, "training_snapshot.csv")
    rows = _timed_rows(training)
    for i, row in enumerate(rows):
        row.append(discard_phase if i < boundary else "train")
    write_csv(csv_path, ["t", "x", "y", "z", "phase"], rows, timestamp)

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
