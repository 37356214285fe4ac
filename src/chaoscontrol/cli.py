"""Command-line interface.

Subcommands cover the full pipeline: ``simulate`` raw trajectories,
``train``/``predict`` a predictor in isolation, ``control`` a complete
closed-loop experiment, ``metrics`` on any trajectory CSV, ``sweep`` the
data-efficiency grid, and ``snapshot`` of the exact training series.

Exit codes: 0 success; every failure in ``errors.FAILURES`` prints one
stderr line and exits with its code (2 or 3) in README "CLI"'s table.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .control import free_run
from .errors import FAILURES, ConfigError, as_failure
from .experiments import (
    MAX_STEPS,
    PREDICTOR_KINDS,
    ExperimentConfig,
    SweepSpec,
    attractor_series,
    config_from_mapping,
    export_training_snapshot,
    load_config_file,
    prepare_trained_model,
    read_trajectory_csv,
    run_single,
    run_sweep,
    write_csv,
    write_trajectory_csv,
)
from .metrics import climate_stats
from .modelio import load_model, save_model

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ConfigError: one stderr line and exit 2."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="flat key=value config file")
    common.add_argument("--seed", type=int, metavar="INT", help="override master seed")
    common.add_argument("--out", default=".", metavar="DIR", help="output directory")
    common.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the timestamped header comment for byte-stable output",
    )
    kind = argparse.ArgumentParser(add_help=False)
    kind.add_argument("--kind", choices=PREDICTOR_KINDS, help="predictor kind override")
    steps = argparse.ArgumentParser(add_help=False)
    steps.add_argument("--steps", type=int, help="steps to sample or predict (default: horizon)")
    parser = _Parser(
        prog="chaosctl",
        description="Closed-loop chaos control experiments on the Lorenz system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, summary, *parents):
        p = sub.add_parser(name, parents=[common, *parents], help=summary)
        p.set_defaults(run=run)
        return p

    p = add("simulate", _cmd_simulate, "integrate one regime and write t,x,y,z CSV", steps)
    p.add_argument(
        "--state",
        choices=("train", "plant"),
        default="train",
        help="which parameter regime to integrate",
    )
    add("train", _cmd_train, "fit the configured predictor, save the model", kind)
    p = add("predict", _cmd_predict, "free-run a saved model", steps)
    p.add_argument("--model", required=True, metavar="PATH", help="saved model file")
    add("control", _cmd_control, "full experiment: train, switch regime, control", kind)

    p = add("metrics", _cmd_metrics, "climate statistics of a trajectory CSV")
    p.add_argument("--input", required=True, metavar="PATH", help="t,x,y,z CSV file")

    p = add("sweep", _cmd_sweep, "training-length sweep with reference climates")
    p.add_argument("--jobs", type=int, default=1, metavar="INT", help="worker processes")

    add("snapshot", _cmd_snapshot, "export the exact training series", kind)

    return parser


def _load_setup(args) -> tuple:
    mapping = load_config_file(args.config) if args.config else {}
    cfg, spec = config_from_mapping(mapping)
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if getattr(args, "kind", None):
        cfg = replace(cfg, kind=args.kind)
    return cfg, spec


def _steps(args, cfg: ExperimentConfig, low: int) -> int:
    """``--steps``, or the horizon by default, checked against [low, MAX_STEPS]."""
    steps = args.steps if args.steps is not None else cfg.horizon
    if steps < low:
        raise ConfigError(f"--steps must be >= {low}, got {steps}")
    if steps > MAX_STEPS:
        raise ConfigError(f"--steps must be <= {MAX_STEPS}, got {steps}")
    return steps


def _cmd_simulate(args, cfg: ExperimentConfig, spec: SweepSpec) -> int:
    steps = _steps(args, cfg, 1)
    kind = "ref_train" if args.state == "train" else "ref_plant"
    traj = attractor_series(cfg, kind, 0, 0, steps)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "trajectory.csv")
    write_trajectory_csv(path, traj, timestamp=not args.no_timestamp)
    print(f"wrote {path} ({len(traj)} samples, state={args.state})")
    return 0


def _cmd_train(args, cfg: ExperimentConfig, spec: SweepSpec) -> int:
    _, model = prepare_trained_model(cfg)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "model.ccm")
    save_model(path, model)
    print(f"wrote {path} (kind={cfg.kind}, N={cfg.training_steps})")
    return 0


def _cmd_predict(args, cfg: ExperimentConfig, spec: SweepSpec) -> int:
    steps = _steps(args, cfg, 0)
    stepper = load_model(args.model).stepper()
    if stepper.dim != 3:
        # prediction.csv is t,x,y,z; refuse before the free run, not after
        raise ConfigError(f"{args.model}: the model predicts {stepper.dim} variables, not 3")
    traj = free_run(stepper, steps, cfg.dt)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "prediction.csv")
    write_trajectory_csv(path, traj, timestamp=not args.no_timestamp)
    print(f"wrote {path} ({len(traj)} samples)")
    return 0


def _cmd_control(args, cfg: ExperimentConfig, spec: SweepSpec) -> int:
    report = run_single(cfg)
    os.makedirs(args.out, exist_ok=True)
    stamp = not args.no_timestamp
    for name, traj in (
        ("reference", report.reference),
        ("uncontrolled", report.uncontrolled),
        ("controlled", report.controlled),
        ("prediction", report.prediction),
        ("forces", report.forces),
    ):
        write_trajectory_csv(os.path.join(args.out, f"{name}.csv"), traj, stamp)
    climates = (
        ("reference", report.reference_climate),
        ("uncontrolled", report.uncontrolled_climate),
        ("controlled", report.controlled_climate),
    )
    for name, stats in climates:
        print(
            f"{name:>12}: lambda_max={stats.lambda_max:.4f} "
            f"corr_dim={stats.corr_dim:.4f}"
        )
    summary_path = os.path.join(args.out, "climate_summary.csv")
    write_csv(
        summary_path,
        ["series", "lambda_max", "corr_dim"],
        ([name, stats.lambda_max, stats.corr_dim] for name, stats in climates),
        timestamp=False,
    )
    print(f"wrote trajectories and {summary_path}")
    return 0


def _cmd_metrics(args, cfg: ExperimentConfig, spec: SweepSpec) -> int:
    traj = read_trajectory_csv(args.input)
    stats = climate_stats(traj)
    print(f"lambda_max={stats.lambda_max:.6f}")
    print(f"corr_dim={stats.corr_dim:.6f}")
    os.makedirs(args.out, exist_ok=True)
    lyap, gp = stats.lyap_diag, stats.gp_diag
    write_csv(
        os.path.join(args.out, "lyapunov_diagnostics.csv"),
        ["step", "mean_log_distance"],
        zip(lyap.offsets.tolist(), lyap.mean_log_dist.tolist()),
        timestamp=False,
    )
    write_csv(
        os.path.join(args.out, "gp_diagnostics.csv"),
        ["r", "c"],
        zip(gp.r.tolist(), gp.c.tolist()),
        timestamp=False,
    )
    return 0


def _cmd_sweep(args, cfg: ExperimentConfig, spec: SweepSpec) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    result = run_sweep(
        spec, cfg, out_dir=args.out, jobs=args.jobs,
        timestamp=not args.no_timestamp,
    )
    for row in result.summary:
        print(
            f"{row.kind:>10} N={row.n:<5} lambda={row.lambda_mean:.4f}"
            f"+-{row.lambda_std:.4f} nu={row.nu_mean:.4f}+-{row.nu_std:.4f} "
            f"n_ok={row.n_ok}"
        )
    print(f"wrote sweep outputs to {args.out}")
    return 0


def _cmd_snapshot(args, cfg: ExperimentConfig, spec: SweepSpec) -> int:
    path = export_training_snapshot(cfg, args.out, timestamp=not args.no_timestamp)
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg, spec = _load_setup(args)
        # bound and finiteness checks catch every overflow and NaN; numpy's
        # warnings about them would only add lines to the one-line report
        with np.errstate(all="ignore"):
            return args.run(args, cfg, spec)
    except FAILURES as exc:
        failure = as_failure(exc)
        print(failure.report(), file=sys.stderr)
        return failure.exit_code


if __name__ == "__main__":
    sys.exit(main())
