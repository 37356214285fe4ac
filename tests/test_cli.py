import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chaoscontrol
from chaoscontrol.cli import main
from chaoscontrol.control import free_run
from chaoscontrol.dynamics import Trajectory
from chaoscontrol.errors import DivergenceError, IllConditionedError
from chaoscontrol.experiments import write_trajectory_csv
from chaoscontrol.modelio import load_model

from conftest import LATTICE


def run_cli(*argv):
    return main(list(argv))


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("trainning_steps = 500\n")
    code = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 2
    assert "trainning_steps" in capsys.readouterr().err


def test_missing_model_file_exits_2(tmp_path):
    code = run_cli("predict", "--model", str(tmp_path / "nope.ccm"), "--out", str(tmp_path))
    assert code == 2


@pytest.mark.parametrize("kind", ["classic", "ngrc"])
def test_predict_of_a_two_variable_model_exits_2(tmp_path, capsys, kind):
    # the model file is valid, but prediction.csv holds three components
    data = Trajectory(0.05, np.random.default_rng(0).uniform(-1, 1, (200, 2)))
    if kind == "classic":
        model = chaoscontrol.esn.train(data, chaoscontrol.EsnConfig(reservoir_dim=10, washout=20))
    else:
        model = chaoscontrol.ngrc.train(data, chaoscontrol.NgrcConfig(s=2, orders=(1, 2)))
    path = tmp_path / "model.ccm"
    chaoscontrol.save_model(path, model)
    code = run_cli("predict", "--model", str(path), "--out", str(tmp_path / "pred"))
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"config error: {path}: the model predicts 2 variables, not 3\n"
    assert not (tmp_path / "pred").exists()


def test_simulate_schema_and_seed_determinism(tmp_path, capsys):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for out in (a, b):
        assert run_cli(
            "simulate", "--steps", "50", "--seed", "5", "--no-timestamp",
            "--out", str(out),
        ) == 0
    assert run_cli(
        "simulate", "--steps", "50", "--seed", "6", "--no-timestamp", "--out", str(c)
    ) == 0
    text = (a / "trajectory.csv").read_text()
    assert text.splitlines()[0] == "t,x,y,z"
    assert len(text.splitlines()) == 52
    assert text == (b / "trajectory.csv").read_text()
    assert text != (c / "trajectory.csv").read_text()
    assert "state=train" in capsys.readouterr().out


def test_train_predict_roundtrip_and_divergence_exit_3(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = ngrc\ntraining_steps = 300\nhorizon = 600\n")
    assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path)) == 0
    model_path = tmp_path / "model.ccm"
    assert model_path.exists()
    # a polynomial model fit on this little data leaves the attractor in
    # free run; the CLI maps that failure to its own exit code
    code = run_cli(
        "predict", "--config", str(cfg), "--model", str(model_path),
        "--out", str(tmp_path),
    )
    assert code == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    match = re.fullmatch(r"divergence: .+ \(phase predict, step (\d+)\)\n", err)
    assert match is not None, err
    # the reported step is the free run's first out-of-bound sample
    with pytest.raises(DivergenceError) as info:
        free_run(load_model(model_path).stepper(), 600, 0.05)
    assert int(match.group(1)) == info.value.step


@pytest.mark.parametrize("kind", ["classic", "ngrc"])
def test_predict_zero_steps_writes_header_only(tmp_path, kind):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"kind = {kind}\ntraining_steps = 900\n")
    assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path)) == 0
    assert run_cli(
        "predict", "--model", str(tmp_path / "model.ccm"), "--steps", "0",
        "--no-timestamp", "--out", str(tmp_path),
    ) == 0
    assert (tmp_path / "prediction.csv").read_bytes() == b"t,x,y,z\r\n"


def test_predict_writes_short_free_run(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = classic\ntraining_steps = 900\nhorizon = 600\n")
    assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path)) == 0
    assert run_cli(
        "predict", "--config", str(cfg), "--model", str(tmp_path / "model.ccm"),
        "--steps", "40", "--no-timestamp", "--out", str(tmp_path),
    ) == 0
    lines = (tmp_path / "prediction.csv").read_text().splitlines()
    assert lines[0] == "t,x,y,z"
    assert len(lines) == 41


def test_metrics_prints_and_writes_diagnostics(tmp_path, capsys):
    assert run_cli(
        "simulate", "--steps", "2500", "--seed", "1", "--out", str(tmp_path)
    ) == 0
    assert run_cli(
        "metrics", "--input", str(tmp_path / "trajectory.csv"), "--out", str(tmp_path)
    ) == 0
    out = capsys.readouterr().out
    assert "lambda_max" in out and "corr_dim" in out
    lyap = (tmp_path / "lyapunov_diagnostics.csv").read_text().splitlines()
    gp = (tmp_path / "gp_diagnostics.csv").read_text().splitlines()
    assert lyap[0] == "step,mean_log_distance"
    assert gp[0] == "r,c"


def test_metrics_on_collapsed_series_reports_nan(tmp_path, capsys):
    path = tmp_path / "still.csv"
    write_trajectory_csv(path, Trajectory(0.05, np.tile([1.0, 2.0, 3.0], (300, 1))))
    assert run_cli("metrics", "--input", str(path), "--out", str(tmp_path)) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["lambda_max=nan", "corr_dim=nan"]


def test_metrics_rejects_non_utf8_csv(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"t,x,y,z\r\n0.0,1.0,2.0,\xff\r\n")
    assert run_cli("metrics", "--input", str(path), "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error:")


def test_metrics_rejects_oversized_csv_field(tmp_path, capsys):
    # csv's reader refuses a field over 131,072 characters
    path = tmp_path / "bad.csv"
    path.write_text("t,x,y,z\n0.0,1.0,2.0,3.0\n0.05," + "1" * 200_000 + ",2.0,3.0\n")
    assert run_cli("metrics", "--input", str(path), "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("config error:") and "field larger than field limit" in err


def test_metrics_rejects_non_trajectory_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert run_cli("metrics", "--input", str(bad), "--out", str(tmp_path)) == 2


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ("0.2,nan,1.0,1.0", "sample 5: non-finite"),
        ("0.2,1.0", "sample 5: expected 4"),
        ("0.2,abc,1.0,1.0", "sample 5: non-numeric"),
        ("0.2125,1.0,2.0,3.0", "uniformly"),
    ],
    ids=["nan-cell", "short-row", "non-numeric-cell", "non-uniform-time"],
)
def test_metrics_rejects_malformed_trajectory_rows(tmp_path, capsys, bad_row, message):
    assert run_cli(
        "simulate", "--steps", "300", "--no-timestamp", "--out", str(tmp_path)
    ) == 0
    path = tmp_path / "trajectory.csv"
    assert run_cli("metrics", "--input", str(path), "--out", str(tmp_path)) == 0
    capsys.readouterr()
    lines = path.read_text().splitlines()
    lines[5] = bad_row  # lines[0] is the header, so this is sample 5
    path.write_text("\n".join(lines) + "\n")
    assert run_cli("metrics", "--input", str(path), "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("config error:") and message in err


@pytest.mark.parametrize(
    "prepare, argv, message",
    [
        # 31 samples: fewer than the 112 of the Rosenstein estimate
        (["simulate", "--steps", "30"], ["metrics", "--input", "{out}/trajectory.csv"],
         "insufficient data:"),
        (None, ["simulate", "--steps", "0"], "config error: --steps must be >= 1"),
        (["train", "--kind", "ngrc"], ["predict", "--model", "{out}/model.ccm", "--steps", "-1"],
         "config error: --steps must be >= 0"),
        # rejected before any series is integrated or allocated
        (None, ["simulate", "--steps", "100000001"],
         "config error: --steps must be <= 100000000, got 100000001"),
        (["train", "--kind", "ngrc"],
         ["predict", "--model", "{out}/model.ccm", "--steps", "1000000000000"],
         "config error: --steps must be <= 100000000, got 1000000000000"),
        (None, ["metrics", "--input", "{out}"], "error: [Errno"),
        (None, ["predict", "--model", "{out}"], "error: [Errno"),
        # rejected before the default grid would start
        (None, ["sweep", "--jobs", "0"], "config error: --jobs must be >= 1, got 0"),
        (None, ["sweep", "--jobs", "-3"], "config error: --jobs must be >= 1, got -3"),
    ],
    ids=[
        "metrics-short-series", "simulate-zero-steps", "predict-negative-steps",
        "simulate-too-many-steps", "predict-too-many-steps",
        "metrics-directory-input", "predict-directory-model", "sweep-zero-jobs",
        "sweep-negative-jobs",
    ],
)
def test_bad_inputs_exit_2_with_one_line(tmp_path, capsys, prepare, argv, message):
    if prepare is not None:
        assert run_cli(*prepare, "--out", str(tmp_path)) == 0
        capsys.readouterr()
    argv = [a.format(out=tmp_path) for a in argv]
    assert run_cli(*argv, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(message)


@pytest.mark.parametrize("command", ["simulate", "train"])
@pytest.mark.parametrize(
    "content, names, message",
    [
        (b"master_seed = -1\n", "master_seed", "master_seed must be >= 0"),
        (b"substeps = 0\n", "substeps", "substeps must be >= 1"),
        (b"rho_train = nan\n", "rho_train", "rho must be finite"),
        (b"ngrc_orders = 0\n", "ngrc_orders", "orders must be positive integers"),
        (
            b"training_steps = 99999999999999999999\n", "training_steps",
            "training_steps must lie in",
        ),
        (b"control_gain = nan\n", "control_gain", "K must be finite"),
        # an undecodable file has no key to name, so the line names the file
        (b"horizon = 5\xff\n", "bad.cfg", "not a UTF-8 text file"),
        (b"esn_ridge_beta = nan\n", "esn_ridge_beta", "ridge_beta must be finite"),
        (b"ngrc_ridge_beta = nan\n", "ngrc_ridge_beta", "ridge_beta must be finite"),
        (b"esn_input_scale = nan\n", "esn_input_scale", "input_scale must be finite"),
        (
            b"esn_spectral_radius = nan\n", "esn_spectral_radius",
            "spectral_radius must be finite",
        ),
        (
            b"esn_spectral_radius = inf\n", "esn_spectral_radius",
            "spectral_radius must be finite",
        ),
        (b"transient_steps = -1\n", "transient_steps", "transient_steps must lie in"),
        (
            b"training_steps = 500\n# shorter\ntraining_steps = 400\n",
            "bad.cfg:3", "key 'training_steps' already set on line 1",
        ),
        # a repeated sweep length or kind would run each of its cells twice
        (
            b"sweep_lengths = 400 400\n", "training_lengths",
            "training_lengths must be strictly ascending",
        ),
        (b"sweep_kinds = classic classic\n", "kinds", "kinds must not repeat"),
        # each sweep length is one cell's training_steps
        (b"sweep_lengths = 1\n", "training_lengths", "training_lengths must lie in"),
        (
            b"sweep_lengths = 100000001\n", "training_lengths",
            "training_lengths must lie in",
        ),
    ],
    ids=[
        "negative-seed", "zero-substeps", "nan-rho", "zero-order",
        "huge-training-steps", "nan-gain", "non-utf8", "nan-esn-beta",
        "nan-ngrc-beta", "nan-input-scale", "nan-spectral-radius",
        "inf-spectral-radius", "negative-transient", "repeated-key",
        "repeated-length", "repeated-kind", "one-sample-length", "huge-length",
    ],
)
def test_bad_config_exits_2_with_one_line(
    tmp_path, capsys, command, content, names, message
):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(content)
    assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("config error:") and message in err
    assert names in err


def test_sweep_of_a_one_sample_length_exits_2_before_any_cell(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sweep_lengths = 1\n")
    assert run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err == "config error: training_lengths must lie in [2, 100000000]\n"
    assert not (tmp_path / "out").exists()


def test_metrics_of_a_one_radius_curve_prints_nan_and_no_warning(tmp_path):
    # on the unit lattice C(r) is positive at one radius only, so the GP
    # curve has no line to fit; a fresh interpreter shows any warning
    path = tmp_path / "lattice.csv"
    write_trajectory_csv(path, Trajectory(0.05, np.array(LATTICE, dtype=float)))
    src = str(Path(chaoscontrol.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "chaoscontrol.cli", "metrics", "--input", str(path),
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0 and done.stderr == ""
    assert "corr_dim=nan" in done.stdout.splitlines()


@pytest.mark.parametrize(
    "command, content, code, message",
    [
        # the relaxation blows up in its first interval
        ("simulate", b"dt = 5\n", 3, "integration error: "),
        ("train", b"dt = 5\n", 3, "integration error: "),
        ("control", b"dt = 5\n", 3, "integration error: "),
        ("train", b"esn_edge_prob = 0\ntraining_steps = 300\n", 2, "training failed: "),
        # a 5e8-unit reservoir asks numpy for 2e18 bytes, past any 64-bit
        # address space, so the allocation fails before anything is written
        (
            "train", b"esn_reservoir_dim = 500000000\ntraining_steps = 300\n", 2,
            "out of memory: Unable to allocate",
        ),
    ],
    ids=[
        "huge-dt-simulate", "huge-dt-train", "huge-dt-control", "empty-reservoir-train",
        "huge-reservoir-train",
    ],
)
def test_failed_run_exits_with_one_line(
    tmp_path, capsys, command, content, code, message
):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(content)
    assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path)) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(message)
    if code == 3:
        # the step counts from the start of the discarded relaxation, and
        # the line says so
        assert "during the discarded relaxation onto the attractor" in err
        assert err.endswith("(step 1)\n")


def test_ill_conditioned_fit_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    def fail(cfg):
        raise IllConditionedError("SVD of the design matrix failed (beta=0)")

    monkeypatch.setattr("chaoscontrol.cli.prepare_trained_model", fail)
    assert run_cli("train", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err == "training failed: SVD of the design matrix failed (beta=0)\n"


def test_control_writes_experiment_bundle(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = classic\ntraining_steps = 900\nhorizon = 1200\n")
    assert run_cli(
        "control", "--config", str(cfg), "--no-timestamp", "--out", str(tmp_path)
    ) == 0
    for name in ("reference", "uncontrolled", "controlled", "prediction", "forces"):
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert lines[0] == "t,x,y,z"
        assert len(lines) == 1 + 1201
    summary = (tmp_path / "climate_summary.csv").read_text().splitlines()
    assert summary[0] == "series,lambda_max,corr_dim"
    assert {line.split(",")[0] for line in summary[1:]} == {
        "reference", "uncontrolled", "controlled",
    }


def test_sweep_cli_tiny_grid(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "horizon = 1200\n"
        "sweep_lengths = 300\n"
        "sweep_realizations = 1\n"
        "sweep_kinds = classic\n"
    )
    assert run_cli(
        "sweep", "--config", str(cfg), "--no-timestamp", "--jobs", "1",
        "--out", str(tmp_path),
    ) == 0
    out = capsys.readouterr().out
    assert "classic" in out and "ref_train" in out
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "kind,N,seed,lambda_max,corr_dim,status"
    assert len(lines) == 4  # classic + two references, one realization each


def test_snapshot_cli(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = classic\ntraining_steps = 400\n")
    assert run_cli(
        "snapshot", "--config", str(cfg), "--no-timestamp", "--out", str(tmp_path)
    ) == 0
    csv_lines = (tmp_path / "training_snapshot.csv").read_text().splitlines()
    assert csv_lines[0] == "t,x,y,z,phase"
    assert len(csv_lines) == 401
    svg = (tmp_path / "training_snapshot.svg").read_text()
    assert "washout end" in svg
    assert "wrote" in capsys.readouterr().out


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _fresh_cli_outputs(out, cfg, threads):
    """Bytes written by ``train --kind classic`` and a one-cell sweep, each
    run in a fresh interpreter with the BLAS thread variables unset
    (``threads=None``) or set to ``threads``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    if threads is not None:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, threads))
    src = str(Path(chaoscontrol.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv in (["train", "--kind", "classic"],
                 ["sweep", "--config", str(cfg), "--no-timestamp"]):
        subprocess.run(
            [sys.executable, "-m", "chaoscontrol.cli", *argv, "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_outputs_independent_of_unset_blas_thread_variables(tmp_path):
    # OpenBLAS picks one thread per core when the variables are unset, and
    # the spectral radius and ridge readout change in their last bits with
    # the thread count; the package pins one thread unless the caller sets one
    cfg = tmp_path / "one_cell.cfg"
    cfg.write_text(
        "sweep_lengths = 5000\nsweep_realizations = 1\nsweep_kinds = classic\n"
        "horizon = 1200\n"
    )
    unset = _fresh_cli_outputs(tmp_path / "unset", cfg, None)
    one = _fresh_cli_outputs(tmp_path / "one", cfg, "1")
    assert {"model.ccm", "sweep.csv", "summary.csv"} <= unset.keys()
    assert unset == one
