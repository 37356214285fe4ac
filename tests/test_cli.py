import re

import numpy as np
import pytest

from chaoscontrol.cli import main
from chaoscontrol.control import free_run
from chaoscontrol.dynamics import Trajectory
from chaoscontrol.errors import DivergenceError
from chaoscontrol.experiments import write_trajectory_csv
from chaoscontrol.modelio import load_model


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
        # 31 samples: shorter than follow_steps + 2 for the Rosenstein estimate
        (["simulate", "--steps", "30"], ["metrics", "--input", "{out}/trajectory.csv"],
         "insufficient data:"),
        (None, ["simulate", "--steps", "0"], "config error: --steps must be >= 1"),
        (["train", "--kind", "ngrc"], ["predict", "--model", "{out}/model.ccm", "--steps", "-1"],
         "config error: --steps must be >= 0"),
        (None, ["metrics", "--input", "{out}"], "error: [Errno"),
        (None, ["predict", "--model", "{out}"], "error: [Errno"),
    ],
    ids=[
        "metrics-short-series", "simulate-zero-steps", "predict-negative-steps",
        "metrics-directory-input", "predict-directory-model",
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
