import builtins
import csv
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import chaoscontrol
from chaoscontrol import errors
from chaoscontrol.cli import main
from chaoscontrol.control import free_run
from chaoscontrol.dynamics import Trajectory
from chaoscontrol.errors import ChaosControlError, DivergenceError, IllConditionedError
from chaoscontrol.experiments import (
    ExperimentConfig,
    SweepRow,
    attractor_series,
    write_trajectory_csv,
)
from chaoscontrol.modelio import load_model

from conftest import LATTICE


def run_cli(*argv):
    return main(list(argv))


def _fresh_env(**overrides):
    """This environment plus ``overrides``, with the package on PYTHONPATH."""
    env = dict(os.environ, **overrides)
    src = str(Path(chaoscontrol.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


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


def _text_input(directory, command, head):
    """The argv of ``command`` reading a config (simulate) or trajectory CSV
    (metrics) that starts with the text ``head``, written as UTF-8."""
    directory.mkdir()
    if command == "simulate":
        path = directory / "utf8.cfg"
        path.write_text(head + "horizon = 40\n", encoding="utf-8")
        return ["simulate", "--config", str(path)]
    path = directory / "utf8.csv"
    write_trajectory_csv(path, attractor_series(ExperimentConfig(), "ref_train", 0, 0, 300))
    path.write_bytes(head.encode("utf-8") + path.read_bytes())
    return ["metrics", "--input", str(path)]


@pytest.mark.parametrize("command", ["simulate", "metrics"])
def test_text_inputs_are_utf8_under_an_ascii_locale(tmp_path, command):
    # without UTF-8 mode the C locale makes open() decode as ASCII
    argv = _text_input(tmp_path / "in", command, "# \u03c1 = 166.15\n")
    done = subprocess.run(
        [sys.executable, "-m", "chaoscontrol.cli", *argv, "--out", str(tmp_path / "out")],
        env=_fresh_env(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0"),
        capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")


@pytest.mark.parametrize("command", ["simulate", "metrics"])
def test_text_inputs_may_start_with_a_byte_order_mark(tmp_path, command):
    outputs = []
    for name, head in (("plain", ""), ("bom", "\ufeff")):
        argv = _text_input(tmp_path / name, command, head)
        out = tmp_path / name / "out"
        assert run_cli(*argv, "--no-timestamp", "--out", str(out)) == 0
        outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert outputs[0] == outputs[1] and outputs[0]


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--steps", "abc"], "argument --steps: invalid int value: 'abc'"),
        (["simulate", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
        (["predict"], "the following arguments are required: --model"),
        (["train", "--kind", "nope"], "argument --kind: invalid choice: 'nope'"),
    ],
    ids=["bad-int", "unknown-flag", "missing-command", "missing-model", "bad-kind"],
)
def test_usage_errors_exit_2_with_one_line(capsys, argv, message):
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"config error: {message}")


COMMON_FLAGS = ("--config", "--seed", "--out", "--no-timestamp")


@pytest.mark.parametrize(
    "command, own_flags",
    [
        ("simulate", ("--state", "--steps")),
        ("train", ("--kind",)),
        ("predict", ("--model", "--steps")),
        ("control", ("--kind",)),
        ("metrics", ("--input",)),
        ("sweep", ("--jobs",)),
        ("snapshot", ("--kind",)),
    ],
)
def test_subcommand_help_lists_common_and_own_flags(capsys, command, own_flags):
    with pytest.raises(SystemExit) as info:
        run_cli(command, "--help")
    assert info.value.code == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags == {"--help", *COMMON_FLAGS, *own_flags}


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
    done = subprocess.run(
        [sys.executable, "-m", "chaoscontrol.cli", "metrics", "--input", str(path),
         "--out", str(tmp_path)],
        env=_fresh_env(), capture_output=True, text=True, timeout=120,
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
        # reservoirs past esn.MAX_RESERVOIR_DIM are refused before the first
        # draw; numpy would refuse a 5e8-unit draw as out of memory and a
        # 4e9-unit one as an array too big to shape
        (
            "train", b"esn_reservoir_dim = 500000000\ntraining_steps = 300\n", 2,
            "config error: reservoir of 500000000 units exceeds 10000 units",
        ),
        (
            "train", b"esn_reservoir_dim = 4000000000\ntraining_steps = 300\n", 2,
            "config error: reservoir of 4000000000 units exceeds 10000 units",
        ),
    ],
    ids=[
        "huge-dt-simulate", "huge-dt-train", "huge-dt-control", "empty-reservoir-train",
        "huge-reservoir-train", "unshapeable-reservoir-train",
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


def test_memory_error_without_text_prints_no_dangling_colon(monkeypatch, capsys):
    def exhausted(args, cfg, spec):
        raise MemoryError

    monkeypatch.setattr(chaoscontrol.cli, "_cmd_simulate", exhausted)
    assert run_cli("simulate") == 2
    assert capsys.readouterr().err == "out of memory\n"


def test_package_error_no_clause_names_exits_2_with_one_line(monkeypatch, capsys):
    class UnnamedError(ChaosControlError):
        pass

    def fail(args, cfg, spec):
        raise UnnamedError("a failure of a new kind")

    monkeypatch.setattr(chaoscontrol.cli, "_cmd_simulate", fail)
    assert run_cli("simulate") == 2
    assert capsys.readouterr().err == "error: a failure of a new kind\n"


def _readme_failure_table() -> list:
    """(class name, label, exit code, sweep status) rows of README "CLI"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return [
        tuple(cell.strip(" `") for cell in line.strip("|").split("|"))
        for line in section.splitlines()
        if line.startswith("| `")
    ]


def test_readme_failure_table_matches_the_error_classes(monkeypatch, capsys):
    rows = _readme_failure_table()
    package = {
        name for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, ChaosControlError)
    }
    assert {row[0] for row in rows} == package | {cls.__name__ for cls in errors.FAILURES}
    cfg = ExperimentConfig()
    for name, label, code, status in rows:
        cls = getattr(errors, name, None) or getattr(builtins, name)

        def fail(*args):
            raise cls("boom")

        monkeypatch.setattr(chaoscontrol.cli, "_cmd_simulate", fail)
        assert run_cli("simulate") == int(code), name
        assert capsys.readouterr().err.startswith(f"{label}: boom"), name
        monkeypatch.setattr(chaoscontrol.experiments, "attractor_series", fail)
        assert chaoscontrol.experiments._run_cell((cfg, "ref_train", 0, 0)).status == status, name


def test_sweep_into_an_unusable_out_exits_2_before_any_cell(tmp_path, monkeypatch, capsys):
    # sweep makes --out before its first cell, so an unusable one costs none
    blocker = tmp_path / "file"
    blocker.write_text("")
    cells = []

    def cell(args):
        cells.append(args)
        return SweepRow(args[1], args[2], args[3], float("nan"), float("nan"), "failed")

    monkeypatch.setattr(chaoscontrol.experiments, "_run_cell", cell)
    assert run_cli("sweep", "--out", str(blocker / "out")) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 20] Not a directory")
    assert cells == []


def _run_capped(tmp_path, command, content, *args, cap=2 << 30):
    """``chaosctl <command> --config <content> --out tmp_path/out`` in a
    fresh process whose address space is capped at ``cap`` bytes, in case
    a refusal comes too late."""
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(content)
    return subprocess.run(
        [sys.executable, "-m", "chaoscontrol.cli", command, "--config", str(cfg),
         "--out", str(tmp_path / "out"), *args],
        env=_fresh_env(), preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        capture_output=True, text=True, timeout=120,
    )


# NG-RC configs refused, by what they refuse, before the library is
# enumerated or the design allocated
_OVERSIZED_NGRC = {
    # 348,881,875 monomials over 300 taps; the design would take 12 TiB
    "3.5e8-monomials": ("library", b"kind = ngrc\nngrc_k = 100\nngrc_s = 1\n"),
    # 501,501 monomials: an 18.5 GiB design at the default N = 5000, an
    # 8 MB one at N = 60, where the index table alone would take 4 GB
    "order-1000": ("library", b"kind = ngrc\nngrc_orders = 1000\n"),
    "order-1000-n60": ("library", b"kind = ngrc\nngrc_orders = 1000\ntraining_steps = 60\n"),
    # more monomials than numpy can shape an array of
    "order-12-of-300": (
        "library",
        b"kind = ngrc\nngrc_k = 100\nngrc_s = 1\nngrc_orders = 12\ntraining_steps = 200\n",
    ),
    # 4,504,500 monomials, inside the library bound: a (3999, 4504500)
    # design of 134 GiB, whose library alone took 6.5 s to enumerate
    "design-1000-taps": ("design", b"kind = ngrc\nngrc_k = 1000\nngrc_s = 1\nngrc_orders = 1,2\n"),
}


@pytest.mark.parametrize("command", ["train", "control"])
@pytest.mark.parametrize("refused, content", _OVERSIZED_NGRC.values(), ids=_OVERSIZED_NGRC)
def test_oversized_ngrc_library_exits_2_with_one_line(tmp_path, command, refused, content):
    start = time.monotonic()
    done = _run_capped(tmp_path, command, content)
    assert time.monotonic() - start < 10
    assert done.returncode == 2
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith(f"config error: NG-RC {refused} of ")
    assert not (tmp_path / "out").exists()


def _sweep_rows(out) -> list:
    with open(out / "sweep.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_sweep_records_an_oversized_ngrc_library_as_failed(tmp_path):
    content = _OVERSIZED_NGRC["order-12-of-300"][1] + (
        b"sweep_kinds = ngrc\nsweep_lengths = 200\nsweep_realizations = 1\nhorizon = 300\n"
    )
    done = _run_capped(tmp_path, "sweep", content, "--no-timestamp")
    assert done.returncode == 0, done.stderr
    rows = _sweep_rows(tmp_path / "out")
    assert [(row["kind"], row["N"], row["status"]) for row in rows if row["kind"] == "ngrc"] == [
        ("ngrc", "200", "failed")
    ]


def test_sweep_records_a_cell_it_cannot_allocate_as_failed(tmp_path):
    # a 10,000-unit reservoir's draw holds two dense 763 MiB arrays, which
    # do not fit under a 1 GiB cap; the NG-RC sweep alone runs under half
    # of it, and its cell runs before the classic one
    content = (
        b"esn_reservoir_dim = 10000\nsweep_lengths = 500\nsweep_realizations = 1\n"
        b"horizon = 2000\nsweep_kinds = "
    )
    (tmp_path / "both").mkdir()
    start = time.monotonic()
    done = _run_capped(
        tmp_path / "both", "sweep", content + b"ngrc classic\n", "--no-timestamp", cap=1 << 30
    )
    assert time.monotonic() - start < 10
    assert done.returncode == 0, done.stderr
    rows = _sweep_rows(tmp_path / "both" / "out")
    assert [row["status"] for row in rows if row["kind"] == "classic"] == ["failed"]
    (tmp_path / "ngrc").mkdir()
    alone = _run_capped(
        tmp_path / "ngrc", "sweep", content + b"ngrc\n", "--no-timestamp", cap=1 << 30
    )
    assert alone.returncode == 0, alone.stderr
    assert [row for row in rows if row["kind"] != "classic"] == _sweep_rows(
        tmp_path / "ngrc" / "out"
    )


def test_prediction_too_long_to_hold_exits_2_out_of_memory(tmp_path):
    # the (1e8, 3) free-run array takes 2.24 GiB, past the child's 2 GiB cap
    data = Trajectory(0.05, np.random.default_rng(0).uniform(-1, 1, (200, 3)))
    model = tmp_path / "model.ccm"
    chaoscontrol.save_model(
        model, chaoscontrol.esn.train(data, chaoscontrol.EsnConfig(reservoir_dim=10, washout=20))
    )
    start = time.monotonic()
    done = _run_capped(tmp_path, "predict", b"", "--model", str(model), "--steps", "100000000")
    assert time.monotonic() - start < 10
    assert done.returncode == 2
    assert done.stderr == (
        "out of memory: Unable to allocate 2.24 GiB for an array with shape "
        "(100000000, 3) and data type float64\n"
    )
    assert not (tmp_path / "out").exists()


def test_oversized_sweep_grid_exits_2_before_any_cell(tmp_path):
    # 100,000,000 realizations of the default 20 cells each; the grid is
    # refused before its cell list is built, under a capped address space in
    # case it is not
    start = time.monotonic()
    done = _run_capped(tmp_path, "sweep", b"sweep_realizations = 100000000\n")
    assert time.monotonic() - start < 10
    assert done.returncode == 2
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("config error: the sweep grid has 2000000000 cells")
    assert not (tmp_path / "out").exists()


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
    env = {k: v for k, v in _fresh_env().items() if k not in BLAS_THREAD_VARS}
    if threads is not None:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, threads))
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
