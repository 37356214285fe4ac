"""Small-size self-tests of the benchmark harness and the trace wrappers.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import chaoscontrol  # noqa: E402
from chaoscontrol import dynamics, experiments  # noqa: E402
from chaoscontrol.errors import DivergenceError  # noqa: E402
from chaoscontrol.experiments import ExperimentConfig  # noqa: E402

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = ExperimentConfig(training_steps=1000, horizon=300, transient_steps=50)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    for w in spec["workloads"]:
        assert w["why"] == workloads.WHY[w["name"]]


def test_wrapping_is_by_identity_and_undone():
    original = dynamics.simulate
    assert experiments.simulate is original
    with tracing.installed(tracing.Tracer()):
        assert dynamics.simulate is not original
        assert experiments.simulate is dynamics.simulate
        assert chaoscontrol.simulate is dynamics.simulate
    assert dynamics.simulate is original and experiments.simulate is original
    assert chaoscontrol.EsnModel.stepper is chaoscontrol.EsnModel.__dict__["stepper"]


def test_traced_single_run_counts_work_and_self_time():
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        experiments.run_single(TINY)
    layers = tracer.layer_metrics()
    assert tracer.calls["experiments.run_single"] == 1
    # run_control emits one predictor output per sample: horizon + 1 steps
    assert layers["esn.steps"] == TINY.horizon + 1
    assert layers["control.intervals"] == TINY.horizon
    washout = TINY.washout_for(TINY.training_steps)
    rows = TINY.training_steps - washout - 1
    assert layers["ridge.design_cells"] == rows * 2 * TINY.esn_reservoir_dim
    # relax + reference + uncontrolled simulations, plus one step_rk4 interval
    assert layers["dynamics.intervals"] == TINY.transient_steps + max(
        TINY.training_steps - 1, TINY.horizon) + TINY.horizon + 1
    # reference, uncontrolled and controlled climates
    assert layers["metrics.points"] == max(
        TINY.training_steps - 1, TINY.horizon) + 1 + 2 * (TINY.horizon + 1)
    root = tracer.spans[0]
    wall = root[2] - root[1]
    self_total = sum(v for k, v in layers.items() if k.endswith("_s"))
    assert 0 < self_total <= wall * 1.001
    assert all(end is not None for _, _, end, _, _, _ in tracer.spans)


def test_predict_divergence_is_counted_with_its_phase():
    tracer = tracing.Tracer()
    cfg = replace(TINY, kind="ngrc", training_steps=250)
    with tracing.installed(tracer):
        with pytest.raises(DivergenceError):
            experiments.run_single(cfg)
    assert tracer.counts["control.diverged_predict"] == 1
    assert tracer.calls["ngrc.step"] == tracer.counts["control.intervals"] + 1
    assert tracer.problems == []


def test_divergence_without_phase_or_step_is_a_problem():
    assert workloads.divergence_problems(DivergenceError("x", "predict", 3)) == []
    assert len(workloads.divergence_problems(DivergenceError("x"))) == 2


def test_vanished_traced_function_fails_loudly(monkeypatch):
    monkeypatch.delattr(dynamics, "step_rk4")
    with pytest.raises(tracing.TraceCoverageError, match="step_rk4"):
        with tracing.installed(tracing.Tracer()):
            pass


def test_layer_with_zero_calls_fails_loudly():
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        experiments.run_single(TINY)
    with pytest.raises(tracing.TraceCoverageError, match="ngrc.train"):
        tracer.check_coverage("single_ngrc_a3")


@pytest.mark.parametrize("workload", [
    workloads.SweepA2(TINY, n=1000, realizations=1),
    workloads.SingleNgrcA3(TINY, lengths=(250, 1000)),
    workloads.CliPipeline(TINY, predict_steps=50),
])
def test_workload_units_pass_their_checks_and_repeat_exactly(workload, tmp_path):
    unit = workload.units(seed=0, seconds=workload.unit_seconds)[0]
    first, again = (
        workloads.run_units(workload, [unit], str(tmp_path / "work"))[0] for _ in range(2)
    )
    assert [op.problems for op in first.ops] == [[] for _ in first.ops]
    assert not any(op.failed for op in first.ops)
    assert first.digest == again.digest
    assert first.seconds > 0 and len(first.op_seconds) >= 1
    assert not (tmp_path / "work").exists()


def test_diverged_cli_prediction_is_an_outcome_not_a_failure(tmp_path):
    # a reservoir of spectral radius 2 expands, so its autonomous prediction blows up
    workload = workloads.CliPipeline(replace(TINY, esn_spectral_radius=2.0), predict_steps=300)
    result = workloads.run_units(workload, [0], str(tmp_path / "work"))[0]
    assert [op.status for op in result.ops] == ["diverged"]
    assert result.ops[0].problems == []


def test_probe_clock_leaves_out_kernel_samples():
    probe = calibration.SpeedProbe()
    t0 = probe.now()
    probe.sample()
    assert probe.now() - t0 < 0.5 * probe.samples[0][1]
    assert probe.speed() > 0


def test_sampling_runs_on_a_timer_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    probe = calibration.SpeedProbe(interval=0.02)
    with probe.sampling():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(probe.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_factor_uses_the_samples_around_an_op():
    probe = calibration.SpeedProbe()
    ref = calibration.REFERENCE_S
    probe.samples = [(float(t), ref if t < 50 else 2 * ref) for t in range(100)]
    assert probe.factor(10.0, 10.1) == 1.0  # the nearest samples, all at reference speed
    assert probe.factor(60.0, 90.0) == 0.5  # the samples inside, the host at half speed
    assert probe.factor(0.0, 99.0) == pytest.approx(2 / 3)


def test_unit_count_depends_only_on_seconds():
    w = workloads.SweepA2()
    assert len(w.units(1, 30)) == 2 and len(w.units(2, 30)) == 2
    assert len(w.units(1, 1)) == 1


def test_interquartile_mean_drops_a_quarter_each_side():
    assert run.interquartile_mean([1.0, 3.0]) == 2.0
    assert run.interquartile_mean([100.0, 2.0, 3.0, 0.0]) == 2.5
    assert run.interquartile_mean([1.0] * 6 + [50.0, 60.0]) == 1.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run._tail_percentile(19) is None
    assert run._tail_percentile(100) == 90
    assert run._tail_percentile(85) == 88


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_a2", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
