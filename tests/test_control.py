import numpy as np
import pytest

from chaoscontrol import (
    ControlConfig,
    ControlRun,
    EsnConfig,
    NgrcConfig,
    Trajectory,
    run_control,
    simulate,
    step_rk4,
)
from chaoscontrol.errors import DivergenceError
from chaoscontrol.esn import train as esn_train
from chaoscontrol.ngrc import train as ngrc_train

from conftest import INTEGRATOR, PLANT_PARAMS, TRAIN_PARAMS, attractor_trajectory


class ReplayStepper:
    """Oracle predictor that plays back a precomputed trajectory."""

    dim = 3

    def __init__(self, samples):
        self._it = iter(np.asarray(samples, dtype=float))

    def step(self):
        return next(self._it).tolist()


def test_config_validation():
    with pytest.raises(ValueError):
        ControlConfig(plant_params=PLANT_PARAMS, K=float("inf"))
    with pytest.raises(ValueError):
        ControlConfig(plant_params=PLANT_PARAMS, n_steps=0)


def test_run_lengths_must_match():
    t = Trajectory(0.05, np.zeros((5, 3)))
    short = Trajectory(0.05, np.zeros((4, 3)))
    with pytest.raises(ValueError):
        ControlRun(controlled=t, hypothetical=short, forces=t)


def test_zero_gain_is_bit_identical_to_simulation():
    target = attractor_trajectory(TRAIN_PARAMS, 201, seed=3)
    u0 = target.samples[0]
    cfg = ControlConfig(plant_params=PLANT_PARAMS, K=0.0, n_steps=200)
    run = run_control(ReplayStepper(target.samples[1:]), u0, cfg, INTEGRATOR)
    free = simulate(u0, PLANT_PARAMS, INTEGRATOR, 200)
    np.testing.assert_array_equal(run.controlled.samples, free.samples)
    np.testing.assert_array_equal(run.forces.samples, np.zeros((201, 3)))


def test_force_record_reconstructs_exactly():
    target = attractor_trajectory(TRAIN_PARAMS, 121, seed=4)
    cfg = ControlConfig(plant_params=PLANT_PARAMS, K=20.0, n_steps=119)
    run = run_control(ReplayStepper(target.samples[1:]), target.samples[1], cfg, INTEGRATOR)
    rebuilt = cfg.K * (run.controlled.samples - run.hypothetical.samples)
    np.testing.assert_array_equal(run.forces.samples, rebuilt)


def test_tracking_with_oracle_predictor():
    # an exact predictor holds the plant within a few one-step
    # parameter-mismatch errors of the target trajectory
    target = attractor_trajectory(TRAIN_PARAMS, 401, seed=2)
    u0 = target.samples[1]
    cfg = ControlConfig(plant_params=PLANT_PARAMS, K=20.0, n_steps=399)
    run = run_control(ReplayStepper(target.samples[1:]), u0, cfg, INTEGRATOR)
    deviation = np.linalg.norm(
        run.controlled.samples - run.hypothetical.samples, axis=1
    ).max()
    one_step = max(
        np.linalg.norm(
            step_rk4(target.samples[t], PLANT_PARAMS, INTEGRATOR)
            - target.samples[t + 1]
        )
        for t in range(1, 400)
    )
    assert deviation <= 10.0 * one_step


def test_control_divergence_tagged():
    # a negative gain turns the feedback positive and drives the plant out
    target = attractor_trajectory(TRAIN_PARAMS, 600, seed=2)
    cfg = ControlConfig(plant_params=PLANT_PARAMS, K=-20.0, n_steps=400)
    with pytest.raises(DivergenceError) as info:
        run_control(ReplayStepper(target.samples[1:]), target.samples[1], cfg, INTEGRATOR)
    assert info.value.phase == "control"


def test_forces_stay_small_without_regime_change(train_run_short):
    # plant keeps the training parameters; a decent predictor then yields
    # forces far below gain times the attractor diameter
    m = esn_train(train_run_short, EsnConfig(washout=199, seed=3))
    u0 = step_rk4(train_run_short.samples[-1], TRAIN_PARAMS, INTEGRATOR)
    cfg = ControlConfig(plant_params=TRAIN_PARAMS, K=20.0, n_steps=500)
    run = run_control(m.stepper(), u0, cfg, INTEGRATOR)
    mean_force = np.linalg.norm(run.forces.samples, axis=1).mean()
    diameter = np.ptp(train_run_short.samples, axis=0).max()
    assert mean_force < 0.1 * cfg.K * diameter


def test_predictor_divergence_propagates(train_run_short):
    m = esn_train(train_run_short, EsnConfig(washout=199, seed=3))
    u0 = step_rk4(train_run_short.samples[-1], PLANT_PARAMS, INTEGRATOR)
    cfg = ControlConfig(plant_params=PLANT_PARAMS, K=20.0, n_steps=200)
    # a readout scaled up a millionfold leaves the bound on its first output
    m.P = m.P * 1e6
    with pytest.raises(DivergenceError) as info:
        run_control(m.stepper(), u0, cfg, INTEGRATOR)
    assert info.value.phase == "predict"


@pytest.mark.parametrize("kind", ["classic", "ngrc"])
def test_step_returns_python_floats(train_run_short, kind):
    # run_control unpacks step() into the scalar RK4, which needs plain floats
    if kind == "classic":
        model = esn_train(train_run_short, EsnConfig(washout=199, seed=3))
    else:
        model = ngrc_train(train_run_short, NgrcConfig())
    stepper = model.stepper()
    v = stepper.step()
    assert type(v) is list and len(v) == stepper.dim == 3
    assert all(type(c) is float for c in v)
