import numpy as np
import pytest

from chaoscontrol import (
    IntegratorConfig,
    IntegrationError,
    LorenzParams,
    Trajectory,
    random_initial_state,
    relax_to_attractor,
    simulate,
    step_rk4,
)
from chaoscontrol.dynamics import _rk4_intervals

from conftest import INTEGRATOR, TRAIN_PARAMS
from oracles import lorenz_deriv, rk4_step


def test_derivative_closed_form():
    p = LorenzParams(10.0, 28.0, 8.0 / 3.0)
    np.testing.assert_allclose(
        lorenz_deriv((1.0, 1.0, 1.0), p), [0.0, 26.0, -5.0 / 3.0], atol=1e-15
    )
    np.testing.assert_array_equal(lorenz_deriv((0.0, 0.0, 0.0), p), [0.0, 0.0, 0.0])
    np.testing.assert_allclose(
        lorenz_deriv((1.0, 0.0, 0.0), TRAIN_PARAMS), [-10.0, 166.15, 0.0], atol=1e-15
    )


def test_params_validation():
    with pytest.raises(ValueError):
        LorenzParams(10.0, float("nan"), 8.0 / 3.0)
    with pytest.raises(ValueError):
        LorenzParams(10.0, 28.0, 0.0)


def _forced_interval(u, cfg, force):
    """One sampling interval of the package kernel under a constant force."""
    p = TRAIN_PARAMS
    return np.array(_rk4_intervals(
        *(float(c) for c in u), p.sigma, p.rho, p.beta, cfg.dt, cfg.substeps,
        *(float(f) for f in force),
    ))


def test_zero_force_step_matches_unforced():
    u = np.array([3.0, -1.5, 30.0])
    a = step_rk4(u, TRAIN_PARAMS, INTEGRATOR)
    b = _forced_interval(u, INTEGRATOR, np.zeros(3))
    np.testing.assert_array_equal(a, b)


def test_forced_step_equals_augmented_field():
    # adding a constant force must be the same as integrating f+F directly
    u = np.array([3.0, -1.5, 30.0])
    force = np.array([0.7, -2.0, 1.3])
    cfg = IntegratorConfig(dt=0.05, substeps=1)
    via_force = _forced_interval(u, cfg, force)
    via_field = rk4_step(lambda w: lorenz_deriv(w, TRAIN_PARAMS) + force, u, 0.05)
    np.testing.assert_array_equal(via_force, via_field)


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@pytest.mark.parametrize("substeps", [1, 3, 5])
def test_kernel_matches_generic_rk4_bitwise(substeps, forced):
    # the fused scalar kernel must be the generic stage arithmetic, in order
    cfg = IntegratorConfig(dt=0.05, substeps=substeps)
    h = cfg.dt / substeps
    n = 300
    rng = np.random.default_rng(substeps)
    forces = rng.uniform(-5.0, 5.0, size=(n, 3)) if forced else [None] * n

    def field(w):
        return lorenz_deriv(w, TRAIN_PARAMS)

    u = np.array([3.0, -1.5, 30.0])
    expected = [u]
    for force in forces:
        for _ in range(substeps):
            u = rk4_step(field, u, h, force=force)
        expected.append(u)
    expected = np.array(expected)

    chained = [expected[0]]
    for force in forces:
        u = chained[-1]
        chained.append(
            _forced_interval(u, cfg, force) if forced else step_rk4(u, TRAIN_PARAMS, cfg)
        )
    np.testing.assert_array_equal(np.array(chained), expected)
    if not forced:
        traj = simulate(expected[0], TRAIN_PARAMS, cfg, n)
        np.testing.assert_array_equal(traj.samples, expected)


@pytest.mark.parametrize(
    "u0, step", [((50.0, 50.0, 50.0), 3), ((1e200, 1e200, 1e200), 1)]
)
def test_integration_error_names_first_non_finite_step(u0, step):
    # a single half-unit RK4 step at rho = 1e6 overflows within a few steps
    params = LorenzParams(10.0, 1e6, 8.0 / 3.0)
    cfg = IntegratorConfig(dt=0.5, substeps=1)
    with pytest.raises(IntegrationError) as info:
        simulate(np.array(u0), params, cfg, 10)
    assert info.value.step == step


def test_step_rk4_names_the_sample_it_produced():
    # the interval that makes simulate's sample 1 non-finite is step 1 here too
    u0 = np.array([1e200, 1e200, 1e200])
    with pytest.raises(IntegrationError) as info:
        step_rk4(u0, TRAIN_PARAMS, INTEGRATOR)
    assert info.value.step == 1
    with pytest.raises(IntegrationError) as info:
        simulate(u0, TRAIN_PARAMS, INTEGRATOR, 1)
    assert info.value.step == 1


def test_simulate_length_contract():
    u0 = np.array([1.0, 1.0, 1.0])
    assert len(simulate(u0, TRAIN_PARAMS, INTEGRATOR, 1)) == 2
    with pytest.raises(ValueError):
        simulate(u0, TRAIN_PARAMS, INTEGRATOR, 0)


def test_origin_is_preserved():
    traj = simulate(np.zeros(3), TRAIN_PARAMS, INTEGRATOR, 50)
    np.testing.assert_array_equal(traj.samples, np.zeros((51, 3)))


def test_simulate_deterministic():
    u0 = np.array([0.3, -0.2, 0.9])
    a = simulate(u0, TRAIN_PARAMS, INTEGRATOR, 200)
    b = simulate(u0, TRAIN_PARAMS, INTEGRATOR, 200)
    np.testing.assert_array_equal(a.samples, b.samples)


def test_trajectory_times():
    traj = Trajectory(0.05, np.arange(12.0).reshape(4, 3))
    np.testing.assert_allclose(traj.times, [0.0, 0.05, 0.1, 0.15])


@pytest.mark.parametrize("shape", [(12,), (2, 2, 3)], ids=["1-D", "3-D"])
def test_trajectory_rejects_samples_not_2d(shape):
    with pytest.raises(ValueError):
        Trajectory(0.05, np.zeros(shape))


def test_trajectory_rejects_non_finite():
    with pytest.raises(ValueError):
        Trajectory(0.05, np.array([[0.0, 0.0, float("inf")]]))


def test_relaxation_lands_on_attractor():
    rng = np.random.default_rng(5)
    u = relax_to_attractor(random_initial_state(rng), TRAIN_PARAMS, INTEGRATOR)
    # the intermittent regime lives at large z; the unit cube does not
    assert u[2] > 50.0
    assert np.all(np.isfinite(u))


def test_initial_state_distribution():
    rng = np.random.default_rng(0)
    draws = np.array([random_initial_state(rng) for _ in range(200)])
    assert draws.min() >= -1.0 and draws.max() <= 1.0
    assert abs(draws.mean()) < 0.1
