import numpy as np
import pytest

from chaoscontrol import NgrcConfig, NgrcModel, Trajectory, build_library
from chaoscontrol.control import free_run
from chaoscontrol.errors import DivergenceError, InsufficientDataError
from chaoscontrol.experiments import ExperimentConfig, prepare_trained_model
from chaoscontrol.ngrc import (
    build_design,
    poly_features,
    shift_expand,
    train,
)

from oracles import (
    count_monomials,
    enumerate_monomials,
    monomial_products,
    ridge_normal_equations,
)


def _series(rows):
    return Trajectory(0.05, np.asarray(rows, dtype=float))


# ---------------------------------------------------------------- library


@pytest.mark.parametrize("n_vars", range(1, 7))
@pytest.mark.parametrize("orders", [(1,), (2,), (3,), (4,), (1, 2), (1, 2, 3, 4)])
def test_library_size_matches_enumeration(n_vars, orders):
    lib = build_library(n_vars, orders)
    assert len(lib) == count_monomials(n_vars, orders)
    assert set(lib.monomials) == enumerate_monomials(n_vars, orders)
    assert len(set(lib.monomials)) == len(lib.monomials)


def test_two_variable_quadratic_library_order():
    # exact 5-feature layout: x, y, x^2, y^2, xy
    lib = build_library(2, (1, 2))
    assert lib.monomials == ((0,), (1,), (0, 0), (1, 1), (0, 1))


def test_lorenz_library_has_34_features():
    assert len(build_library(3, (1, 2, 3, 4))) == 34


def test_library_squares_precede_cross_terms():
    lib = build_library(3, (2,))
    assert lib.monomials == ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


# ---------------------------------------------------------------- features


def test_poly_features_quadratic_example():
    lib = build_library(2, (1, 2))
    np.testing.assert_allclose(
        poly_features(np.array([2.0, 3.0]), lib), [2.0, 3.0, 4.0, 9.0, 6.0]
    )


def test_poly_features_degree_one_is_identity():
    lib = build_library(4, (1,))
    v = np.array([1.5, -2.0, 0.0, 7.0])
    np.testing.assert_array_equal(poly_features(v, lib), v)


@pytest.mark.parametrize(
    "n_vars, orders",
    [(3, (1, 2, 3, 4)), (6, (1, 2, 3)), (3, (2, 4))],
    ids=["lorenz-k1", "lorenz-k2-cubic", "no-low-order-prefix"],
)
def test_poly_features_bitwise_match_product_oracle(n_vars, orders):
    lib = build_library(n_vars, orders)
    # wide magnitudes, so a different product order would round differently
    rows = np.random.default_rng(n_vars).standard_normal((200, n_vars)) * [
        10.0 ** e for e in np.linspace(-3, 3, n_vars)
    ]
    assert np.array_equal(poly_features(rows, lib), monomial_products(rows, lib.monomials))
    assert np.array_equal(
        poly_features(rows[7], lib), monomial_products(rows[7], lib.monomials)
    )


def test_poly_features_dimension_check():
    lib = build_library(3, (1, 2))
    with pytest.raises(ValueError):
        poly_features(np.ones(4), lib)


# ------------------------------------------------------------ shift_expand


def test_shift_expand_single_tap_is_identity():
    traj = _series([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    np.testing.assert_array_equal(shift_expand(traj, 2, k=1, s=57), [5.0, 6.0])


def test_shift_expand_two_taps_newest_first():
    traj = _series([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    np.testing.assert_array_equal(
        shift_expand(traj, 2, k=2, s=1), [5.0, 6.0, 3.0, 4.0]
    )


def test_shift_expand_underflow():
    traj = _series(np.zeros((10, 2)))
    with pytest.raises(InsufficientDataError):
        shift_expand(traj, 2, k=2, s=3)
    shift_expand(traj, 3, k=2, s=3)


# ------------------------------------------------------------ build_design


def test_design_row_bookkeeping():
    traj = _series(np.random.default_rng(0).uniform(-1, 1, (10, 3)))
    cfg = NgrcConfig(k=2, s=2, orders=(1,), ridge_beta=0.0)
    design, targets = build_design(traj, cfg)
    assert design.shape[0] == 10 - 2 * 2 - 1
    assert targets.shape == (design.shape[0], 3)
    np.testing.assert_array_equal(
        targets[0], traj.samples[5] - traj.samples[4]
    )


@pytest.mark.parametrize("k, s", [(1, 57), (2, 3), (3, 5)])
def test_design_taps_match_shift_expand(k, s):
    traj = _series(np.random.default_rng(k).standard_normal((90, 3)))
    # a degree-1 library in canonical order leaves the taps unchanged
    design, _ = build_design(traj, NgrcConfig(k=k, s=s, orders=(1,)))
    rows = range(k * s, len(traj) - 1)
    want = np.stack([shift_expand(traj, t, k, s) for t in rows])
    assert np.array_equal(design, want)


def test_design_rows_at_reference_operating_point():
    traj = _series(np.random.default_rng(1).uniform(-1, 1, (500, 3)))
    design, _ = build_design(traj, NgrcConfig())
    assert design.shape == (500 - 57 - 1, 34)


def test_design_requires_enough_samples():
    traj = _series(np.zeros((58, 3)) + np.linspace(0, 1, 58)[:, None])
    with pytest.raises(InsufficientDataError):
        build_design(traj, NgrcConfig())


def test_constant_series_gives_zero_targets():
    traj = _series(np.tile([1.0, 2.0, 3.0], (70, 1)))
    cfg = NgrcConfig(k=1, s=57, orders=(1, 2), ridge_beta=1e-8)
    _, targets = build_design(traj, cfg)
    np.testing.assert_array_equal(targets, np.zeros_like(targets))
    model = train(traj, cfg)
    increments = model.W_out @ poly_features(traj.samples[-1], model.library)
    np.testing.assert_allclose(increments, np.zeros(3), atol=1e-8)


# ------------------------------------------------------------------ train


def _quadratic_map_series(seed=0):
    """Short bursts whose one-step increments follow a known degree-2 map.

    The map is a weak rotation with one quadratic coupling, so every burst
    stays bounded; multiple random starts spread the visited states enough
    for the 9-monomial design to reach full rank.
    """
    rng = np.random.default_rng(seed)
    w_true = np.zeros((3, 9))  # library over 3 vars, orders (1, 2)
    w_true[0, 1] = 0.05   # dx = 0.05 y
    w_true[1, 0] = -0.05  # dy = -0.05 x
    w_true[2, 6] = 0.03   # dz = 0.03 xy
    lib = build_library(3, (1, 2))
    blocks = []
    for _ in range(6):
        u = rng.uniform(-1.0, 1.0, 3)
        block = [u]
        for _ in range(12):
            u = u + w_true @ poly_features(u, lib)
            block.append(u)
        blocks.append(np.array(block))
    return w_true, lib, blocks


def test_generating_coefficients_recovered():
    w_true, lib, blocks = _quadratic_map_series(seed=2)
    cfg = NgrcConfig(k=1, s=1, orders=(1, 2), ridge_beta=1e-12)
    # fit on the concatenated designs of several short bursts
    designs, targets = [], []
    for block in blocks:
        traj = _series(block)
        d, t = build_design(traj, cfg)
        designs.append(d)
        targets.append(t)
    from chaoscontrol import ridge_fit

    w = ridge_fit(np.vstack(designs), np.vstack(targets), cfg.ridge_beta)
    np.testing.assert_allclose(w, w_true, atol=1e-6)


def test_train_matches_normal_equations_oracle():
    traj = _series(np.random.default_rng(5).uniform(-1, 1, (40, 2)))
    cfg = NgrcConfig(k=1, s=3, orders=(1, 2), ridge_beta=1e-6)
    model = train(traj, cfg)
    design, targets = build_design(traj, cfg)
    want = ridge_normal_equations(design, targets, cfg.ridge_beta)
    np.testing.assert_allclose(model.W_out, want, atol=1e-10, rtol=0)


def test_shrinkage_monotone():
    traj = _series(np.random.default_rng(6).uniform(-1, 1, (60, 3)))
    norms = [
        np.linalg.norm(train(traj, NgrcConfig(k=1, s=2, orders=(1, 2), ridge_beta=b)).W_out)
        for b in (1e-12, 1e-8, 1e-4, 1.0)
    ]
    for low, high in zip(norms, norms[1:]):
        assert high <= low + 1e-12


def test_training_bitwise_deterministic(train_run_short):
    a = train(train_run_short, NgrcConfig())
    b = train(train_run_short, NgrcConfig())
    assert np.array_equal(a.W_out, b.W_out)
    assert np.array_equal(a.tap_buffer, b.tap_buffer)


def test_one_step_residual_beats_zero_model(train_run_short):
    cfg = NgrcConfig()
    model = train(train_run_short, cfg)
    design, targets = build_design(train_run_short, cfg)
    fitted = design @ model.W_out.T
    assert np.mean((fitted - targets) ** 2) <= np.mean(targets**2)


# ---------------------------------------------------------------- predict


def test_zero_steps_gives_empty_trajectory(train_run_short):
    model = train(train_run_short, NgrcConfig())
    assert free_run(model.stepper(), 0, 0.05).samples.shape == (0, 3)


def test_zero_readout_continues_last_sample():
    traj = _series(np.random.default_rng(8).uniform(-1, 1, (70, 3)))
    cfg = NgrcConfig(k=1, s=57, orders=(1, 2, 3, 4))
    model = train(traj, cfg)
    frozen = NgrcModel(
        config=cfg,
        library=model.library,
        W_out=np.zeros_like(model.W_out),
        tap_buffer=model.tap_buffer.copy(),
    )
    pred = free_run(frozen.stepper(), 5, 0.05)
    np.testing.assert_array_equal(
        pred.samples, np.tile(traj.samples[-1], (5, 1))
    )


def test_seed_history_taps(train_run_short):
    cfg = NgrcConfig(k=2, s=3, orders=(1,), ridge_beta=1e-8)
    model = train(train_run_short, cfg)
    # the stored taps are the trailing tap_span = (k-1)*s + 1 samples
    np.testing.assert_array_equal(model.tap_buffer, train_run_short.samples[-4:])
    assert len(free_run(model.stepper(), 3, 0.05)) == 3
    short = NgrcModel(
        config=cfg,
        library=model.library,
        W_out=model.W_out,
        tap_buffer=model.tap_buffer[-2:].copy(),
    )
    with pytest.raises(InsufficientDataError):
        short.stepper()


def test_prediction_divergence_signal(train_run_short):
    model = train(train_run_short, NgrcConfig())
    with pytest.raises(DivergenceError) as info:
        free_run(model.stepper(bound=1e3), 10_000, 0.05)
    assert info.value.phase == "predict"


@pytest.mark.parametrize("readout", ["nan", "inf", "just-over-bound"])
def test_divergence_check_on_first_step(train_run_short, readout):
    model = train(train_run_short, NgrcConfig())
    bound = 1e3
    if readout == "nan":
        model.W_out = np.full_like(model.W_out, np.nan)
    elif readout == "inf":
        # inf times the positive x^2 feature, zero elsewhere: v[0] = inf
        model.W_out = np.zeros_like(model.W_out)
        model.W_out[0, model.library.monomials.index((0, 0))] = np.inf
    else:
        top = np.max(np.abs(model.stepper(bound=np.inf).step()))
        bound = np.nextafter(top, 0.0)
        # the bound itself is inside: |v| <= bound passes
        model.stepper(bound=top).step()
    with pytest.raises(DivergenceError) as info:
        model.stepper(bound=bound).step()
    assert (info.value.phase, info.value.step) == ("predict", 1)


# The NG-RC free run holds the attractor when sampled at dt = 0.025 and
# leaves it at the pinned dt = 0.05 (equal training time, N*dt = 25), which
# is why A3 and A4 fail in this build (README "Known-failing criteria").
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize(
    "dt, n, steps, survives",
    [(0.025, 1000, 20_000, True), (0.05, 500, 10_000, False)],
    ids=["dt0.025-survives", "dt0.05-diverges"],
)
def test_sampling_interval_boundary(seed, dt, n, steps, survives):
    cfg = ExperimentConfig(kind="ngrc", dt=dt, training_steps=n, master_seed=seed)
    _, model = prepare_trained_model(cfg)
    if survives:
        assert len(free_run(model.stepper(), steps, dt)) == steps
    else:
        with pytest.raises(DivergenceError) as info:
            free_run(model.stepper(), steps, dt)
        assert info.value.phase == "predict"
