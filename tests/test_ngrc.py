import functools
import math
import tracemalloc

import numpy as np
import pytest

from chaoscontrol import NgrcConfig, NgrcModel, Trajectory, build_library, climate_stats
from chaoscontrol.control import free_run
from chaoscontrol.errors import DIVERGENCE_BOUND, DivergenceError, InsufficientDataError
from chaoscontrol.experiments import ExperimentConfig, attractor_series, prepare_trained_model
from chaoscontrol.metrics import correlation_dimension
from chaoscontrol.ngrc import _DESIGN_BLOCK_ROWS, build_design, poly_features, train

from conftest import X_LAMBDA, X_NU
from oracles import (
    augmented_state,
    benettin_lyapunov,
    count_monomials,
    enumerate_monomials,
    esn_harvest,
    esn_tangent,
    monomial_products,
    monomial_rung,
    ngrc_tangent,
    noisy_ngrc_fit,
    ridge_normal_equations,
    shift_expand,
    tanh_rung,
    teacher_forced_exponent,
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


def test_design_blocks_match_product_oracle():
    # two full blocks and a partial one, wide magnitudes as above
    rows, cfg = 2 * _DESIGN_BLOCK_ROWS + 37, NgrcConfig(k=2, s=3, orders=(1, 2, 3, 4))
    scale = [10.0 ** e for e in (-3, 0, 3)]
    traj = _series(np.random.default_rng(5).standard_normal((rows + cfg.warmup + 1, 3)) * scale)
    design, _ = build_design(traj, cfg)
    assert design.shape[0] == rows
    taps = np.stack([shift_expand(traj, t, cfg.k, cfg.s) for t in range(cfg.warmup, len(traj) - 1)])
    lib = build_library(6, cfg.orders)
    assert np.array_equal(design, monomial_products(taps, lib.monomials))


@pytest.mark.parametrize("s", [1, 2, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_stepper_taps_are_the_design_row(k, s):
    # one tap layout: the first step from series[s : k*s + 1] evaluates
    # the features of the design's only row, taps ending at series[k*s]
    rng = np.random.default_rng(10 * k + s)
    series = _series(rng.standard_normal((k * s + 2, 3)))
    cfg = NgrcConfig(k=k, s=s, orders=(1, 2, 3))
    design, _ = build_design(series, cfg)
    assert design.shape[0] == 1
    w_out = rng.standard_normal((3, design.shape[1])) * 0.1
    model = NgrcModel(config=cfg, W_out=w_out, tap_buffer=series.samples[s : k * s + 1].copy())
    want = series.samples[k * s] + w_out @ design[0]
    assert np.array(model.stepper().step()).tobytes() == want.tobytes()


# tracemalloc peak of an N = 5000 design (4,942 rows, 34 monomials), in
# bytes a row: the design and targets (272 + 24) and one 512-row block's
# gathered factors (about 113 at this length); a design evaluated in one
# pass, with all rows' gathered factors and a product copy, reads about 613
DESIGN_PEAK_PER_ROW = 500


def test_design_peak_memory_pinned():
    traj = _series(np.random.default_rng(0).standard_normal((5000, 3)) * 30)
    build_design(traj, NgrcConfig())  # the library is cached from here on
    tracemalloc.start()
    try:
        design, targets = build_design(traj, NgrcConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = design.shape[0]
    assert rows == 4942
    # the lower bound shows that numpy's buffers are traced at all
    assert design.nbytes + targets.nbytes <= peak <= DESIGN_PEAK_PER_ROW * rows


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
    features = poly_features(traj.samples[-1], build_library(3, cfg.orders))
    np.testing.assert_allclose(model.W_out @ features, np.zeros(3), atol=1e-8)


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
        W_out=model.W_out,
        tap_buffer=model.tap_buffer[-2:].copy(),
    )
    with pytest.raises(InsufficientDataError):
        short.stepper()


def test_prediction_divergence_signal(train_run_short):
    model = train(train_run_short, NgrcConfig())
    with pytest.raises(DivergenceError) as info:
        free_run(model.stepper(), 10_000, 0.05)
    assert info.value.phase == "predict"


@pytest.mark.parametrize("readout", ["nan", "inf", "just-over-bound"])
def test_divergence_check_on_first_step(train_run_short, readout):
    model = train(train_run_short, NgrcConfig())
    if readout == "nan":
        model.W_out = np.full_like(model.W_out, np.nan)
    elif readout == "inf":
        # inf times the positive x^2 feature, zero elsewhere: v[0] = inf
        model.W_out = np.zeros_like(model.W_out)
        x_squared = build_library(3, model.config.orders).monomials.index((0, 0))
        model.W_out[0, x_squared] = np.inf
    else:
        # a zero readout adds nothing: v is the newest tap, (x0, 0, 0)
        model.W_out = np.zeros_like(model.W_out)
        model.tap_buffer = np.zeros_like(model.tap_buffer)
        # the bound itself is inside: |v| <= DIVERGENCE_BOUND passes
        model.tap_buffer[-1, 0] = DIVERGENCE_BOUND
        assert model.stepper().step() == [DIVERGENCE_BOUND, 0.0, 0.0]
        model.tap_buffer[-1, 0] = np.nextafter(DIVERGENCE_BOUND, np.inf)
    with pytest.raises(DivergenceError) as info:
        model.stepper().step()
    assert (info.value.phase, info.value.step) == ("predict", 1)


# The NG-RC free run holds the attractor when sampled at dt = 0.025 and
# leaves it at the pinned dt = 0.05 (equal training time, N*dt = 25), which
# is why A3 and A4 fail in this build (README "Known-failing criteria").
# Surviving is not enough: at dt = 0.025 four of the five free runs have
# their exponent outside the X band, 0.19 for seed 0 and too chaotic
# (1.73-1.82) for seeds 1, 3 and 4; only seed 2 lands inside it, at
# (0.645, 1.321).  This pins a known limit, not a target; a change to
# NG-RC that moves a run across the band updates this test.
DT0025_IN_X_BAND = {2}


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
        run = free_run(model.stepper(), steps, dt)
        assert len(run) == steps
        lam = climate_stats(run).lambda_max
        in_band = X_LAMBDA[0] <= lam <= X_LAMBDA[1]
        assert in_band == (seed in DT0025_IN_X_BAND), f"lambda {lam:.3f}"
    else:
        with pytest.raises(DivergenceError) as info:
            free_run(model.stepper(), steps, dt)
        assert info.value.phase == "predict"


# Positive control: at rho = 28 the default NG-RC (k = 1, orders 1-4, ridge
# 1e-4) learns the classic Lorenz climate from 300 samples at the pinned
# dt = 0.05, so the code itself is sound and its failure at rho = 166.15
# belongs to that regime.  Seeds 0-2 read |d lambda| <= 0.019 and
# |d nu| <= 0.018 against their references (seed 3 reads 0.024 and 0.001).
# A change to NG-RC must keep this passing.
@pytest.mark.parametrize("seed", range(3))
def test_classic_lorenz_positive_control(seed):
    cfg = ExperimentConfig(kind="ngrc", rho_train=28.0, training_steps=300, master_seed=seed)
    _, model = prepare_trained_model(cfg)
    run = climate_stats(free_run(model.stepper(), 20_000, cfg.dt))
    ref = climate_stats(attractor_series(cfg, "ref_train", 0, 20_000))
    assert abs(run.lambda_max - ref.lambda_max) <= 0.04
    assert abs(run.corr_dim - ref.corr_dim) <= 0.02


# Known limit, not a gate (README "Known-failing criteria"): the
# teacher-forced expansion rate of each predictor's one-step map, screened
# along realization 1's ref_train series and divided by the flow's exponent
# over the same window.  The models train on a prefix of realization 0's
# series, so the screen is held out.  At master seeds 0 and 1, NG-RC's map
# at rho = 166.15 expands 7.6-14.6 times faster than the flow at N = 500
# and 5.2-6.0 times at N = 5000 (screen 3.6-8.7 against 0.59-0.78), and its
# free run diverges; the classic map reads 0.99-1.04, and both kinds at
# rho = 28 read 0.98-1.01 (flow 0.90).  A change that moves a ratio out of
# its range updates this test.
SCREEN_WASHOUT, SCREEN_STEPS = 1000, 4000


@functools.lru_cache(maxsize=None)
def _held_out(rho, seed):
    """(realization 1's ref_train series, the flow's exponent after its washout).

    The screened models train on a prefix of realization 0's series, so
    realization 1's is held out.
    """
    cfg = ExperimentConfig(rho_train=rho, master_seed=seed)
    series = attractor_series(cfg, "ref_train", 1, SCREEN_WASHOUT + SCREEN_STEPS)
    flow = benettin_lyapunov(
        cfg.train_params(), series.samples[0], cfg.dt, cfg.substeps,
        n_steps=SCREEN_STEPS, transient_steps=SCREEN_WASHOUT,
    )
    return series, flow


def _screen(model, rho, seed):
    """(``model``'s teacher-forced exponent on the held-out window, the flow's)."""
    series, flow = _held_out(rho, seed)
    if isinstance(model, NgrcModel):
        points, tangent = series.samples[SCREEN_WASHOUT:-1], ngrc_tangent
    else:
        # the harvest drops the model's washout: 1000 states at N = 5000
        assert model.config.washout == SCREEN_WASHOUT
        points = esn_harvest(model, series.samples)[0][:, : model.config.reservoir_dim]
        tangent = esn_tangent
    assert len(points) == SCREEN_STEPS
    return teacher_forced_exponent(functools.partial(tangent, model), points, series.dt), flow


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "kind, rho, n, low, high",
    [
        ("ngrc", 166.15, 500, 3.0, math.inf),
        ("ngrc", 166.15, 5000, 3.0, math.inf),
        ("classic", 166.15, 5000, 0.7, 1.4),
        ("ngrc", 28.0, 300, 0.8, 1.2),
        ("classic", 28.0, 5000, 0.8, 1.2),
    ],
    ids=["ngrc-X-500", "ngrc-X-5000", "classic-X-5000", "ngrc-rho28-300", "classic-rho28-5000"],
)
def test_teacher_forced_expansion_rate_known_limit(kind, rho, n, low, high, seed):
    cfg = ExperimentConfig(kind=kind, rho_train=rho, training_steps=n, master_seed=seed)
    screen, flow = _screen(prepare_trained_model(cfg)[1], rho, seed)
    assert low <= screen / flow <= high, f"screen {screen:.3f}, flow {flow:.3f}"


# Known limit, not a gate (README "Known-failing criteria"): the equal-count
# rung pair of the ablation ladder between the predictors.  Both rungs fit
# the classic cell's series (master seed 0, N = 5000) and run free for 10k
# steps from its end.  17 memoryless tanh units and their squares (34
# features, next-state target) put none of realizations 0-5 in the X band
# and diverge at 2 and 4 (steps 1,902 and 3,758); NG-RC's 34 monomials
# (next state, beta 1e-4) diverge at all six, by step 4,205 (18-4,205).
# The held-out screen reads 4.77 and 6.50 times the flow for the tanh rung
# at master seeds 0 and 1, and 5.09 and 6.75 for the monomials.  50 tanh units put
# realizations 1-3 in band and none diverges (0 reads lambda 0.819, just
# above the band, and 4 and 5 collapse to lambda about 0); the 300-unit
# rung puts all six in band.  A change that moves an outcome updates this
# test.
LADDER_STEPS = 10_000


def _ladder_outcome(model) -> str:
    """'in' or 'out' of the X band after a free run, or 'diverged'."""
    try:
        stats = climate_stats(free_run(model.stepper(), LADDER_STEPS, 0.05))
    except DivergenceError:
        return "diverged"
    lam_in = X_LAMBDA[0] <= stats.lambda_max <= X_LAMBDA[1]
    return "in" if lam_in and X_NU[0] <= stats.corr_dim <= X_NU[1] else "out"


@pytest.mark.parametrize(
    "rung, cfg, outcomes",
    [
        (tanh_rung, ExperimentConfig(esn_reservoir_dim=17),
         ["out", "out", "diverged", "out", "diverged", "out"]),
        (monomial_rung, ExperimentConfig(), ["diverged"] * 6),
        (tanh_rung, ExperimentConfig(esn_reservoir_dim=50),
         ["out", "in", "in", "in", "out", "out"]),
        (tanh_rung, ExperimentConfig(), ["in"] * 6),
    ],
    ids=["tanh-17", "monomials-34", "tanh-50", "tanh-300"],
)
def test_equal_count_rungs_known_limit(rung, cfg, outcomes):
    assert [_ladder_outcome(rung(cfg, r)[1]) for r in range(6)] == outcomes


@pytest.mark.parametrize("seed", [0, 1])
def test_equal_count_rungs_expansion_rate_known_limit(seed):
    cfg = ExperimentConfig(esn_reservoir_dim=17, master_seed=seed)
    tanh, flow = _screen(tanh_rung(cfg, 0)[1], cfg.rho_train, seed)
    monomials, _ = _screen(monomial_rung(cfg, 0)[1], cfg.rho_train, seed)
    assert 3 * flow < tanh < monomials, f"{tanh:.3f}, {monomials:.3f}, flow {flow:.3f}"


# Known limit, not a gate (README "Known-failing criteria"): the delay-tap
# path has a positive control only with noisy training data.  At the
# operating point of Gauthier et al. (rho = 28, dt = 0.025, 400 samples,
# k = 2, s = 1, orders 1-2, beta 2.5e-6) the fit to the exact series of
# realizations 0-3 diverges by step 17 (steps 17, 10, 14 and 15).  With
# noise of 1e-3 times each variable's std, drawn from the seed paired with
# the realization below, each free run holds 10k steps and its correlation
# dimension lies within 0.05 of ref_train's (gaps -0.020, 0.046, -0.016 and
# 0.021).  A change that moves an outcome updates this test.
GAUTHIER = ExperimentConfig(rho_train=28.0, dt=0.025)


@pytest.mark.parametrize("realization, noise_seed", [(0, 0), (1, 1), (2, 2), (3, 3)])
def test_delay_taps_hold_the_climate_only_with_training_noise_known_limit(
    realization, noise_seed
):
    exact = noisy_ngrc_fit(GAUTHIER, realization, 0.0, noise_seed)
    with pytest.raises(DivergenceError):
        free_run(exact.stepper(), 1000, GAUTHIER.dt)
    noisy = noisy_ngrc_fit(GAUTHIER, realization, 1e-3, noise_seed)
    nu = correlation_dimension(free_run(noisy.stepper(), GAUTHIER.horizon, GAUTHIER.dt))[0]
    ref = attractor_series(GAUTHIER, "ref_train", realization, GAUTHIER.horizon)
    assert abs(nu - correlation_dimension(ref)[0]) <= 0.1


@pytest.mark.parametrize("kind", ["ngrc", "classic"])
def test_tangent_maps_match_central_differences(kind):
    _, model = prepare_trained_model(ExperimentConfig(kind=kind, training_steps=500))
    if kind == "ngrc":
        lib = build_library(3, model.config.orders)
        point = model.tap_buffer[-1]

        def one_step(v):
            return v + model.W_out @ poly_features(v, lib)

        tangent = ngrc_tangent
    else:
        point = model.r

        def one_step(r):
            return np.tanh(model.A @ r + model.W_in @ (model.P @ augmented_state(r)))

        tangent = esn_tangent
    w = np.random.default_rng(0).standard_normal(len(point))
    h = 1e-5
    # fourth-order stencil: the second-order one's O(h^2) truncation error
    # reached 1.2e-6 relative in 2 of the classic map's 300 elements
    central = (
        8 * (one_step(point + h * w) - one_step(point - h * w))
        - (one_step(point + 2 * h * w) - one_step(point - 2 * h * w))
    ) / (12 * h)
    np.testing.assert_allclose(tangent(model, point, w), central, rtol=1e-6, atol=1e-9)
