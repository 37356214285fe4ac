import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaoscontrol.esn
import chaoscontrol.ridge
from chaoscontrol import climate_stats, ridge_fit
from chaoscontrol.errors import DivergenceError, IllConditionedError
from chaoscontrol.experiments import (
    ExperimentConfig,
    _control_cell,
    _run_cell,
    prepare_trained_model,
)
from chaoscontrol.ngrc import build_design
from chaoscontrol.ridge import RIDGE_RCOND

from conftest import in_x_band
from oracles import esn_harvest, ridge_normal_equations, ridge_svd


def _instance(rng, rows, cols, targets=3):
    x = rng.standard_normal((rows, cols))
    w_true = rng.standard_normal((cols, targets))
    y = x @ w_true + 0.01 * rng.standard_normal((rows, targets))
    return x, y


@pytest.mark.parametrize("beta", [1e-12, 1e-8, 1e-4, 1.0])
@pytest.mark.parametrize("cols", [1, 4, 10])
def test_matches_normal_equations_oracle(beta, cols):
    rng = np.random.default_rng(42 + cols)
    x, y = _instance(rng, 40, cols)
    got = ridge_fit(x, y, beta)
    want = ridge_normal_equations(x, y, beta)
    np.testing.assert_allclose(got, want, atol=1e-10, rtol=0)


def test_exact_recovery_without_penalty():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((30, 6))
    w_true = rng.standard_normal((6, 3))
    w = ridge_fit(x, x @ w_true, 0.0)
    np.testing.assert_allclose(w, w_true.T, atol=1e-8)


def test_shrinkage_monotone_in_beta():
    rng = np.random.default_rng(7)
    x, y = _instance(rng, 50, 8)
    norms = [
        np.linalg.norm(ridge_fit(x, y, beta)) for beta in (0.0, 1e-12, 1e-8, 1e-4, 1.0)
    ]
    for smaller_beta, larger_beta in zip(norms, norms[1:]):
        assert larger_beta <= smaller_beta + 1e-12


def test_input_validation():
    x = np.zeros((5, 2))
    y = np.zeros((5, 2))
    with pytest.raises(ValueError):
        ridge_fit(x[0], y, 1e-4)
    with pytest.raises(ValueError):
        ridge_fit(x, y[:4], 1e-4)
    for beta in (-1e-4, float("nan"), float("inf")):
        # a nan penalty fails every filter-factor test: an all-zero readout
        with pytest.raises(ValueError):
            ridge_fit(x, y, beta)


def test_rank_deficient_design_is_handled():
    # duplicated column: the normal equations are singular at beta=0, but
    # the solve must still return a finite minimum-norm readout
    rng = np.random.default_rng(3)
    base = rng.standard_normal((20, 3))
    x = np.hstack([base, base[:, :1]])
    y = rng.standard_normal((20, 2))
    w = ridge_fit(x, y, 0.0)
    assert np.all(np.isfinite(w))
    assert w.shape == (2, 4)


def test_readout_is_contiguous():
    rng = np.random.default_rng(9)
    x, y = _instance(rng, 25, 5)
    assert ridge_fit(x, y, 1e-6).flags["C_CONTIGUOUS"]


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(12, 30),
    cols=st.integers(1, 6),
    beta=st.sampled_from([1e-10, 1e-6, 1e-2]),
    seed=st.integers(0, 2**16),
)
def test_solves_regularized_normal_equations(rows, cols, beta, seed):
    # the minimiser satisfies (X^T X + beta I) W^T = X^T Y identically
    rng = np.random.default_rng(seed)
    x, y = _instance(rng, rows, cols)
    w = ridge_fit(x, y, beta)
    lhs = (x.T @ x + beta * np.eye(cols)) @ w.T
    rhs = x.T @ y
    np.testing.assert_allclose(lhs, rhs, atol=1e-8 * max(1.0, np.abs(rhs).max()))


def test_wide_pathological_matrix_raises_or_stays_finite():
    # design with a catastrophically scaled column must not emit NaNs
    x = np.array([[1.0, 1e200], [1.0, 1e200], [1.0, -1e200]])
    y = np.ones((3, 1))
    try:
        w = ridge_fit(x, y, 1e-4)
    except IllConditionedError:
        return
    assert np.all(np.isfinite(w))


@pytest.mark.parametrize("where", ["design", "targets"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises(where, value):
    rng = np.random.default_rng(5)
    x, y = _instance(rng, 20, 4)
    (x if where == "design" else y)[7, 1] = value
    with pytest.raises(IllConditionedError, match="NaN or inf"):
        ridge_fit(x, y, 1e-6)


@pytest.mark.parametrize("rows, cols", [(0, 3), (5, 0), (0, 0)])
def test_empty_design_gives_zero_readout(rows, cols):
    w = ridge_fit(np.zeros((rows, cols)), np.zeros((rows, 3)), 1e-6)
    assert w.shape == (3, cols)
    assert not np.any(w)


def test_overflowing_r_raises():
    # finite columns whose norms overflow: R holds inf, which scipy's gesdd
    # would factor into garbage (and a NaN it would reject with ValueError)
    x = np.array([[1.7e308, 1.0], [1.7e308, 2.0], [1.0, 3.0]])
    with pytest.raises(IllConditionedError, match="QR or SVD"):
        ridge_fit(x, np.ones((3, 1)), 1e-4)


def _fit_and_kept_rank(monkeypatch, x, y, beta):
    """``ridge_fit``'s readout and the rank it keeps, read off its SVD call."""
    seen = []
    svd = chaoscontrol.ridge.svd

    def spy(*args, **kwargs):
        out = svd(*args, **kwargs)
        seen.append(out[1])
        return out

    with monkeypatch.context() as m:
        m.setattr(chaoscontrol.ridge, "svd", spy)
        w = ridge_fit(x, y, beta)
    (s,) = seen
    return w, int(np.count_nonzero(s >= RIDGE_RCOND * s[0]))


def _esn_problem(seed0_classic, n):
    """The real seed-0 ESN design at training length n, its targets and beta.

    The design is captured by the textbook drive, as in
    test_harvest_matches_oracle_drive, and comes back read-only.
    """
    training, model = seed0_classic(n)
    x, _ = esn_harvest(model, training.samples)
    x.flags.writeable = False
    return x, training.samples[model.config.washout + 1 :], model.config.ridge_beta


ESN_SHAPES = pytest.mark.parametrize(
    "n", [5000, 250], ids=["tall-3999x600", "wide-199x600"]
)


@ESN_SHAPES
def test_qr_route_matches_full_svd_oracle(monkeypatch, seed0_classic, n):
    x, y, beta = _esn_problem(seed0_classic, n)
    got, rank = _fit_and_kept_rank(monkeypatch, x, y, beta)
    want, s, factors = ridge_svd(x, y, beta)
    assert rank == np.count_nonzero(factors) < x.shape[1]
    # the fitted outputs agree to 1e-12 relative.  The coefficients carry
    # last-bit differences of U^T Y amplified by up to s[0] max f (about
    # 3e7 here), so they are held to that condition number times epsilon.
    scale = np.abs(x @ want.T).max()
    assert np.abs(x @ got.T - x @ want.T).max() <= 1e-12 * scale
    amplification = s[0] * factors.max()
    tol = np.finfo(float).eps * amplification * np.abs(want).max()
    assert np.abs(got - want).max() <= tol


@ESN_SHAPES
def test_readout_independent_of_design_layout(seed0_classic, n):
    # each design reaches LAPACK as the same values in column-major order:
    # a C-order one copied over, an F-order one copied as it is or, on
    # request, factored in place
    x, y, beta = _esn_problem(seed0_classic, n)
    want = ridge_fit(x, y, beta)
    assert np.array_equal(ridge_fit(np.asfortranarray(x), y, beta), want)
    assert np.array_equal(
        ridge_fit(np.asfortranarray(x), y, beta, overwrite_design=True), want
    )


def _numpy_svd(a, full_matrices, **scipy_options):
    """numpy's SVD, whose factors come back row-major, called as scipy's."""
    return np.linalg.svd(a, full_matrices=full_matrices)


@pytest.mark.parametrize("case", ["tall-3999x600", "wide-199x600", "ngrc-442x34"])
def test_readout_matches_numpy_svd_bit_for_bit(monkeypatch, seed0_classic, case):
    # scipy's gesdd gives numpy's factors bit for bit, but column-major, and
    # the readout products take another BLAS path on that layout: without
    # ridge_fit's row-major copies the wide and NG-RC readouts move in their
    # last bits
    if case.startswith("ngrc"):
        cfg = ExperimentConfig(kind="ngrc", training_steps=500)
        training, model = prepare_trained_model(cfg)
        x, y = build_design(training, model.config)
        beta = model.config.ridge_beta
    else:
        x, y, beta = _esn_problem(seed0_classic, 5000 if case.startswith("tall") else 250)
    assert "x".join(map(str, x.shape)) == case.split("-")[1]
    got = ridge_fit(x, y, beta)
    with monkeypatch.context() as m:
        m.setattr(chaoscontrol.ridge, "svd", _numpy_svd)
        want = ridge_fit(x, y, beta)
    assert np.array_equal(got, want)


def _read_only_fortran(x):
    x = np.array(x, order="F")
    x.flags.writeable = False
    return x


@pytest.mark.parametrize(
    "prepare",
    [
        lambda x: np.asfortranarray(x.astype(np.float32)),
        lambda x: np.asfortranarray(np.hstack([x, x]))[:, ::2],
        _read_only_fortran,
    ],
    ids=["float32", "strided", "read-only"],
)
def test_overwrite_request_falls_back_to_a_copy(prepare):
    # in place only for a writeable F-contiguous float64 design; any other
    # design is copied, left as it was and fitted as with the default
    rng = np.random.default_rng(12)
    x, y = _instance(rng, 30, 6)
    design = prepare(x)
    before = design.copy(order="K")
    got = ridge_fit(design, y, 1e-6, overwrite_design=True)
    assert np.array_equal(got, ridge_fit(design, y, 1e-6))
    assert np.array_equal(design, before) and design.dtype == before.dtype


def test_overwrite_request_factors_in_place():
    # the flag is honoured: a column-major float64 design is overwritten
    rng = np.random.default_rng(13)
    x, y = _instance(rng, 30, 6)
    design = np.asfortranarray(x)
    want = ridge_fit(design, y, 1e-6)
    assert np.array_equal(ridge_fit(design, y, 1e-6, overwrite_design=True), want)
    assert not np.array_equal(design, x)


@pytest.mark.parametrize(
    "order, overwrite",
    [("C", False), ("F", False), ("strided", True)],
    ids=["c-order", "f-order", "strided-overwrite"],
)
def test_copying_fit_keeps_design_and_holds_one_copy(order, overwrite):
    # the caller's design is left bit for bit as it was.  Traced peak over
    # the design's bytes: 1.18 measured with the one column-major copy plus
    # the 300x300 factor R; a C-order copy, which LAPACK copies twice more,
    # reads 3.0, and a strided design passed on to LAPACK as it is reads 2.0
    rng = np.random.default_rng(14)
    x, y = _instance(rng, 2000, 300)
    design = {
        "C": x,
        "F": np.asfortranarray(x),
        "strided": np.asfortranarray(np.hstack([x, x]))[:, ::2],
    }[order]
    before = design.copy(order="K")
    tracemalloc.start()
    try:
        ridge_fit(design, y, 1e-6, overwrite_design=overwrite)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert design.tobytes() == before.tobytes()
    assert x.nbytes <= peak <= 1.3 * x.nbytes


def test_rank_cutoff_keeps_a2_cells_alive_known_limit(monkeypatch):
    # Known limit: A2's pass rests on RIDGE_RCOND as well as on the penalty
    # (README "Ridge rank cutoff").  At master seed 0, N = 5000, classic
    # realizations 8 and 18 land in the X band with the cutoff and diverge
    # without it, the penalty unchanged.
    cells = [(ExperimentConfig(), "classic", 5000, r) for r in (8, 18)]
    assert all(in_x_band(row) for row in map(_run_cell, cells))
    monkeypatch.setattr(chaoscontrol.ridge, "RIDGE_RCOND", 0.0)
    assert [row.status for row in map(_run_cell, cells)] == ["diverged", "diverged"]


def test_controlled_climate_is_the_predictors_known_limit():
    # Known limit: A2 scores the predictor's free-run climate (README "What
    # A2 measures").  At the default gain K = 20 = 1/dt the plant is slaved
    # to the predictor, so at master seed 0, N = 5000 the controlled climate
    # and the climate of the predictor's own outputs agree.
    for realization in (0, 1):
        run = _control_cell(ExperimentConfig(), "classic", 5000, realization)[1]
        plant, predictor = climate_stats(run.controlled), climate_stats(run.hypothetical)
        assert abs(plant.lambda_max - predictor.lambda_max) < 0.01
        assert abs(plant.corr_dim - predictor.corr_dim) < 0.01


def test_control_holds_only_in_a_gain_window_known_limit():
    # Known limit: realization 0 of A2's cell diverges in the plant at
    # K = 40, and at K = 5 the plant is not slaved and its nu exceeds 2.
    cfg = ExperimentConfig(control_gain=40.0)
    with pytest.raises(DivergenceError) as exc:
        _control_cell(cfg, "classic", 5000, 0)
    assert exc.value.phase == "control"
    run = _control_cell(replace(cfg, control_gain=5.0), "classic", 5000, 0)[1]
    assert climate_stats(run.controlled).corr_dim > 2


def test_reservoir_memory_unused_known_limit(monkeypatch):
    # Known limit: with the recurrent matrix A zeroed the reservoir state is
    # tanh(W_in u) of the current input alone, and realization 7 of A2's
    # cell moves into the X band (lambda 0.434 as sampled, 0.521 zeroed).
    cell = (ExperimentConfig(), "classic", 5000, 7)
    assert not in_x_band(_run_cell(cell))
    sampled = chaoscontrol.esn.build_reservoir

    def memoryless(cfg, input_dim):
        a, w_in = sampled(cfg, input_dim)
        return a * 0.0, w_in

    monkeypatch.setattr(chaoscontrol.esn, "build_reservoir", memoryless)
    assert in_x_band(_run_cell(cell))
