import math

import numpy as np
import pytest
from scipy import sparse

from chaoscontrol import EsnConfig, EsnModel, Trajectory, build_reservoir
from chaoscontrol.errors import (
    DivergenceError,
    InsufficientDataError,
    ReservoirSamplingError,
)
from chaoscontrol.control import free_run
from chaoscontrol.esn import advance_state, augmented_state, train

from oracles import ridge_normal_equations


def _zero_model(dim=4, input_dim=3, w_in=None):
    cfg = EsnConfig(reservoir_dim=dim, washout=0, input_dim=input_dim)
    a = sparse.csr_matrix((dim, dim))
    if w_in is None:
        w_in = np.zeros((dim, input_dim))
    return EsnModel(config=cfg, A=a, W_in=w_in)


def test_edge_count_matches_binomial_sampling():
    m = build_reservoir(EsnConfig(seed=0))
    mean = 300 * 299 * 0.02
    assert abs(m.A.nnz - mean) <= 3.0 * math.sqrt(mean)


def test_rescaled_spectral_radius():
    m = build_reservoir(EsnConfig(seed=1))
    eigs = np.linalg.eigvals(m.A.toarray())
    assert abs(np.abs(eigs).max() - 0.0084) < 1e-9


def test_input_map_range():
    m = build_reservoir(EsnConfig(seed=2))
    assert m.W_in.shape == (300, 3)
    assert np.abs(m.W_in).max() <= 0.0084


def test_empty_graph_raises_after_retries():
    with pytest.raises(ReservoirSamplingError):
        build_reservoir(EsnConfig(edge_prob=0.0, seed=0))


def test_seed_determinism():
    a = build_reservoir(EsnConfig(seed=9))
    b = build_reservoir(EsnConfig(seed=9))
    assert np.array_equal(a.A.toarray(), b.A.toarray())
    assert np.array_equal(a.W_in, b.W_in)
    c = build_reservoir(EsnConfig(seed=10))
    assert not np.array_equal(a.A.toarray(), c.A.toarray())


def test_advance_state_zero_network():
    m = _zero_model()
    r = advance_state(m, np.ones(3))
    np.testing.assert_array_equal(r, np.zeros(4))


def test_advance_state_identity_block():
    w_in = np.zeros((4, 3))
    w_in[0, 0] = 1.0
    m = _zero_model(w_in=w_in)
    r = advance_state(m, np.array([1.0, 0.0, 0.0]))
    assert r[0] == pytest.approx(math.tanh(1.0))
    np.testing.assert_array_equal(r[1:], np.zeros(3))
    assert np.all(np.abs(r) < 1.0)


def test_augmentation_invariant():
    r = np.array([0.3, -0.8, 0.01])
    aug = augmented_state(r)
    np.testing.assert_array_equal(aug[:3], r)
    np.testing.assert_array_equal(aug[3:], r * r)


def _closed_loop_series(model, p0, u0, n):
    """Data generated exactly by readout p0 applied to the driven state."""
    u = np.asarray(u0, dtype=float)
    samples = [u]
    for _ in range(n - 1):
        r = advance_state(model, u)
        u = p0 @ augmented_state(r)
        samples.append(u)
    model.r = np.zeros(model.config.reservoir_dim)
    return Trajectory(0.05, np.array(samples))


def test_exact_readout_recovery_at_zero_penalty():
    # parameters chosen so the self-driven loop stays irregular: a
    # contracting loop collapses the design rank and recovery is undefined
    rng = np.random.default_rng(7)
    cfg = EsnConfig(
        reservoir_dim=4, edge_prob=0.5, input_scale=1.0, spectral_radius=0.9,
        ridge_beta=0.0, washout=2, seed=7,
    )
    m = build_reservoir(cfg)
    p0 = 0.9 * rng.standard_normal((3, 8))
    data = _closed_loop_series(m, p0, [0.1, -0.2, 0.3], 40)
    p = train(m, data)
    np.testing.assert_allclose(p, p0, atol=1e-8)


def test_small_instance_matches_normal_equations_oracle():
    rng = np.random.default_rng(8)
    cfg = EsnConfig(
        reservoir_dim=4, edge_prob=0.6, input_scale=0.3, spectral_radius=0.4,
        ridge_beta=1e-6, washout=3, seed=8,
    )
    m = build_reservoir(cfg)
    data = Trajectory(0.05, rng.uniform(-1, 1, size=(20, 3)))

    # independent replay of the drive to collect the design matrix
    r = np.zeros(4)
    rows, targets = [], []
    for t in range(len(data) - 1):
        r = np.tanh(m.A @ r + m.W_in @ data.samples[t])
        if t >= cfg.washout:
            rows.append(np.concatenate([r, r * r]))
            targets.append(data.samples[t + 1])
    want = ridge_normal_equations(np.array(rows), np.array(targets), cfg.ridge_beta)

    got = train(m, data)
    assert len(rows) == len(data) - cfg.washout - 1
    np.testing.assert_allclose(got, want, atol=1e-10, rtol=0)


def test_shrinkage_with_penalty():
    rng = np.random.default_rng(3)
    data = Trajectory(0.05, rng.uniform(-1, 1, size=(60, 3)))
    norms = []
    for beta in (0.0, 1e-3):
        cfg = EsnConfig(
            reservoir_dim=6, edge_prob=0.5, input_scale=0.4, spectral_radius=0.5,
            ridge_beta=beta, washout=5, seed=6,
        )
        m = build_reservoir(cfg)
        norms.append(np.linalg.norm(train(m, data)))
    assert norms[1] <= norms[0] + 1e-12


def test_insufficient_data_signalled():
    cfg = EsnConfig(reservoir_dim=4, edge_prob=0.5, washout=10, seed=1)
    m = build_reservoir(cfg)
    data = Trajectory(0.05, np.zeros((11, 3)))
    with pytest.raises(InsufficientDataError):
        train(m, data)


def test_training_determinism(train_run_short):
    runs = []
    for _ in range(2):
        m = build_reservoir(EsnConfig(reservoir_dim=50, washout=100, seed=12))
        runs.append(train(m, train_run_short))
    assert np.array_equal(runs[0], runs[1])


def test_prediction_contract(train_run_short):
    m = build_reservoir(EsnConfig(reservoir_dim=50, washout=100, seed=12))
    train(m, train_run_short)

    empty = free_run(m.stepper(), 0, 0.05)
    assert empty.samples.shape == (0, 3)

    # first emitted sample is the readout of the post-training state
    expected_first = m.P @ augmented_state(m.r)
    pred = free_run(m.stepper(), 20, 0.05)
    assert len(pred) == 20
    np.testing.assert_array_equal(pred.samples[0], expected_first)

    # prediction clones model state: a second run must repeat the first
    again = free_run(m.stepper(), 20, 0.05)
    np.testing.assert_array_equal(pred.samples, again.samples)


def test_prediction_divergence_bound(train_run_short):
    m = build_reservoir(EsnConfig(reservoir_dim=50, washout=100, seed=12))
    train(m, train_run_short)
    with pytest.raises(DivergenceError) as info:
        free_run(m.stepper(bound=1e-6), 50, 0.05)
    assert info.value.phase == "predict"


@pytest.mark.parametrize("readout", ["nan", "inf", "just-over-bound"])
def test_divergence_check_on_first_step(train_run_short, readout):
    m = build_reservoir(EsnConfig(reservoir_dim=50, washout=100, seed=12))
    train(m, train_run_short)
    first = m.P @ augmented_state(m.r)
    bound = 1e3
    if readout == "nan":
        m.P = np.full_like(m.P, np.nan)
    elif readout == "inf":
        # inf times a positive squared state entry, zero elsewhere: v[0] = inf
        m.P = np.zeros_like(m.P)
        m.P[0, 50 + int(np.argmax(m.r * m.r))] = np.inf
    else:
        bound = np.nextafter(np.max(np.abs(first)), 0.0)
        # the bound itself is inside: |v| <= bound passes
        m.stepper(bound=np.max(np.abs(first))).step()
    with pytest.raises(DivergenceError) as info:
        m.stepper(bound=bound).step()
    assert (info.value.phase, info.value.step) == ("predict", 1)


def test_untrained_prediction_rejected():
    m = build_reservoir(EsnConfig(reservoir_dim=10, seed=0))
    with pytest.raises(ValueError):
        m.stepper()
