import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

import chaoscontrol.esn
from chaoscontrol import (
    EsnConfig,
    Trajectory,
    build_reservoir,
    load_model,
    save_model,
)
from chaoscontrol.errors import (
    DIVERGENCE_BOUND,
    DivergenceError,
    InsufficientDataError,
    ReservoirSamplingError,
)
from chaoscontrol.control import free_run
from chaoscontrol.esn import _reservoir_update, train
from chaoscontrol.ridge import ridge_fit

from oracles import augmented_state, esn_free_run, esn_harvest, ridge_normal_equations


def test_edge_count_matches_binomial_sampling():
    a, _ = build_reservoir(EsnConfig(seed=0), 3)
    mean = 300 * 299 * 0.02
    assert abs(a.nnz - mean) <= 3.0 * math.sqrt(mean)


def test_rescaled_spectral_radius():
    a, _ = build_reservoir(EsnConfig(seed=1), 3)
    eigs = np.linalg.eigvals(a.toarray())
    assert abs(np.abs(eigs).max() - 0.0084) < 1e-9


def test_rescaled_spectral_radius_above_512_units():
    # this draw's largest eigenvalues are a complex pair within 0.3% of the
    # next pair; an iterating estimate of the radius lands 4.6% high
    a, _ = build_reservoir(EsnConfig(reservoir_dim=600, seed=0), 3)
    eigs = np.linalg.eigvals(a.toarray())
    assert abs(np.abs(eigs).max() - 0.0084) < 1e-9


def test_input_map_range():
    _, w_in = build_reservoir(EsnConfig(seed=2), 3)
    assert w_in.shape == (300, 3)
    assert np.abs(w_in).max() <= 0.0084


def test_empty_graph_raises_after_retries():
    with pytest.raises(ReservoirSamplingError):
        build_reservoir(EsnConfig(edge_prob=0.0, seed=0), 3)


def test_seed_determinism():
    a, w_a = build_reservoir(EsnConfig(seed=9), 3)
    b, w_b = build_reservoir(EsnConfig(seed=9), 3)
    assert np.array_equal(a.toarray(), b.toarray())
    assert np.array_equal(w_a, w_b)
    c, _ = build_reservoir(EsnConfig(seed=10), 3)
    assert not np.array_equal(a.toarray(), c.toarray())


ZERO_NETWORK = sparse.csr_matrix((4, 4))


def test_reservoir_update_zero_network():
    r = _reservoir_update(ZERO_NETWORK, np.zeros((4, 3)), np.zeros(4), np.ones(3))
    np.testing.assert_array_equal(r, np.zeros(4))


def test_reservoir_update_identity_block():
    w_in = np.zeros((4, 3))
    w_in[0, 0] = 1.0
    r = _reservoir_update(ZERO_NETWORK, w_in, np.zeros(4), np.array([1.0, 0.0, 0.0]))
    assert r[0] == pytest.approx(math.tanh(1.0))
    np.testing.assert_array_equal(r[1:], np.zeros(3))
    assert np.all(np.abs(r) < 1.0)


@pytest.mark.parametrize("units", [3, 5])
def test_state_size_mismatch_rejected(train_run_short, units):
    # the reservoir kernel indexes r unchecked: a state of the wrong size
    # must be refused before it runs
    m = train(train_run_short, EsnConfig(reservoir_dim=4, washout=10, seed=1))
    m.r = np.zeros(units)
    with pytest.raises(ValueError):
        m.stepper()


def test_augmentation_invariant():
    r = np.array([0.3, -0.8, 0.01])
    aug = augmented_state(r)
    np.testing.assert_array_equal(aug[:3], r)
    np.testing.assert_array_equal(aug[3:], r * r)


def _closed_loop_series(cfg, p0, u0, n):
    """Data generated exactly by readout p0 applied to the driven state."""
    a, w_in = build_reservoir(cfg, 3)
    r = np.zeros(cfg.reservoir_dim)
    u = np.asarray(u0, dtype=float)
    samples = [u]
    for _ in range(n - 1):
        r = np.tanh(a @ r + w_in @ u)
        u = p0 @ augmented_state(r)
        samples.append(u)
    return Trajectory(0.05, np.array(samples))


def test_exact_readout_recovery_at_zero_penalty():
    # parameters chosen so the self-driven loop stays irregular: a
    # contracting loop collapses the design rank and recovery is undefined
    rng = np.random.default_rng(7)
    cfg = EsnConfig(
        reservoir_dim=4, edge_prob=0.5, input_scale=1.0, spectral_radius=0.9,
        ridge_beta=0.0, washout=2, seed=7,
    )
    p0 = 0.9 * rng.standard_normal((3, 8))
    data = _closed_loop_series(cfg, p0, [0.1, -0.2, 0.3], 40)
    np.testing.assert_allclose(train(data, cfg).P, p0, atol=1e-8)


def test_small_instance_matches_normal_equations_oracle():
    rng = np.random.default_rng(8)
    cfg = EsnConfig(
        reservoir_dim=4, edge_prob=0.6, input_scale=0.3, spectral_radius=0.4,
        ridge_beta=1e-6, washout=3, seed=8,
    )
    a, w_in = build_reservoir(cfg, 3)
    data = Trajectory(0.05, rng.uniform(-1, 1, size=(20, 3)))

    # independent replay of the drive to collect the design matrix
    r = np.zeros(4)
    rows, targets = [], []
    for t in range(len(data) - 1):
        r = np.tanh(a @ r + w_in @ data.samples[t])
        if t >= cfg.washout:
            rows.append(np.concatenate([r, r * r]))
            targets.append(data.samples[t + 1])
    want = ridge_normal_equations(np.array(rows), np.array(targets), cfg.ridge_beta)

    got = train(data, cfg).P
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
        norms.append(np.linalg.norm(train(data, cfg).P))
    assert norms[1] <= norms[0] + 1e-12


def test_insufficient_data_signalled(monkeypatch):
    # a short series is refused before the reservoir draw, whose dense
    # eigensolve costs seconds at a few thousand units
    def no_draw(*args):
        raise AssertionError("reservoir drawn")

    monkeypatch.setattr(chaoscontrol.esn, "build_reservoir", no_draw)
    cfg = EsnConfig(reservoir_dim=4, edge_prob=0.5, washout=10, seed=1)
    data = Trajectory(0.05, np.zeros((11, 3)))
    with pytest.raises(InsufficientDataError):
        train(data, cfg)


def test_training_determinism(train_run_short):
    runs = []
    for _ in range(2):
        m = train(train_run_short, EsnConfig(reservoir_dim=50, washout=100, seed=12))
        runs.append(m.P)
    assert np.array_equal(runs[0], runs[1])


def test_prediction_contract(train_run_short):
    m = train(train_run_short, EsnConfig(reservoir_dim=50, washout=100, seed=12))

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


def test_harvest_matches_oracle_drive(train_run_short):
    # the in-place harvest must give the scipy drive's design matrix bit for
    # bit, hence the same readout, and the same state to continue from
    m = train(train_run_short, EsnConfig(washout=100, seed=12))
    states, r = esn_harvest(m, train_run_short.samples)
    targets = train_run_short.samples[m.config.washout + 1 :]
    assert np.array_equal(m.P, ridge_fit(states, targets, m.config.ridge_beta))
    assert np.array_equal(m.r, r)


# traced peak of one N=5000 fit over its design's bytes: 1.17 measured on
# the seed-0 model, where the design is factored in place and freed before
# the SVD, so the peak is the design plus the QR's 600x600 factor R.  The
# bound leaves 0.13 (2.5 MB) of margin.  A design kept alive through the
# SVD reads 1.61; the QR's two private copies of it read 3.0.
TRAIN_PEAK_PER_DESIGN_BYTE = 1.3


def test_train_peak_memory_pinned(seed0_classic):
    training, model = seed0_classic(5000)
    rows = len(training.samples) - model.config.washout - 1
    design_bytes = rows * 2 * model.config.reservoir_dim * np.dtype(float).itemsize
    tracemalloc.start()
    try:
        m = train(training, model.config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the lower bound shows that numpy's buffers are traced at all
    assert design_bytes <= peak <= TRAIN_PEAK_PER_DESIGN_BYTE * design_bytes
    assert np.array_equal(m.P, model.P)


# traced peak of one reservoir draw, in bytes per unit squared: 17.5 at 300
# units (16.4 at 2,000), where the weights are thinned in place and handed
# to the eigensolver, so the peak is the dense weights and the solver's
# column-major copy, 8 bytes each.  Keeping the edge mask alive reads 18.5;
# a thinned copy of the weights and the CSR matrix's dense rebuild, 26.5.
DRAW_PEAK_PER_UNIT_SQUARED = 21


def test_reservoir_draw_peak_memory_pinned():
    cfg = EsnConfig(reservoir_dim=300, seed=3)
    tracemalloc.start()
    try:
        a, w_in = build_reservoir(cfg, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    d = cfg.reservoir_dim
    # the lower bound shows that numpy's buffers are traced at all
    assert 16 * d * d <= peak <= DRAW_PEAK_PER_UNIT_SQUARED * d * d
    assert (a.shape, w_in.shape) == ((d, d), (d, 3))


@pytest.mark.parametrize("source", ["trained", "ccm"])
def test_stepper_matches_oracle_loop(tmp_path, train_run_short, source):
    m = train(train_run_short, EsnConfig(washout=100, seed=12))
    if source == "ccm":
        save_model(tmp_path / "model.ccm", m)
        m = load_model(tmp_path / "model.ccm")
    r0 = m.r.copy()
    got = free_run(m.stepper(), 2000, 0.05).samples
    assert np.array_equal(got, esn_free_run(m, 2000))
    assert np.array_equal(m.r, r0)


def test_prediction_divergence_bound(train_run_short):
    m = train(train_run_short, EsnConfig(reservoir_dim=50, washout=100, seed=12))
    # a readout scaled up a millionfold leaves the bound on its first output
    m.P = m.P * 1e6
    with pytest.raises(DivergenceError) as info:
        free_run(m.stepper(), 50, 0.05)
    assert info.value.phase == "predict"


@pytest.mark.parametrize("readout", ["nan", "inf", "just-over-bound"])
def test_divergence_check_on_first_step(train_run_short, readout):
    m = train(train_run_short, EsnConfig(reservoir_dim=50, washout=100, seed=12))
    if readout == "nan":
        m.P = np.full_like(m.P, np.nan)
    elif readout == "inf":
        # inf times a positive squared state entry, zero elsewhere: v[0] = inf
        m.P = np.zeros_like(m.P)
        m.P[0, 50 + int(np.argmax(m.r * m.r))] = np.inf
    else:
        # state e_0 and a readout zero but for P[0, 0] emit v = (P[0, 0], 0, 0)
        m.r = np.zeros_like(m.r)
        m.r[0] = 1.0
        m.P = np.zeros_like(m.P)
        # the bound itself is inside: |v| <= DIVERGENCE_BOUND passes
        m.P[0, 0] = DIVERGENCE_BOUND
        assert m.stepper().step() == [DIVERGENCE_BOUND, 0.0, 0.0]
        m.P[0, 0] = np.nextafter(DIVERGENCE_BOUND, np.inf)
    with pytest.raises(DivergenceError) as info:
        m.stepper().step()
    assert (info.value.phase, info.value.step) == ("predict", 1)

