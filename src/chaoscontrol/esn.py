"""Classical echo-state reservoir computer.

A sparse random network with tanh units is driven by the input series;
the readout maps the quadratically augmented reservoir state to the next
input sample and is trained by ridge regression.  Closing the loop turns
the trained model into an autonomous dynamical system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sparse

from .dynamics import Trajectory
from .errors import (
    DIVERGENCE_BOUND,
    InsufficientDataError,
    ReservoirSamplingError,
    check_prediction,
)
from .ridge import ridge_fit

__all__ = [
    "EsnConfig",
    "EsnModel",
    "build_reservoir",
    "advance_state",
    "augmented_state",
    "train",
]

MAX_SAMPLING_ATTEMPTS = 10


@dataclass(frozen=True)
class EsnConfig:
    """Reservoir hyperparameters.

    ``spectral_radius`` is enforced on the sampled network by rescaling;
    ``input_scale`` bounds the uniform input weights; ``washout`` states are
    discarded before the regression.
    """

    reservoir_dim: int = 300
    edge_prob: float = 0.02
    input_scale: float = 0.0084
    spectral_radius: float = 0.0084
    ridge_beta: float = 1e-11
    washout: int = 1000
    seed: int = 0
    input_dim: int = 3

    def __post_init__(self):
        if self.reservoir_dim < 1:
            raise ValueError("reservoir_dim must be >= 1")
        if not (0.0 <= self.edge_prob <= 1.0):
            raise ValueError("edge_prob must lie in [0, 1]")
        if self.input_scale < 0 or self.spectral_radius < 0:
            raise ValueError("input_scale and spectral_radius must be >= 0")
        if self.ridge_beta < 0:
            raise ValueError("ridge_beta must be >= 0")
        if self.washout < 0:
            raise ValueError("washout must be >= 0")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")


@dataclass
class EsnModel:
    """Reservoir network plus readout and running state.

    ``P`` is None until trained.  ``r`` carries the synchronized state; after
    training it corresponds to the last ingested training sample, so
    autonomous prediction continues seamlessly.
    """

    config: EsnConfig
    A: sparse.csr_matrix
    W_in: np.ndarray
    P: Optional[np.ndarray] = None
    r: np.ndarray = field(default=None)  # type: ignore[assignment]
    last_sample: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.r is None:
            self.r = np.zeros(self.config.reservoir_dim)

    @property
    def trained(self) -> bool:
        return self.P is not None

    def stepper(self, bound: float = DIVERGENCE_BOUND) -> "_EsnStepper":
        """Autonomous one-step generator starting from the current state."""
        if not self.trained:
            raise ValueError("model must be trained before prediction")
        return _EsnStepper(self, bound)


def _spectral_radius(a: sparse.csr_matrix, dense_limit: int = 512) -> float:
    """Largest |eigenvalue| of a sparse matrix.

    Dense eigensolver below ``dense_limit``; power iteration above (plain
    iteration oscillates on complex dominant pairs, so the estimate averages
    the growth over two successive applications).
    """
    n = a.shape[0]
    if n <= dense_limit:
        return float(np.max(np.abs(np.linalg.eigvals(a.toarray()))))
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    estimate = 0.0
    for _ in range(10_000):
        w = a @ (a @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        new_estimate = np.sqrt(nw)
        v = w / nw
        if abs(new_estimate - estimate) <= 1e-12 * max(new_estimate, 1e-300):
            return float(new_estimate)
        estimate = new_estimate
    return float(estimate)


def build_reservoir(cfg: EsnConfig) -> EsnModel:
    """Sample the random network and input map; the readout stays untrained.

    Every entry of A (diagonal included) is present with ``edge_prob``;
    nonzero weights are uniform on [-1, 1] before rescaling to the target
    spectral radius.  A spectrally dead draw (zero radius) is resampled from
    the next seed substream.

    Raises:
        ReservoirSamplingError: after 10 dead draws (e.g. edge_prob=0).
    """
    d = cfg.reservoir_dim
    for attempt in range(MAX_SAMPLING_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, attempt)))
        mask = rng.random((d, d)) < cfg.edge_prob
        weights = rng.uniform(-1.0, 1.0, size=(d, d))
        a = sparse.csr_matrix(np.where(mask, weights, 0.0))
        radius = _spectral_radius(a)
        if radius > 0.0:
            a = a * (cfg.spectral_radius / radius)
            w_in = rng.uniform(-cfg.input_scale, cfg.input_scale,
                               size=(d, cfg.input_dim))
            return EsnModel(config=cfg, A=a, W_in=w_in)
    raise ReservoirSamplingError(
        f"network spectral radius stayed zero after {MAX_SAMPLING_ATTEMPTS} draws"
    )


def advance_state(m: EsnModel, u) -> np.ndarray:
    """Drive the reservoir one step: r <- tanh(A r + W_in u)."""
    m.r = np.tanh(m.A @ m.r + m.W_in @ np.asarray(u, dtype=float))
    return m.r


def augmented_state(r: np.ndarray) -> np.ndarray:
    """Quadratic augmentation {r, r^2} doubling the state dimension."""
    return np.concatenate([r, r * r])


def train(m: EsnModel, data: Trajectory) -> np.ndarray:
    """Fit the readout on next-step targets and synchronize the model.

    The reservoir is driven through all samples; the first ``washout``
    augmented states are discarded and each remaining state (after ingesting
    sample t) is paired with sample t+1, giving len-washout-1 regression
    rows.  Returns the readout P.

    Raises:
        InsufficientDataError: fewer than washout+2 samples.
        IllConditionedError: Gram solve failure (propagated).
    """
    cfg = m.config
    samples = data.samples
    n = len(samples)
    if n < cfg.washout + 2:
        raise InsufficientDataError(
            f"training needs at least washout+2 = {cfg.washout + 2} samples, got {n}"
        )
    d = cfg.reservoir_dim
    states = np.empty((n - 1 - cfg.washout, 2 * d))
    m.r = np.zeros(d)
    for t in range(n - 1):
        advance_state(m, samples[t])
        if t >= cfg.washout:
            states[t - cfg.washout, :d] = m.r
            states[t - cfg.washout, d:] = m.r * m.r
    targets = samples[cfg.washout + 1 :]
    m.P = ridge_fit(states, targets, cfg.ridge_beta)
    # ingest the final sample so prediction continues past the data
    advance_state(m, samples[-1])
    m.last_sample = samples[-1].copy()
    return m.P


class _EsnStepper:
    """Closed-loop iterator; clones the model state, never mutates the model."""

    def __init__(self, model: EsnModel, bound: float):
        self._A = model.A
        self._W_in = model.W_in
        self._P = model.P
        self._r = model.r.copy()
        self._bound = bound
        self._step = 0
        self.dim = self._P.shape[0]

    def step(self) -> np.ndarray:
        """Emit v = P {r, r^2}, then feed v back as the next input."""
        v = self._P @ augmented_state(self._r)
        self._step += 1
        check_prediction(v, self._bound, self._step)
        self._r = np.tanh(self._A @ self._r + self._W_in @ v)
        return v
