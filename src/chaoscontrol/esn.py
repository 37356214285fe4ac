"""Classical echo-state reservoir computer.

A sparse random network with tanh units is driven by the input series;
the readout maps the quadratically augmented reservoir state to the next
input sample and is trained by ridge regression.  Closing the loop turns
the trained model into an autonomous dynamical system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import eigvals
# the kernel behind ``A @ r`` for a CSR matrix, minus about 5 us of
# dispatch per call; reached directly in ``_reservoir_update`` only
from scipy.sparse._sparsetools import csr_matvec

from .dynamics import Trajectory
from .errors import ConfigError, InsufficientDataError, ReservoirSamplingError, check_prediction
from .ridge import ridge_fit

__all__ = [
    "EsnConfig",
    "EsnModel",
    "build_reservoir",
    "train",
]

MAX_SAMPLING_ATTEMPTS = 10
# upper bound on reservoir units: a draw's traced peak is about 16.4 bytes
# times units squared (15.8, 62.5 and 249 MiB at 1,000, 2,000 and 4,000
# units), the dense weights and the eigensolver's copy of them, and its
# dense eigensolve grows toward units cubed (0.65, 3.2 and 19.9 s), so
# 10,000 units take about 1.5 GiB and 5 minutes, and 20,000 units about
# 6.1 GiB and 40 minutes
MAX_RESERVOIR_DIM = 10_000
# rows of the C-order staging block of the state harvest (see ``_harvest``)
HARVEST_BLOCK = 256


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

    def __post_init__(self):
        if self.reservoir_dim < 1:
            raise ValueError("reservoir_dim must be >= 1")
        if not (0.0 <= self.edge_prob <= 1.0):
            raise ValueError("edge_prob must lie in [0, 1]")
        for name in ("input_scale", "spectral_radius", "ridge_beta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0")
        if self.washout < 0:
            raise ValueError("washout must be >= 0")


@dataclass
class EsnModel:
    """Trained reservoir network, readout and running state.

    ``r`` is the state after ingesting the last training sample, so
    autonomous prediction continues seamlessly from the data.
    """

    config: EsnConfig
    A: sparse.csr_matrix
    W_in: np.ndarray
    P: np.ndarray
    r: np.ndarray

    def stepper(self) -> "_EsnStepper":
        """Autonomous one-step generator starting from the current state."""
        return _EsnStepper(self)


def _spectral_radius(a: np.ndarray) -> float:
    """Largest |eigenvalue| of a dense matrix, which the solver may overwrite.

    A sampled network's spectrum crowds the rim of a disc, often with a
    complex pair on top, so iterative estimates are unreliable here:
    power iteration and ARPACK (k=1) both missed the largest modulus by
    up to 5% on 600- and 1500-unit reservoirs.
    """
    moduli = np.abs(eigvals(a, overwrite_a=True, check_finite=False))
    return float(np.max(moduli))


def build_reservoir(cfg: EsnConfig, input_dim: int) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Sample the random network A and the (d, input_dim) input map W_in.

    Every entry of A (diagonal included) is present with ``edge_prob``;
    nonzero weights are uniform on [-1, 1] before rescaling to the target
    spectral radius.  A spectrally dead draw (zero radius) is resampled from
    the next seed substream.

    Raises:
        ConfigError: more than ``MAX_RESERVOIR_DIM`` units; checked before
            the first draw.
        ReservoirSamplingError: after 10 dead draws (e.g. edge_prob=0).
    """
    d = cfg.reservoir_dim
    if d > MAX_RESERVOIR_DIM:
        raise ConfigError(f"reservoir of {d} units exceeds {MAX_RESERVOIR_DIM} units")
    for attempt in range(MAX_SAMPLING_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, attempt)))
        absent = rng.random((d, d)) >= cfg.edge_prob
        weights = rng.uniform(-1.0, 1.0, size=(d, d))
        weights[absent] = 0.0
        del absent
        a = sparse.csr_matrix(weights)
        radius = _spectral_radius(weights)
        if radius > 0.0:
            a = a * (cfg.spectral_radius / radius)
            w_in = rng.uniform(-cfg.input_scale, cfg.input_scale,
                               size=(d, input_dim))
            return a, w_in
    raise ReservoirSamplingError(
        f"network spectral radius stayed zero after {MAX_SAMPLING_ATTEMPTS} draws"
    )


def _check_square(a: sparse.csr_matrix, r: np.ndarray) -> None:
    """Require A to be len(r) x len(r), the shape check scipy's ``@`` makes.

    ``csr_matvec`` reads ``r`` without bounds checks.  ``train`` drives a
    network fresh from ``build_reservoir``, square by construction; the
    stepper makes this check on the model's arrays, which may come from
    anywhere.
    """
    if a.shape != (len(r), len(r)):
        raise ValueError(f"reservoir matrix of shape {a.shape} does not act on {len(r)} units")


def _reservoir_update(a: sparse.csr_matrix, w_in: np.ndarray, r: np.ndarray, u,
                      out: Optional[np.ndarray] = None) -> np.ndarray:
    """tanh(A r + W_in u), written to ``out`` (which may be ``r``) if given.

    Bit-identical to ``np.tanh(a @ r + w_in @ u)``: ``csr_matvec`` adds each
    row's products into a zeroed buffer exactly as scipy's ``@`` does, and
    the input product is added after it, as there; ``w_in.dot(u)`` is the
    same BLAS product as ``w_in @ u`` with less dispatch.
    ``_check_square(a, r)`` must hold.
    """
    n = len(r)
    pre = np.zeros(n)
    csr_matvec(n, n, a.indptr, a.indices, a.data, r, pre)
    pre += w_in.dot(u)
    return np.tanh(pre, out=out)


def _harvest(a: sparse.csr_matrix, w_in: np.ndarray, r: np.ndarray,
             inputs: np.ndarray) -> np.ndarray:
    """Drive the reservoir through ``inputs`` and return the {r, r^2} rows.

    The design comes back column-major, the layout LAPACK's QR factors in
    place.  Rows are written to a C-order block of ``HARVEST_BLOCK`` rows
    and each block is copied over at once: writing the rows straight into
    the column-major array is a strided store per element.  ``r`` is
    the state before the first input and is left holding the state after
    the last; ``_check_square(a, r)`` must hold.
    """
    d = len(r)
    design = np.empty((len(inputs), 2 * d), order="F")
    block = np.empty((HARVEST_BLOCK, 2 * d))
    state = r
    for start in range(0, len(inputs), HARVEST_BLOCK):
        chunk = inputs[start : start + HARVEST_BLOCK]
        rows = block[: len(chunk)]
        # each row is {r, r^2}, and r is written in place as its first half
        for row, u in zip(rows, chunk):
            state = _reservoir_update(a, w_in, state, u, out=row[:d])
            np.multiply(state, state, out=row[d:])
        design[start : start + len(chunk)] = rows
    r[:] = state
    return design


def train(data: Trajectory, cfg: EsnConfig) -> EsnModel:
    """Sample the reservoir, fit the readout on next-step targets, and
    return the model synchronized to the end of ``data``.

    The reservoir is driven through all samples; the first ``washout``
    augmented states are discarded and each remaining state (after ingesting
    sample t) is paired with sample t+1, giving len-washout-1 regression
    rows.

    Raises:
        InsufficientDataError: fewer than washout+2 samples; checked before
            the reservoir is drawn.
        ConfigError, ReservoirSamplingError: propagated from ``build_reservoir``.
        IllConditionedError: ridge solve failure (propagated).
    """
    samples = data.samples
    n = len(samples)
    if n < cfg.washout + 2:
        raise InsufficientDataError(
            f"training needs at least washout+2 = {cfg.washout + 2} samples, got {n}"
        )
    a, w_in = build_reservoir(cfg, data.dim)
    r = np.zeros(cfg.reservoir_dim)
    for u in samples[: cfg.washout]:
        r = _reservoir_update(a, w_in, r, u, out=r)
    # the harvest is bound to no name here, so the QR factors it in place
    # and ridge_fit frees it before the SVD
    p = ridge_fit(
        _harvest(a, w_in, r, samples[cfg.washout : n - 1]),
        samples[cfg.washout + 1 :], cfg.ridge_beta, overwrite_design=True,
    )
    # ingest the final sample so prediction continues past the data
    _reservoir_update(a, w_in, r, samples[-1], out=r)
    return EsnModel(config=cfg, A=a, W_in=w_in, P=p, r=r)


class _EsnStepper:
    """Closed-loop iterator; clones the model state, never mutates the model.

    The augmented state {r, r^2} lives in one buffer that each step rewrites
    in place.
    """

    def __init__(self, model: EsnModel):
        self._A = model.A
        self._W_in = model.W_in
        self._P = model.P
        _check_square(model.A, model.r)
        d = len(model.r)
        self._aug = np.empty(2 * d)
        self._r, self._r2 = self._aug[:d], self._aug[d:]
        self._r[:] = model.r
        np.multiply(self._r, self._r, out=self._r2)
        self._step = 0
        self.dim = self._P.shape[0]

    def step(self) -> list:
        """Emit v = P {r, r^2} as Python floats; feed v back as the next input."""
        # ``dot`` is the same BLAS product as ``@`` with less dispatch
        v = self._P.dot(self._aug)
        self._step += 1
        floats = check_prediction(v, self._step)
        _reservoir_update(self._A, self._W_in, self._r, v, out=self._r)
        np.multiply(self._r, self._r, out=self._r2)
        return floats
