"""Lorenz system simulation with fixed-step RK4 and an optional additive force.

The integrator treats an external force as piecewise constant over each
sampling interval (zero-order hold): the force vector is added to the vector
field in all four stages of every RK4 substep.  One private scalar kernel,
:func:`_rk4_intervals`, holds the only copy of that arithmetic; it works on
Python floats and advances any number of intervals per call.
:func:`simulate`, :func:`step_rk4`, :func:`relax_to_attractor` and the
closed-loop plant in :mod:`chaoscontrol.control` all run through it, so
every Lorenz integration in the package is bitwise the same computation.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError

__all__ = [
    "LorenzParams",
    "IntegratorConfig",
    "Trajectory",
    "step_rk4",
    "simulate",
    "random_initial_state",
    "relax_to_attractor",
]


@dataclass(frozen=True)
class LorenzParams:
    """Order parameters (sigma, rho, beta) of the Lorenz equations."""

    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0

    def __post_init__(self):
        for name in ("sigma", "rho", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"LorenzParams.{name} must be finite")
        if self.beta <= 0:
            raise ValueError("LorenzParams.beta must be positive")


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integrator settings.  Only RK4 is implemented.

    ``dt`` is the sampling interval of every recorded series.  Each interval
    is advanced by ``substeps`` equal RK4 steps of size dt/substeps: in the
    strongly driven Lorenz regimes studied here the Jacobian spectral radius
    peaks above 2.8/dt during bursts, where a single dt-sized RK4 step sits
    outside its linear stability region and trajectories blow up mid-run.
    External forces are held constant over the whole interval regardless of
    substepping.
    """

    dt: float = 0.05
    substeps: int = 5

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("IntegratorConfig.dt must be positive")
        if self.substeps < 1:
            raise ValueError("IntegratorConfig.substeps must be >= 1")


@dataclass
class Trajectory:
    """Uniformly sampled multivariate time series.

    Attributes:
        dt: sampling step; sample i is taken at time i * dt.
        samples: (n_samples, dim) float array.
    """

    dt: float
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.ascontiguousarray(self.samples, dtype=float)
        if self.samples.ndim != 2:
            raise ValueError("Trajectory samples must be a 2-D (n_samples, dim) array")
        # zero-length trajectories are allowed (n_steps=0 predictions)
        if not self.dt > 0:
            raise ValueError("Trajectory.dt must be positive")
        if not np.isfinite(self.samples).all():
            raise ValueError("Trajectory contains non-finite samples")

    def __len__(self):
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(len(self))


def _rk4_intervals(x, y, z, sigma, rho, beta, dt, substeps, fx, fy, fz, n=1, emit=None):
    """Advance (x, y, z) by ``n`` sampling intervals; return the final state.

    Each interval is ``substeps`` classical RK4 steps of size dt/substeps on
    the Lorenz field plus the constant force (fx, fy, fz), held over all
    four stages (zero-order hold).  The arithmetic is that of the generic
    stage form k_i = f(u_i) + force, u + (h/6)(k1 + 2 k2 + 2 k3 + k4), in
    the same order; the force terms stay even when zero, since dropping a
    ``+ 0.0`` can flip the sign of an exact zero.  ``emit`` receives each
    interval's end state as an (x, y, z) tuple.  Non-finite values are not
    checked here: they propagate and the caller tests the result.
    """
    h = dt / substeps
    hh = 0.5 * h
    h6 = h / 6.0
    for _ in range(n):
        for _ in range(substeps):
            k1x = sigma * (y - x) + fx
            k1y = x * (rho - z) - y + fy
            k1z = x * y - beta * z + fz

            x2, y2, z2 = x + hh * k1x, y + hh * k1y, z + hh * k1z
            k2x = sigma * (y2 - x2) + fx
            k2y = x2 * (rho - z2) - y2 + fy
            k2z = x2 * y2 - beta * z2 + fz

            x3, y3, z3 = x + hh * k2x, y + hh * k2y, z + hh * k2z
            k3x = sigma * (y3 - x3) + fx
            k3y = x3 * (rho - z3) - y3 + fy
            k3z = x3 * y3 - beta * z3 + fz

            x4, y4, z4 = x + h * k3x, y + h * k3y, z + h * k3z
            k4x = sigma * (y4 - x4) + fx
            k4y = x4 * (rho - z4) - y4 + fy
            k4z = x4 * y4 - beta * z4 + fz

            x = x + h6 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            y = y + h6 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            z = z + h6 * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        if emit is not None:
            emit((x, y, z))
    return x, y, z


def step_rk4(u, p: LorenzParams, cfg: IntegratorConfig) -> np.ndarray:
    """Advance the unforced Lorenz state by one sampling interval [t, t+dt].

    Raises:
        IntegrationError: if the resulting state is non-finite; its step is 1,
            the sample it produced, as :func:`simulate` counts.
    """
    out = _rk4_intervals(
        float(u[0]), float(u[1]), float(u[2]),
        p.sigma, p.rho, p.beta, cfg.dt, cfg.substeps, 0.0, 0.0, 0.0,
    )
    if not (math.isfinite(out[0]) and math.isfinite(out[1]) and math.isfinite(out[2])):
        raise IntegrationError("RK4 step produced a non-finite state", step=1)
    return np.array(out)


def simulate(u0, p: LorenzParams, cfg: IntegratorConfig, n_steps: int) -> Trajectory:
    """Integrate the unforced Lorenz system for ``n_steps`` sampling intervals.

    Returns a trajectory of ``n_steps + 1`` samples starting at ``u0``.

    Raises:
        IntegrationError: carries the index of the first non-finite sample.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    x, y, z = float(u0[0]), float(u0[1]), float(u0[2])
    # a flat array('d') holds 24 bytes per sample; a list of tuples about 190
    buf = array("d", (x, y, z))
    _rk4_intervals(
        x, y, z, p.sigma, p.rho, p.beta, cfg.dt, cfg.substeps, 0.0, 0.0, 0.0,
        n=n_steps, emit=buf.extend,
    )
    out = np.array(buf).reshape(n_steps + 1, 3)
    # a non-finite u0 makes sample 1 non-finite, so checking from 1 suffices
    bad = ~np.isfinite(out[1:]).all(axis=1)
    if bad.any():
        step = int(bad.argmax()) + 1
        raise IntegrationError("simulation produced a non-finite state", step=step)
    return Trajectory(cfg.dt, out)


def random_initial_state(rng: np.random.Generator) -> np.ndarray:
    """Initial condition drawn uniformly from [-1, 1]^3."""
    return rng.uniform(-1.0, 1.0, size=3)


def relax_to_attractor(
    u0,
    p: LorenzParams,
    cfg: IntegratorConfig,
    transient_steps: int = 1000,
) -> np.ndarray:
    """Integrate through a discarded transient and return the final state.

    Raises:
        IntegrationError: its message names the relaxation, and its step
            counts from the start of the transient.
    """
    if transient_steps < 1:
        return np.asarray(u0, dtype=float).copy()
    try:
        return simulate(u0, p, cfg, transient_steps).samples[-1]
    except IntegrationError as exc:
        raise IntegrationError(
            f"{exc} during the discarded relaxation onto the attractor",
            step=exc.step,
        ) from exc
