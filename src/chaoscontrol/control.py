"""Closed-loop control of the plant toward a predictor's hypothetical state.

The plant runs under altered parameters while a trained predictor plays out,
fully autonomously, how the system would have evolved in its original
regime.  Each sampling interval the difference between the actual and the
hypothetical state is injected as a constant force, scaled by K = 1/dt.

Both predictor kinds are driven through one interface: ``model.stepper(bound)``
returns a :class:`Stepper` whose ``step()`` emits the next ``dim``-vector
and raises DivergenceError (phase "predict") once a component leaves
``bound``.  :func:`free_run` and :func:`run_control` take a stepper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .dynamics import (
    IntegratorConfig,
    LorenzParams,
    Trajectory,
    _advance_interval,
)
from .errors import DIVERGENCE_BOUND, DivergenceError

__all__ = [
    "ControlConfig", "ControlRun", "Stepper", "compute_force", "free_run", "run_control",
]


class Stepper(Protocol):
    """Autonomous one-step generator returned by ``model.stepper(bound)``."""

    dim: int

    def step(self) -> np.ndarray: ...


@dataclass(frozen=True)
class ControlConfig:
    """Control-loop settings.

    The recorded force follows the defining convention F = K (u - v).  The
    force actually injected into the plant is ``force_sign * K * (v - u)``:
    with the default ``force_sign=+1`` the feedback is corrective and pulls
    the plant toward the hypothetical trajectory, which is the behaviour the
    closed loop needs.  ``force_sign=-1`` injects the defining expression
    verbatim instead; that reading is positive feedback and diverges, and is
    kept only for inspection.
    """

    plant_params: LorenzParams
    K: float = 20.0
    n_steps: int = 10_000
    force_sign: float = 1.0
    divergence_bound: float = DIVERGENCE_BOUND

    def __post_init__(self):
        if not math.isfinite(self.K):
            raise ValueError("K must be finite")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.force_sign not in (-1.0, 1.0):
            raise ValueError("force_sign must be +1 or -1")
        if self.divergence_bound <= 0:
            raise ValueError("divergence_bound must be positive")


@dataclass
class ControlRun:
    """Aligned records of one control run (n_steps + 1 samples each)."""

    controlled: Trajectory
    hypothetical: Trajectory
    forces: Trajectory

    def __post_init__(self):
        n = len(self.controlled)
        if len(self.hypothetical) != n or len(self.forces) != n:
            raise ValueError("control-run series must share length")


def compute_force(u, v, K: float) -> np.ndarray:
    """Recorded control force F = K (u - v)."""
    return K * (np.asarray(u, dtype=float) - np.asarray(v, dtype=float))


def free_run(stepper: Stepper, n_steps: int, dt: float) -> Trajectory:
    """The next ``n_steps`` outputs of ``stepper`` as a (n_steps, dim) series.

    Raises:
        DivergenceError: if any emitted sample leaves the stepper's bound.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    out = np.empty((n_steps, stepper.dim))
    for i in range(n_steps):
        out[i] = stepper.step()
    return Trajectory(dt, out)


def run_control(
    stepper: Stepper,
    u0,
    cfg: ControlConfig,
    icfg: IntegratorConfig,
) -> ControlRun:
    """Drive the plant under ``cfg.plant_params`` against a predictor.

    ``stepper`` comes from a trained model's ``stepper()``; its first
    emitted sample must continue the training data.  ``u0`` is the plant
    state at that same moment.  Per interval the force is computed from the
    current pair (u, v), held constant across the interval, and the
    predictor advances one step.

    With K=0 the injected force vanishes and the plant path is bit-identical
    to an unforced simulation from u0.

    The loop reads each predictor output as Python floats (``tolist``) and
    keeps the plant state in Python floats.  The arithmetic is the same
    IEEE double arithmetic as on ``np.float64`` scalars, so the results are
    bitwise the same, but numpy scalars would make every scalar RK4 stage
    several times slower.

    Raises:
        DivergenceError: plant leaving ``divergence_bound`` (phase
            "control") or predictor divergence (phase "predict").
    """
    p = cfg.plant_params
    n = cfg.n_steps
    sign_k = cfg.force_sign * cfg.K

    u = np.empty((n + 1, 3))
    v = np.empty((n + 1, 3))
    x, y, z = float(u0[0]), float(u0[1]), float(u0[2])
    u[0] = (x, y, z)
    v[0] = stepper.step()
    bound = cfg.divergence_bound
    for t in range(n):
        vx, vy, vz = v[t].tolist()  # Python floats, see the docstring
        fx = sign_k * (vx - x)
        fy = sign_k * (vy - y)
        fz = sign_k * (vz - z)
        x, y, z = _advance_interval(
            x, y, z, p.sigma, p.rho, p.beta, icfg.dt, icfg.substeps, fx, fy, fz
        )
        # NaN and inf fail the comparisons too
        if not (abs(x) <= bound and abs(y) <= bound and abs(z) <= bound):
            raise DivergenceError(
                f"controlled plant left |u| <= {bound:g}",
                phase="control", step=t + 1,
            )
        u[t + 1] = (x, y, z)
        v[t + 1] = stepper.step()

    forces = cfg.K * (u - v)
    dt = icfg.dt
    return ControlRun(
        controlled=Trajectory(dt, u),
        hypothetical=Trajectory(dt, v),
        forces=Trajectory(dt, forces),
    )
