"""Closed-loop control of the plant toward a predictor's hypothetical state.

The plant runs under altered parameters while a trained predictor plays out,
fully autonomously, how the system would have evolved in its original
regime.  Each sampling interval the difference between the actual and the
hypothetical state is injected as a constant force, scaled by K = 1/dt.

Both predictor kinds are driven through one interface: ``model.stepper()``
returns a :class:`Stepper` whose ``step()`` returns the next ``dim``-vector
as a list of Python floats and raises DivergenceError (phase "predict") once
a component leaves ``DIVERGENCE_BOUND``.  :func:`free_run` and
:func:`run_control` take a stepper.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .dynamics import (
    IntegratorConfig,
    LorenzParams,
    Trajectory,
    _rk4_intervals,
)
from .errors import DIVERGENCE_BOUND, DivergenceError

__all__ = ["ControlConfig", "ControlRun", "Stepper", "free_run", "run_control"]


class Stepper(Protocol):
    """Autonomous one-step generator returned by ``model.stepper()``."""

    dim: int

    def step(self) -> list: ...


@dataclass(frozen=True)
class ControlConfig:
    """Control-loop settings.

    The recorded force follows the defining convention F = K (u - v).  The
    force injected into the plant is K (v - u): corrective feedback that
    pulls the plant toward the hypothetical trajectory.
    """

    plant_params: LorenzParams
    K: float = 20.0
    n_steps: int = 10_000

    def __post_init__(self):
        if not math.isfinite(self.K):
            raise ValueError("K must be finite")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")


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


def free_run(stepper: Stepper, n_steps: int, dt: float) -> Trajectory:
    """The next ``n_steps`` outputs of ``stepper`` as a (n_steps, dim) series.

    Raises:
        DivergenceError: if any emitted sample leaves ``DIVERGENCE_BOUND``.
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

    The loop takes each predictor output as the Python floats ``step()``
    returns (converted once, by the stepper's divergence check) and keeps the
    plant state in Python floats.  The arithmetic is the same IEEE double
    arithmetic as on ``np.float64`` scalars, so the results are bitwise the
    same, but numpy scalars would make every scalar RK4 stage several times
    slower.  Plant states and predictor outputs go to two flat
    ``array('d')`` buffers, which become arrays once, after the loop.

    Raises:
        DivergenceError: plant leaving ``DIVERGENCE_BOUND`` (phase
            "control") or predictor divergence (phase "predict").
    """
    p = cfg.plant_params
    n = cfg.n_steps
    k = cfg.K

    x, y, z = float(u0[0]), float(u0[1]), float(u0[2])
    vx, vy, vz = stepper.step()  # Python floats, see the docstring
    plant = array("d", (x, y, z))
    hypothetical = array("d", (vx, vy, vz))
    bound = DIVERGENCE_BOUND  # a local name is cheaper in the loop
    for t in range(n):
        fx = k * (vx - x)
        fy = k * (vy - y)
        fz = k * (vz - z)
        x, y, z = _rk4_intervals(
            x, y, z, p.sigma, p.rho, p.beta, icfg.dt, icfg.substeps, fx, fy, fz
        )
        # NaN and inf fail the comparisons too
        if not (abs(x) <= bound and abs(y) <= bound and abs(z) <= bound):
            raise DivergenceError(
                f"controlled plant left |u| <= {bound:g}",
                phase="control", step=t + 1,
            )
        plant.extend((x, y, z))
        vx, vy, vz = stepper.step()
        hypothetical.extend((vx, vy, vz))

    u = np.array(plant).reshape(n + 1, 3)
    v = np.array(hypothetical).reshape(n + 1, 3)
    forces = k * (u - v)
    dt = icfg.dt
    return ControlRun(
        controlled=Trajectory(dt, u),
        hypothetical=Trajectory(dt, v),
        forces=Trajectory(dt, forces),
    )
