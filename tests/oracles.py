"""Independent reference implementations used only by the test suite.

Each oracle recomputes a quantity the package derives, through a
different algorithm (explicit normal equations, tangent-space exponent
integration, exhaustive enumeration, the SVD of the whole design), so
agreement is evidence rather than tautology.  The ``qr_multiply`` ridge
route, the generic RK4 step, the reservoir loops, the per-offset
divergence curve and the row-by-row CSV writer are the exception: they
are the library route, textbook arithmetic or encoding that the
package's direct, fused, buffered or block loops must reproduce bit for
bit.  The ablation-ladder rungs at the end are not oracles either: they
are variants of the two predictors that known-limit tests score.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from unittest import mock

import numpy as np
from scipy.linalg import qr_multiply, svd

from chaoscontrol import (
    LorenzParams, NgrcConfig, NgrcModel, Trajectory, build_library, esn, ridge_fit,
)
from chaoscontrol.errors import InsufficientDataError
from chaoscontrol.experiments import _fit_cell, attractor_series
from chaoscontrol.ngrc import build_design
from chaoscontrol.ridge import RIDGE_RCOND


def ridge_normal_equations(design: np.ndarray, targets: np.ndarray, beta: float) -> np.ndarray:
    """Brute-force ridge readout: (X^T X + beta I)^-1 X^T Y, transposed.

    Deliberately the textbook normal-equations route, which the shipped
    solver avoids for conditioning reasons; on small well-conditioned
    instances both must agree to near machine precision.
    """
    x = np.asarray(design, dtype=float)
    y = np.asarray(targets, dtype=float)
    gram = x.T @ x + beta * np.eye(x.shape[1])
    return np.linalg.solve(gram, x.T @ y).T


def ridge_svd(design: np.ndarray, targets: np.ndarray, beta: float) -> tuple:
    """Ridge readout through the SVD of the whole design, with U formed.

    X = U diag(s) V^T, filter factors s/(s^2 + beta) on the directions at
    or above ``RIDGE_RCOND`` times s[0], readout V diag(f) U^T Y.  Returns
    (readout in (targets, features) shape, singular values, filter factors).
    """
    x = np.asarray(design, dtype=float)
    y = np.asarray(targets, dtype=float)
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    keep = s >= RIDGE_RCOND * s[0]
    factors = np.where(keep, s / (s * s + beta), 0.0)
    return ((vt.T * factors) @ (u.T @ y)).T, s, factors


def ridge_qr_multiply(design, targets, beta: float, *, overwrite_design: bool = False):
    """Ridge readout through ``scipy.linalg.qr_multiply``, Q never formed.

    The wrapper runs dgeqrf and dormqr, as ``ridge_fit`` does directly, but
    it also masks the whole design for finiteness and copies R through
    ``triu`` while the design is alive.  Same filter factors, row-major SVD
    factors and products as ``ridge_fit``, so the readouts must agree bit
    for bit.
    """
    x = np.asarray(design, dtype=float)
    y = np.asarray(targets, dtype=float)
    if not (overwrite_design and x.flags.f_contiguous and x.flags.writeable):
        x = np.array(x, order="F")
    yt_q, r = qr_multiply(x, y.T, mode="right", overwrite_a=True)
    u_r, s, vt = svd(r, full_matrices=False, check_finite=False)
    u_r, vt = np.ascontiguousarray(u_r), np.ascontiguousarray(vt)
    with np.errstate(over="ignore"):
        denom = s * s + beta
        factors = np.where(
            (s >= RIDGE_RCOND * s[0]) & (denom > 0),
            np.divide(s, np.where(denom > 0, denom, 1.0)),
            0.0,
        )
    return np.ascontiguousarray(((vt.T * factors) @ (u_r.T @ yt_q.T)).T)


def lorenz_deriv(u, p: LorenzParams) -> np.ndarray:
    """Lorenz vector field (sigma*(y-x), x*(rho-z)-y, x*y-beta*z)."""
    x, y, z = float(u[0]), float(u[1]), float(u[2])
    return np.array(
        [p.sigma * (y - x), x * (p.rho - z) - y, x * y - p.beta * z]
    )


def rk4_step(f, u, dt: float, force=None) -> np.ndarray:
    """One classical RK4 step of du/dt = f(u) + force.

    ``force`` is held constant across all four stages (zero-order hold).
    Works for any state dimension; ``f`` maps an array to its derivative.
    """
    u = np.asarray(u, dtype=float)
    if force is None:
        force = np.zeros_like(u)
    else:
        force = np.asarray(force, dtype=float)
    k1 = f(u) + force
    k2 = f(u + (0.5 * dt) * k1) + force
    k3 = f(u + (0.5 * dt) * k2) + force
    k4 = f(u + dt * k3) + force
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def augmented_state(r: np.ndarray) -> np.ndarray:
    """Quadratic augmentation {r, r^2} doubling the state dimension."""
    return np.concatenate([r, r * r])


def esn_harvest(model, samples) -> tuple:
    """Reservoir drive through ``samples``, one scipy ``A @ r`` per step.

    Returns (augmented states after ingesting samples washout .. n-2, the
    state after ingesting the last sample): the design matrix of the
    readout fit and the state prediction continues from.
    """
    r = np.zeros(model.config.reservoir_dim)
    rows = []
    for t, u in enumerate(samples):
        r = np.tanh(model.A @ r + model.W_in @ u)
        if model.config.washout <= t < len(samples) - 1:
            rows.append(augmented_state(r))
    return np.array(rows), r


def esn_free_run(model, n_steps: int) -> np.ndarray:
    """Closed loop from ``model.r``: v = P {r, r^2}, r <- tanh(A r + W_in v)."""
    r = model.r.copy()
    out = []
    for _ in range(n_steps):
        v = model.P @ augmented_state(r)
        out.append(v)
        r = np.tanh(model.A @ r + model.W_in @ v)
    return np.array(out)


def lorenz_jacobian(u, p: LorenzParams) -> np.ndarray:
    x, y, z = float(u[0]), float(u[1]), float(u[2])
    return np.array(
        [
            [-p.sigma, p.sigma, 0.0],
            [p.rho - z, -1.0, -x],
            [y, x, -p.beta],
        ]
    )


def benettin_lyapunov(
    p: LorenzParams,
    u0,
    dt: float = 0.05,
    substeps: int = 5,
    n_steps: int = 20_000,
    transient_steps: int = 1000,
    seed: int = 0,
) -> float:
    """Largest Lyapunov exponent by tangent-space integration.

    Integrates the state and one tangent vector side by side (RK4 on the
    augmented system), renormalizing the tangent once per sampling
    interval and averaging the log stretch factors.  Independent of the
    package's neighbor-tracking estimator.
    """

    def deriv(state):
        u, w = state[:3], state[3:]
        du = np.array(
            [
                p.sigma * (u[1] - u[0]),
                u[0] * (p.rho - u[2]) - u[1],
                u[0] * u[1] - p.beta * u[2],
            ]
        )
        dw = lorenz_jacobian(u, p) @ w
        return np.concatenate([du, dw])

    def rk4(state, h):
        k1 = deriv(state)
        k2 = deriv(state + 0.5 * h * k1)
        k3 = deriv(state + 0.5 * h * k2)
        k4 = deriv(state + h * k3)
        return state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    h = dt / substeps
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(3)
    w /= np.linalg.norm(w)
    state = np.concatenate([np.asarray(u0, dtype=float), w])

    for _ in range(transient_steps * substeps):
        state = rk4(state, h)
    state[3:] /= np.linalg.norm(state[3:])

    log_sum = 0.0
    for _ in range(n_steps):
        for _ in range(substeps):
            state = rk4(state, h)
        norm = np.linalg.norm(state[3:])
        log_sum += math.log(norm)
        state[3:] /= norm
    return log_sum / (n_steps * dt)


def count_monomials(n_vars: int, orders) -> int:
    """Exhaustive count of distinct monomials with total degree in orders.

    Enumerates exponent vectors directly (cartesian product filtered by
    total degree) instead of multiset combinatorics.
    """
    orders = set(orders)
    max_order = max(orders)
    count = 0
    for exponents in itertools.product(range(max_order + 1), repeat=n_vars):
        if sum(exponents) in orders:
            count += 1
    return count


def enumerate_monomials(n_vars: int, orders) -> set:
    """All distinct monomials as sorted variable-index tuples."""
    out = set()
    for order in sorted(set(orders)):
        for combo in itertools.product(range(n_vars), repeat=order):
            out.add(tuple(sorted(combo)))
    return out


def monomial_products(v, monomials) -> np.ndarray:
    """Each monomial's variables multiplied left to right in plain Python.

    ``v`` is one vector or a 2-D array of row vectors; ``monomials`` are
    variable-index tuples.  Python floats carry the same IEEE doubles as
    numpy, so a vectorized evaluation with the same product order must
    agree bit for bit.
    """
    v = np.asarray(v, dtype=float)
    rows = v.reshape(-1, v.shape[-1]).tolist()
    out = []
    for row in rows:
        feats = []
        for mono in monomials:
            product = row[mono[0]]
            for idx in mono[1:]:
                product = product * row[idx]
            feats.append(product)
        out.append(feats)
    return np.array(out).reshape(v.shape[:-1] + (len(monomials),))


def shift_expand(history, t: int, k: int, s: int) -> np.ndarray:
    """Samples at times t, t-s, ..., t-(k-1)s of a Trajectory, newest first.

    One row of NG-RC taps, gathered sample by sample; ``build_design``
    must lay out every design row the same way.

    Raises:
        InsufficientDataError: t < (k-1)*s or t beyond the series.
    """
    samples = history.samples
    if t >= len(samples):
        raise InsufficientDataError(f"index {t} beyond series of {len(samples)}")
    if t - (k - 1) * s < 0:
        raise InsufficientDataError(f"index {t} needs {(k - 1) * s} earlier samples")
    return np.concatenate([samples[t - i * s] for i in range(k)])


def pair_counts(points, r_grid) -> np.ndarray:
    """Brute-force correlation-integral counts from the full distance matrix.

    Entry m is the number of ordered pairs (i, j), i != j, whose Euclidean
    distance satisfies d <= r_grid[m] (closed ball, boundary included).
    """
    x = np.asarray(points, dtype=float)
    d = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1)
    off_diagonal = d[~np.eye(len(x), dtype=bool)]
    return np.array([np.count_nonzero(off_diagonal <= r) for r in r_grid])


def theiler_nearest_neighbours(points, window: int):
    """Brute-force nearest neighbour of each row at time separation > window.

    Returns (neighbour index per row, first-valid rank per row, whether the
    row has a neighbour).  The rank counts the row itself as rank 0, so it
    is the depth a distance-sorted neighbour query must reach.
    """
    x = np.asarray(points, dtype=float)
    n = len(x)
    d = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=-1)
    rows = np.arange(n)
    outside = np.abs(rows[:, None] - rows[None, :]) > window
    masked = np.where(outside, d, np.inf)
    neighbour = np.argmin(masked, axis=1)
    has_valid = outside.any(axis=1)
    rank = (d < masked[rows, neighbour][:, None]).sum(axis=1)
    return neighbour, rank, has_valid


def mean_log_divergence(points, ref, nb, follow_steps: int) -> np.ndarray:
    """Rosenstein curve: mean log distance of pairs (ref, nb) at each offset.

    One fancy-indexed difference per offset; pairs at distance zero are
    left out of the mean, and an offset where every pair is at zero reads
    -inf.
    """
    mean_log = np.empty(follow_steps + 1)
    for kk in range(follow_steps + 1):
        diff = points[ref + kk] - points[nb + kk]
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        nz = d > 0
        mean_log[kk] = np.log(d[nz]).mean() if nz.any() else -np.inf
    return mean_log


def timed_csv_bytes(traj, header, phases=None) -> bytes:
    """A trajectory file's rows as ``csv.writer`` writes them, one at a time.

    Row i is ``dt * i`` and the sample's components as Python floats, plus
    ``phases[i]`` when given, after ``header``; rows end in CRLF.
    """
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for i, sample in enumerate(traj.samples.tolist()):
        writer.writerow([traj.dt * i, *sample] + ([phases[i]] if phases else []))
    return buf.getvalue().encode()


def ngrc_tangent(model, v, w) -> np.ndarray:
    """Tangent of NG-RC's one-step map v -> v + W_out phi(v) at v, applied to w.

    For k = 1, where the features are monomials of the current sample.
    By the product rule a monomial's derivative along w sums, over its
    factor positions in ``index_table``, that factor's tangent times the
    other factors; the padding column (the appended 1.0) has tangent 0.
    No Jacobian matrix is formed.
    """
    if model.config.k != 1:
        raise ValueError("the tangent covers k = 1 only")
    table = build_library(len(v), model.config.orders).index_table
    padded, tangent = np.append(v, 1.0), np.append(w, 0.0)
    dphi = np.zeros(table.shape[1])
    for f in range(len(table)):
        term = tangent[table[f]]
        for g in range(len(table)):
            if g != f:
                term = term * padded[table[g]]
        dphi += term
    return w + model.W_out @ dphi


def esn_tangent(model, r, w) -> np.ndarray:
    """Tangent of the closed-loop reservoir map at r, applied to w.

    The map is r -> r' = tanh(A r + W_in P {r, r^2}), so its tangent is
    (1 - r'^2) * (A w + W_in P [w; 2 r * w]).  No Jacobian matrix is formed.
    """
    r_next = np.tanh(model.A @ r + model.W_in @ (model.P @ augmented_state(r)))
    drive = model.A @ w + model.W_in @ (model.P @ np.concatenate([w, 2.0 * r * w]))
    return (1.0 - r_next * r_next) * drive


def teacher_forced_exponent(tangent, points, dt: float, seed: int = 0) -> float:
    """Largest Lyapunov exponent of a learned one-step map, teacher forced.

    Benettin's method on the map: one tangent vector is pushed through
    ``tangent(p, w)`` at each of ``points`` in turn (states of a true
    series, not the map's own orbit), renormalized after every step, and
    the mean log stretch is divided by dt.
    """
    w = np.random.default_rng(seed).standard_normal(len(points[0]))
    w /= np.linalg.norm(w)
    log_sum = 0.0
    for p in points:
        w = tangent(p, w)
        norm = np.linalg.norm(w)
        log_sum += math.log(norm)
        w /= norm
    return log_sum / (len(points) * dt)


def own_exponent(model, n_steps: int, washout: int) -> float:
    """Largest Lyapunov exponent per step of a trained ESN's closed-loop map,
    along the map's own orbit.

    Benettin's method on the map r -> tanh(A r + W_in P {r, r^2}): from
    ``model.r`` the map and one tangent vector, pushed through
    ``esn_tangent``, run side by side for ``washout + n_steps`` steps, the
    tangent renormalized after every step.  The mean log stretch over the
    last ``n_steps`` is the exponent; divide by dt for it per time unit.
    """
    r = model.r
    w = np.random.default_rng(0).standard_normal(len(r))
    w /= np.linalg.norm(w)
    log_sum = 0.0
    for t in range(washout + n_steps):
        w = esn_tangent(model, r, w)
        norm = np.linalg.norm(w)
        if t >= washout:
            log_sum += math.log(norm)
        w /= norm
        r = np.tanh(model.A @ r + model.W_in @ (model.P @ augmented_state(r)))
    return log_sum / n_steps


def without_recurrence(build_reservoir):
    """``build_reservoir`` with the sampled recurrent matrix A zeroed, so the
    reservoir state is tanh(W_in u) of the current input alone."""

    def memoryless(cfg, input_dim):
        a, w_in = build_reservoir(cfg, input_dim)
        return a * 0.0, w_in

    return memoryless


# Rungs of the ablation ladder between the two predictors: one-step maps
# that differ from each other in one choice at a time.  Each returns
# (training series, model) for the classic cell (cfg.training_steps,
# realization), so every rung of a realization fits the same series.


def tanh_rung(cfg, realization: int) -> tuple:
    """The cell's ESN with A zeroed after sampling: features are the
    ``cfg.esn_reservoir_dim`` tanh units of the current input and their
    squares, fit to the next state with ``cfg.esn_ridge_beta``."""
    with mock.patch.object(esn, "build_reservoir", without_recurrence(esn.build_reservoir)):
        return _fit_cell(cfg, "classic", cfg.training_steps, realization)


def monomial_rung(cfg, realization: int) -> tuple:
    """NG-RC's monomials of orders 1-4 of the current sample, fit to the
    next state (not the increment) with NG-RC's default penalty 1e-4.

    The map v -> W phi(v) is returned as the NgrcModel of v -> v + (W - E)
    phi(v), E picking the linear monomials, so the package's stepper runs it
    and ``ngrc_tangent`` applies.
    """
    n = cfg.training_steps
    training = attractor_series(cfg, "classic", realization, n - 1)
    ncfg = NgrcConfig(k=1, orders=(1, 2, 3, 4), ridge_beta=1e-4)
    design, _ = build_design(training, ncfg)
    w = ridge_fit(design, training.samples[ncfg.warmup + 1 :], ncfg.ridge_beta)
    linear = np.eye(training.dim, design.shape[1])
    return training, NgrcModel(ncfg, w - linear, training.samples[-1:].copy())


def noisy_ngrc_fit(cfg, realization: int, noise: float, seed: int) -> NgrcModel:
    """Delay-tap NG-RC at the operating point of Gauthier et al. (Nat Commun
    12, 5564, 2021), fit to a noisy copy of the NG-RC cell's 400 samples.

    Gaussian noise from ``default_rng(seed)``, ``noise`` times each
    variable's std, is added to the whole series; the features are the
    linear and quadratic monomials of k = 2 taps s = 1 apart, without a
    constant, fit with beta 2.5e-6.  The rest of their operating point,
    rho = 28 and dt = 0.025, is ``cfg``'s to set.  The model continues
    from the noisy series' end.
    """
    samples = attractor_series(cfg, "ngrc", realization, 399).samples
    jitter = np.random.default_rng(seed).standard_normal(samples.shape)
    noisy = Trajectory(cfg.dt, samples + noise * samples.std(axis=0) * jitter)
    ncfg = NgrcConfig(k=2, s=1, orders=(1, 2), ridge_beta=2.5e-6)
    design, targets = build_design(noisy, ncfg)
    w_out = ridge_fit(design, targets, ncfg.ridge_beta)
    return NgrcModel(ncfg, w_out, noisy.samples[-ncfg.tap_span :].copy())
