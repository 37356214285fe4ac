"""Attractor-climate statistics.

Two quantities summarise the long-term behaviour of a trajectory regardless
of pointwise agreement: the correlation dimension from the pair-counting
power law C(r) ~ r^nu (Grassberger-Procaccia), and the largest Lyapunov
exponent from the mean log-divergence of initially nearby states
(Rosenstein).  Both operate directly on the full state vector; no delay
embedding is performed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .dynamics import Trajectory
from .errors import InsufficientDataError

__all__ = [
    "GpConfig",
    "RosensteinConfig",
    "GpDiagnostics",
    "LyapunovDiagnostics",
    "ClimateStats",
    "correlation_dimension",
    "largest_lyapunov",
    "theiler_neighbours",
    "climate_stats",
]


@dataclass(frozen=True)
class GpConfig:
    """Grassberger-Procaccia settings.

    ``r_min``/``r_max`` are fractions of the attractor diameter (twice the
    maximum distance from the centroid); ``n_r`` thresholds are log-spaced
    between them.  At each threshold r, every ordered pair of distinct
    samples at distance d <= r is counted exactly.  Dual-tree traversals
    over a median bisection of the samples bin each distance between
    neighbouring thresholds; a pair split by a cut is visited once and
    counted twice.
    """

    r_min: float = 0.005
    r_max: float = 0.10
    n_r: int = 20

    def __post_init__(self):
        if not (0 < self.r_min < self.r_max):
            raise ValueError("require 0 < r_min < r_max")
        if self.n_r < 5:
            raise ValueError("n_r must be >= 5")


@dataclass(frozen=True)
class RosensteinConfig:
    """Largest-Lyapunov settings.

    Nearest neighbours must be more than ``theiler_window`` steps apart in
    time; each pair is followed for ``follow_steps`` steps and the mean log
    distance curve is fitted linearly between ``fit_start`` and ``fit_end``.

    The fit window skips the first few steps, where the neighbour difference
    vectors are still rotating into the locally most expanding direction and
    the curve rises faster than the asymptotic rate.  Calibrated against a
    tangent-space oracle on the classic Lorenz attractor; the diagnostics
    expose the full curve for recalibration on other systems.
    """

    theiler_window: int = 50
    fit_start: int = 10
    fit_end: int = 60
    follow_steps: int = 60

    def __post_init__(self):
        if not (0 <= self.fit_start < self.fit_end <= self.follow_steps):
            raise ValueError("require fit_start < fit_end <= follow_steps")
        if self.theiler_window < 0:
            raise ValueError("theiler_window must be >= 0")


@dataclass
class GpDiagnostics:
    """Correlation-integral curve and fit quality for one estimate."""

    r: np.ndarray
    c: np.ndarray
    slope: float
    intercept: float
    r_squared: float
    n_pairs: int
    degenerate: bool = False
    low_fit_quality: bool = False


@dataclass
class LyapunovDiagnostics:
    """Divergence curve and fit quality for one estimate."""

    offsets: np.ndarray
    mean_log_dist: np.ndarray
    slope_per_step: float
    intercept: float
    r_squared: float
    valid_fraction: float
    few_neighbors: bool = False
    degenerate: bool = False


@dataclass
class ClimateStats:
    """(largest Lyapunov exponent, correlation dimension) of an attractor."""

    lambda_max: float
    corr_dim: float
    lyap_diag: LyapunovDiagnostics | None = None
    gp_diag: GpDiagnostics | None = None


def _linear_fit(x, y):
    """Least-squares line fit returning (slope, intercept, R^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - np.sum(resid**2) / ss_tot if ss_tot > 0 else 0.0
    return float(slope), float(intercept), float(r2)


def _attractor_diameter(points: np.ndarray) -> float:
    """Rotation/translation-invariant size proxy: 2 * max |x - centroid|."""
    centered = points - points.mean(axis=0)
    return 2.0 * float(np.sqrt((centered**2).sum(axis=1).max()))


# k-d tree build flags: on 10k-sample attractor series an unbalanced,
# non-compacted tree builds and traverses fastest
_TREE_FLAGS = {"compact_nodes": False, "balanced_tree": False}
# first-stage neighbour count of the Theiler-window search; the first
# valid neighbour on attractor series sits at rank <= 5
_FIRST_QUERY_K = 8
# largest point block the GP count traverses against itself; smaller
# blocks add tree builds, larger ones revisit more ordered pairs twice
# (128-512 all take 0.57-0.63 of a single self-count on 10k samples)
_GP_BLOCK = 256


def _binned_pair_counts(points: np.ndarray, r_grid: np.ndarray) -> np.ndarray:
    """Ordered pairs, self-pairs included, per bin r[m-1] < d <= r[m].

    Bin 0 holds d <= r[0]; pairs beyond r[-1] are not counted.  The points
    are bisected at the median of their widest axis; each half is counted
    against itself recursively, and the pairs across the cut are counted
    once and enter twice.  A block of at most ``_GP_BLOCK`` points is
    traversed against itself.  ``cumulative=False`` places each distance by
    a binary search over the radii instead of testing every radius.
    """
    if len(points) <= _GP_BLOCK:
        tree = cKDTree(points, **_TREE_FLAGS)
        return tree.count_neighbors(tree, r_grid, cumulative=False)
    axis = np.argmax(np.ptp(points, axis=0))
    half = len(points) // 2
    order = np.argpartition(points[:, axis], half)
    left, right = points[order[:half]], points[order[half:]]
    cross = cKDTree(left, **_TREE_FLAGS).count_neighbors(
        cKDTree(right, **_TREE_FLAGS), r_grid, cumulative=False
    )
    return (
        _binned_pair_counts(left, r_grid) + _binned_pair_counts(right, r_grid) + 2 * cross
    )


def correlation_dimension(
    traj: Trajectory, cfg: GpConfig = GpConfig()
) -> tuple[float, GpDiagnostics]:
    """Correlation dimension via exact pair counting over log-spaced thresholds.

    The correlation integral C(r) is the fraction of ordered pairs (i, j),
    i != j, whose Euclidean distance satisfies d <= r, over all
    ``n_pairs = n*(n-1)`` such pairs; the dimension is the slope of log C
    against log r over the configured threshold range.  The counts are
    exact and need no distance matrix: dual-tree traversals (Gray & Moore,
    NIPS 2000) over a median bisection of the points bin each distance
    between neighbouring thresholds, visiting a pair split by a cut once
    and counting it twice, and a cumulative sum turns the bins into the
    closed-ball counts.  Returns
    (nu, diagnostics); a collapsed trajectory (all counts zero) or a fit
    with R^2 < 0.9 is flagged on the diagnostics rather than raised.
    """
    points = traj.samples
    n = points.shape[0]
    if n < 2:
        raise InsufficientDataError("need at least 2 samples for pair counting")

    diam = _attractor_diameter(points)
    # zero: a collapsed cloud; inf: squared distances overflow float64
    if not 0.0 < diam < np.inf:
        diag = GpDiagnostics(
            r=np.array([]), c=np.array([]), slope=float("nan"),
            intercept=float("nan"), r_squared=0.0, n_pairs=0, degenerate=True,
        )
        return float("nan"), diag

    r_grid = np.geomspace(cfg.r_min * diam, cfg.r_max * diam, cfg.n_r)
    # cumulative ordered-pair counts with d <= r, self-pairs (d = 0) removed
    cum = np.cumsum(_binned_pair_counts(points, r_grid)) - n
    n_pairs = n * (n - 1)
    c_r = cum / n_pairs

    if cum[-1] == 0:
        diag = GpDiagnostics(
            r=r_grid, c=c_r, slope=float("nan"), intercept=float("nan"),
            r_squared=0.0, n_pairs=n_pairs, degenerate=True,
        )
        return float("nan"), diag

    mask = cum > 0
    slope, intercept, r2 = _linear_fit(np.log(r_grid[mask]), np.log(c_r[mask]))
    diag = GpDiagnostics(
        r=r_grid, c=c_r, slope=slope, intercept=intercept, r_squared=r2,
        n_pairs=n_pairs, low_fit_quality=r2 < 0.9,
    )
    return slope, diag


def _first_valid_neighbour(idx: np.ndarray, rows: np.ndarray, window: int, n: int):
    """Nearest candidate of each row more than ``window`` steps away.

    ``idx`` holds each row's neighbour indices in ascending distance, with
    the k-d tree's "none found" index ``n`` where a distance overflows.
    Returns (neighbour index per row, whether the row has one).
    """
    valid = (np.abs(idx - rows[:, None]) > window) & (idx < n)
    first = np.argmax(valid, axis=1)
    return idx[np.arange(len(rows)), first], valid.any(axis=1)


def theiler_neighbours(points: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Nearest neighbour of every point outside a Theiler window.

    For each row i, the index j minimising |x_i - x_j| subject to
    |i - j| > ``window``.  Returns (neighbour per row, whether the row has
    one); a row without a valid neighbour gets an arbitrary index.

    At most 2W+1 indices violate the window (self included), so 2W+2
    nearest neighbours always contain the valid hit when one exists.  On
    attractor series the hit is almost always among the first few, so
    every row is queried for a handful of neighbours first and only the
    rows without a hit are queried again at full depth.  The selected
    neighbour is the same as for a single full-depth query.
    """
    m = points.shape[0]
    rows = np.arange(m)
    tree = cKDTree(points, **_TREE_FLAGS)
    k_full = min(2 * window + 2, m)
    k = min(_FIRST_QUERY_K, k_full)
    _, idx = tree.query(points, k=k)
    nb, has_valid = _first_valid_neighbour(idx, rows, window, m)
    redo = np.flatnonzero(~has_valid)
    if len(redo) and k < k_full:
        _, idx = tree.query(points[redo], k=k_full)
        nb[redo], has_valid[redo] = _first_valid_neighbour(idx, redo, window, m)
    return nb, has_valid


def largest_lyapunov(
    traj: Trajectory, cfg: RosensteinConfig = RosensteinConfig()
) -> tuple[float, LyapunovDiagnostics]:
    """Largest Lyapunov exponent from the mean divergence of neighbour pairs.

    For every sample, the nearest neighbour at temporal distance greater
    than the Theiler window is tracked for ``follow_steps`` steps; the slope
    of the mean log separation over the fit window, divided by dt, is the
    exponent.  Returns (lambda_max, diagnostics); a collapsed trajectory,
    whose fit window holds fewer than two finite points because every
    tracked pair sits at distance zero, gives nan and is flagged
    ``degenerate`` rather than raised.
    """
    points = traj.samples
    n = points.shape[0]
    m = n - cfg.follow_steps  # trackable reference points
    if m < 2:
        raise InsufficientDataError("trajectory shorter than follow_steps")

    nb, has_valid = theiler_neighbours(points[:m], cfg.theiler_window)
    ref = np.flatnonzero(has_valid)
    nb = nb[ref]
    valid_fraction = float(len(ref)) / m
    if len(ref) == 0:
        raise InsufficientDataError("no neighbour pairs outside Theiler window")

    offsets = np.arange(cfg.follow_steps + 1)
    mean_log = np.empty(len(offsets))
    # the pairs are gathered into two buffers reused at every offset
    diff = np.empty((len(ref), points.shape[1]))
    other = np.empty_like(diff)
    for kk in offsets:
        np.take(points, ref + kk, axis=0, out=diff)
        np.take(points, nb + kk, axis=0, out=other)
        diff -= other
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        nz = d > 0
        mean_log[kk] = np.log(d[nz]).mean() if nz.any() else -np.inf

    lo, hi = cfg.fit_start, cfg.fit_end
    window = np.arange(lo, hi + 1)
    finite = np.isfinite(mean_log[window])
    degenerate = np.count_nonzero(finite) < 2
    if degenerate:
        slope = intercept = float("nan")
        r2 = 0.0
    else:
        slope, intercept, r2 = _linear_fit(window[finite], mean_log[window][finite])
    diag = LyapunovDiagnostics(
        offsets=offsets, mean_log_dist=mean_log, slope_per_step=slope,
        intercept=intercept, r_squared=r2, valid_fraction=valid_fraction,
        few_neighbors=valid_fraction < 0.1, degenerate=degenerate,
    )
    return slope / traj.dt, diag


def climate_stats(
    traj: Trajectory,
    gp_cfg: GpConfig = GpConfig(),
    ros_cfg: RosensteinConfig = RosensteinConfig(),
) -> ClimateStats:
    """Convenience wrapper computing both climate measures."""
    lam, lyap_diag = largest_lyapunov(traj, ros_cfg)
    nu, gp_diag = correlation_dimension(traj, gp_cfg)
    return ClimateStats(lambda_max=lam, corr_dim=nu,
                        lyap_diag=lyap_diag, gp_diag=gp_diag)

