"""Attractor-climate statistics.

Two quantities summarise the long-term behaviour of a trajectory regardless
of pointwise agreement: the correlation dimension from the pair-counting
power law C(r) ~ r^nu (Grassberger-Procaccia), and the largest Lyapunov
exponent from the mean log-divergence of initially nearby states
(Rosenstein).  Both operate directly on the full state vector; no delay
embedding is performed.
"""

from __future__ import annotations

import io
import multiprocessing
import os
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .dynamics import Trajectory
from .errors import InsufficientDataError

__all__ = [
    "GpDiagnostics",
    "LyapunovDiagnostics",
    "ClimateStats",
    "correlation_dimension",
    "largest_lyapunov",
    "theiler_neighbours",
    "climate_stats",
]


# Grassberger-Procaccia thresholds: GP_N_R radii log-spaced from GP_R_MIN to
# GP_R_MAX times the attractor diameter (twice the largest distance from
# the centroid).  As fractions of the diameter they make the estimate
# independent of the attractor's size and position; the fit's R^2 on the
# diagnostics tells whether log C(r) is straight over this range.
GP_R_MIN, GP_R_MAX, GP_N_R = 0.005, 0.10, 20

# Rosenstein settings: a neighbour must lie more than THEILER_WINDOW steps
# away in time, so that it is not the same stretch of orbit; each pair is
# followed for FOLLOW_STEPS steps and the mean log distance is fitted
# linearly over steps FIT_START to FIT_END.  The fit skips the first steps,
# where the difference vectors are still rotating into the locally most
# expanding direction and the curve rises faster than the asymptotic rate.
# Calibrated against a tangent-space oracle on the classic Lorenz
# attractor; the diagnostics expose the full curve for recalibration on
# other systems.  FIT_END must not exceed FOLLOW_STEPS.
THEILER_WINDOW = 50
FOLLOW_STEPS = 60
FIT_START, FIT_END = 10, 60


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
    low_fit_quality: bool = False


@dataclass
class ClimateStats:
    """(largest Lyapunov exponent, correlation dimension) of an attractor."""

    lambda_max: float
    corr_dim: float
    lyap_diag: LyapunovDiagnostics
    gp_diag: GpDiagnostics


def _linear_fit(x, y):
    """Least-squares line fit: (slope, intercept, R^2, degenerate, low_fit_quality).

    Fewer than two points fit no line and give (nan, nan, 0, degenerate);
    a fitted line with R^2 < 0.9 is of low quality.
    """
    if len(x) < 2:
        return float("nan"), float("nan"), 0.0, True, False
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = float(1.0 - np.sum(resid**2) / ss_tot if ss_tot > 0 else 0.0)
    return float(slope), float(intercept), r2, False, r2 < 0.9


def _attractor_diameter(points: np.ndarray) -> float:
    """Rotation/translation-invariant size proxy: 2 * max |x - centroid|."""
    centered = points - points.mean(axis=0)
    return 2.0 * float(np.sqrt((centered**2).sum(axis=1).max()))


# first-stage neighbour count of the Theiler-window search; the first
# valid neighbour on attractor series sits at rank <= 5
_FIRST_QUERY_K = 8
# rows per full-depth Theiler query: a near-fixed-point series sends all its
# rows there, and 10k of them in one query hold about 30 MB
_REDO_BLOCK = 512
# largest point block the GP count traverses against itself; smaller
# blocks add tree builds, larger ones revisit more ordered pairs twice
# (128-512 all take 0.57-0.63 of a single self-count on 10k samples)
_GP_BLOCK = 256
# fewest points whose GP count forks a child: a fork plus reap costs 5-6 ms,
# so on 2 vCPUs the forked count took 6-7 ms against 1.1 ms serial at 301
# points, 14-18 against 7-8 ms at 1,200 and 0.73-1.26x of serial at 3,000;
# from 3,500 points on it took 0.65-0.72x (medians of 20 calls)
_GP_FORK_MIN = 4_000


def _median_halves(points: np.ndarray) -> tuple:
    """The points split at the median of their widest axis."""
    axis = np.argmax(np.ptp(points, axis=0))
    half = len(points) // 2
    order = np.argpartition(points[:, axis], half)
    return points[order[:half]], points[order[half:]]


def _cross_pair_counts(left: np.ndarray, right: np.ndarray, r_grid: np.ndarray) -> np.ndarray:
    """Pairs with one point in each set, per bin, each counted once."""
    return cKDTree(left).count_neighbors(cKDTree(right), r_grid, cumulative=False)


def _binned_pair_counts(points: np.ndarray, r_grid: np.ndarray, fork: bool = False) -> np.ndarray:
    """Ordered pairs, self-pairs included, per bin r[m-1] < d <= r[m].

    Bin 0 holds d <= r[0]; pairs beyond r[-1] are not counted.  The points
    are bisected at the median of their widest axis; each half is counted
    against itself recursively, and the pairs across the cut are counted
    once and enter twice.  A block of at most ``_GP_BLOCK`` points is
    traversed against itself.  ``cumulative=False`` places each distance by
    a binary search over the radii instead of testing every radius.

    With ``fork``, a forked child counts the left half of the first cut
    while this process counts the rest: ``cKDTree.count_neighbors`` holds
    the GIL, so only a second process puts a second core to work.  Where
    no child starts, or it delivers less than the full count, this process
    counts the left half itself.  The counts are exact integers, so they
    equal the single-process ones.
    """
    if len(points) <= _GP_BLOCK:
        tree = cKDTree(points)
        return tree.count_neighbors(tree, r_grid, cumulative=False)
    left, right = _median_halves(points)
    n_bytes = len(r_grid) * np.dtype(np.int64).itemsize
    with (_fork_counter(left, r_grid) if fork else io.BytesIO()) as child:
        counts = _binned_pair_counts(right, r_grid) + 2 * _cross_pair_counts(left, right, r_grid)
        # a buffered read returns short only at end of file
        data = child.read(n_bytes)
    if len(data) < n_bytes:
        return counts + _binned_pair_counts(left, r_grid)
    return counts + np.frombuffer(data, dtype=np.int64)


def _fork_pays(n_points: int) -> bool:
    """Whether the GP count of ``n_points`` points should fork a child.

    Only from ``_GP_FORK_MIN`` points on, where the fork costs less than
    it saves, and only where ``os.fork`` exists.  Not in a process with a
    second thread: the child holds only the forking thread, and a lock
    another thread held stays locked in it (importing numpy before
    chaoscontrol leaves OpenBLAS a pool of threads).  Not in a process
    started by multiprocessing, such as a sweep's pool worker: the pool
    already keeps the cores busy.  And not without a second usable CPU.
    """
    if n_points < _GP_FORK_MIN or not hasattr(os, "fork"):
        return False
    if multiprocessing.parent_process() is not None:
        return False
    try:
        threads = len(os.listdir("/proc/self/task"))
        cpus = len(os.sched_getaffinity(0))
    except (OSError, AttributeError):
        threads, cpus = threading.active_count(), os.cpu_count() or 1
    return threads == 1 and cpus >= 2


@contextmanager
def _fork_counter(points: np.ndarray, r_grid: np.ndarray):
    """Fork a child that writes ``_binned_pair_counts(points)`` to a pipe.

    Yields the read end of the pipe, or an empty stream if no child could
    be started.  The child inherits ``points`` without pickling and leaves
    through ``os._exit``, so it runs no exit handler and flushes no buffer
    of the parent's.  On leaving, the parent reaps the child, and kills it
    first if the block raised.
    """
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        yield io.BytesIO()
        return
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        yield io.BytesIO()
        return
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            counts = _binned_pair_counts(points, r_grid).astype(np.int64)
            with open(write_fd, "wb") as pipe:
                pipe.write(counts.tobytes())
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        try:
            yield pipe
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            os.waitpid(pid, 0)


def correlation_dimension(traj: Trajectory) -> tuple[float, GpDiagnostics]:
    """Correlation dimension via exact pair counting over log-spaced thresholds.

    The correlation integral C(r) is the fraction of ordered pairs (i, j),
    i != j, whose Euclidean distance satisfies d <= r, over all
    ``n_pairs = n*(n-1)`` such pairs; the dimension is the slope of log C
    against log r over the ``GP_N_R`` thresholds.  The counts are
    exact and need no distance matrix: dual-tree traversals (Gray & Moore,
    NIPS 2000) over a median bisection of the points bin each distance
    between neighbouring thresholds, visiting a pair split by a cut once
    and counting it twice, and a cumulative sum turns the bins into the
    closed-ball counts.  On a series of at least ``_GP_FORK_MIN`` points,
    in a single-threaded process with a second usable CPU, a forked child
    counts one half of the first cut while this process counts the rest.
    Returns (nu, diagnostics); a curve of fewer than two positive C(r) (nu
    nan) or a fit with R^2 < 0.9 is flagged on the diagnostics, not raised.
    """
    points = traj.samples
    n = points.shape[0]
    if n < 2:
        raise InsufficientDataError("need at least 2 samples for pair counting")

    diam = _attractor_diameter(points)
    # zero: a collapsed cloud; inf: squared distances overflow float64
    if 0.0 < diam < np.inf:
        r_grid = np.geomspace(GP_R_MIN * diam, GP_R_MAX * diam, GP_N_R)
        # cumulative ordered-pair counts with d <= r, self-pairs (d = 0) removed
        cum = np.cumsum(_binned_pair_counts(points, r_grid, fork=_fork_pays(n))) - n
        n_pairs = n * (n - 1)
    else:
        r_grid = cum = np.array([])
        n_pairs = 0
    c_r = cum / n_pairs

    # log C(r) exists only where a pair lies within r
    mask = cum > 0
    slope, intercept, r2, degenerate, low_fit = _linear_fit(
        np.log(r_grid[mask]), np.log(c_r[mask])
    )
    diag = GpDiagnostics(
        r=r_grid, c=c_r, slope=slope, intercept=intercept, r_squared=r2,
        n_pairs=n_pairs, degenerate=degenerate, low_fit_quality=low_fit,
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
    neighbour is at the same distance as a single full-depth query's, but
    its index is defined only up to ties: where several valid points sit
    at that distance (as on a series that repeats exactly), which one is
    returned follows cKDTree's tie order, which may differ between the
    two query depths.  Each row is answered on its own, so the full-depth
    rows are queried ``_REDO_BLOCK`` at a time with the same result.
    """
    m = points.shape[0]
    tree = cKDTree(points)
    k_full = min(2 * window + 2, m)
    k = min(_FIRST_QUERY_K, k_full)
    idx = tree.query(points, k=k)[1]
    nb, has_valid = _first_valid_neighbour(idx, np.arange(m), window, m)
    del idx
    if k < k_full:
        redo = np.flatnonzero(~has_valid)
        for first in range(0, len(redo), _REDO_BLOCK):
            block = redo[first:first + _REDO_BLOCK]
            idx = tree.query(points[block], k=k_full)[1]
            nb[block], has_valid[block] = _first_valid_neighbour(idx, block, window, m)
    return nb, has_valid


def largest_lyapunov(traj: Trajectory) -> tuple[float, LyapunovDiagnostics]:
    """Largest Lyapunov exponent from the mean divergence of neighbour pairs.

    For every sample, the nearest neighbour at temporal distance greater
    than ``THEILER_WINDOW`` is tracked for ``FOLLOW_STEPS`` steps; the slope
    of the mean log separation over the fit window, divided by dt, is the
    exponent.  Returns (lambda_max, diagnostics); a collapsed trajectory,
    whose fit window holds fewer than two finite points because every
    tracked pair sits at distance zero, gives nan and is flagged
    ``degenerate`` rather than raised.
    """
    points = traj.samples
    n = points.shape[0]
    m = n - FOLLOW_STEPS  # trackable reference points
    if m < THEILER_WINDOW + 2:  # no two of them more than THEILER_WINDOW apart
        raise InsufficientDataError(
            "Rosenstein estimate needs at least "
            f"{FOLLOW_STEPS + THEILER_WINDOW + 2} samples, got {n}"
        )

    nb, has_valid = theiler_neighbours(points[:m], THEILER_WINDOW)
    valid_fraction = float(np.count_nonzero(has_valid)) / m
    if valid_fraction == 0:
        raise InsufficientDataError("no neighbour pairs outside Theiler window")
    # a row without a valid neighbour follows itself: its distance is 0 at
    # every offset and is dropped with the other zeros below
    lonely = np.flatnonzero(~has_valid)
    nb[lonely] = lonely

    offsets = np.arange(FOLLOW_STEPS + 1)
    mean_log = np.empty(len(offsets))
    diff = np.empty((m, points.shape[1]))  # reused at every offset
    for kk in offsets:
        np.take(points, nb + kk, axis=0, out=diff)
        np.subtract(points[kk:kk + m], diff, out=diff)
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        nz = d > 0
        mean_log[kk] = np.log(d[nz]).mean() if nz.any() else -np.inf

    window = np.arange(FIT_START, FIT_END + 1)
    finite = np.isfinite(mean_log[window])
    slope, intercept, r2, degenerate, low_fit = _linear_fit(
        window[finite], mean_log[window][finite]
    )
    diag = LyapunovDiagnostics(
        offsets=offsets, mean_log_dist=mean_log, slope_per_step=slope,
        intercept=intercept, r_squared=r2, valid_fraction=valid_fraction,
        few_neighbors=valid_fraction < 0.1, degenerate=degenerate,
        low_fit_quality=low_fit,
    )
    return slope / traj.dt, diag


def climate_stats(traj: Trajectory) -> ClimateStats:
    """Convenience wrapper computing both climate measures."""
    lam, lyap_diag = largest_lyapunov(traj)
    nu, gp_diag = correlation_dimension(traj)
    return ClimateStats(lambda_max=lam, corr_dim=nu,
                        lyap_diag=lyap_diag, gp_diag=gp_diag)

