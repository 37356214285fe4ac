import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist

from chaoscontrol import (
    LorenzParams,
    Trajectory,
    climate_stats,
    correlation_dimension,
    largest_lyapunov,
    metrics,
    simulate,
)
from chaoscontrol.cli import main as cli_main
from chaoscontrol.errors import InsufficientDataError
from chaoscontrol.experiments import ExperimentConfig, attractor_series, write_trajectory_csv
from chaoscontrol.metrics import (
    _FIRST_QUERY_K,
    _GP_BLOCK,
    FOLLOW_STEPS,
    GP_N_R,
    THEILER_WINDOW,
    theiler_neighbours,
)

from conftest import LATTICE, PLANT_PARAMS, TRAIN_PARAMS, attractor_trajectory
from oracles import (
    benettin_lyapunov,
    mean_log_divergence,
    pair_counts,
    theiler_nearest_neighbours,
)


def _line_set(n=10_000, seed=0):
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 1.0, n)
    a = np.array([0.3, -1.0, 2.0])
    b = np.array([1.8, 0.5, -0.7])
    return Trajectory(0.05, a + t[:, None] * (b - a))


def _plane_set(n=10_000, seed=1):
    rng = np.random.default_rng(seed)
    uv = rng.uniform(0.0, 1.0, (n, 2))
    origin = np.array([0.0, 0.0, 1.0])
    e1 = np.array([1.0, 0.5, 0.0])
    e2 = np.array([-0.5, 1.0, 0.3])
    return Trajectory(0.05, origin + uv[:, :1] * e1 + uv[:, 1:] * e2)


@pytest.fixture(scope="module")
def lorenz_classic():
    return attractor_trajectory(LorenzParams(10.0, 28.0, 8.0 / 3.0), 10_000, seed=0)


def test_dimension_of_line():
    nu, diag = correlation_dimension(_line_set())
    assert nu == pytest.approx(1.0, abs=0.05)
    assert not diag.degenerate


def test_dimension_of_plane():
    nu, _ = correlation_dimension(_plane_set())
    assert nu == pytest.approx(2.0, abs=0.1)


def test_collapsed_cloud_flagged_degenerate():
    traj = Trajectory(0.05, np.tile([1.0, 2.0, 3.0], (500, 1)))
    nu, diag = correlation_dimension(traj)
    assert diag.degenerate


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "points, radii, n_pairs",
    [
        (np.tile([1.0, 2.0, 3.0], (500, 1)), 0, 0),
        (np.array([[0.0, 0.0, 0.0], [1e300, 1e300, 1e300]]), 0, 0),
        (np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), GP_N_R, 2),
        (np.array(LATTICE, dtype=float), GP_N_R, 343 * 342),
    ],
    ids=["zero-diameter", "inf-diameter", "pairs-beyond-largest-radius", "one-radius-lattice"],
)
def test_degenerate_gp_diagnostics(points, radii, n_pairs):
    # a cloud with no diameter to scale the radii by has no curve and no
    # pairs; one whose pairs all lie beyond the largest radius keeps its
    # radii, zero C(r) and n(n-1) pairs; on the unit lattice only the
    # largest radius reaches a neighbour; a curve of fewer than two
    # points is not fitted
    nu, diag = correlation_dimension(Trajectory(0.05, points))
    assert np.isnan(nu) and np.isnan(diag.slope) and np.isnan(diag.intercept)
    assert diag.r_squared == 0.0 and diag.n_pairs == n_pairs
    assert len(diag.r) == len(diag.c) == radii and np.count_nonzero(diag.c) < 2
    assert diag.degenerate and not diag.low_fit_quality


def test_collapsed_series_exponent_flagged_degenerate():
    # every neighbour distance is zero, so the divergence curve is all -inf
    traj = Trajectory(0.05, np.tile([1.0, 2.0, 3.0], (300, 1)))
    lam, diag = largest_lyapunov(traj)
    assert np.isnan(lam) and diag.degenerate
    # as for GP, a fit that was never made is degenerate, not of low quality
    assert not diag.low_fit_quality
    assert np.all(diag.mean_log_dist == -np.inf)
    stats = climate_stats(traj)
    assert np.isnan(stats.lambda_max) and np.isnan(stats.corr_dim)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_sample_is_nobodys_neighbour():
    # squared distances to a 1e300 sample overflow; the k-d tree then
    # answers with its "none found" index n, which is not a neighbour
    points = attractor_trajectory(PLANT_PARAMS, 299, seed=2).samples.copy()
    points[100] = 1e300
    nb, has_valid = theiler_neighbours(points, 50)
    assert not has_valid[100]
    assert np.all(nb[has_valid] < len(points))
    # every tracked offset passes the sample, so both fits are degenerate
    stats = climate_stats(Trajectory(0.05, points))
    assert stats.lyap_diag.degenerate and np.isnan(stats.lambda_max)
    assert stats.gp_diag.degenerate and np.isnan(stats.corr_dim)


def _spiral(n):
    t = 0.05 * np.arange(n)
    return np.column_stack(
        [np.exp(-0.3 * t) * np.cos(t), np.exp(-0.3 * t) * np.sin(t), np.exp(-0.3 * t)]
    )


def test_contracting_spiral_has_nonpositive_exponent():
    lam, _ = largest_lyapunov(Trajectory(0.05, _spiral(4000)))
    assert lam <= 0.0


def test_classic_lorenz_agrees_with_tangent_space_oracle(lorenz_classic):
    lam, diag = largest_lyapunov(lorenz_classic)
    oracle = benettin_lyapunov(
        LorenzParams(10.0, 28.0, 8.0 / 3.0), lorenz_classic.samples[0], n_steps=20_000
    )
    assert abs(lam - oracle) / oracle < 0.15
    assert diag.valid_fraction > 0.1


def test_plant_regime_exponent_value():
    # pinned realization of the rho=167.2 regime
    traj = attractor_trajectory(PLANT_PARAMS, 10_000, seed=4)
    lam, _ = largest_lyapunov(traj)
    assert lam == pytest.approx(0.845, abs=0.2)


@pytest.mark.parametrize(
    "kind, params", [("ref_train", TRAIN_PARAMS), ("ref_plant", PLANT_PARAMS)],
    ids=["X", "Y"],
)
def test_rosenstein_reads_low_in_the_paper_regimes(kind, params):
    # known limit, not a gate: in both regimes the default 10-60 step fit
    # window reads 0.55-0.71 of the tangent-space exponent (three series
    # each, 20k-interval oracle), against A7's 15% at rho = 28; the
    # climate bands are in Rosenstein units.  A 5k-interval oracle reads
    # 0.651 (X) and 0.606 (Y) on these series.
    traj = attractor_series(ExperimentConfig(), kind, 0, 10_000)
    lam, _ = largest_lyapunov(traj)
    oracle = benettin_lyapunov(params, traj.samples[0], n_steps=5_000, transient_steps=200)
    assert 0.55 <= lam / oracle <= 0.75


@pytest.mark.parametrize("kind, low", [("ref_train", True), ("ref_plant", False)])
def test_lyapunov_flags_low_fit_quality(kind, low):
    # diagnostic only: the X reference fits with R^2 0.889-0.892 at master
    # seeds 0-2 and the Y reference with 0.945-0.962; no status moves
    _, diag = largest_lyapunov(attractor_series(ExperimentConfig(), kind, 0, 10_000))
    assert diag.low_fit_quality is low
    assert (diag.r_squared < 0.9) is low


def test_isometry_invariance(lorenz_classic):
    # climate statistics describe geometry, not placement
    theta = 0.7
    rot = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    moved = Trajectory(0.05, lorenz_classic.samples @ rot.T + np.array([5.0, -3.0, 2.0]))
    nu_a, _ = correlation_dimension(lorenz_classic)
    nu_b, _ = correlation_dimension(moved)
    lam_a, _ = largest_lyapunov(lorenz_classic)
    lam_b, _ = largest_lyapunov(moved)
    assert abs(nu_a - nu_b) < 1e-6
    assert abs(lam_a - lam_b) < 1e-6


def test_scaling_covariance(lorenz_classic):
    scaled = Trajectory(0.05, 3.0 * lorenz_classic.samples)
    nu_a, _ = correlation_dimension(lorenz_classic)
    nu_b, _ = correlation_dimension(scaled)
    lam_a, _ = largest_lyapunov(lorenz_classic)
    lam_b, _ = largest_lyapunov(scaled)
    # thresholds are fractions of the extent, so both estimates carry over
    assert abs(nu_a - nu_b) < 1e-6
    assert abs(lam_a - lam_b) < 1e-6


def test_exponent_is_per_model_time(lorenz_classic):
    # same samples at doubled dt: per-step slope is unchanged, so the
    # reported rate must halve exactly
    stretched = Trajectory(0.10, lorenz_classic.samples)
    lam_a, _ = largest_lyapunov(lorenz_classic)
    lam_b, _ = largest_lyapunov(stretched)
    assert lam_b == pytest.approx(lam_a / 2.0, rel=1e-12)


def _pair_count_sets():
    rng = np.random.default_rng(7)
    random = rng.normal(size=(300, 3))
    # 60 distinct points, each repeated 1-4 times: zero-distance pairs
    base = rng.uniform(-1.0, 1.0, size=(60, 3))
    duplicates = np.repeat(base, rng.integers(1, 5, size=60), axis=0)
    lorenz = attractor_trajectory(PLANT_PARAMS, 399, seed=2).samples
    # several bisection levels deep
    lorenz_long = attractor_trajectory(PLANT_PARAMS, 2599, seed=5).samples
    # a 50 x 6 x 4 unit lattice, every node twice: each median cut falls
    # inside a run of tied coordinates and puts copies of some nodes on
    # both sides, and the distance shells 1 to sqrt 6 lie inside the
    # radius range
    axes = np.meshgrid(np.arange(50.0), np.arange(6.0), np.arange(4.0), indexing="ij")
    nodes = np.stack([a.ravel() for a in axes], axis=1)
    lattice = np.repeat(nodes, 2, axis=0)[rng.permutation(2 * len(nodes))]
    return {
        "random": random, "duplicates": duplicates, "lorenz": lorenz,
        "lorenz-long": lorenz_long, "lattice": lattice,
    }


@pytest.mark.parametrize("name", ["random", "duplicates", "lorenz", "lorenz-long", "lattice"])
def test_pair_counts_match_brute_force_oracle(name):
    points = _pair_count_sets()[name]
    n = len(points)
    if name in ("lorenz-long", "lattice"):
        assert n > 4 * _GP_BLOCK
    _, diag = correlation_dimension(Trajectory(0.05, points))
    assert diag.n_pairs == n * (n - 1)
    counts = np.rint(diag.c * diag.n_pairs).astype(np.int64)
    np.testing.assert_array_equal(counts, pair_counts(points, diag.r))
    assert counts[-1] > 0


def _kdtree_boundary_sets():
    rng = np.random.default_rng(11)
    # pairs at distances x whose pow(x, 2.0) rounds below or above x * x:
    # cKDTree squares a radius of exactly x with pow, so it drops the first
    # kind of pair and keeps the second
    x = rng.uniform(0.1, 100.0, 300_000).tolist()
    below = [v for v in x if math.pow(v, 2.0) < v * v][:4]
    above = [v for v in x if math.pow(v, 2.0) > v * v][:4]
    pow_radii = np.sort(below + above)
    pow_pairs = np.zeros((len(pow_radii) + 1, 3))
    pow_pairs[1:, 0] = pow_radii
    # 40 distinct points, each repeated 1-4 times: zero-distance pairs
    base = rng.uniform(-1.0, 1.0, size=(40, 3))
    duplicates = np.repeat(base, rng.integers(1, 5, size=40), axis=0)
    # radii at pair distances whose squares give back the pair's squared
    # distance exactly, the largest radius included
    random = rng.normal(size=(200, 3))
    d2 = np.unique(pdist(random, "sqeuclidean"))
    on_radius = [d for d, s in zip(np.sqrt(d2).tolist(), d2.tolist()) if d ** 2.0 == s]
    exact = np.sort(rng.choice(on_radius, GP_N_R, replace=False))
    return {
        "pow-boundary": (pow_pairs, pow_radii),
        "duplicates": (duplicates, np.geomspace(0.05, 1.0, GP_N_R)),
        "exact-distance-radii": (random, exact),
    }


@pytest.mark.parametrize("name", ["pow-boundary", "duplicates", "exact-distance-radii"])
def test_block_count_matches_kdtree_arithmetic(name):
    # a block's pairs come from squared distances, not from a tree: each
    # pair on a radius must fall in the bin cKDTree's arithmetic gives it
    points, radii = _kdtree_boundary_sets()[name]
    assert len(points) <= _GP_BLOCK
    tree = cKDTree(points)
    expected = tree.count_neighbors(tree, radii, cumulative=False)
    np.testing.assert_array_equal(metrics._binned_pair_counts(points, radii), expected)
    if name == "pow-boundary":
        # the sqrt-distance oracle keeps every pair on its radius, so it
        # cannot tell the two roundings apart
        assert (pair_counts(points, radii) != np.cumsum(expected) - len(points)).any()


@pytest.mark.parametrize(
    "series, deep",
    [
        # the spiral's nearest points are its own recent past: the first
        # valid rank reaches ~2W, so every row needs the full-depth query
        pytest.param(lambda: _spiral(1500), True, id="contracting-spiral"),
        pytest.param(
            lambda: attractor_trajectory(PLANT_PARAMS, 1499, seed=3).samples, False,
            id="lorenz",
        ),
    ],
)
def test_theiler_neighbours_match_brute_force_oracle(series, deep):
    points = series()
    neighbour, has_valid = theiler_neighbours(points, THEILER_WINDOW)
    expected, rank, expected_valid = theiler_nearest_neighbours(points, THEILER_WINDOW)
    assert (rank.max() >= _FIRST_QUERY_K) == deep
    np.testing.assert_array_equal(has_valid, expected_valid)
    np.testing.assert_array_equal(neighbour, expected)


# tracemalloc peak of the Theiler search on a 9,941-row contracting spiral,
# every row of which needs the full-depth query, in bytes a row: the search
# reads about 210; one full-depth index array of every row alone takes
# (2W + 2) * 8 = 816, and querying all rows at once reads about 3,300
THEILER_PEAK_PER_ROW = 400


def test_theiler_search_peak_memory_pinned():
    points = _spiral(9941)
    tracemalloc.start()
    try:
        _, has_valid = theiler_neighbours(points, THEILER_WINDOW)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert has_valid.all()
    # the lower bound shows that numpy's buffers are traced at all
    assert len(points) * _FIRST_QUERY_K * 8 <= peak <= THEILER_PEAK_PER_ROW * len(points)


def test_theiler_neighbours_tie_order_known_limit():
    # Known limit: on a series that repeats exactly, every row has many
    # valid partners at distance zero, and which one the search returns
    # follows cKDTree's tie order; here it differs from the oracle's
    # smallest index on most rows.  Only the distance is pinned: the index,
    # so the followed pairs and lambda of a collapsed series, may differ
    # from those of a single full-depth query.
    cycle = attractor_trajectory(PLANT_PARAMS, 6, seed=4).samples
    points = np.tile(cycle, (86, 1))[:600]
    neighbour, has_valid = theiler_neighbours(points, THEILER_WINDOW)
    expected, _, expected_valid = theiler_nearest_neighbours(points, THEILER_WINDOW)
    np.testing.assert_array_equal(has_valid, expected_valid)
    assert np.all(np.abs(neighbour - np.arange(len(points))) > THEILER_WINDOW)
    np.testing.assert_array_equal(
        np.linalg.norm(points - points[neighbour], axis=1),
        np.linalg.norm(points - points[expected], axis=1),
    )


def test_rows_without_valid_neighbour_lower_valid_fraction():
    # 80 trackable rows with a 50-step window: rows 29..50 have no partner
    traj = attractor_trajectory(PLANT_PARAMS, 139, seed=3)
    m = len(traj) - FOLLOW_STEPS
    _, _, expected_valid = theiler_nearest_neighbours(traj.samples[:m], THEILER_WINDOW)
    _, diag = largest_lyapunov(traj)
    assert diag.valid_fraction == expected_valid.sum() / m
    assert diag.valid_fraction == 58 / 80
    assert type(diag.valid_fraction) is float


def _with_repeated_stretch(n=400):
    # samples 300..359 repeat 100..159 exactly: those pairs sit at distance
    # zero for part of the tracked window and are left out of its means
    points = attractor_trajectory(PLANT_PARAMS, n - 1, seed=5).samples.copy()
    points[300:360] = points[100:160]
    return points


@pytest.mark.parametrize(
    "series, all_valid",
    [
        pytest.param(lambda: attractor_trajectory(PLANT_PARAMS, 139, seed=3).samples, False,
                     id="valid-fraction-below-1"),
        pytest.param(_with_repeated_stretch, True, id="zero-distance-pairs"),
    ],
)
def test_divergence_curve_matches_per_offset_loop(series, all_valid):
    points = series()
    m = len(points) - FOLLOW_STEPS
    nb, has_valid = theiler_neighbours(points[:m], THEILER_WINDOW)
    ref = np.flatnonzero(has_valid)
    _, diag = largest_lyapunov(Trajectory(0.05, points))
    assert (diag.valid_fraction == 1.0) == all_valid
    if all_valid:
        assert np.any(np.all(points[ref] == points[nb[ref]], axis=1))
    expected = mean_log_divergence(points, ref, nb[ref], FOLLOW_STEPS)
    assert np.array_equal(diag.mean_log_dist, expected)


def test_climate_stats_bundle(lorenz_classic):
    stats = climate_stats(lorenz_classic)
    assert stats.lambda_max > 0
    assert 1.5 < stats.corr_dim < 2.5
    assert not stats.lyap_diag.degenerate and not stats.gp_diag.degenerate
    assert stats.gp_diag.r_squared > 0.9


def test_diagnostics_csv_round_trip(tmp_path, lorenz_classic):
    stats = climate_stats(lorenz_classic)
    series = tmp_path / "series.csv"
    write_trajectory_csv(series, lorenz_classic)
    assert cli_main(["metrics", "--input", str(series), "--out", str(tmp_path)]) == 0
    gp_path = tmp_path / "gp_diagnostics.csv"
    ly_path = tmp_path / "lyapunov_diagnostics.csv"
    r, c = np.loadtxt(gp_path, delimiter=",", skiprows=1, unpack=True)
    np.testing.assert_array_equal(r, stats.gp_diag.r)
    np.testing.assert_array_equal(c, stats.gp_diag.c)
    steps, dists = np.loadtxt(ly_path, delimiter=",", skiprows=1, unpack=True)
    np.testing.assert_array_equal(steps, stats.lyap_diag.offsets)
    np.testing.assert_array_equal(dists, stats.lyap_diag.mean_log_dist)


@pytest.mark.parametrize("n", [5, 61, 62, 111])
def test_too_short_series_rejected(n):
    # the trackable points must hold a pair more than THEILER_WINDOW apart:
    # the first n of 112 samples are rejected, and all 112 estimate
    points = attractor_trajectory(TRAIN_PARAMS, 111, seed=0).samples
    assert len(points) == FOLLOW_STEPS + THEILER_WINDOW + 2 == 112
    with pytest.raises(InsufficientDataError, match=f"at least 112 samples, got {n}$"):
        largest_lyapunov(Trajectory(0.05, points[:n]))
    lam, diag = largest_lyapunov(Trajectory(0.05, points))
    assert np.isfinite(lam) and not diag.degenerate
