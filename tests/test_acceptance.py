"""Top-level acceptance gate.

One test per shipping criterion (A1-A9).  Each prints a single PASS/FAIL
line with the measured values (run ``pytest -v -s tests/test_acceptance.py``
to see them live) and then asserts the same condition, so a FAIL line is
always accompanied by a test failure.
"""

import time

import numpy as np

from chaoscontrol import (
    ControlConfig,
    EsnConfig,
    LorenzParams,
    NgrcConfig,
    Trajectory,
    climate_stats,
    correlation_dimension,
    largest_lyapunov,
    run_control,
)
from chaoscontrol import esn, ngrc
from chaoscontrol.cli import main as cli_main
from chaoscontrol.experiments import (
    ExperimentConfig,
    SweepSpec,
    attractor_series,
    run_sweep,
)
from chaoscontrol.ngrc import build_library, poly_features

from conftest import (
    X_LAMBDA,
    X_NU,
    Y_LAMBDA,
    Y_NU,
    a2_outcome,
    attractor_trajectory,
    in_x_band,
    summary_for,
)
from oracles import (
    benettin_lyapunov,
    enumerate_monomials,
    ridge_normal_equations,
    rk4_step,
    shift_expand,
)


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"\n{tag} {'PASS' if ok else 'FAIL'}  [{detail}]")
    assert ok, f"{tag}: {detail}"


def _in_band(value: float, band) -> bool:
    return band[0] <= value <= band[1]


def test_a1_regime_climates():
    cfg = ExperimentConfig(master_seed=0)
    t0 = time.monotonic()
    x = climate_stats(attractor_series(cfg, "ref_train", 0, 0, 10_000))
    y = climate_stats(attractor_series(cfg, "ref_plant", 0, 0, 10_000))
    elapsed = time.monotonic() - t0
    ok = (
        _in_band(x.lambda_max, X_LAMBDA)
        and _in_band(x.corr_dim, X_NU)
        and _in_band(y.lambda_max, Y_LAMBDA)
        and _in_band(y.corr_dim, Y_NU)
        and elapsed < 10.0
    )
    _report(
        "A1",
        ok,
        f"X: lam={x.lambda_max:.3f} nu={x.corr_dim:.3f}; "
        f"Y: lam={y.lambda_max:.3f} nu={y.corr_dim:.3f}; {elapsed:.1f}s",
    )


def test_a2_classic_control_at_n5000(tmp_path):
    t0 = time.monotonic()
    spec = SweepSpec(training_lengths=(5000,), n_realizations=20, kinds=("classic",))
    result = run_sweep(
        spec, ExperimentConfig(master_seed=0), out_dir=str(tmp_path),
        jobs=1, timestamp=False,
    )
    elapsed = time.monotonic() - t0
    n_in_band, med_dev = a2_outcome(result.rows)
    ok = n_in_band >= 16 and med_dev < 0.2 and elapsed < 300.0
    _report(
        "A2",
        ok,
        f"in-band {n_in_band}/20; median lambda deviation {med_dev:.3f}; "
        f"{elapsed:.0f}s",
    )


def test_a3_ngrc_control_at_n500(tmp_path):
    t0 = time.monotonic()
    spec = SweepSpec(training_lengths=(500,), n_realizations=20, kinds=("ngrc",))
    result = run_sweep(
        spec, ExperimentConfig(master_seed=0), out_dir=str(tmp_path),
        jobs=1, timestamp=False,
    )
    elapsed = time.monotonic() - t0
    rows = [r for r in result.rows if r.kind == "ngrc"]
    n_in_band = sum(map(in_x_band, rows))
    statuses = sorted({r.status for r in rows})
    ok = n_in_band >= 16 and elapsed < 120.0
    _report(
        "A3",
        ok,
        f"in-band {n_in_band}/20 (statuses: {','.join(statuses)}); {elapsed:.0f}s",
    )


def test_a4_data_efficiency_crossover(tmp_path):
    t0 = time.monotonic()
    lengths = (250, 500, 1000, 2000, 5000)
    spec = SweepSpec(training_lengths=lengths, n_realizations=20)
    result = run_sweep(
        spec, ExperimentConfig(master_seed=0), out_dir=str(tmp_path),
        jobs=1, timestamp=False,
    )
    elapsed = time.monotonic() - t0
    ref_rows = [r for r in result.rows if r.kind == "ref_train" and r.status == "ok"]
    ref_lam = float(np.mean([r.lambda_max for r in ref_rows]))
    ref_nu = float(np.mean([r.corr_dim for r in ref_rows]))

    closer = {}
    for n in (250, 500, 1000):
        sc = summary_for(result, "classic", n)
        sg = summary_for(result, "ngrc", n)
        closer[n] = bool(
            abs(sg.lambda_mean - ref_lam) < abs(sc.lambda_mean - ref_lam)
            and abs(sg.nu_mean - ref_nu) < abs(sc.nu_mean - ref_nu)
        )
    lam_gap = abs(
        summary_for(result, "classic", 5000).lambda_mean
        - summary_for(result, "ngrc", 5000).lambda_mean
    )
    ok = all(closer.values()) and lam_gap < 0.15 and elapsed < 1800.0
    _report(
        "A4",
        ok,
        f"small-N crossover {closer}; |lambda gap| at N=5000 = {lam_gap:.3f}; "
        f"{elapsed:.0f}s",
    )


def test_a5_ridge_oracle_both_trainers():
    betas = (1e-12, 1e-8, 1e-4, 1.0)
    rng = np.random.default_rng(8)
    drive = Trajectory(0.05, rng.uniform(-1, 1, size=(40, 3)))

    # recurrent-network trainer: 5 nodes -> 10 regression features
    esn_err, esn_norms = 0.0, []
    for beta in betas:
        cfg = EsnConfig(
            reservoir_dim=5, edge_prob=0.6, input_scale=0.3,
            spectral_radius=0.4, ridge_beta=beta, washout=3, seed=8,
        )
        a, w_in = esn.build_reservoir(cfg, 3)
        r = np.zeros(cfg.reservoir_dim)
        rows, targets = [], []
        for t in range(len(drive) - 1):
            r = np.tanh(a @ r + w_in @ drive.samples[t])
            if t >= cfg.washout:
                rows.append(np.concatenate([r, r * r]))
                targets.append(drive.samples[t + 1])
        want = ridge_normal_equations(np.array(rows), np.array(targets), beta)
        got = esn.train(drive, cfg).P
        esn_err = max(esn_err, float(np.max(np.abs(got - want))))
        esn_norms.append(float(np.linalg.norm(got)))

    # polynomial trainer: 3 vars, orders {1,2} -> 9 features
    ngrc_err, ngrc_norms = 0.0, []
    for beta in betas:
        cfg = NgrcConfig(k=1, s=1, orders=(1, 2), ridge_beta=beta)
        lib = build_library(3, cfg.orders)
        rows, targets = [], []
        for t in range(cfg.k * cfg.s, len(drive) - 1):
            rows.append(poly_features(shift_expand(drive, t, cfg.k, cfg.s), lib))
            targets.append(drive.samples[t + 1] - drive.samples[t])
        want = ridge_normal_equations(np.array(rows), np.array(targets), beta)
        model = ngrc.train(drive, cfg)
        ngrc_err = max(ngrc_err, float(np.max(np.abs(model.W_out - want))))
        ngrc_norms.append(float(np.linalg.norm(model.W_out)))

    monotone = all(b <= a + 1e-12 for a, b in zip(esn_norms, esn_norms[1:])) and all(
        b <= a + 1e-12 for a, b in zip(ngrc_norms, ngrc_norms[1:])
    )
    ok = esn_err <= 1e-10 and ngrc_err <= 1e-10 and monotone
    _report(
        "A5",
        ok,
        f"max |trainer - oracle|: recurrent {esn_err:.2e}, polynomial "
        f"{ngrc_err:.2e}; shrinkage monotone: {monotone}",
    )


def test_a6_library_combinatorics():
    mismatches = []
    order_pool = (1, 2, 3, 4)
    order_sets = [
        tuple(o for i, o in enumerate(order_pool) if mask & (1 << i))
        for mask in range(1, 1 << len(order_pool))
    ]
    for n_vars in range(1, 7):
        for orders in order_sets:
            lib = build_library(n_vars, orders)
            want = enumerate_monomials(n_vars, orders)
            if set(lib.monomials) != want or len(lib.monomials) != len(want):
                mismatches.append((n_vars, orders))
    five = build_library(2, (1, 2)).monomials
    exact = five == ((0,), (1,), (0, 0), (1, 1), (0, 1))
    ok = not mismatches and exact
    _report(
        "A6",
        ok,
        f"{6 * len(order_sets)} enumeration cases, mismatches={mismatches}; "
        f"2-var quadratic vector exact: {exact}",
    )


def test_a7_metric_sanity():
    rng = np.random.default_rng(0)
    t = rng.uniform(0.0, 1.0, 10_000)
    line = Trajectory(0.05, np.array([0.3, -1.0, 2.0]) + t[:, None] * np.array([1.5, 1.5, -2.7]))
    nu_line, _ = correlation_dimension(line)

    uv = rng.uniform(0.0, 1.0, (10_000, 2))
    plane = Trajectory(
        0.05,
        uv[:, :1] * np.array([1.0, 0.5, 0.0]) + uv[:, 1:] * np.array([-0.5, 1.0, 0.3]),
    )
    nu_plane, _ = correlation_dimension(plane)

    ts = 0.05 * np.arange(4000)
    spiral = np.column_stack(
        [np.exp(-0.3 * ts) * np.cos(ts), np.exp(-0.3 * ts) * np.sin(ts), np.exp(-0.3 * ts)]
    )
    lam_spiral, _ = largest_lyapunov(Trajectory(0.05, spiral))

    params = LorenzParams(10.0, 28.0, 8.0 / 3.0)
    traj = attractor_trajectory(params, 10_000, seed=0)
    lam_est, _ = largest_lyapunov(traj)
    lam_oracle = benettin_lyapunov(params, traj.samples[0], n_steps=20_000)
    rel = abs(lam_est - lam_oracle) / abs(lam_oracle)

    ok = (
        abs(nu_line - 1.0) <= 0.05
        and abs(nu_plane - 2.0) <= 0.1
        and lam_spiral <= 0.0
        and rel <= 0.15
    )
    _report(
        "A7",
        ok,
        f"nu(line)={nu_line:.3f} nu(plane)={nu_plane:.3f} "
        f"lam(spiral)={lam_spiral:.3f}; lam vs tangent oracle rel err {rel:.1%}",
    )


def test_a8_integrator_order_and_zero_gain():
    # harmonic oscillator: exact solution (cos t, -sin t)
    def f(u):
        return np.array([u[1], -u[0]])

    errors, dts = [], (0.2, 0.1, 0.05, 0.025)
    for dt in dts:
        u = np.array([1.0, 0.0])
        n = round(2.0 / dt)
        for _ in range(n):
            u = rk4_step(f, u, dt)
        exact = np.array([np.cos(2.0), -np.sin(2.0)])
        errors.append(float(np.linalg.norm(u - exact)))
    order = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])

    cfg = ExperimentConfig(master_seed=0)
    plain = attractor_series(cfg, "ref_plant", 0, 0, 400)
    u0 = plain.samples[0]

    class _FrozenStepper:
        floats = u0.tolist()

        def step(self):
            return u0

    run = run_control(
        _FrozenStepper(),
        u0,
        ControlConfig(plant_params=cfg.plant_params(), K=0.0, n_steps=400),
        cfg.integrator(),
    )
    identical = bool(
        np.array_equal(run.controlled.samples, plain.samples)
        and not np.any(run.forces.samples)
    )
    ok = abs(order - 4.0) <= 0.2 and identical
    _report(
        "A8",
        ok,
        f"empirical order {order:.3f}; K=0 run bit-identical: {identical}",
    )


def test_a9_seeded_sweep_reproducibility(tmp_path):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(
        "horizon = 2000\n"
        "master_seed = 7\n"
        "sweep_lengths = 300\n"
        "sweep_realizations = 1\n"
        "sweep_kinds = classic\n"
    )
    outs = (tmp_path / "first", tmp_path / "second")
    for out in outs:
        code = cli_main(
            ["sweep", "--config", str(cfg_file), "--no-timestamp",
             "--out", str(out)]
        )
        assert code == 0
    a = (outs[0] / "sweep.csv").read_bytes()
    b = (outs[1] / "sweep.csv").read_bytes()
    ok = a == b
    _report("A9", ok, f"sweep.csv identical across reruns: {ok} ({len(a)} bytes)")
