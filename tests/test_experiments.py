import math

import numpy as np
import pytest

from chaoscontrol import climate_stats, simulate
from chaoscontrol.errors import ConfigError
from chaoscontrol.experiments import (
    ExperimentConfig,
    SweepRow,
    SweepSpec,
    attractor_series,
    config_from_mapping,
    derive_seed_sequence,
    export_training_snapshot,
    load_config_file,
    prepare_trained_model,
    run_single,
    run_sweep,
    summarize_rows,
    write_trajectory_csv,
)


@pytest.fixture(scope="module")
def mini_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    spec = SweepSpec(training_lengths=(300,), n_realizations=2)
    cfg = ExperimentConfig(horizon=1200, master_seed=3)
    result = run_sweep(spec, cfg, out_dir=str(out), jobs=1, timestamp=False)
    return spec, cfg, out, result


def test_washout_rule_operating_points():
    cfg = ExperimentConfig()
    assert cfg.washout_for(5000) == 1000
    assert cfg.washout_for(500) == 100
    assert cfg.washout_for(250) == 50
    assert cfg.washout_for(100_000) == 1000
    assert ExperimentConfig(washout=7).washout_for(5000) == 7


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="perceptron")
    with pytest.raises(ConfigError):
        ExperimentConfig(training_steps=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(dt=0.0)
    with pytest.raises(ConfigError):
        SweepSpec(training_lengths=(500, 250))
    with pytest.raises(ConfigError):
        SweepSpec(kinds=("classic", "other"))
    with pytest.raises(ConfigError):
        SweepSpec(n_realizations=0)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "kind = ngrc\n"
        "training_steps = 500   # trailing comment\n"
        "washout = none\n"
        'rho_train = "166.15"\n'
        "ngrc_orders = 1,2,3\n"
        "sweep_lengths = 250 500\n"
        "sweep_realizations = 4\n"
        "sweep_kinds = ngrc\n"
    )
    cfg, spec = config_from_mapping(load_config_file(path))
    assert cfg.kind == "ngrc"
    assert cfg.training_steps == 500
    assert cfg.washout is None
    assert cfg.rho_train == 166.15
    assert cfg.ngrc_orders == (1, 2, 3)
    assert spec.training_lengths == (250, 500)
    assert spec.n_realizations == 4
    assert spec.kinds == ("ngrc",)


def test_unknown_and_malformed_keys_rejected(tmp_path):
    with pytest.raises(ConfigError):
        config_from_mapping({"typo_key": "1"})
    with pytest.raises(ConfigError):
        config_from_mapping({"training_steps": "many"})
    bad = tmp_path / "bad.cfg"
    bad.write_text("just a line without equals\n")
    with pytest.raises(ConfigError):
        load_config_file(bad)


def test_seed_scheme_separates_cells():
    draws = {
        (kind, n, r, stream): np.random.default_rng(
            derive_seed_sequence(0, kind, n, r, stream)
        ).integers(0, 2**63)
        for kind in ("classic", "ngrc")
        for n in (250, 500)
        for r in (0, 1)
        for stream in (0, 1)
    }
    assert len(set(draws.values())) == len(draws)
    again = np.random.default_rng(
        derive_seed_sequence(0, "classic", 250, 0, 0)
    ).integers(0, 2**63)
    assert again == draws[("classic", 250, 0, 0)]


def test_summary_matches_brute_force_recomputation():
    rows = [
        SweepRow("classic", 250, 0, 0.5, 1.2, "ok"),
        SweepRow("classic", 250, 1, 0.7, 1.4, "ok"),
        SweepRow("classic", 250, 2, float("nan"), float("nan"), "diverged"),
        SweepRow("ngrc", 250, 0, 0.6, 1.3, "ok"),
    ]
    summary = summarize_rows(rows)
    classic = next(r for r in summary if r.kind == "classic")
    assert classic.n_ok == 2
    assert classic.lambda_mean == pytest.approx(0.6)
    assert classic.lambda_std == pytest.approx(np.std([0.5, 0.7]))
    assert classic.nu_mean == pytest.approx(1.3)
    ngrc = next(r for r in summary if r.kind == "ngrc")
    assert ngrc.n_ok == 1
    assert ngrc.lambda_std == 0.0


def test_all_failed_cell_reports_nan():
    rows = [SweepRow("ngrc", 250, 0, float("nan"), float("nan"), "diverged")]
    summary = summarize_rows(rows)
    assert summary[0].n_ok == 0
    assert math.isnan(summary[0].lambda_mean)


def test_plant_reference_aggregate_climate():
    # fresh-start rho=167.2 references: the aggregate corr-dim must sit in
    # 1.690 +- 0.13 (two sigma) and the aggregate exponent inside the
    # regime band [0.70, 1.10]
    cfg = ExperimentConfig(master_seed=0)
    lams, nus = [], []
    for realization in range(6):
        stats = climate_stats(attractor_series(cfg, "ref_plant", 0, realization, 10_000))
        lams.append(stats.lambda_max)
        nus.append(stats.corr_dim)
    assert 1.56 <= np.mean(nus) <= 1.82
    assert 0.70 <= np.mean(lams) <= 1.10


def test_single_run_report_shapes():
    cfg = ExperimentConfig(kind="classic", training_steps=900, horizon=1100, master_seed=2)
    report = run_single(cfg)
    assert len(report.training) == 900
    assert len(report.reference) == 1101
    assert len(report.controlled) == 1101
    assert len(report.uncontrolled) == 1101
    assert len(report.prediction) == len(report.forces) == 1101
    # training is the exact prefix of the reference run
    assert np.array_equal(report.training.samples, report.reference.samples[:900])
    assert math.isfinite(report.controlled_climate.lambda_max)
    # recorded forces reconstruct from the stored series
    rebuilt = cfg.control_gain * (
        report.controlled.samples - report.prediction.samples
    )
    assert np.array_equal(report.forces.samples, rebuilt)


@pytest.mark.parametrize(
    "training_steps, horizon",
    [(900, 1100), (1500, 1200), (1201, 1200)],
    ids=["appended", "training-longer", "training-equal"],
)
def test_single_run_reference_is_one_simulation(training_steps, horizon):
    cfg = ExperimentConfig(
        kind="classic", training_steps=training_steps, horizon=horizon, master_seed=2
    )
    report = run_single(cfg)
    intervals = max(training_steps - 1, horizon)
    whole = simulate(
        report.training.samples[0], cfg.train_params(), cfg.integrator(), intervals
    )
    # built in two calls around control, bit-identical to one long run
    assert np.array_equal(report.reference.samples, whole.samples)
    assert report.reference.t0 == 0.0 and report.reference.dt == cfg.dt
    if training_steps - 1 >= horizon:
        # nothing is appended: the reference is the training series
        assert np.array_equal(report.reference.samples, report.training.samples)


def test_prepare_trained_model_matches_single_run():
    cfg = ExperimentConfig(kind="classic", training_steps=900, horizon=1100, master_seed=2)
    training, model = prepare_trained_model(cfg)
    report = run_single(cfg)
    assert np.array_equal(training.samples, report.training.samples)
    assert model.trained


def test_sweep_rows_sorted_and_failures_logged(mini_sweep):
    spec, cfg, out, result = mini_sweep
    keys = [(r.kind, r.n, r.seed) for r in result.rows]
    assert keys == sorted(keys)
    kinds = {r.kind for r in result.rows}
    assert kinds == {"classic", "ngrc", "ref_train", "ref_plant"}
    # short-data polynomial predictor realizations fail; they must be
    # logged with a non-ok status rather than dropped
    ngrc_rows = [r for r in result.rows if r.kind == "ngrc"]
    assert len(ngrc_rows) == spec.n_realizations
    assert all(r.status == "diverged" for r in ngrc_rows)
    assert result.summary_for("ngrc", 300).n_ok == 0
    assert math.isnan(result.summary_for("ngrc", 300).lambda_mean)
    assert result.summary_for("classic", 300).n_ok > 0


def test_sweep_csv_outputs(mini_sweep):
    spec, cfg, out, result = mini_sweep
    sweep_lines = (out / "sweep.csv").read_text().splitlines()
    assert sweep_lines[0] == "kind,N,seed,lambda_max,corr_dim,status"
    expected_rows = len(spec.kinds) * len(spec.training_lengths) * spec.n_realizations
    expected_rows += 2 * spec.n_realizations
    assert len(sweep_lines) == 1 + expected_rows
    summary_lines = (out / "summary.csv").read_text().splitlines()
    assert summary_lines[0] == "kind,N,lambda_mean,lambda_std,nu_mean,nu_std,n_ok"
    assert (out / "sweep_lambda.svg").exists()
    assert (out / "sweep_nu.svg").exists()


def test_sweep_reruns_byte_identical(tmp_path, mini_sweep):
    spec, cfg, out, _ = mini_sweep
    rerun = tmp_path / "rerun"
    run_sweep(spec, cfg, out_dir=str(rerun), jobs=1, timestamp=False)
    for name in ("sweep.csv", "summary.csv", "sweep_lambda.svg", "sweep_nu.svg"):
        assert (rerun / name).read_bytes() == (out / name).read_bytes()


def test_timestamp_header_toggle(tmp_path, train_run_short):
    with_stamp = tmp_path / "a.csv"
    without = tmp_path / "b.csv"
    write_trajectory_csv(with_stamp, train_run_short, timestamp=True)
    write_trajectory_csv(without, train_run_short, timestamp=False)
    assert with_stamp.read_text().startswith("# generated ")
    assert without.read_text().startswith("t,x,y,z")
    # identical apart from the header comment
    assert with_stamp.read_text().splitlines()[1:] == without.read_text().splitlines()


def test_snapshot_phases_and_time_axis(tmp_path):
    cfg = ExperimentConfig(kind="ngrc", training_steps=300)
    csv_path = export_training_snapshot(cfg, str(tmp_path), timestamp=False)
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "t,x,y,z,phase"
    phases = [line.rsplit(",", 1)[1] for line in lines[1:]]
    warmup = cfg.ngrc_config().warmup
    assert phases[:warmup] == ["warmup"] * warmup
    assert set(phases[warmup:]) == {"train"}

    # the time column must match a plain trajectory export of the same series
    training, _ = prepare_trained_model(cfg)
    ref_path = tmp_path / "ref.csv"
    write_trajectory_csv(ref_path, training, timestamp=False)
    snap_t = [line.split(",", 1)[0] for line in lines[1:]]
    ref_t = [line.split(",", 1)[0] for line in ref_path.read_text().splitlines()[1:]]
    assert snap_t == ref_t

    svg = (tmp_path / "training_snapshot.svg").read_text()
    assert "warmup end" in svg


def test_snapshot_classic_washout_boundary(tmp_path):
    cfg = ExperimentConfig(kind="classic", training_steps=500)
    csv_path = export_training_snapshot(cfg, str(tmp_path), timestamp=False)
    lines = open(csv_path).read().splitlines()[1:]
    assert len(lines) == 500
    phases = [line.rsplit(",", 1)[1] for line in lines]
    assert phases[99] == "washout" and phases[100] == "train"
