import math
import sys
import threading
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from chaoscontrol import (
    ControlConfig,
    EsnConfig,
    IntegratorConfig,
    LorenzParams,
    NgrcConfig,
    Trajectory,
    climate_stats,
    experiments,
    simulate,
)
from chaoscontrol.errors import ChaosControlError, ConfigError, IntegrationError
from chaoscontrol.experiments import (
    CSV_BLOCK,
    MAX_STEPS,
    PREDICTOR_KINDS,
    REFERENCE_KINDS,
    ExperimentConfig,
    SweepRow,
    SweepSpec,
    attractor_series,
    config_from_mapping,
    derive_seed_sequence,
    export_training_snapshot,
    load_config_file,
    prepare_trained_model,
    read_trajectory_csv,
    run_single,
    run_sweep,
    summarize_rows,
    write_trajectory_csv,
)
from chaoscontrol.modelio import field_parsers, parse_key_values

from conftest import summary_for
from oracles import timed_csv_bytes


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
        ExperimentConfig(horizon=MAX_STEPS + 1)
    ExperimentConfig(training_steps=MAX_STEPS, horizon=MAX_STEPS)
    with pytest.raises(ConfigError):
        SweepSpec(training_lengths=(500, 250))
    # each length is one cell's training_steps, with the same range
    for lengths in ((1,), (MAX_STEPS + 1,)):
        with pytest.raises(ConfigError, match=r"training_lengths must lie in \[2, "):
            SweepSpec(training_lengths=lengths)
    SweepSpec(training_lengths=(2, MAX_STEPS))
    with pytest.raises(ConfigError):
        SweepSpec(kinds=("classic", "other"))
    # a repeated length or kind would run each of its cells twice
    with pytest.raises(ConfigError, match="strictly ascending"):
        SweepSpec(training_lengths=(400, 400))
    with pytest.raises(ConfigError, match="must not repeat"):
        SweepSpec(kinds=("classic", "classic"))
    with pytest.raises(ConfigError):
        SweepSpec(n_realizations=0)


def test_sweep_spec_bounds_its_cell_count():
    # (2 kinds x 3 lengths + 2 reference kinds) cells per realization
    lengths = (250, 500, 1000)
    per_realization = 2 * len(lengths) + 2
    allowed = experiments.MAX_SWEEP_CELLS // per_realization
    SweepSpec(training_lengths=lengths, n_realizations=allowed)
    cells = per_realization * (allowed + 1)
    assert cells > experiments.MAX_SWEEP_CELLS
    with pytest.raises(ConfigError, match=f"the sweep grid has {cells} cells"):
        SweepSpec(training_lengths=lengths, n_realizations=allowed + 1)
    SweepSpec()  # the default grid: 1,800 predictor and 200 reference cells


# (ExperimentConfig field, component class, its field, the component built
# from an ExperimentConfig): every predictor setting but the per-cell washout
# and seed, by the esn_<f> / ngrc_<f> rule, then the other component settings
COMPONENT_SETTINGS = [
    *((f"esn_{f.name}", EsnConfig, f.name, lambda c: c.esn_config(seed=0, n=5000))
      for f in fields(EsnConfig) if f.name not in ("washout", "seed")),
    *((f"ngrc_{f.name}", NgrcConfig, f.name, ExperimentConfig.ngrc_config)
      for f in fields(NgrcConfig)),
    ("dt", IntegratorConfig, "dt", ExperimentConfig.integrator),
    ("substeps", IntegratorConfig, "substeps", ExperimentConfig.integrator),
    ("sigma", LorenzParams, "sigma", ExperimentConfig.train_params),
    ("lorenz_beta", LorenzParams, "beta", ExperimentConfig.plant_params),
    ("control_gain", ControlConfig, "K", ExperimentConfig.control_config),
    ("horizon", ControlConfig, "n_steps", ExperimentConfig.control_config),
]


@pytest.mark.parametrize(
    "key, cls, name, build", COMPONENT_SETTINGS, ids=[s[0] for s in COMPONENT_SETTINGS]
)
def test_component_setting_defaults_to_and_reaches_its_class(key, cls, name, build):
    default = getattr(cls, name)
    assert getattr(ExperimentConfig(), key) == default
    value = default[:2] if name == "orders" else default * 2
    assert getattr(build(ExperimentConfig(**{key: value})), name) == value


def test_default_predictor_configs_are_the_class_defaults():
    cfg = ExperimentConfig()
    assert cfg.esn_config(seed=3, n=5000) == EsnConfig(washout=1000, seed=3)
    assert cfg.ngrc_config() == NgrcConfig()


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"esn_edge_prob": 2.0}, "esn_reservoir_dim / esn_edge_prob / esn_input_scale"
         " / esn_spectral_radius / esn_ridge_beta: edge_prob must lie in [0, 1]"),
        ({"ngrc_k": 0}, "ngrc_k / ngrc_s / ngrc_orders / ngrc_ridge_beta: k must be >= 1"),
    ],
)
def test_bad_predictor_setting_names_every_key_in_field_order(setting, message):
    with pytest.raises(ConfigError) as info:
        ExperimentConfig(**setting)
    assert str(info.value) == message


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


def test_readme_config_block_lists_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Config files", 1)[1]
    block = section.split("```\n", 2)[1]
    mapping = parse_key_values(block.splitlines(), "README.md")
    assert set(mapping) == set(field_parsers(ExperimentConfig)) | set(experiments._SWEEP_KEYS)
    assert config_from_mapping(mapping) == config_from_mapping({})


def test_committed_configs_load():
    # a config under configs/ that names a key the package no longer has
    # would fail only when someone runs it
    paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
    assert {"rho28_crossover.cfg", "rho28_crossover_ngrc_s1.cfg"} <= {p.name for p in paths}
    for path in paths:
        config_from_mapping(load_config_file(path))


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
        for kind in ("classic", "ref_train", "ref_plant")
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
        stats = climate_stats(attractor_series(cfg, "ref_plant", realization, 10_000))
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
    assert report.reference.dt == cfg.dt
    if training_steps - 1 >= horizon:
        # nothing is appended: the reference is the training series
        assert np.array_equal(report.reference.samples, report.training.samples)


@pytest.fixture
def empty_memo(monkeypatch):
    """A fresh series memo for one test; ``cold`` integrates without it."""
    monkeypatch.setattr(experiments, "_SERIES", {})

    def cold(cfg, kind, realization, n_steps):
        saved = dict(experiments._SERIES)
        experiments._SERIES.clear()
        try:
            return attractor_series(cfg, kind, realization, n_steps)
        finally:
            experiments._SERIES.clear()
            experiments._SERIES.update(saved)

    return cold


def test_warm_series_equal_cold_and_one_integration(empty_memo):
    # both predictor kinds and ref_train share one series per realization:
    # every request, served from the memo or not, is a prefix of one
    # integration from the ref_train trajectory stream
    cfg = ExperimentConfig(master_seed=5, transient_steps=100)
    rng = np.random.default_rng(derive_seed_sequence(5, "ref_train", 0, 1, 0))
    u0 = experiments.relax_to_attractor(
        experiments.random_initial_state(rng), cfg.train_params(), cfg.integrator(), 100
    )
    whole = simulate(u0, cfg.train_params(), cfg.integrator(), 1500).samples
    requests = [("ngrc", 249), ("classic", 999), ("ref_train", 600), ("ngrc", 1500),
                ("classic", 1), ("ref_train", 1200)]
    for kind, steps in requests:
        warm = attractor_series(cfg, kind, 1, steps)
        assert warm.samples.tobytes() == empty_memo(cfg, kind, 1, steps).samples.tobytes()
        assert warm.samples.tobytes() == whole[: steps + 1].tobytes()
    # a request that differs in any other part of the key integrates afresh
    for other in (replace(cfg, master_seed=6), replace(cfg, transient_steps=101),
                  replace(cfg, rho_train=166.2), replace(cfg, substeps=6)):
        attractor_series(cfg, "classic", 1, 200)
        got = attractor_series(other, "classic", 1, 100)
        assert got.samples.tobytes() == empty_memo(other, "classic", 1, 100).samples.tobytes()
    # the plant regime keeps its own stream
    plant = attractor_series(cfg, "ref_plant", 1, 300)
    assert not np.array_equal(plant.samples, whole[:301])
    assert plant.samples.tobytes() == empty_memo(cfg, "ref_plant", 1, 300).samples.tobytes()


def test_single_run_reference_is_the_realizations_ref_train_series(empty_memo):
    cfg = ExperimentConfig(kind="classic", training_steps=900, horizon=1100, master_seed=2)
    report = run_single(cfg, realization=1)
    reference = empty_memo(cfg, "ref_train", 1, 1100)
    assert report.reference.samples.tobytes() == reference.samples.tobytes()


def test_returned_series_are_copies(empty_memo):
    cfg = ExperimentConfig(transient_steps=50)
    first = attractor_series(cfg, "ref_train", 0, 400)
    first.samples[:] = 0.0
    shorter = attractor_series(cfg, "classic", 0, 300)
    shorter.samples[:] = 0.0
    again = attractor_series(cfg, "ngrc", 0, 500)
    assert again.samples.tobytes() == empty_memo(cfg, "ngrc", 0, 500).samples.tobytes()


def test_memo_holds_one_series_per_regime(empty_memo, monkeypatch):
    cfg = ExperimentConfig(transient_steps=50)
    attractor_series(cfg, "ref_train", 0, 300)
    attractor_series(cfg, "ref_plant", 0, 300)
    attractor_series(cfg, "classic", 1, 200)
    attractor_series(replace(cfg, master_seed=1), "ref_plant", 0, 100)
    held = {regime: (key[:2], len(samples))
            for regime, (key, samples) in experiments._SERIES.items()}
    assert held == {"ref_train": ((0, 1), 201), "ref_plant": ((1, 0), 101)}
    # past the cap only a prefix is kept, and a later request continues it
    monkeypatch.setattr(experiments, "MEMO_MAX_SAMPLES", 50)
    long = attractor_series(cfg, "ngrc", 2, 200)
    assert len(experiments._SERIES["ref_train"][1]) == 50
    assert attractor_series(cfg, "ngrc", 2, 120).samples.tobytes() == long.samples[:121].tobytes()


def test_memo_hit_keeps_simulate_refusal_and_extension_counts_steps(empty_memo):
    cfg = ExperimentConfig(transient_steps=50)
    attractor_series(cfg, "ref_train", 0, 100)
    with pytest.raises(ValueError, match="n_steps"):
        attractor_series(cfg, "ref_train", 0, 0)
    # at dt = 0.2 and one substep RK4 leaves the attractor at step 4
    blowup = ExperimentConfig(dt=0.2, substeps=1, transient_steps=0)
    attractor_series(blowup, "ref_train", 0, 2)
    with pytest.raises(IntegrationError) as warm:
        attractor_series(blowup, "ref_train", 0, 200)
    with pytest.raises(IntegrationError) as cold:
        empty_memo(blowup, "ref_train", 0, 200)
    assert warm.value.step == cold.value.step == 4


@pytest.mark.parametrize("kind", ["ref_plnt", "ref", "esn", "", "NGRC"])
def test_unknown_series_label_refused_before_any_work(empty_memo, monkeypatch, kind):
    # a misspelt label used to fall through to the training regime
    cfg = ExperimentConfig(transient_steps=50)
    attractor_series(cfg, "ref_plant", 0, 100)
    held = dict(experiments._SERIES)

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated before the label was checked")

    monkeypatch.setattr(experiments, "simulate", no_integration)
    monkeypatch.setattr(experiments, "relax_to_attractor", no_integration)
    with pytest.raises(ValueError) as info:
        attractor_series(cfg, kind, 0, 100)
    for label in PREDICTOR_KINDS + REFERENCE_KINDS:
        assert repr(label) in str(info.value)
    assert experiments._SERIES == held


def test_racing_threads_get_the_cold_series(empty_memo):
    # the memo has no lock: threads that race on it may repeat work, but
    # every series they get equals the one integrated without the memo
    cfg = ExperimentConfig(transient_steps=20)
    requests = [(kind, r, steps) for kind in ("ref_train", "ngrc", "ref_plant")
                for r in (0, 1) for steps in (40, 150, 300)]
    want = {req: empty_memo(cfg, *req).samples.tobytes() for req in requests}
    order = np.random.default_rng(0).permutation(len(requests) * 8) % len(requests)
    mismatches = []

    def worker(offset):
        for i in order[offset::4]:
            got = attractor_series(cfg, *requests[i])
            if got.samples.tobytes() != want[requests[i]]:
                mismatches.append(requests[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


class _Forgetful(dict):
    """A memo that retains nothing: every request integrates from scratch."""

    def __setitem__(self, key, value):
        pass


def test_mixed_grid_bytes_do_not_depend_on_jobs_or_memo(monkeypatch, tmp_path):
    # lengths below and above the horizon, so cells both cut and continue
    # the realization's ref_train series
    spec = SweepSpec(training_lengths=(150, 400), n_realizations=2)
    cfg = ExperimentConfig(horizon=300, transient_steps=100, master_seed=4)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    outs = {}
    for name, jobs, memo in (("serial", 1, {}), ("pooled", 2, {}), ("cold", 1, _Forgetful())):
        monkeypatch.setattr(experiments, "_SERIES", memo)
        outs[name] = tmp_path / name
        run_sweep(spec, cfg, out_dir=str(outs[name]), jobs=jobs, timestamp=False)
    for name in ("sweep.csv", "summary.csv", "sweep_lambda.svg", "sweep_nu.svg"):
        serial = (outs["serial"] / name).read_bytes()
        assert (outs["pooled"] / name).read_bytes() == serial, name
        assert (outs["cold"] / name).read_bytes() == serial, name


def test_prepare_trained_model_matches_single_run():
    cfg = ExperimentConfig(kind="classic", training_steps=900, horizon=1100, master_seed=2)
    training, model = prepare_trained_model(cfg)
    report = run_single(cfg)
    assert np.array_equal(training.samples, report.training.samples)
    # same model: its first step is the run's first predicted sample
    assert model.stepper().step() == report.prediction.samples[0].tolist()


def test_sweep_cell_matches_single_run(mini_sweep):
    # a sweep cell and run_single fit and control through one helper, so a
    # cell's climate is the run's controlled climate bit for bit
    _, cfg, _, result = mini_sweep
    row = next(r for r in result.rows if (r.kind, r.n, r.seed) == ("classic", 300, 1))
    report = run_single(replace(cfg, kind="classic", training_steps=300), realization=1)
    assert row.status == "ok"
    got = np.array([row.lambda_max, row.corr_dim])
    want = np.array([report.controlled_climate.lambda_max, report.controlled_climate.corr_dim])
    assert got.tobytes() == want.tobytes()


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
    assert summary_for(result, "ngrc", 300).n_ok == 0
    assert math.isnan(summary_for(result, "ngrc", 300).lambda_mean)
    assert summary_for(result, "classic", 300).n_ok > 0


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


def test_sweep_process_pool_matches_serial(monkeypatch, tmp_path, mini_sweep):
    # a real two-worker pool on the fixture's grid: the cells are seeded by
    # their coordinates, so the outputs cannot depend on which worker ran them
    spec, cfg, out, _ = mini_sweep
    pools = []
    real_pool = experiments.ProcessPoolExecutor

    def recording_pool(max_workers):
        pools.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", recording_pool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    pooled = tmp_path / "pooled"
    run_sweep(spec, cfg, out_dir=str(pooled), jobs=2, timestamp=False)
    assert pools == [2]
    for name in ("sweep.csv", "summary.csv", "sweep_lambda.svg", "sweep_nu.svg"):
        assert (pooled / name).read_bytes() == (out / name).read_bytes()


def test_unnamed_package_error_records_a_failed_row(monkeypatch):
    # a package error of a type no package code names ends its cell as a
    # failed row rather than escaping run_sweep, and the sweep goes on
    class UnnamedError(ChaosControlError):
        pass

    real_stats = experiments.climate_stats
    calls = []

    def stats_failing_first(series):
        calls.append(series)
        if len(calls) == 1:
            raise UnnamedError("first cell's climate")
        return real_stats(series)

    monkeypatch.setattr(experiments, "climate_stats", stats_failing_first)
    spec = SweepSpec(training_lengths=(300,), n_realizations=1, kinds=("classic",))
    result = run_sweep(spec, ExperimentConfig(horizon=1200), jobs=1)
    # the grid runs a realization's ref_train cell first
    assert [(r.kind, r.status) for r in result.rows] == [
        ("classic", "ok"), ("ref_plant", "ok"), ("ref_train", "failed")
    ]
    assert math.isnan(result.rows[2].lambda_max)
    assert summary_for(result, "ref_train", 0).n_ok == 0


@pytest.mark.parametrize(
    "jobs, cpus, workers",
    [(5000, 8, 3), (5000, 2, 2), (2, 8, 2), (2, 1, None)],
    ids=["grid-bound", "core-bound", "jobs-bound", "single-core"],
)
def test_sweep_workers_capped(monkeypatch, jobs, cpus, workers):
    # stand-ins for the process pool and the cells: nothing is forked and
    # nothing is simulated, only the requested pool size is recorded
    requested = []

    class InlinePool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    def fake_cell(args):
        _, kind, n, realization = args
        return SweepRow(kind, n, realization, 1.0, 1.0, "ok")

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(experiments, "_run_cell", fake_cell)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    # one classic cell and one cell per reference kind
    spec = SweepSpec(training_lengths=(300,), n_realizations=1, kinds=("classic",))
    result = run_sweep(spec, ExperimentConfig(), jobs=jobs)
    assert requested == ([] if workers is None else [workers])
    assert len(result.rows) == 3


def test_timestamp_header_toggle(tmp_path, train_run_short):
    with_stamp = tmp_path / "a.csv"
    without = tmp_path / "b.csv"
    write_trajectory_csv(with_stamp, train_run_short, timestamp=True)
    write_trajectory_csv(without, train_run_short, timestamp=False)
    assert with_stamp.read_text().startswith("# generated ")
    assert without.read_text().startswith("t,x,y,z")
    # identical apart from the header comment
    assert with_stamp.read_text().splitlines()[1:] == without.read_text().splitlines()


# finite floats whose repr is easy to get wrong: signed zero, the smallest
# subnormal and normal, the largest magnitudes, and inexact sums and ratios
EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1 + 0.2, 1 / 3, 2.0]


def _edge_trajectory(rows: int) -> Trajectory:
    rng = np.random.default_rng(rows)
    samples = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-300, 300, (rows, 3))
    flat = samples.reshape(-1)
    flat[: len(EDGE_FLOATS)] = EDGE_FLOATS[: flat.size]
    return Trajectory(1 / 3, samples)


def _stripped_stamp(data: bytes, timestamp: bool) -> bytes:
    if not timestamp:
        return data
    stamp, rest = data.split(b"\n", 1)
    assert stamp.startswith(b"# generated ") and not stamp.endswith(b"\r")
    return rest


@pytest.mark.parametrize("timestamp", [False, True], ids=["no-stamp", "stamp"])
@pytest.mark.parametrize("rows", [0, 1, 2, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1])
def test_trajectory_csv_matches_csv_writer_oracle(tmp_path, rows, timestamp):
    traj = _edge_trajectory(rows)
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, traj, timestamp=timestamp)
    got = _stripped_stamp(path.read_bytes(), timestamp)
    assert got == timed_csv_bytes(traj, ["t", "x", "y", "z"])
    if rows < 2:
        with pytest.raises(ConfigError, match="need at least two samples"):
            read_trajectory_csv(path)
    else:
        # read back bitwise: bytes, not ==, so that -0.0 must stay -0.0
        back = read_trajectory_csv(path)
        assert back.samples.tobytes() == traj.samples.tobytes() and back.dt == traj.dt


@pytest.mark.parametrize("timestamp", [False, True], ids=["no-stamp", "stamp"])
def test_snapshot_csv_matches_csv_writer_oracle(tmp_path, timestamp):
    # the washout ends inside the first block and the rows span two blocks
    cfg = ExperimentConfig(kind="classic", training_steps=5000)
    csv_path = export_training_snapshot(cfg, str(tmp_path), timestamp=timestamp)
    training, washout = attractor_series(cfg, "classic", 0, 4999), cfg.washout_for(5000)
    phases = ["washout"] * washout + ["train"] * (5000 - washout)
    got = _stripped_stamp(open(csv_path, "rb").read(), timestamp)
    assert got == timed_csv_bytes(training, ["t", "x", "y", "z", "phase"], phases)
    # the reader skips the stamp and ignores the phase column
    back = read_trajectory_csv(csv_path)
    assert back.samples.tobytes() == training.samples.tobytes() and back.dt == cfg.dt


# tracemalloc peak of writing a 100k-row trajectory, in units of one block
# of CSV_BLOCK four-column float rows: the encoder reads about 8 (the
# block, its Python floats, the format and its text); a writer that makes
# every row a Python list before writing reads 171
WRITE_PEAK_PER_BLOCK = 10


def test_trajectory_write_peak_memory_pinned(tmp_path):
    traj = Trajectory(0.05, np.random.default_rng(0).standard_normal((100_000, 3)) * 30)
    block_bytes = CSV_BLOCK * 4 * np.dtype(float).itemsize
    tracemalloc.start()
    try:
        write_trajectory_csv(tmp_path / "t.csv", traj, timestamp=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the lower bound shows that numpy's buffers are traced at all
    assert block_bytes <= peak <= WRITE_PEAK_PER_BLOCK * block_bytes


# tracemalloc peak of reading a 100k-row trajectory, in bytes a row: the
# flat float buffer (32 and its growth margin) and the series copy (24); a
# reader that holds every line and a Python list per row reads about 356
READ_PEAK_PER_ROW = 100


def test_trajectory_read_peak_memory_pinned(tmp_path):
    rows = 100_000
    traj = Trajectory(0.05, np.random.default_rng(0).standard_normal((rows, 3)) * 30)
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, traj, timestamp=False)
    tracemalloc.start()
    try:
        back = read_trajectory_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.samples.tobytes() == traj.samples.tobytes()
    # the lower bound shows that numpy's buffers are traced at all
    assert traj.samples.nbytes <= peak <= READ_PEAK_PER_ROW * rows


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
