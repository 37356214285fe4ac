from dataclasses import fields
from typing import Optional, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from chaoscontrol import (
    EsnConfig,
    NgrcConfig,
    load_model,
    ngrc,
    save_model,
)
from chaoscontrol.cli import main as cli_main
from chaoscontrol.control import free_run
from chaoscontrol.errors import ConfigError, DivergenceError
from chaoscontrol.esn import train as esn_train
from chaoscontrol.experiments import PREDICTOR_KINDS, ExperimentConfig, SweepSpec
from chaoscontrol.modelio import FORMAT_MAGIC, field_parsers, format_fields
from chaoscontrol.ngrc import build_library
from chaoscontrol.ngrc import train as ngrc_train


@pytest.fixture(scope="module")
def trained_esn(train_run_short):
    return esn_train(train_run_short, EsnConfig(reservoir_dim=40, washout=100, seed=5))


@pytest.fixture(scope="module")
def trained_ngrc(train_run_short):
    return ngrc_train(train_run_short, NgrcConfig())


def test_esn_round_trip_bit_exact(tmp_path, trained_esn):
    path = tmp_path / "esn.ccm"
    save_model(path, trained_esn)
    loaded = load_model(path)
    assert loaded.config == trained_esn.config
    assert np.array_equal(loaded.A.toarray(), trained_esn.A.toarray())
    assert np.array_equal(loaded.W_in, trained_esn.W_in)
    assert np.array_equal(loaded.P, trained_esn.P)
    assert np.array_equal(loaded.r, trained_esn.r)


def test_esn_prediction_resumes_identically(tmp_path, trained_esn):
    path = tmp_path / "esn.ccm"
    save_model(path, trained_esn)
    loaded = load_model(path)
    a, b = trained_esn.stepper(), loaded.stepper()
    for _ in range(50):
        assert np.array_equal(a.step(), b.step())


def _as_v1(raw: bytes, model, last_sample) -> bytes:
    """``raw`` rewritten into the v1 layout of earlier writers.

    v1 adds the input width after the config lines and, for ngrc, the
    monomial table as variable-index tuples; the earliest classic writers
    also appended the last training sample as a ``last_sample`` array.
    """
    header, payload = raw.split(b"\narrays=", 1)
    header = header.replace(FORMAT_MAGIC.encode(), b"#chaoscontrol-model v1", 1)
    header += b"\ninput_dim=3"
    if isinstance(model, ngrc.NgrcModel):
        table = build_library(3, model.config.orders).monomials
        header += b"\nmonomials=" + ";".join(",".join(map(str, m)) for m in table).encode()
    else:
        payload = payload.replace(b",r:40\n", b",r:40,last_sample:3\n", 1)
        payload += last_sample.astype("<f8").tobytes()
    return header + b"\narrays=" + payload


def _arrays(model) -> dict:
    values = {f.name: getattr(model, f.name) for f in fields(model) if f.name != "config"}
    return {name: v.toarray() if sparse.issparse(v) else v for name, v in values.items()}


def _free_run_outcome(model):
    """500 free-run samples, or the (phase, step) of the divergence that ends them."""
    try:
        return free_run(model.stepper(), 500, 0.05).samples
    except DivergenceError as exc:
        return exc.phase, exc.step


@pytest.mark.parametrize("model", ["trained_esn", "trained_ngrc"], ids=["classic", "ngrc"])
def test_v1_file_still_loads(tmp_path, request, train_run_short, model):
    model = request.getfixturevalue(model)
    path = tmp_path / "model.ccm"
    save_model(path, model)
    raw = path.read_bytes()
    old = _as_v1(raw, model, train_run_short.samples[-1])
    assert old.startswith(b"#chaoscontrol-model v1\n") and b"\ninput_dim=3\n" in old
    path.write_bytes(old)
    loaded = load_model(path)
    assert loaded.config == model.config
    want, got = _arrays(model), _arrays(loaded)
    assert list(got) == list(want)
    assert all(np.array_equal(got[name], want[name]) for name in want)
    np.testing.assert_equal(_free_run_outcome(loaded), _free_run_outcome(model))


def test_ngrc_round_trip_bit_exact(tmp_path, trained_ngrc):
    path = tmp_path / "ngrc.ccm"
    save_model(path, trained_ngrc)
    loaded = load_model(path)
    assert loaded.config == trained_ngrc.config
    assert np.array_equal(loaded.W_out, trained_ngrc.W_out)
    assert np.array_equal(loaded.tap_buffer, trained_ngrc.tap_buffer)


@pytest.mark.parametrize(
    "model, arrays",
    [
        ("trained_esn", "A:40x40,W_in:40x3,P:3x80,r:40"),
        ("trained_ngrc", "W_out:3x34,tap_buffer:1x3"),
    ],
    ids=["classic", "ngrc"],
)
def test_header_is_text_and_versioned(tmp_path, request, model, arrays):
    # nothing the loader can derive: no input width, no monomial table
    model = request.getfixturevalue(model)
    path = tmp_path / "model.ccm"
    save_model(path, model)
    header = path.read_bytes().split(b"#payload\n", 1)[0].decode()
    config = [f"{name}={text}" for name, text in format_fields(model.config).items()]
    kind = "ngrc" if isinstance(model, ngrc.NgrcModel) else "classic"
    assert header.splitlines() == [FORMAT_MAGIC, f"kind={kind}", *config, f"arrays={arrays}"]


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ccm"
    path.write_bytes(b"not a model\n#payload\n")
    with pytest.raises(ConfigError):
        load_model(path)


def test_truncated_payload_rejected(tmp_path, trained_esn):
    path = tmp_path / "esn.ccm"
    save_model(path, trained_esn)
    raw = path.read_bytes()
    clipped = tmp_path / "clipped.ccm"
    clipped.write_bytes(raw[:-16])
    with pytest.raises(ConfigError):
        load_model(clipped)


@pytest.mark.parametrize(
    "model, old, new",
    [
        ("trained_esn", b"reservoir_dim=40", b"reservoir_dim=abc"),
        ("trained_esn", b"kind=classic", b"kind=cl\xffssic"),
        # same byte counts as the true shapes, so the payload still parses
        ("trained_esn", b",P:3x80,", b",P:6x40,"),
        ("trained_esn", b",r:40\n", b",r:4x10\n"),
        ("trained_esn", b",W_in:40x3,", b",W_in:120x1,"),
        ("trained_ngrc", b",tap_buffer:1x3", b",tap_buffer:3x1"),
        ("trained_esn", b"washout=100\n", b"washout=100\nwashout=100\n"),
        # the monomial count and the tap buffer reject these before a
        # library of about 8e6 or 3e12 monomials is built
        ("trained_ngrc", b"\norders=1,2,3,4\n", b"\norders=1,2,3,4000\n"),
        ("trained_ngrc", b"\nk=1\n", b"\nk=999\n"),
    ],
    ids=[
        "malformed-value", "non-utf8-header", "readout-shape", "state-shape",
        "input-map-shape", "tap-buffer-shape", "repeated-key", "huge-order", "huge-k",
    ],
)
def test_malformed_header_is_config_error(
    tmp_path, capsys, monkeypatch, request, model, old, new
):
    path = tmp_path / "model.ccm"
    save_model(path, request.getfixturevalue(model))
    raw = path.read_bytes()
    assert old in raw
    path.write_bytes(raw.replace(old, new, 1))

    def no_library(*args):
        raise AssertionError(f"a rejected header built a monomial library {args}")

    monkeypatch.setattr(ngrc, "build_library", no_library)
    _assert_config_error(path, tmp_path, capsys)


def test_empty_arrays_are_config_error(tmp_path, capsys, trained_ngrc):
    # zero-width taps and readout agree with each other, but leave no
    # variables to predict
    path = tmp_path / "model.ccm"
    save_model(path, trained_ngrc)
    header = path.read_bytes().split(b"arrays=", 1)[0]
    path.write_bytes(header + b"arrays=W_out:0x0,tap_buffer:1x0\n#payload\n")
    _assert_config_error(path, tmp_path, capsys)


def test_repeated_array_name_is_config_error(tmp_path, capsys, trained_ngrc):
    # the second entry has its own 24 payload bytes, so every size matches
    path = tmp_path / "model.ccm"
    save_model(path, trained_ngrc)
    raw = path.read_bytes()
    assert b",tap_buffer:1x3\n" in raw
    raw = raw.replace(b",tap_buffer:1x3\n", b",tap_buffer:1x3,tap_buffer:1x3\n", 1)
    path.write_bytes(raw + np.ones(3).astype("<f8").tobytes())
    _assert_config_error(path, tmp_path, capsys)


def _assert_config_error(path, tmp_path, capsys):
    """Loading ``path`` raises ConfigError; predict exits 2 with one line."""
    with pytest.raises(ConfigError):
        load_model(path)
    code = cli_main(["predict", "--model", str(path), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error:")


def test_unsupported_type_rejected():
    with pytest.raises(TypeError):
        save_model("/tmp/unused.ccm", object())


# values every field of that type accepts in all four config classes;
# (0, 1] reaches subnormal floats, the hardest case for the text format
_FIELD_VALUES = {
    int: st.integers(2, 10**6),
    float: st.floats(0.0, 1.0, exclude_min=True),
    str: st.sampled_from(PREDICTOR_KINDS),
    Optional[int]: st.none() | st.integers(0, 10**6),
    tuple[int, ...]: st.lists(st.integers(2, 10**6), min_size=1, max_size=5, unique=True)
    .map(sorted).map(tuple),
    tuple[str, ...]: st.lists(
        st.sampled_from(PREDICTOR_KINDS), min_size=1, max_size=len(PREDICTOR_KINDS), unique=True
    ).map(tuple),
}


@pytest.mark.parametrize(
    "cls", [ExperimentConfig, SweepSpec, EsnConfig, NgrcConfig], ids=lambda c: c.__name__
)
def test_config_fields_round_trip_through_text(cls):
    hints = get_type_hints(cls)
    configs = st.builds(
        cls, **{f.name: _FIELD_VALUES[hints[f.name]] for f in fields(cls)}
    )

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(configs)
    def check(cfg):
        text = format_fields(cfg)
        assert list(text) == [f.name for f in fields(cls)]
        parsed = {name: parse(text[name]) for name, parse in field_parsers(cls).items()}
        assert cls(**parsed) == cfg

    check()
