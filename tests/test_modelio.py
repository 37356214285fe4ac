import numpy as np
import pytest

from chaoscontrol import (
    EsnConfig,
    NgrcConfig,
    build_reservoir,
    load_model,
    save_model,
)
from chaoscontrol.cli import main as cli_main
from chaoscontrol.errors import ConfigError
from chaoscontrol.esn import train as esn_train
from chaoscontrol.modelio import FORMAT_MAGIC
from chaoscontrol.ngrc import train as ngrc_train


@pytest.fixture(scope="module")
def trained_esn(train_run_short):
    m = build_reservoir(EsnConfig(reservoir_dim=40, washout=100, seed=5))
    esn_train(m, train_run_short)
    return m


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
    assert np.array_equal(loaded.last_sample, trained_esn.last_sample)


def test_esn_prediction_resumes_identically(tmp_path, trained_esn):
    path = tmp_path / "esn.ccm"
    save_model(path, trained_esn)
    loaded = load_model(path)
    a, b = trained_esn.stepper(), loaded.stepper()
    for _ in range(50):
        assert np.array_equal(a.step(), b.step())


def test_ngrc_round_trip_bit_exact(tmp_path, trained_ngrc):
    path = tmp_path / "ngrc.ccm"
    save_model(path, trained_ngrc)
    loaded = load_model(path)
    assert loaded.config == trained_ngrc.config
    assert loaded.library == trained_ngrc.library
    assert np.array_equal(loaded.W_out, trained_ngrc.W_out)
    assert np.array_equal(loaded.tap_buffer, trained_ngrc.tap_buffer)


def test_header_is_text_and_versioned(tmp_path, trained_ngrc):
    path = tmp_path / "ngrc.ccm"
    save_model(path, trained_ngrc)
    raw = path.read_bytes()
    header = raw.split(b"#payload\n", 1)[0].decode()
    assert header.splitlines()[0] == FORMAT_MAGIC
    assert "monomials=" in header
    assert "arrays=W_out:3x34,tap_buffer:1x3" in header


def test_untrained_model_rejected():
    m = build_reservoir(EsnConfig(reservoir_dim=10, seed=0))
    with pytest.raises(ValueError):
        save_model("/tmp/unused.ccm", m)


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
        ("trained_esn", b",r:40,", b",r:4x10,"),
        ("trained_esn", b",W_in:40x3,", b",W_in:120x1,"),
        ("trained_ngrc", b",tap_buffer:1x3", b",tap_buffer:3x1"),
    ],
    ids=[
        "malformed-value", "non-utf8-header", "readout-shape", "state-shape",
        "input-map-shape", "tap-buffer-shape",
    ],
)
def test_malformed_header_is_config_error(tmp_path, capsys, request, model, old, new):
    path = tmp_path / "model.ccm"
    save_model(path, request.getfixturevalue(model))
    raw = path.read_bytes()
    assert old in raw
    path.write_bytes(raw.replace(old, new, 1))
    with pytest.raises(ConfigError):
        load_model(path)
    code = cli_main(["predict", "--model", str(path), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error:")


def test_unsupported_type_rejected():
    with pytest.raises(TypeError):
        save_model("/tmp/unused.ccm", object())
