"""Byte-level fuzzing of the CLI's file inputs.

Each example flips, inserts or deletes a few bytes of a valid model file or
trajectory CSV and runs the CLI on the result.  Whatever the bytes, the
CLI must keep its exit-code contract (0 success, 2 bad input, 3
divergence), never let an exception escape ``main``, and explain a
failure exit in exactly one stderr line.
"""

import contextlib
import io
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoscontrol import EsnConfig, NgrcConfig, build_reservoir, save_model
from chaoscontrol.cli import main
from chaoscontrol.esn import train as esn_train
from chaoscontrol.experiments import write_trajectory_csv
from chaoscontrol.ngrc import train as ngrc_train

from conftest import TRAIN_PARAMS, attractor_trajectory

FUZZ = settings(max_examples=150, derandomize=True, deadline=None, database=None)


def _valid_inputs() -> dict:
    """Small valid files: each kind of model file and a 300-sample CSV."""
    series = attractor_trajectory(TRAIN_PARAMS, 299, seed=4)
    esn = build_reservoir(EsnConfig(reservoir_dim=12, washout=50, seed=1))
    esn_train(esn, series)
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file")
        for name, write in (
            ("classic", lambda: save_model(path, esn)),
            ("ngrc", lambda: save_model(path, ngrc_train(series, NgrcConfig()))),
            ("csv", lambda: write_trajectory_csv(path, series, timestamp=False)),
        ):
            write()
            with open(path, "rb") as fh:
                files[name] = fh.read()
    return files


VALID = _valid_inputs()


def _hot_region(data: bytes) -> int:
    """Length of the text part of a file; a model file's header is short."""
    mark = data.find(b"#payload\n")
    return len(data) if mark < 0 else mark + len(b"#payload\n")


def _mutations(data: bytes):
    """1-3 (operation, position, byte) edits; half the positions land in
    the text part, so model headers are hit as often as payloads."""
    position = st.one_of(
        st.integers(0, _hot_region(data) - 1), st.integers(0, len(data) - 1)
    )
    edit = st.tuples(st.sampled_from(("flip", "insert", "delete")), position,
                     st.integers(1, 255))
    return st.lists(edit, min_size=1, max_size=3)


def _mutate(data: bytes, edits) -> bytes:
    # the inputs are kilobytes long, so three deletions never empty them
    buf = bytearray(data)
    for op, pos, byte in edits:
        pos %= len(buf) + (op == "insert")
        if op == "flip":
            buf[pos] ^= byte
        elif op == "insert":
            buf.insert(pos, byte)
        else:
            del buf[pos]
    return bytes(buf)


def _run_cli(data: bytes, argv) -> tuple:
    """Run the CLI on ``data`` written to ``{input}``; returns (code, stderr).

    Warnings count as stderr lines, because outside the test runner they
    are printed there.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([a.format(input=path) for a in argv] + ["--out", tmp])
    return code, err.getvalue() + "".join(f"{w.message}\n" for w in caught)


def _check_contract(code, err, allowed) -> None:
    assert code in allowed, (code, err)
    if code != 0:
        assert len(err.splitlines()) == 1, err


@pytest.mark.parametrize("kind", ["classic", "ngrc"])
def test_mutated_model_file_keeps_exit_contract(kind):
    data = VALID[kind]
    assert _run_cli(data, ["predict", "--model", "{input}", "--steps", "5"])[0] == 0

    @FUZZ
    @given(_mutations(data))
    def check(edits):
        code, err = _run_cli(
            _mutate(data, edits), ["predict", "--model", "{input}", "--steps", "5"]
        )
        _check_contract(code, err, (0, 2, 3))

    check()


def test_overflowing_model_reports_one_line():
    # tap values whose fourth powers overflow: numpy warns on the way to the
    # NaN that the bound check turns into exit 3; the tap buffer (1x3) is
    # the last array in the payload
    data = VALID["ngrc"][:-24] + np.full(3, 1e100).astype("<f8").tobytes()
    code, err = _run_cli(data, ["predict", "--model", "{input}", "--steps", "5"])
    assert code == 3
    assert err.startswith("divergence:") and len(err.splitlines()) == 1, err


@FUZZ
@given(_mutations(VALID["csv"]))
def test_mutated_trajectory_csv_keeps_exit_contract(edits):
    code, err = _run_cli(_mutate(VALID["csv"], edits), ["metrics", "--input", "{input}"])
    _check_contract(code, err, (0, 2))
