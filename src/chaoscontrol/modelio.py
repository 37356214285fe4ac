"""Trained-model serialization: versioned text header plus binary payload.

The on-disk format is a flat hybrid of a key=value header and a raw
array payload:

    #chaoscontrol-model v2
    kind=ngrc
    k=1
    s=57
    orders=1,2,3,4
    ridge_beta=0.0001
    arrays=W_out:3x34,tap_buffer:1x3
    #payload
    <little-endian float64 bytes, row-major, arrays in declared order>

The header holds only what the loader cannot derive: the kind, the
``EsnConfig`` or ``NgrcConfig`` fields in field order (written by
:func:`format_fields`, read by :func:`field_parsers`) and the arrays.  The
data's dimension is the width of the arrays (``P`` rows, ``tap_buffer``
columns), and a polynomial model's monomial table is
``build_library(k * dim, orders)``.  The ``arrays`` line records every
array's name and shape; the payload is the concatenation of the arrays'
C-order bytes with nothing in between, so offsets follow from the declared
shapes alone.  Prediction state (reservoir vector / tap buffer) is
included so a loaded model continues exactly where training ended.

The loader also reads v1 files.  Their ``input_dim=`` and ``monomials=``
lines, like any header key it does not use, are not read, and neither is
a declared array it does not use, such as the ``last_sample`` of earlier
writers.  A header key given twice is an error.
"""

from __future__ import annotations

import dataclasses
import io
import math
from typing import Optional, Union, get_type_hints

import numpy as np
from scipy import sparse

from .esn import EsnConfig, EsnModel
from .errors import ConfigError
from .ngrc import NgrcConfig, NgrcModel

__all__ = [
    "save_model", "load_model", "FORMAT_MAGIC", "field_parsers", "format_fields",
    "parse_key_values",
]

FORMAT_MAGIC = "#chaoscontrol-model v2"
# v1 headers add input_dim= and monomials=, both derivable; v1 still loads
_READABLE_MAGICS = (FORMAT_MAGIC, "#chaoscontrol-model v1")
_PAYLOAD_MARK = b"#payload\n"


def _split(text: str) -> list:
    return text.replace(",", " ").split()


# annotated field type -> (text parser, text formatter) of a config field;
# repr round-trips float64 exactly
_FIELD_CODECS = {
    int: (int, str),
    float: (float, lambda x: repr(float(x))),
    str: (str, str),
    Optional[int]: (
        lambda text: None if text.strip().lower() in ("", "none", "auto") else int(text),
        str,
    ),
    tuple[int, ...]: (
        lambda text: tuple(int(part) for part in _split(text)),
        lambda values: ",".join(str(v) for v in values),
    ),
    tuple[str, ...]: (lambda text: tuple(_split(text)), ",".join),
}


def field_parsers(cls) -> dict:
    """{field name: text parser} of a config dataclass, in field order."""
    hints = get_type_hints(cls)
    return {f.name: _FIELD_CODECS[hints[f.name]][0] for f in dataclasses.fields(cls)}


def format_fields(cfg) -> dict:
    """{field name: text} of a config dataclass instance, in field order."""
    hints = get_type_hints(type(cfg))
    return {
        f.name: _FIELD_CODECS[hints[f.name]][1](getattr(cfg, f.name))
        for f in dataclasses.fields(cfg)
    }


def _config_from_header(cls, fields: dict):
    """Build ``cls`` from its header lines; a missing one raises KeyError."""
    return cls(**{name: parse(fields[name]) for name, parse in field_parsers(cls).items()})


def parse_key_values(lines, where) -> dict:
    """{key: value} of ``key=value`` lines; '#' comments and blank lines skipped.

    Keys and values are stripped of whitespace, and values of surrounding
    quotes.  A line without '=' or a key given twice is a ConfigError that
    starts with ``where:<line number>``: the file would otherwise run with
    whichever value came last.
    """
    mapping, key_lines = {}, {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{where}:{lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        if key in key_lines:
            raise ConfigError(
                f"{where}:{lineno}: key {key!r} already set on line {key_lines[key]}"
            )
        key_lines[key] = lineno
        mapping[key] = value.strip().strip("\"'")
    return mapping


def save_model(path, model: Union[EsnModel, NgrcModel]) -> None:
    """Write a model to ``path`` in the v2 format."""
    if isinstance(model, EsnModel):
        kind = "classic"
        arrays = [
            ("A", model.A.toarray()), ("W_in", model.W_in), ("P", model.P), ("r", model.r),
        ]
    elif isinstance(model, NgrcModel):
        kind = "ngrc"
        arrays = [("W_out", model.W_out), ("tap_buffer", model.tap_buffer)]
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")

    dims = ",".join(
        f"{name}:{'x'.join(str(d) for d in np.shape(arr))}" for name, arr in arrays
    )
    header = {"kind": kind, **format_fields(model.config), "arrays": dims}
    buf = io.BytesIO()
    buf.write((FORMAT_MAGIC + "\n").encode())
    for key, value in header.items():
        buf.write(f"{key}={value}\n".encode())
    buf.write(_PAYLOAD_MARK)
    for _, arr in arrays:
        buf.write(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def _split_payload(raw: bytes):
    idx = raw.find(_PAYLOAD_MARK)
    if idx < 0:
        raise ConfigError("model file has no payload marker")
    return raw[:idx].decode(), raw[idx + len(_PAYLOAD_MARK):]


def _read_arrays(spec: str, payload: bytes) -> dict:
    arrays = {}
    offset = 0
    for item in spec.split(","):
        name, sep, dims = item.partition(":")
        if not sep:
            raise ConfigError(f"malformed arrays entry: {item!r}")
        if name in arrays:
            raise ConfigError(f"model array {name!r} is declared twice")
        shape = tuple(int(d) for d in dims.split("x"))
        if any(d < 1 for d in shape):
            raise ConfigError(f"non-positive dimension in arrays entry: {item!r}")
        count = math.prod(shape)
        nbytes = count * 8
        if offset + nbytes > len(payload):
            raise ConfigError("model payload shorter than declared shapes")
        arrays[name] = np.frombuffer(
            payload, dtype="<f8", count=count, offset=offset
        ).reshape(shape).copy()
        # training writes only finite arrays; a NaN would first surface as
        # a divergence of the model that holds it
        if not np.isfinite(arrays[name]).all():
            raise ConfigError(f"malformed model file: array {name} holds a non-finite value")
        offset += nbytes
    if offset != len(payload):
        raise ConfigError("model payload longer than declared shapes")
    return arrays


def _array(arrays: dict, name: str) -> np.ndarray:
    if name not in arrays:
        raise ConfigError(f"the model file declares no array {name}")
    return arrays[name]


def _checked(arrays: dict, **shapes) -> list:
    """The named arrays in order, each declared with the shape the header's config implies."""
    checked = []
    for name, shape in shapes.items():
        arr = _array(arrays, name)
        if arr.shape != shape:
            raise ConfigError(
                f"array {name} is {'x'.join(map(str, arr.shape))}, the header "
                f"implies {'x'.join(map(str, shape))}"
            )
        checked.append(arr)
    return checked


def load_model(path) -> Union[EsnModel, NgrcModel]:
    """Read a model saved by :func:`save_model`, in the v2 or the v1 format."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text, payload = _split_payload(raw)
        lines = text.splitlines()
        if not lines or lines[0] not in _READABLE_MAGICS:
            raise ConfigError("not a chaoscontrol model file (bad magic line)")
        fields = parse_key_values(lines, path)
        kind = fields.get("kind")
        arrays = _read_arrays(fields["arrays"], payload)
        if kind == "classic":
            cfg = _config_from_header(EsnConfig, fields)
            d, dim = cfg.reservoir_dim, _array(arrays, "P").shape[0]
            A, W_in, P, r = _checked(arrays, A=(d, d), W_in=(d, dim), P=(dim, 2 * d), r=(d,))
            return EsnModel(config=cfg, A=sparse.csr_matrix(A), W_in=W_in, P=P, r=r)
        if kind == "ngrc":
            cfg = _config_from_header(NgrcConfig, fields)
            # tap_buffer first, so the payload bounds k and a corrupt k is
            # refused before it reaches the monomial count of the W_out check
            dim = _array(arrays, "tap_buffer").shape[-1]
            (tap_buffer,) = _checked(arrays, tap_buffer=(cfg.tap_span, dim))
            (W_out,) = _checked(arrays, W_out=(dim, cfg.n_features(dim)))
            return NgrcModel(config=cfg, W_out=W_out, tap_buffer=tap_buffer)
    except KeyError as exc:
        raise ConfigError(f"model header missing field {exc}") from exc
    except ValueError as exc:
        # unparseable numbers, out-of-range config values, non-UTF-8 header
        raise ConfigError(f"malformed model file: {exc}") from exc
    raise ConfigError(f"unknown model kind {kind!r}")
