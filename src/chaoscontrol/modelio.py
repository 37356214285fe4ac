"""Trained-model serialization: versioned text header plus binary payload.

The on-disk format is a flat hybrid of a key=value header and a raw
array payload:

    #chaoscontrol-model v1
    kind=classic
    <config key=value lines>
    arrays=A:300x300,W_in:300x3,P:3x600,r:300
    #payload
    <little-endian float64 bytes, row-major, arrays in declared order>

The ``arrays`` line records every array's name and shape; the payload is
the concatenation of the arrays' C-order bytes with nothing in between,
so offsets follow from the declared shapes alone.  The loader reads the
arrays a model needs by name and skips any other declared array, so
files that still carry the ``last_sample`` array of earlier writers load
unchanged.  Polynomial models additionally carry their exponent table in
the header (``monomials=``, a semicolon-separated list of variable-index
multisets), making the stored readout self-describing.  Prediction state
(reservoir vector / tap buffer) is included so a loaded model continues
exactly where training ended.  A header key given twice is an error.
The config lines are the ``EsnConfig`` or ``NgrcConfig`` fields in field
order, written by :func:`format_fields` and read by :func:`field_parsers`.
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
from .ngrc import MonomialLibrary, NgrcConfig, NgrcModel, build_library

__all__ = ["save_model", "load_model", "FORMAT_MAGIC", "field_parsers", "format_fields"]

FORMAT_MAGIC = "#chaoscontrol-model v1"
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


def _esn_header_and_arrays(model: EsnModel):
    header = {"kind": "classic", **format_fields(model.config)}
    arrays = [
        ("A", model.A.toarray()),
        ("W_in", model.W_in),
        ("P", model.P),
        ("r", model.r),
    ]
    return header, arrays


def _encode_monomials(library) -> str:
    # each monomial is a sorted variable-index tuple; "0,0,2" = x0^2 * x2
    return ";".join(",".join(str(i) for i in mono) for mono in library.monomials)


def _decode_monomials(text: str) -> tuple:
    return tuple(
        tuple(int(i) for i in item.split(",")) for item in text.split(";") if item
    )


def _ngrc_header_and_arrays(model: NgrcModel):
    header = {
        "kind": "ngrc",
        **format_fields(model.config),
        "input_dim": str(model.library.input_dim),
        "monomials": _encode_monomials(model.library),
    }
    arrays = [
        ("W_out", model.W_out),
        ("tap_buffer", model.tap_buffer),
    ]
    return header, arrays


def save_model(path, model: Union[EsnModel, NgrcModel]) -> None:
    """Write a model to ``path`` in the v1 format."""
    if isinstance(model, EsnModel):
        header, arrays = _esn_header_and_arrays(model)
    elif isinstance(model, NgrcModel):
        header, arrays = _ngrc_header_and_arrays(model)
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")

    dims = ",".join(
        f"{name}:{'x'.join(str(d) for d in np.shape(arr))}" for name, arr in arrays
    )
    buf = io.BytesIO()
    buf.write((FORMAT_MAGIC + "\n").encode())
    for key, value in header.items():
        buf.write(f"{key}={value}\n".encode())
    buf.write(f"arrays={dims}\n".encode())
    buf.write(_PAYLOAD_MARK)
    for _, arr in arrays:
        buf.write(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def _parse_header(text: str) -> dict:
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_MAGIC:
        raise ConfigError("not a chaoscontrol model file (bad magic line)")
    fields = {}
    for line in lines[1:]:
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"malformed model header line: {line!r}")
        if key in fields:
            raise ConfigError(f"model header key {key!r} is given twice")
        fields[key] = value
    return fields


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
        if any(d < 0 for d in shape):
            raise ConfigError(f"negative dimension in arrays entry: {item!r}")
        count = math.prod(shape)
        nbytes = count * 8
        if offset + nbytes > len(payload):
            raise ConfigError("model payload shorter than declared shapes")
        arrays[name] = np.frombuffer(
            payload, dtype="<f8", count=count, offset=offset
        ).reshape(shape).copy()
        offset += nbytes
    if offset != len(payload):
        raise ConfigError("model payload longer than declared shapes")
    return arrays


def _check_shapes(arrays: dict, expected: dict) -> None:
    """Every named array must have the shape the header's config implies."""
    for name, shape in expected.items():
        got = arrays[name].shape
        if got != shape:
            raise ConfigError(
                f"array {name} is {'x'.join(map(str, got))}, the header "
                f"implies {'x'.join(map(str, shape))}"
            )


def load_model(path) -> Union[EsnModel, NgrcModel]:
    """Read a model saved by :func:`save_model`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text, payload = _split_payload(raw)
        fields = _parse_header(text)
        kind = fields.get("kind")
        arrays = _read_arrays(fields["arrays"], payload)
        if kind == "classic":
            cfg = _config_from_header(EsnConfig, fields)
            d, n_in = cfg.reservoir_dim, cfg.input_dim
            _check_shapes(arrays, {
                "A": (d, d), "W_in": (d, n_in), "P": (n_in, 2 * d), "r": (d,),
            })
            return EsnModel(
                config=cfg,
                A=sparse.csr_matrix(arrays["A"]),
                W_in=arrays["W_in"],
                P=arrays["P"],
                r=arrays["r"],
            )
        if kind == "ngrc":
            cfg = _config_from_header(NgrcConfig, fields)
            lib = MonomialLibrary(
                input_dim=int(fields["input_dim"]),
                monomials=_decode_monomials(fields["monomials"]),
            )
            # count first: a corrupt order or input_dim could ask
            # build_library for an astronomically large table
            n_monomials = sum(math.comb(lib.input_dim + o - 1, o) for o in cfg.orders)
            if len(lib) != n_monomials or lib != build_library(lib.input_dim, cfg.orders):
                raise ConfigError(
                    "stored exponent table does not match the declared orders"
                )
            if lib.input_dim % cfg.k:
                raise ConfigError(
                    f"input_dim {lib.input_dim} is not a multiple of k={cfg.k}"
                )
            dim = lib.input_dim // cfg.k
            _check_shapes(arrays, {
                "W_out": (dim, len(lib)), "tap_buffer": (cfg.tap_span, dim),
            })
            return NgrcModel(
                config=cfg,
                library=lib,
                W_out=arrays["W_out"],
                tap_buffer=arrays["tap_buffer"],
            )
    except KeyError as exc:
        raise ConfigError(f"model header missing field {exc}") from exc
    except ValueError as exc:
        # unparseable numbers, out-of-range config values, non-UTF-8 header
        raise ConfigError(f"malformed model file: {exc}") from exc
    raise ConfigError(f"unknown model kind {kind!r}")
