"""Trained-model serialization: versioned text header plus binary payload.

The on-disk format is a flat hybrid of a key=value header and a raw
array payload:

    #chaoscontrol-model v1
    kind=classic
    <config key=value lines>
    arrays=A:300x300,W_in:300x3,P:3x600,r:300,last_sample:3
    #payload
    <little-endian float64 bytes, row-major, arrays in declared order>

The ``arrays`` line records every array's name and shape; the payload is
the concatenation of the arrays' C-order bytes with nothing in between,
so offsets follow from the declared shapes alone.  Polynomial models
additionally carry their exponent table in the header (``monomials=``, a
semicolon-separated list of variable-index multisets), making the stored
readout self-describing.  Only trained models are saveable: prediction
state (reservoir vector / tap buffer, last training sample) is included
so a loaded model continues exactly where training ended.
"""

from __future__ import annotations

import io
from typing import Union

import numpy as np
from scipy import sparse

from .esn import EsnConfig, EsnModel
from .errors import ConfigError
from .ngrc import MonomialLibrary, NgrcConfig, NgrcModel, build_library

__all__ = ["save_model", "load_model", "FORMAT_MAGIC"]

FORMAT_MAGIC = "#chaoscontrol-model v1"
_PAYLOAD_MARK = b"#payload\n"


def _format_float(x: float) -> str:
    # repr round-trips float64 exactly
    return repr(float(x))


def _esn_header_and_arrays(model: EsnModel):
    if not model.trained or model.last_sample is None:
        raise ValueError("only trained models can be serialized")
    cfg = model.config
    header = {
        "kind": "classic",
        "reservoir_dim": str(cfg.reservoir_dim),
        "edge_prob": _format_float(cfg.edge_prob),
        "input_scale": _format_float(cfg.input_scale),
        "spectral_radius": _format_float(cfg.spectral_radius),
        "ridge_beta": _format_float(cfg.ridge_beta),
        "washout": str(cfg.washout),
        "seed": str(cfg.seed),
        "input_dim": str(cfg.input_dim),
    }
    arrays = [
        ("A", model.A.toarray()),
        ("W_in", model.W_in),
        ("P", model.P),
        ("r", model.r),
        ("last_sample", model.last_sample),
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
    if not model.trained:
        raise ValueError("only trained models can be serialized")
    cfg = model.config
    header = {
        "kind": "ngrc",
        "k": str(cfg.k),
        "s": str(cfg.s),
        "orders": ",".join(str(o) for o in cfg.orders),
        "ridge_beta": _format_float(cfg.ridge_beta),
        "input_dim": str(model.library.input_dim),
        "monomials": _encode_monomials(model.library),
    }
    arrays = [
        ("W_out", model.W_out),
        ("tap_buffer", model.tap_buffer),
    ]
    return header, arrays


def save_model(path, model: Union[EsnModel, NgrcModel]) -> None:
    """Write a trained model to ``path`` in the v1 format."""
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
        shape = tuple(int(d) for d in dims.split("x"))
        count = int(np.prod(shape))
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
            cfg = EsnConfig(
                reservoir_dim=int(fields["reservoir_dim"]),
                edge_prob=float(fields["edge_prob"]),
                input_scale=float(fields["input_scale"]),
                spectral_radius=float(fields["spectral_radius"]),
                ridge_beta=float(fields["ridge_beta"]),
                washout=int(fields["washout"]),
                seed=int(fields["seed"]),
                input_dim=int(fields["input_dim"]),
            )
            return EsnModel(
                config=cfg,
                A=sparse.csr_matrix(arrays["A"]),
                W_in=arrays["W_in"],
                P=arrays["P"],
                r=arrays["r"],
                last_sample=arrays["last_sample"],
            )
        if kind == "ngrc":
            cfg = NgrcConfig(
                k=int(fields["k"]),
                s=int(fields["s"]),
                orders=tuple(int(o) for o in fields["orders"].split(",")),
                ridge_beta=float(fields["ridge_beta"]),
            )
            lib = MonomialLibrary(
                input_dim=int(fields["input_dim"]),
                monomials=_decode_monomials(fields["monomials"]),
            )
            if lib != build_library(lib.input_dim, cfg.orders):
                raise ConfigError(
                    "stored exponent table does not match the declared orders"
                )
            w_out = arrays["W_out"]
            if w_out.shape[1] != len(lib):
                raise ConfigError(
                    f"readout width {w_out.shape[1]} does not match the "
                    f"{len(lib)}-monomial exponent table"
                )
            return NgrcModel(
                config=cfg,
                library=lib,
                W_out=w_out,
                tap_buffer=arrays["tap_buffer"],
            )
    except KeyError as exc:
        raise ConfigError(f"model header missing field {exc}") from exc
    except ValueError as exc:
        # unparseable numbers, out-of-range config values, non-UTF-8 header
        raise ConfigError(f"malformed model file: {exc}") from exc
    raise ConfigError(f"unknown model kind {kind!r}")
