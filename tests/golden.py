"""Golden output digests: one pass over the CLI surface at master seed 0.

The pass runs ``chaosctl`` in process, with ``--no-timestamp``, through a
mixed-kind sweep, ``simulate``, ``train`` of both kinds, ``predict`` and
``control`` of both kinds (the ngrc ones end in exit 3), ``metrics`` on the
simulated series and an ngrc ``snapshot``.  It records each command's exit
code and output lines and the sha256 of every file written, beside the
host's dispatch signature (see ``host_signature``).
``tests/test_golden.py`` reruns it and compares with ``tests/golden.json``.

A change that moves output bytes regenerates the digests, from the root of
a checkout:

    PYTHONPATH=src python3 tests/golden.py

and lists the moved files in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"

CONFIG = (
    "horizon = 4000\n"
    "sweep_lengths = 500 1000\n"
    "sweep_kinds = classic ngrc\n"
    "sweep_realizations = 2\n"
)

# (output directory, argv); "{out}" is the pass's root directory
COMMANDS = (
    ("sweep", ["sweep"]),
    ("simulate", ["simulate"]),
    ("train-classic", ["train", "--kind", "classic"]),
    ("train-ngrc", ["train", "--kind", "ngrc"]),
    ("predict-classic", ["predict", "--model", "{out}/train-classic/model.ccm", "--steps", "2000"]),
    ("predict-ngrc", ["predict", "--model", "{out}/train-ngrc/model.ccm", "--steps", "2000"]),
    ("control-classic", ["control", "--kind", "classic"]),
    ("control-ngrc", ["control", "--kind", "ngrc"]),
    ("metrics", ["metrics", "--input", "{out}/simulate/trajectory.csv"]),
    ("snapshot-ngrc", ["snapshot", "--kind", "ngrc"]),
)


def _openblas(package, suffix: str) -> dict:
    """Core name and thread count of the OpenBLAS bundled in a wheel."""
    libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
    found = sorted(libs.glob("libscipy_openblas*.so"))
    if not found:
        return {"core": None, "threads": None}
    # dlopen of an already loaded library returns the loaded copy
    lib = ctypes.CDLL(str(found[0]))
    corename = getattr(lib, f"scipy_openblas_get_corename{suffix}")
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
    threads.argtypes, threads.restype = [], ctypes.c_int
    return {"core": corename().decode(), "threads": threads()}


def host_signature() -> dict:
    """What the output bits depend on besides the code.

    numpy's highest enabled SIMD dispatch target (``tanh``, ``log`` and
    ``exp`` round differently per target) and, for numpy's and scipy's
    OpenBLAS builds, the kernel family picked for this CPU and the thread
    count.  A build that is not the wheels' bundled OpenBLAS reads None.
    """
    import chaoscontrol  # noqa: F401  (sets the one-thread BLAS pin first)
    import numpy
    import scipy
    from numpy._core import _multiarray_umath as umath

    enabled = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return {
        "numpy_dispatch": (enabled or umath.__cpu_baseline__)[-1],
        "numpy_openblas": _openblas(numpy, "64_"),
        "scipy_openblas": _openblas(scipy, ""),
    }


def run_pass(root: Path) -> dict:
    """Run every command under ``root``; return its golden record."""
    from chaoscontrol.cli import main

    root = Path(root)
    config = root / "golden.cfg"
    config.write_text(CONFIG)
    commands = []
    for name, argv in COMMANDS:
        argv = [a.format(out=root) for a in argv]
        argv += ["--config", str(config), "--seed", "0", "--no-timestamp",
                 "--out", str(root / name)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        commands.append({
            "name": name,
            "exit": code,
            "stdout": out.getvalue().replace(str(root), "{out}").splitlines(),
            "stderr": err.getvalue().replace(str(root), "{out}").splitlines(),
        })
    files = {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path != config
    }
    return {"commands": commands, "files": files}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        record = run_pass(Path(tmp))
    record["signature"] = host_signature()
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(record['files'])} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
