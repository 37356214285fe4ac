import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core import _multiarray_umath as umath

import chaoscontrol
from chaoscontrol.experiments import SweepRow
from conftest import a2_outcome
from golden import GOLDEN, host_signature, run_pass

HOST_CAVEAT = (
    "If no code changed, the cause is the host: the bytes depend on numpy's "
    "SIMD dispatch (np.tanh, np.log and np.exp round differently per "
    "target), on the OpenBLAS kernel family picked for the CPU (every "
    "readout product and factorization, the reservoir's dgeev included) "
    "and on the BLAS thread count (the package pins one thread). A change "
    "that moves bytes on purpose regenerates the digests with "
    "`PYTHONPATH=src python3 tests/golden.py` and lists the moved files in "
    "CHANGES.md."
)


def test_cli_outputs_match_golden_digests(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = run_pass(tmp_path)
    moved = sorted(
        name
        for name in want["files"].keys() | got["files"].keys()
        if want["files"].get(name) != got["files"].get(name)
    )
    # a command whose exit code or output lines moved
    commands = [w["name"] for w, g in zip(want["commands"], got["commands"]) if w != g]
    assert len(want["commands"]) == len(got["commands"])
    assert not moved and not commands, (
        f"outputs differ from {GOLDEN.name}: files {moved}, "
        f"command exit codes or lines {commands}. Recorded host signature "
        f"{want['signature']}, this host {host_signature()}. " + HOST_CAVEAT
    )


# an AVX2 host emulated on an AVX-512 one: numpy's SIMD dispatch capped at
# X86_V3 and OpenBLAS held to its Haswell kernels
EMULATED_AVX2 = {
    "OPENBLAS_CORETYPE": "Haswell",
    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
}

# A2's sweep and the golden pass, run under the emulation; prints JSON
_EMULATED_RUN = """
import json, sys, tempfile
from dataclasses import astuple
from pathlib import Path
from chaoscontrol.experiments import ExperimentConfig, SweepSpec, run_sweep
from golden import host_signature, run_pass
spec = SweepSpec(training_lengths=(5000,), n_realizations=20, kinds=("classic",))
rows = run_sweep(spec, ExperimentConfig(master_seed=0), jobs=1).rows
with tempfile.TemporaryDirectory() as tmp:
    commands = run_pass(Path(tmp))["commands"]
json.dump({
    "signature": host_signature(),
    "rows": [astuple(r) for r in rows],
    "commands": commands,
}, sys.stdout)
"""


def test_a2_holds_on_an_emulated_avx2_host():
    # The bytes are host-bound (see HOST_CAVEAT), the outcomes should not
    # be: on an emulated AVX2 host A2's criterion holds as written, and the
    # golden pass's ngrc runs still end in phase predict.
    if not (umath.__cpu_features__.get("AVX2") and umath.__cpu_features__.get("FMA3")):
        pytest.skip("host lacks AVX2 or FMA: Haswell kernels must not be forced on it")
    paths = [Path(chaoscontrol.__file__).parents[1], Path(__file__).parent]
    env = {**os.environ, **EMULATED_AVX2,
           "PYTHONPATH": os.pathsep.join(map(str, paths))}
    done = subprocess.run(
        [sys.executable, "-c", _EMULATED_RUN], env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got["signature"]["numpy_dispatch"] == "X86_V3"
    assert got["signature"]["scipy_openblas"]["core"] == "Haswell"

    in_band, gap = a2_outcome([SweepRow(*row) for row in got["rows"]])
    assert in_band >= 16 and gap < 0.2, f"emulated A2: in-band {in_band}/20, gap {gap:.3f}"

    for command in got["commands"]:
        if command["name"] in ("predict-ngrc", "control-ngrc"):
            assert command["exit"] == 3
            assert "(phase predict," in command["stderr"][-1]
