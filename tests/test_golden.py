import json

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
