"""chaoscontrol benchmark: one workload per invocation, in its own warm process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_a2 --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

- ``setup_s``: import plus first-call warm-up, the median of three
  set-ups, two of them in fresh subprocesses;
- ``op_s_p50``: median op latency.  An op is a run_single call or one CLI
  pipeline; for the sweep, whose cells run inside one call, each call
  gives one sample, its seconds per cell;
- ``ops_per_s``: the reciprocal of the interquartile mean op latency.  On
  single_ngrc_a3 the 2-9% of ops that survive cost about seventy diverged
  ones, so the plain mean rate (``ops_per_s_mean``, printed as information)
  moves by half between seeds; with the sweep's two samples this is the
  mean rate, with the pipeline's four the mean of the middle two;
- ``peak_rss_mb``: high-water resident set of the benchmark process.

The three timings are calibrated to the host's usual speed (see
calibration.py): each op's seconds, net of the calibration samples taken
during it, are scaled by the speed the kernel measured around it, and
each set-up by the speed measured right after it.  The raw wall-clock
figures are printed as information.  BLAS runs one thread unless the
caller sets its thread variables, as the workloads are closed loop with
one caller on a 2-vCPU host.

The outcome shares ``x_band_frac``, ``diverged_frac`` and ``failed_frac``
are printed as well.  They are fixed for a fixed seed but jump between
seeds at these op counts, and failed_frac is 0, so they are information,
not gated metrics; ``failed`` in the JSON line carries the failures.

``--trace 1`` runs half as many units twice, untraced and then traced; the
two passes must produce identical outputs.  It reports the per-layer metrics
(self times and work counts, see tracing.py), ``trace.overhead_frac``, and
writes the spans to ``.perfbench/trace/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run also
writes its full record, environment included, to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_s_p50", "s"), ("peak_rss_mb", "MB")]
SETUP_SAMPLES = 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sweep_a2", "single_ngrc_a3", "cli_pipeline"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.setup_probe:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _setup() -> tuple:
    """Import the package and warm it up; returns the seconds taken, raw
    and calibrated by the speed measured right after."""
    t0 = time.perf_counter()
    import workloads

    workloads.warm_up()
    seconds = time.perf_counter() - t0
    import calibration

    probe = calibration.SpeedProbe()
    for _ in range(calibration.NEAREST):
        probe.sample()
    return seconds, seconds * probe.speed()


def _setup_in_subprocess() -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    raw, calibrated = proc.stdout.split()[-2:]
    return float(raw), float(calibrated)


def _git_commit():
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def _tail_percentile(n: int):
    """Highest whole percentile with at least ten samples beyond it, if any."""
    return int(100 * (1 - 10 / n)) if n >= 20 else None


def _outcomes(results: list) -> dict:
    ops = [op for r in results for op in r.ops]
    controlled = [op for op in ops if op.controlled]
    diverged = [op for op in ops if op.status == "diverged"]
    return {
        "ops": len(ops),
        "failed": sum(op.failed for op in ops),
        "diverged": len(diverged),
        "diverged_predict": sum(op.phase == "predict" for op in diverged),
        "diverged_control": sum(op.phase == "control" for op in diverged),
        "controlled": len(controlled),
        "in_x_band": sum(op.in_x_band for op in controlled),
        "problems": sorted({p for op in ops for p in op.problems})[:20],
    }


def interquartile_mean(values: list) -> float:
    """Mean of the values left after dropping the lowest and highest quarter."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut:len(ordered) - cut])


def _timing(results: list, probe) -> dict:
    """Op latencies and rates, calibrated by ``probe``; raw ones as ``raw_*``."""
    raw, calibrated, seconds = [], [], 0.0
    for r in results:
        unit = [s * probe.factor(t0, t1) for s, (t0, t1) in zip(r.op_seconds, r.op_spans)]
        raw += r.op_seconds
        calibrated += unit
        seconds += r.seconds * sum(unit) / sum(r.op_seconds)
    raw_seconds = sum(r.seconds for r in results)
    ops = sum(len(r.ops) for r in results)
    info = {
        "units": len(results),
        "ops": ops,
        "seconds": seconds,
        "ops_per_s": 1.0 / interquartile_mean(calibrated),
        "ops_per_s_mean": ops / seconds,
        "op_latency_samples": len(calibrated),
        "op_s_p50": statistics.median(calibrated),
        "host_speed": probe.speed(),
        "calibration_samples": len(probe.samples),
        "raw_seconds": raw_seconds,
        "raw_ops_per_s": 1.0 / interquartile_mean(raw),
        "raw_op_s_p50": statistics.median(raw),
    }
    tail = _tail_percentile(len(calibrated))
    if tail is not None:
        info[f"op_s_p{tail}"] = statistics.quantiles(calibrated, n=100)[tail - 1]
    return info


def _fracs(outcome: dict) -> dict:
    """The outcome shares, as fractions of their stated bases."""
    return {
        "x_band_frac": (outcome["in_x_band"] / outcome["controlled"]
                        if outcome["controlled"] else None),
        "diverged_frac": outcome["diverged"] / outcome["ops"],
        "failed_frac": outcome["failed"] / outcome["ops"],
    }


def _untraced(workload, units, workdir, setup_first) -> dict:
    import calibration
    import workloads

    setups = [setup_first] + [_setup_in_subprocess() for _ in range(SETUP_SAMPLES - 1)]
    probe = calibration.SpeedProbe()
    with probe.sampling():
        results = workloads.run_units(workload, units, workdir, clock=probe.now)
    timing = _timing(results, probe)
    outcome = _outcomes(results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(c for _, c in setups),
        "ops_per_s": timing["ops_per_s"],
        "op_s_p50": timing["op_s_p50"],
        "peak_rss_mb": peak_rss_mb,
    }
    return {
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
        "attempted": outcome["ops"],
        "failed": outcome["failed"],
        "notes": {
            "setup_s": f"(median of {len(setups)} set-ups)",
            "ops_per_s": f"({timing['ops']} ops in {timing['units']} units)",
            "op_s_p50": f"(n={timing['op_latency_samples']})",
        },
        "info": {"setup_samples": [c for _, c in setups],
                 "raw_setup_samples": [s for s, _ in setups],
                 "timing": timing, "outcome": outcome,
                 **_fracs(outcome), "digests": [r.digest for r in results],
                 "units": [{"seconds": r.seconds, "op_seconds": r.op_seconds,
                            "statuses": [op.status for op in r.ops]} for r in results]},
    }


def _traced(workload, units, workdir, record_name) -> dict:
    import tracing
    import workloads

    untraced = workloads.run_units(workload, units, workdir)
    tracer = tracing.Tracer()
    traced = []
    with tracing.installed(tracer):
        for index, unit in enumerate(units):
            tracer.unit = index
            traced += workloads.run_units(workload, [unit], workdir)
    tracer.check_coverage(workload.name)

    mismatched = [i for i, (a, b) in enumerate(zip(untraced, traced)) if a.digest != b.digest]
    outcome_u, outcome_t = _outcomes(untraced), _outcomes(traced)
    failed = (outcome_u["failed"] + outcome_t["failed"] + len(tracer.problems)
              + sum(len(traced[i].ops) for i in mismatched))
    wall_u = sum(r.seconds for r in untraced)
    wall_t = sum(r.seconds for r in traced)
    values = tracer.layer_metrics()
    values["trace.overhead_frac"] = wall_t / wall_u - 1.0

    trace_dir = OUT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(str(trace_dir / f"{record_name}.jsonl"))
    return {
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in tracing.PER_LAYER},
        "attempted": outcome_u["ops"] + outcome_t["ops"],
        "failed": failed,
        "notes": {},
        "info": {
            "untraced_seconds": wall_u, "traced_seconds": wall_t,
            "outcome": outcome_t, **_fracs(outcome_t),
            "mismatched_units": mismatched, "trace_problems": tracer.problems[:20],
            "calls": dict(sorted(tracer.calls.items())), "spans": len(tracer.spans),
            "digests": [r.digest for r in traced],
        },
    }


def _print_report(name: str, report: dict) -> None:
    info = report["info"]
    for metric, entry in report["metrics"].items():
        note = report["notes"].get(metric, "")
        print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']} {note}".rstrip())
    for frac in ("x_band_frac", "diverged_frac", "failed_frac"):
        value = info[frac]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name} {frac} = {shown} frac (not gated)")
    shown = {k: v for k, v in info.items() if k not in ("digests", "units")}
    shown["digest"] = hashlib.sha256("".join(info["digests"]).encode()).hexdigest()[:16]
    print(f"# info {json.dumps(shown)}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "chaoscontrol" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'chaoscontrol'}; "
              "run from the root of a chaoscontrol checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in BLAS_THREAD_VARS:
        os.environ.setdefault(name, "1")
    if args.setup_probe:
        print(*map(repr, _setup()))
        return 0

    setup_first = _setup()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    # a traced run makes two passes over the units, so it takes half as many
    units = workload.units(args.seed, args.seconds / (2 if args.trace else 1))
    record_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = str(OUT / "work" / f"{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            report = _traced(workload, units, workdir, record_name)
        else:
            report = _untraced(workload, units, workdir, setup_first)
    except tracing.TraceCoverageError as exc:
        print(f"perfbench: trace coverage lost: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload, "why": workloads.WHY[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), **report,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{record_name}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# workload {args.workload}: {record['why']}")
    print(f"# env {json.dumps(record['environment'])}")
    _print_report(args.workload, report)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
