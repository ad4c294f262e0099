"""Host-measured benchmark of the LD-BN-ADAPT real-time loop and fleet.

Run from the repository root::

    python3 perfbench/run.py --workload vehicle --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed;
``--trace 1`` alternates untraced and traced episodes and reports the
per-layer metrics (see README.md).  Human-readable lines go first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One process, single-threaded kernels: BLAS and the cgen kernel pool stay
# at one thread so the load generator never oversubscribes the host
# (the tiny model's GEMMs gain nothing from a second BLAS thread).  Set
# before numpy is imported anywhere.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_CGEN_THREADS": "1",
}


def fingerprint() -> dict:
    """CPU model, core count, BLAS and its threads, compiler, Python."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas_name = "unknown"
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    cc_version = "none"
    if cc:
        proc = subprocess.run([cc, "--version"], capture_output=True,
                              text=True, timeout=30)
        cc_version = (proc.stdout.splitlines() or ["unknown"])[0]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cc": cc_version,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare(run_id: str) -> Path:
    """Environment and import path for a run; returns its work directory.

    Every file the run writes (cgen cache, checkpoints, temporaries)
    lives under ``.perfbench/`` in the checkout and is removed at exit.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    workdir = ROOT / ".perfbench" / run_id
    (workdir / "tmp").mkdir(parents=True)
    os.environ.update(THREAD_ENV)
    os.environ["TMPDIR"] = str(workdir / "tmp")
    tempfile.tempdir = str(workdir / "tmp")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return workdir


def report(name: str, result: dict, host: dict) -> None:
    print(f"perfbench {name}: {result['episodes']} episodes, "
          f"{result['attempted']} frames offered, {result['failed']} failed")
    print("host: " + json.dumps(host, sort_keys=True))
    print("outputs: " + json.dumps(result["outputs"], sort_keys=True))
    for metric, (value, unit, samples) in result["metrics"].items():
        print(f"  {metric:30s} {value:>14.6g} {unit:9s} n={samples}")
    for metric, (value, unit, samples) in result["info"].items():
        print(f"  {metric:30s} {value:>14.6g} {unit:9s} n={samples} "
              f"(not gated)")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = prepare(f"{args.workload}-{os.getpid()}-{time.time_ns()}")
    try:
        import harness

        if args.workload not in harness.WORKLOADS:
            raise SystemExit(
                f"perfbench: unknown workload {args.workload!r}; expected "
                f"one of {sorted(harness.WORKLOADS)}"
            )
        workload = harness.WORKLOADS[args.workload]
        measure = harness.measure_traced if args.trace else harness.measure
        result = measure(workload, args.seed, args.seconds, workdir)
        report(args.workload, result, fingerprint())
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit, _) in result["metrics"].items()
            },
        }))
        return 0 if result["correct"] else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
