"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload drift-hot --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` the per-layer
metrics and the tracing overhead.  A table goes to stdout first; the last
line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Scratch files (artifacts, the
span dump) live under ``.perfbench/`` in the current directory.
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS thread, so a run's speed does not depend on
# how many cores the machine's other tenants leave idle.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_workloads():
    """The benchmark imports the program from ``src/`` of this checkout."""
    src = os.path.join(_ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"perfbench: no program to measure: {src}/repro is missing")
    sys.path[:0] = [src, _ROOT]
    from perfbench import workloads

    return workloads


def main(argv=None) -> int:
    workloads = _import_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    scratch = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        run = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {run.workload}  seed {args.seed}  seconds {args.seconds:g}")
    for name, (value, unit) in sorted(run.metrics.items()):
        print(f"  {name:<32} {value:>14.6g} {unit}")
    for check, ok in run.checks.items():
        print(f"  check: {check}: {'ok' if ok else 'FAILED'}")
    for key, value in run.notes.items():
        print(f"  {key}: {value}")
    if run.failures.count:
        print(f"  failures by type: {run.failures.by_type}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": int(run.attempted),
        "failed": int(run.failures.count),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in run.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
