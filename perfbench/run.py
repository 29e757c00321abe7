"""Benchmark entry point for the dipm solver.

    python3 perfbench/run.py --workload ipm-family --seed 0 --seconds 30 --trace 0

Run from the root of a source tree: the solver is imported from ``src/``
next to this directory, never from an installed copy. Prints a table of
every metric with its unit, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
The traced run also writes its spans to ``.perfbench-out/spans-<workload>.npz``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
# blocks are at most 5x5: threaded BLAS only adds contention
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    p.add_argument("--seed", type=int, required=True,
                   help="sets the order in which each pass visits the family")
    p.add_argument("--seconds", type=float, required=True,
                   help="minimum timed duration; the family is solved in a fixed number "
                        "of whole passes in any case, and only those are timed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_solver():
    """Import the solver from ``src/``; exit non-zero if it is not there."""
    if not (SRC / "dipm" / "__init__.py").is_file():
        sys.exit(f"error: solver sources not found under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import dipm
    if not Path(dipm.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported dipm from {dipm.__file__}, not from {SRC}")


def print_report(report):
    print(f"# workload {report.workload}, {'traced' if report.trace else 'untraced'}, "
          f"instance seeds in pass order {report.order}")
    print("# env " + " ".join(f"{k}={v}" for k, v in report.env.items()))
    width = max(len(name) for name, *_ in report.table)
    for name, value, unit, note in report.table:
        print(f"{name:<{width}}  {value:>14.6g}  {unit:<12} {note}".rstrip())
    for seed, detail in report.failures:
        print(f"# FAILED seed {seed}: {detail}")
    for problem in report.problems:
        print(f"# BENCHMARK CHECK FAILED: {problem}")
    result = {
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None):
    args = parse_args(argv)
    import_solver()
    import harness
    from workloads import WORKLOADS

    if args.workload not in harness.SPEC_WORKLOADS or args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(harness.SPEC_WORKLOADS)}")
    report = harness.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                         env=harness.environment())
    if report.recorder is not None:
        OUT.mkdir(exist_ok=True)
        report.recorder.save(OUT / f"spans-{args.workload}.npz")
    print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
