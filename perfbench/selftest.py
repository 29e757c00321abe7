"""Self-test of the benchmark itself; run from the repository root:

    python3 perfbench/selftest.py

Runs a desk-size instance of every workload, untraced and traced, through
the same harness and printer the benchmark uses, and checks that

* BENCHMARK.json declares exactly the workloads that workloads.py defines;
* every metric BENCHMARK.json declares is printed in the table and in the
  JSON line, with its unit;
* the message, round and per-kind counts equal ``scheduler.total_sent``,
  ``scheduler.round_index`` and ``messages_of_kind(...)`` of a plain
  ``solve_newton`` / ``solve_ipm`` call on the same instance.

Exits 1 and lists what differs on failure.
"""

import io
import json
import sys
from contextlib import redirect_stdout

import run


def printed(report):
    """The report as the benchmark prints it: (table lines, JSON result)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        run.print_report(report)
    lines = buf.getvalue().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_printed(report, expected, errors, table_only=()):
    table, result = printed(report)
    where = f"{report.workload} {'traced' if report.trace else 'untraced'}"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: JSON keys {sorted(result)}")
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if got != list(expected):
        errors.append(f"{where}: JSON metrics {got} != {list(expected)}")
    if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
        errors.append(f"{where}: result {result['correct']}, {result['attempted']} "
                      f"attempted, {result['failed']} failed; table: {table}")
    rows = {line.split()[0]: line.split() for line in table if not line.startswith("#")}
    for name, unit in tuple(expected) + tuple(table_only):
        if name not in rows or rows[name][2] != unit:
            errors.append(f"{where}: {name} [{unit}] not printed in the table")
    return result


def main():
    run.import_solver()
    import harness
    from dipm import solve_ipm, solve_newton
    from dipm.network import KIND_FLAG, KIND_MIN, KIND_SHARED
    from workloads import WORKLOADS

    errors = []
    if list(WORKLOADS) != list(harness.SPEC_WORKLOADS):
        errors.append(f"workloads.py defines {list(WORKLOADS)}, "
                      f"BENCHMARK.json declares {list(harness.SPEC_WORKLOADS)}")

    for name, workload in WORKLOADS.items():
        def tiny_run(trace):
            return harness.run(workload, 0, 0.0, trace, family_size=1,
                               make=workload.make_tiny, env=harness.environment())

        report = tiny_run(False)
        untraced = check_printed(report, harness.END_TO_END, errors, harness.TABLE_ONLY)
        public = {row[0]: row[1] for row in report.table}
        traced = check_printed(tiny_run(True), harness.PER_LAYER, errors)

        problem, x0 = workload.make_tiny(0)
        plain = solve_ipm if workload.uses_barrier else solve_newton
        _, scheduler = plain(problem, x0, workload.config)
        e2e = {k: m["value"] for k, m in untraced["metrics"].items()}
        layer = {k: m["value"] for k, m in traced["metrics"].items()}
        expected = {
            "messages_per_solve": (e2e["messages_per_solve"], scheduler.total_sent),
            "rounds_per_solve": (e2e["rounds_per_solve"], scheduler.round_index),
            "flag+min+shared rounds": (
                layer["network.flag_rounds"] + layer["network.min_rounds"]
                + layer["network.shared_rounds"], scheduler.round_index),
        }
        for kind, metric in ((KIND_FLAG, "network.flag_messages"),
                             (KIND_MIN, "network.min_messages"),
                             (KIND_SHARED, "network.shared_messages")):
            expected[metric] = (layer[metric], scheduler.messages_of_kind(kind))
            expected[metric + " (untraced)"] = (public[metric],
                                                scheduler.messages_of_kind(kind))
        for what, (got, want) in expected.items():
            if got != want:
                errors.append(f"{name}: {what} is {got}, plain solve gives {want}")

    for error in errors:
        print(f"FAIL {error}")
    print(f"selftest: {'FAILED' if errors else 'ok'} "
          f"({len(WORKLOADS)} workloads, {len(errors)} problems)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
