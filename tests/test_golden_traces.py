"""Recorded trace CSVs: solver output must stay byte-identical across changes.

Each fixture under ``tests/fixtures/`` is the ``rows_to_csv`` output of one
seeded solve. A change that alters any trace value, iteration count or
message count shows up here as a byte difference, which a comparison of
two runs of the same code cannot catch.

Regenerate the fixtures (only when a change of results is intended) with

    PYTHONPATH=src python tests/test_golden_traces.py [NAME ...]

which rewrites the named fixtures (``ipm_family_seed0`` or
``ipm_family_seed0.trace.csv``), or all of them when no name is given, and
prints, for each fixture before it is overwritten, the row count, whether
every step size is unchanged, and the inner-iteration and message totals,
old -> new.

The ``_cold`` fixtures run with ``warm_start=False``, so they pin the
splitting iteration's cold start as well.
"""

import csv
import io
from functools import partial
from pathlib import Path

import pytest

from dipm import SolverConfig, random_qp, solve_ipm, solve_newton
from dipm.trace import rows_to_csv

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _chain_long(seed, warm_start=True):
    problem, x0 = random_qp(seed, n_agents=16, block_size=3, overlap=1, n_eq=1)
    result, _ = solve_newton(problem, x0, SolverConfig(eps_nt=1e-8, warm_start=warm_start))
    return result.rows


def _ipm_family(seed, warm_start=True):
    problem, x0 = random_qp(seed, n_agents=2 + seed % 5, block_size=3, overlap=1,
                            n_ineq=1 + seed % 2)
    result, _ = solve_ipm(problem, x0, SolverConfig(eps_p=1e-6, warm_start=warm_start))
    return result.rows


# block size 3 with overlap 2: interior variables have three owners, so a
# change in the order the exchange sums their contributions changes bits,
# which a two-owner chain (a two-term sum) cannot show
def _three_owner_newton(seed):
    problem, x0 = random_qp(seed, n_agents=6, block_size=3, overlap=2, n_eq=1)
    result, _ = solve_newton(problem, x0, SolverConfig())
    return result.rows


def _three_owner_ipm(seed, warm_start=True):
    problem, x0 = random_qp(seed, n_agents=6, block_size=3, overlap=2, n_ineq=1)
    result, _ = solve_ipm(problem, x0, SolverConfig(warm_start=warm_start))
    return result.rows


# fixture name -> (solve returning trace rows, seed)
RUNS = {
    **{f"chain_long_seed{s}.trace.csv": (_chain_long, s) for s in range(2)},
    **{f"ipm_family_seed{s}.trace.csv": (_ipm_family, s) for s in range(3)},
    **{f"three_owner_newton_seed{s}.trace.csv": (_three_owner_newton, s) for s in range(2)},
    "three_owner_ipm_seed0.trace.csv": (_three_owner_ipm, 0),
    "chain_long_seed0_cold.trace.csv": (partial(_chain_long, warm_start=False), 0),
    "ipm_family_seed1_cold.trace.csv": (partial(_ipm_family, warm_start=False), 1),
    "three_owner_ipm_seed0_cold.trace.csv": (partial(_three_owner_ipm, warm_start=False), 0),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trace_matches_golden_bytes(name):
    run, seed = RUNS[name]
    expected = (FIXTURES / name).read_bytes()
    assert rows_to_csv(run(seed)).encode() == expected


def _report(name, old, new):
    """One line comparing a fixture's recorded rows with a new run's."""
    old_rows = list(csv.DictReader(io.StringIO(old)))
    new_rows = list(csv.DictReader(io.StringIO(new)))
    same_alpha = [r["alpha"] for r in old_rows] == [r["alpha"] for r in new_rows]
    parts = [f"rows {len(old_rows)} -> {len(new_rows)}",
             f"alpha {'unchanged' if same_alpha else 'CHANGED'}"]
    for col, label in (("inner_iterations", "inner"), ("messages", "messages")):
        before, after = (sum(int(r[col]) for r in rows) for rows in (old_rows, new_rows))
        parts.append(f"{label} {before} -> {after}")
    return f"{name}: " + ", ".join(parts)


if __name__ == "__main__":
    import sys

    names = [n if n.endswith(".trace.csv") else n + ".trace.csv" for n in sys.argv[1:]]
    unknown = [n for n in names if n not in RUNS]
    if unknown:
        sys.exit(f"unknown fixture {unknown[0]}; known: {', '.join(sorted(RUNS))}")
    FIXTURES.mkdir(exist_ok=True)
    for name in sorted(names or RUNS):
        run, seed = RUNS[name]
        path = FIXTURES / name
        new = rows_to_csv(run(seed))
        if path.exists():
            print(_report(name, path.read_text(), new))
        path.write_bytes(new.encode())
        print(f"wrote {path}")
