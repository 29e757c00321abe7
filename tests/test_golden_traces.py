"""Recorded trace CSVs: solver output must stay byte-identical across changes.

Each fixture under ``tests/fixtures/`` is the ``rows_to_csv`` output of one
seeded solve. A change that alters any trace value, iteration count or
message count shows up here as a byte difference, which a comparison of
two runs of the same code cannot catch.

Regenerate the fixtures (only when a change of results is intended) with

    PYTHONPATH=src python tests/test_golden_traces.py
"""

from pathlib import Path

import pytest

from dipm import SolverConfig, random_qp, solve_ipm, solve_newton
from dipm.trace import rows_to_csv

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _chain_long(seed):
    problem, x0 = random_qp(seed, n_agents=16, block_size=3, overlap=1, n_eq=1)
    result, _ = solve_newton(problem, x0, SolverConfig(eps_nt=1e-8))
    return result.rows


def _ipm_family(seed):
    problem, x0 = random_qp(seed, n_agents=2 + seed % 5, block_size=3, overlap=1,
                            n_ineq=1 + seed % 2)
    result, _ = solve_ipm(problem, x0, SolverConfig(eps_p=1e-6))
    return result.rows


# fixture name -> (solve returning trace rows, seed)
RUNS = {
    **{f"chain_long_seed{s}.trace.csv": (_chain_long, s) for s in range(2)},
    **{f"ipm_family_seed{s}.trace.csv": (_ipm_family, s) for s in range(3)},
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trace_matches_golden_bytes(name):
    run, seed = RUNS[name]
    expected = (FIXTURES / name).read_bytes()
    assert rows_to_csv(run(seed)).encode() == expected


if __name__ == "__main__":
    FIXTURES.mkdir(exist_ok=True)
    for name, (run, seed) in sorted(RUNS.items()):
        (FIXTURES / name).write_bytes(rows_to_csv(run(seed)).encode())
        print(f"wrote {FIXTURES / name}")
