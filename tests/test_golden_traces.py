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
every step size is unchanged, the inner-iteration and message totals,
old -> new, and every column in which any value changed.

The ``_cold`` fixtures run with ``warm_start=False``, so they pin the
splitting iteration's cold start as well. The ``mixed_`` fixtures pin what
the two benchmark workloads do not reach: a coupling graph with cycles,
local sizes 2 to 4, quadratic and softplus objectives side by side in one
group of agents, equality rows on some agents, and inequalities in
differing numbers.
"""

import csv
import io
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from dipm import (
    AgentBlock,
    LooselyCoupledProblem,
    QuadraticFunction,
    SoftplusRidge,
    SolverConfig,
    random_qp,
    solve_ipm,
    solve_newton,
)
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


# index sets of a coupling graph with cycles; agents 0, 1, 5 have three
# entries, 2 and 4 two, 3 four
MIXED_INDEX_SETS = ((0, 1, 2), (2, 3, 4), (0, 5), (1, 4, 6, 7), (5, 8), (3, 7, 8))


def _spd(rng, d):
    X = rng.standard_normal((d, d))
    return X @ X.T + 0.5 * np.eye(d)


def _mixed_newton(seed):
    """Softplus agents 1, 3, 4 beside quadratic ones; equality rows on agents 0, 1, 3, 5."""
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(9)
    blocks = []
    for i, idx in enumerate(MIXED_INDEX_SETS):
        d = len(idx)
        if i in (1, 3, 4):
            f = SoftplusRidge(d, ridge=0.5, linear=rng.standard_normal(d))
        else:
            f = QuadraticFunction(_spd(rng, d), rng.standard_normal(d), 0.1)
        A = b = None
        if i in (0, 1, 3, 5):
            A = rng.standard_normal((1, d))
            b = A @ x0[list(idx)]
        blocks.append(AgentBlock(index_set=idx, objective=f, A_eq=A, b_eq=b))
    result, _ = solve_newton(LooselyCoupledProblem(n=9, blocks=tuple(blocks)), x0,
                             SolverConfig())
    return result.rows


def _mixed_ipm(seed):
    """Agent i has i % 3 inequalities (halfspaces, then a ball); agent 4 is softplus."""
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(9)
    blocks = []
    for i, idx in enumerate(MIXED_INDEX_SETS):
        d, s0 = len(idx), x0[list(idx)]
        if i == 4:
            f = SoftplusRidge(d, ridge=1.0, linear=rng.standard_normal(d))
        else:
            f = QuadraticFunction(_spd(rng, d), rng.standard_normal(d))
        ineqs = []
        for c in range(i % 3):
            if c == 0:
                a = rng.standard_normal(d)
                ineqs.append(QuadraticFunction(np.zeros((d, d)), a,
                                               -(a @ s0) - rng.uniform(0.2, 1.0)))
            else:
                center = s0 + rng.uniform(-0.3, 0.3, size=d)
                ineqs.append(QuadraticFunction(np.eye(d), -center,
                                               0.5 * float(center @ center) - 0.5 * 2.0**2))
        blocks.append(AgentBlock(index_set=idx, objective=f, inequality=tuple(ineqs)))
    result, _ = solve_ipm(LooselyCoupledProblem(n=9, blocks=tuple(blocks)), x0,
                          SolverConfig(eps_p=1e-6))
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
    "mixed_newton_seed0.trace.csv": (_mixed_newton, 0),
    "mixed_ipm_seed0.trace.csv": (_mixed_ipm, 0),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trace_matches_golden_bytes(name):
    run, seed = RUNS[name]
    expected = (FIXTURES / name).read_bytes()
    assert rows_to_csv(run(seed)).encode() == expected


def test_report_names_every_changed_column():
    old = "stage,inner_iterations,alpha,messages\n0,5,1.0,30\n0,1,0.5,30\n"
    assert _report("f", old, old).endswith("changed columns: none")
    new = "stage,inner_iterations,alpha,messages\n0,5,1.0,3\n0,1,0.25,30\n"
    assert _report("f", old, new) == ("f: rows 2 -> 2, alpha CHANGED, inner 6 -> 6, "
                                      "messages 60 -> 33, changed columns: alpha, messages")


def _report(name, old, new):
    """One line comparing a fixture's recorded rows with a new run's."""
    old_csv, new_csv = (csv.DictReader(io.StringIO(text)) for text in (old, new))
    old_rows, new_rows = list(old_csv), list(new_csv)
    columns = dict.fromkeys(old_csv.fieldnames + new_csv.fieldnames)
    changed = [col for col in columns
               if [r.get(col) for r in old_rows] != [r.get(col) for r in new_rows]]
    parts = [f"rows {len(old_rows)} -> {len(new_rows)}",
             f"alpha {'CHANGED' if 'alpha' in changed else 'unchanged'}"]
    for col, label in (("inner_iterations", "inner"), ("messages", "messages")):
        before, after = (sum(int(r[col]) for r in rows) for rows in (old_rows, new_rows))
        parts.append(f"{label} {before} -> {after}")
    parts.append(f"changed columns: {', '.join(changed) or 'none'}")
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
