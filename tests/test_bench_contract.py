"""The library surface that the benchmark in ``perfbench/`` relies on.

The benchmark wraps the functions listed in ``perfbench/tracing.WRAPPED``
at their lookup sites, counts rounds by overriding
``RoundScheduler.deliver_round`` and reads the span kind from its second
positional argument, and checks one factorization per agent per direction.
A change to any of these breaks the benchmark; these tests catch it in the
ordinary suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import dipm.barrier
import dipm.linalg
import dipm.newton
from dipm import RoundScheduler, SolverConfig, build_coupling, plain_stage, random_qp, scatter


def load_tracing():
    """Import perfbench/tracing.py by path, writing no bytecode cache there."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracing = load_tracing()


def resolve(spec, attr):
    module, _, cls = spec.partition(":")
    owner = importlib.import_module(module)
    return getattr(getattr(owner, cls) if cls else owner, attr)


@pytest.mark.parametrize("spec,attr", [(spec, attr) for spec, attr, _ in tracing.WRAPPED])
def test_wrapped_lookup_sites_resolve(spec, attr):
    assert callable(resolve(spec, attr))


class CountingScheduler(RoundScheduler):
    def __init__(self, coupling):
        super().__init__(coupling)
        self.calls = 0
        self.kinds = set()

    def deliver_round(self, payload, kind):
        self.calls += 1
        self.kinds.add(kind)
        return super().deliver_round(payload, kind)


def newton_run():
    problem, x0 = random_qp(0, n_agents=4, block_size=3, overlap=1, n_eq=1)
    coupling = build_coupling(problem)
    sched = CountingScheduler(coupling)
    res = dipm.newton.newton_solve(plain_stage(problem), scatter(x0, coupling),
                                   SolverConfig(eps_nt=1e-8), coupling, sched)
    return problem, sched, res.rows


def ipm_run():
    problem, x0 = random_qp(1, n_agents=3, block_size=3, overlap=1, n_ineq=2)
    coupling = build_coupling(problem)
    sched = CountingScheduler(coupling)
    res = dipm.barrier.ipm_solve(problem, scatter(x0, coupling),
                                 SolverConfig(eps_p=1e-3), coupling, sched)
    return problem, sched, res.rows


@pytest.mark.parametrize("run", [newton_run, ipm_run], ids=["newton", "ipm"])
def test_one_deliver_call_per_round_and_one_factorization_per_agent(run):
    before = dipm.linalg.factorization_count()
    problem, sched, rows = run()
    assert sched.round_index > 0
    assert sched.calls == sched.round_index
    assert sched.kinds <= set(tracing.DELIVER)
    assert dipm.linalg.factorization_count() - before == problem.n_agents * len(rows)
    assert np.sum([r.messages for r in rows]) == sched.total_sent
