"""The benchmark's seeded workload families.

Each workload generates its instances from consecutive integer seeds, fixes
the solver configuration, solves through the public library entry points
(``ipm_solve`` for the barrier family, ``newton_solve`` otherwise) and
checks every result against the dense oracle with the tolerance stated in
NOTES.md. The oracle reference is computed by the harness outside every
timed region.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

import dipm.barrier
import dipm.newton
from dipm import SolverConfig, plain_stage, random_qp, scatter
from dipm.oracle import assemble_dense, centralized_ipm, centralized_newton


@dataclass
class Reference:
    """Dense oracle solution of one instance."""

    dense: object
    x: np.ndarray
    value: float


@dataclass(frozen=True)
class Check:
    """Verdict of one solve against its reference.

    ``margin`` is the checked error as a share of its tolerance, so a
    passing solve has ``margin <= 1``.
    """

    ok: bool
    margin: float
    detail: str


@dataclass(frozen=True)
class Workload:
    name: str
    family_size: int
    passes: int  # timed passes over the family; each step's time is its best of these
    make: Callable  # seed -> (problem, x0)
    make_tiny: Callable  # seed -> (problem, x0), same code path at desk size
    config: SolverConfig
    uses_barrier: bool
    reference: Callable  # (problem, x0) -> Reference
    check: Callable  # (problem, coupling, x, t_final, Reference) -> Check


def solve(workload, problem, x0, coupling, scheduler, rows):
    """One solve through the library API; returns (x, t_final).

    ``rows`` receives the trace rows as they are produced, so a solve that
    raises still leaves its partial iteration record behind. The solver
    entry points are looked up on their modules at call time, which is
    where the traced run wraps them.
    """
    s0 = scatter(x0, coupling)
    if workload.uses_barrier:
        res = dipm.barrier.ipm_solve(problem, s0, workload.config, coupling, scheduler,
                                     rows=rows)
        return res.x, res.t_final
    res = dipm.newton.newton_solve(plain_stage(problem), s0, workload.config, coupling,
                                   scheduler, rows=rows)
    return res.x, None


# ---------------------------------------------------------------------------
# ipm-family: the criterion-3 family, the only workload through the barrier
# ---------------------------------------------------------------------------

def _ipm_make(seed):
    return random_qp(seed, n_agents=2 + seed % 5, block_size=3, overlap=1,
                     n_ineq=1 + seed % 2)


def _ipm_tiny(seed):
    return random_qp(seed, n_agents=2, block_size=3, overlap=1, n_ineq=1 + seed % 2)


def _ipm_reference(problem, x0):
    dense = assemble_dense(problem)
    x = centralized_ipm(dense, x0, eps_p=1e-7, eps_nt=1e-9)
    return Reference(dense, x, dense.value(x))


def _ipm_check(problem, coupling, x, t_final, ref):
    gap = ref.dense.value(x) - ref.value
    bound = problem.m_total / t_final + 1e-6
    slices = scatter(x, coupling)
    worst_g = max(
        (g.value(s) for blk, s in zip(problem.blocks, slices) for g in blk.inequality),
        default=-np.inf,
    )
    ok = gap <= bound and worst_g < 0.0
    return Check(ok, gap / bound,
                 f"gap {gap:.3e} vs bound {bound:.3e}, max constraint value {worst_g:.3e}")


# ---------------------------------------------------------------------------
# chain-long: diameter-15 chain with equality rows (KKT path, flag traffic)
# ---------------------------------------------------------------------------

CHAIN_TOL = 1e-5


def _chain_make(seed):
    return random_qp(seed, n_agents=16, block_size=3, overlap=1, n_eq=1)


def _chain_tiny(seed):
    return random_qp(seed, n_agents=4, block_size=3, overlap=1, n_eq=1)


def _newton_reference(problem, x0):
    dense = assemble_dense(problem)
    x = centralized_newton(dense, x0, eps_nt=1e-10)
    return Reference(dense, x, dense.value(x))


def _chain_check(problem, coupling, x, t_final, ref):
    err = float(np.abs(x - ref.x).max())
    eq = max(
        (float(np.abs(blk.A_eq @ s - blk.b_eq).max())
         for blk, s in zip(problem.blocks, scatter(x, coupling)) if blk.A_eq is not None),
        default=0.0,
    )
    margin = max(err, eq) / CHAIN_TOL
    return Check(margin <= 1.0, margin,
                 f"|x - x_ref|_inf {err:.3e}, max equality residual {eq:.3e}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ipm-family",
            family_size=3,
            passes=28,
            make=_ipm_make,
            make_tiny=_ipm_tiny,
            config=SolverConfig(eps_p=1e-6),
            uses_barrier=True,
            reference=_ipm_reference,
            check=_ipm_check,
        ),
        Workload(
            name="chain-long",
            family_size=2,
            passes=16,
            make=_chain_make,
            make_tiny=_chain_tiny,
            config=SolverConfig(eps_nt=1e-8),
            uses_barrier=False,
            reference=_newton_reference,
            check=_chain_check,
        ),
    )
}
