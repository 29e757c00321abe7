"""Distributed Newton / interior-point solver for loosely coupled problems.

Agents jointly minimize a sum of low-dimensional convex blocks coupled
through shared variables. Newton directions are computed by operator
splitting over a simulated synchronous message-passing network; a barrier
stage loop on top handles inequality constraints. Centralized dense
solvers are included as cross-check oracles.
"""

from .barrier import BarrierFunction, barrier_calculus, ipm_solve, solve_ipm
from .config import SolverConfig
from .direction import DirectionResult, DirectionWorkspace, compute_direction
from .generator import random_qp
from .network import RoundScheduler, all_agree, exchange_shared_components, min_consensus
from .newton import SolveResult, Stage, newton_solve, plain_stage, solve_newton
from .problem import (
    AgentBlock,
    CouplingStructure,
    LooselyCoupledProblem,
    QuadraticFunction,
    SoftplusRidge,
    build_coupling,
    check_finite_difference,
    consistency_error,
    gather_average,
    scatter,
)

__all__ = [
    "AgentBlock",
    "BarrierFunction",
    "CouplingStructure",
    "DirectionResult",
    "DirectionWorkspace",
    "LooselyCoupledProblem",
    "QuadraticFunction",
    "RoundScheduler",
    "SoftplusRidge",
    "SolveResult",
    "SolverConfig",
    "Stage",
    "all_agree",
    "barrier_calculus",
    "build_coupling",
    "check_finite_difference",
    "compute_direction",
    "consistency_error",
    "exchange_shared_components",
    "gather_average",
    "ipm_solve",
    "min_consensus",
    "newton_solve",
    "plain_stage",
    "random_qp",
    "scatter",
    "solve_ipm",
    "solve_newton",
]

__version__ = "0.1.0"
