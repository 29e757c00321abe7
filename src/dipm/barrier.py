"""Logarithmic-barrier transform and the staged interior-point driver.

Stage objectives get stiffer along the schedule: their curvature grows
like t in the smooth term and like t^2 along directions of constraints
active at the optimum. Two solver knobs are therefore matched to the stage
scale. The splitting penalty is multiplied by t, which keeps the inner
contraction rate independent of the stage; and the inner tolerances are
divided by t^2, which keeps the decrement test reachable (a direction
error of size e contributes roughly e' H e to the decrement, so the error
budget shrinks with the curvature). Both are constant within a stage, so
every direction computation still factors each agent's system once.

For a block with objective f, inequality functions g_1..g_m, and stage
parameter t > 0, the stage objective is

    h(s)  = t f(s) - sum_j log(-g_j(s))
    h'(s) = t f'(s) + sum_j (-1/g_j) g_j'(s)
    h''(s)= t f''(s) + sum_j [ (1/g_j^2) g_j' g_j'^T - (1/g_j) g_j'' ]

defined where every g_j is strictly negative. Each barrier summand is
positive semidefinite when g_j is convex, so convexity survives the
transform. The driver minimizes the transformed problem for a geometric
schedule of t values, warm-starting every stage from the previous one, and
stops once the duality-gap proxy m/t drops below the target accuracy. Each
stage is a ``Stage`` (the problem's blocks, their barrier transforms and t)
solved by one ``newton_solve`` call extending the same ``SolveResult``: its
trace rows count the stages and iterations, and its ``t_final`` gives the
final gap proxy m / t_final.

With ``warm_start``, the record also carries what the next stage starts
from: its first direction begins at the previous stage's final duals, and
from the third stage on its point is extrapolated along the central path.
Stage centres approach the optimum like 1/t, so consecutive centre
differences shrink by mu, and ``s_k + (s_k - s_{k-1}) / mu`` predicts the
next centre; each agent backs the step off along the line search's
feasibility ladder, and the smallest agent step wins by one min-consensus.
"""

from dataclasses import replace

import numpy as np

from .config import SolverConfig
from .errors import BarrierDomainError
from .network import RoundScheduler
from .newton import Stage, newton_solve
from .problem import build_coupling, scatter

# floor for the stage-scaled inner tolerances: squared-norm residuals of
# double-precision iterates at unit scale bottom out around 1e-31, and the
# decrement test never needs anything tighter than about 1e-24
EPS_STAGE_FLOOR = 1e-28


class BarrierFunction:
    """Barrier-transformed stage objective of one block at parameter t."""

    def __init__(self, objective, inequality, t, agent=None):
        if t <= 0:
            raise ValueError("barrier parameter t must be positive")
        self.objective = objective
        self.inequality = tuple(inequality)
        self.t = float(t)
        self.agent = agent

    def _constraint_values(self, s):
        vals = []
        for c, g in enumerate(self.inequality):
            val = g.value(s)
            if val >= 0.0:
                raise BarrierDomainError(
                    f"constraint {c} of agent {self.agent} is not strictly satisfied "
                    f"(value {val:.6e})",
                    agent=self.agent,
                    constraint=c,
                )
            vals.append(val)
        return vals

    def value(self, s):
        vals = self._constraint_values(s)
        return self.t * self.objective.value(s) - sum(np.log(-v) for v in vals)

    def gradient(self, s):
        vals = self._constraint_values(s)
        out = self.t * self.objective.gradient(s)
        for g, val in zip(self.inequality, vals):
            out = out + (-1.0 / val) * g.gradient(s)
        return out

    def hessian(self, s):
        vals = self._constraint_values(s)
        out = self.t * self.objective.hessian(s)
        for g, val in zip(self.inequality, vals):
            gg = g.gradient(s)
            out = out + np.outer(gg, gg) / (val * val) - g.hessian(s) / val
        return out


def barrier_calculus(block, t, point):
    """Value, gradient, and Hessian of a block's barrier transform."""
    fn = BarrierFunction(block.objective, block.inequality, t)
    point = np.asarray(point, dtype=float)
    return fn.value(point), fn.gradient(point), fn.hessian(point)


def barrier_stage(problem, t):
    """The stage minimizing every block's barrier transform at parameter t."""
    return Stage(problem.blocks, tuple(
        BarrierFunction(blk.objective, blk.inequality, t, agent=i)
        for i, blk in enumerate(problem.blocks)
    ), t)


def ipm_solve(problem, s0_slices, config, coupling, scheduler, rows=None):
    """Interior-point loop: distributed Newton per stage, geometric t schedule.

    Requires a consistent, strictly feasible start; stage 0's Newton solve
    checks both. Stage q minimizes the barrier transform at t = t0 mu^q from
    the previous stage's solution (with ``warm_start``, from stage 2 on,
    extrapolated from the last two stage solutions, and with the previous
    stage's final duals); the loop ends after the first stage whose
    duality-gap proxy m/t is below eps_p. Factorizations are never reused
    across stages since every stage changes both t and the linearization
    points. Every stage extends one ``SolveResult``, whose rows are ``rows``
    when given.

    Each stage runs on a copy of ``config`` with penalty and inner
    tolerances matched to the stage scale (see the module docstring), so
    the consistency-error budget uses each stage's primal tolerance.
    """
    result = None
    t = config.t0
    while True:
        scale = max(1.0, t) ** 2
        stage_config = replace(
            config,
            rho=config.rho * t,
            eps_pri=max(config.eps_pri / scale, EPS_STAGE_FLOOR),
            eps_dual=max(config.eps_dual / scale, EPS_STAGE_FLOOR),
        )
        result = newton_solve(
            barrier_stage(problem, t),
            s0_slices if result is None else result.s_slices,
            stage_config, coupling, scheduler, rows=rows, earlier=result,
        )
        if problem.m_total / t < config.eps_p:
            return result
        t *= config.mu


def solve_ipm(problem, x0, config=None):
    """Convenience driver wiring coupling, scheduler, and the stage loop."""
    config = config or SolverConfig()
    coupling = build_coupling(problem)
    scheduler = RoundScheduler(coupling)
    s0 = scatter(np.asarray(x0, dtype=float), coupling)
    result = ipm_solve(problem, s0, config, coupling, scheduler)
    return result, scheduler
