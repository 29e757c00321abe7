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
stage is a ``Stage`` (the problem's blocks, their groups each minimizing
one stacked ``BarrierFunction``, and t) solved by one ``newton_solve`` call
extending the same ``SolveResult``: its trace rows count the stages and
iterations, and its ``t_final`` gives the final gap proxy m / t_final.

With ``warm_start``, the record also carries what the next stage starts
from: its first direction begins at the previous stage's final duals, and
from the third stage on its point and those duals are extrapolated along
the central path. Stage centres approach the optimum like 1/t, so
consecutive centre differences shrink by mu, and
``s_k + (s_k - s_{k-1}) / mu`` predicts the next centre; each agent backs
the step off along the line search's feasibility ladder, and the smallest
agent step beta wins by one min-consensus. The splitting duals
v = (H dz + g) / rho are scale-free (H, g and rho all grow like t) and
approach their limit like 1/t too, so the first direction starts from
``v_k + beta (v_k - v_{k-1}) / mu``, with the point's beta. Both dual
vectors have a zero owner-average, so the start is a valid splitting
start.
"""

from dataclasses import replace

import numpy as np

from .config import SolverConfig
from .errors import BarrierDomainError, StructureError
from .network import RoundScheduler
from .newton import Stage, newton_solve
from .problem import build_coupling, group_blocks, scatter

# floor for the stage-scaled inner tolerances: squared-norm residuals of
# double-precision iterates at unit scale bottom out around 1e-31, and the
# decrement test never needs anything tighter than about 1e-24
EPS_STAGE_FLOOR = 1e-28


class BarrierFunction:
    """Barrier-transformed stage objective of one block at parameter t.

    The same class is the stacked form of a group's transforms: its
    ``objective`` and each of its ``inequality`` pieces are then stacked
    functions (``problem.stack_functions``), ``agent`` holds the members'
    indices, and every argument is a stack of points (..., g, d), one per
    member along its second-to-last axis. The arithmetic per member is that
    of its own transform, bit for bit, and a point outside the domain names
    the lowest failing member's agent, then its lowest failing constraint.
    """

    def __init__(self, objective, inequality, t, agent=None):
        if not 0 < t < np.inf:
            raise ValueError("barrier parameter t must be positive and finite")
        self.objective = objective
        self.inequality = tuple(inequality)
        self.t = float(t)
        self.agent = agent

    def take(self, rows):
        """The stacked transform of the members ``rows``, in that order."""
        return BarrierFunction(self.objective.take(rows),
                               [g.take(rows) for g in self.inequality], self.t,
                               agent=self.agent[rows])

    def _constraint_values(self, s):
        vals = [g.value(s) for g in self.inequality]
        outside = np.array(vals) >= 0.0
        if outside.any():
            # constraint, point, member: the lowest failing member (the last
            # axis of a stack), then its lowest failing constraint
            members = 1 if np.ndim(s) == 1 else np.shape(s)[-2]
            outside = outside.reshape(len(vals), -1, members)
            k = int(np.argmax(outside.any(axis=(0, 1))))
            c = int(np.argmax(outside[:, :, k].any(axis=1)))
            at = np.asarray(vals[c]).reshape(-1, members)[:, k]
            agent = self.agent if np.ndim(s) == 1 else self.agent[k]
            raise BarrierDomainError(
                f"constraint {c} of agent {agent} is not strictly satisfied "
                f"(value {at[np.argmax(at >= 0.0)]:.6e})",
                agent=agent,
                constraint=c,
            )
        return vals

    def value(self, s):
        vals = self._constraint_values(s)
        return self.t * self.objective.value(s) - sum(np.log(-v) for v in vals)

    def gradient(self, s):
        vals = self._constraint_values(s)
        out = self.t * self.objective.gradient(s)
        for g, val in zip(self.inequality, vals):
            out = out + (-1.0 / np.asarray(val))[..., None] * g.gradient(s)
        return out

    def hessian(self, s):
        vals = self._constraint_values(s)
        out = self.t * self.objective.hessian(s)
        for g, val in zip(self.inequality, vals):
            gg = g.gradient(s)
            val = np.asarray(val)[..., None, None]
            out = out + gg[..., :, None] * gg[..., None, :] / (val * val) - g.hessian(s) / val
        return out


def barrier_calculus(block, t, point):
    """Value, gradient, and Hessian of a block's barrier transform."""
    fn = BarrierFunction(block.objective, block.inequality, t)
    point = np.asarray(point, dtype=float)
    return fn.value(point), fn.gradient(point), fn.hessian(point)


def barrier_stage(problem, t, groups=None):
    """The stage minimizing every block's barrier transform at parameter t.

    ``groups`` are the problem's ``BlockGroup``s (``group_blocks``), built
    when omitted; each group's transforms are one stacked
    ``BarrierFunction`` over the group's stacked objectives and constraints.
    """
    groups = group_blocks(problem.blocks) if groups is None else groups
    stacked = tuple(
        grp._replace(objective=BarrierFunction(grp.f, grp.inequality, t, agent=grp.members))
        for grp in groups
    )
    return Stage(problem.blocks, stacked, t)


def ipm_solve(problem, s0_slices, config, coupling, scheduler, rows=None):
    """Interior-point loop: distributed Newton per stage, geometric t schedule.

    Requires a consistent, strictly feasible start; stage 0's Newton solve
    checks both. Stage q minimizes the barrier transform at t = t0 mu^q from
    the previous stage's solution (with ``warm_start``, and with its final
    duals, from stage 2 on both extrapolated from the last two stages); the
    loop ends after the first stage whose duality-gap proxy m/t is below
    eps_p. Factorizations are never reused across stages since every stage
    changes both t and the linearization points. Every stage extends one
    ``SolveResult``, whose rows are ``rows`` when given.

    Each stage runs on a copy of ``config`` with penalty and inner
    tolerances matched to the stage scale (see the module docstring), so
    the consistency-error budget uses each stage's primal tolerance. A
    stage parameter t whose square overflows raises ``StructureError``.
    """
    result = None
    t = config.t0
    groups = group_blocks(problem.blocks)
    while True:
        scale = max(1.0, t) * max(1.0, t)
        if scale == np.inf:
            raise StructureError(f"stage parameter t = {t:g} is too large: t^2 overflows")
        stage_config = replace(
            config,
            rho=config.rho * t,
            eps_pri=max(config.eps_pri / scale, EPS_STAGE_FLOOR),
            eps_dual=max(config.eps_dual / scale, EPS_STAGE_FLOOR),
        )
        result = newton_solve(
            barrier_stage(problem, t, groups),
            s0_slices if result is None else np.split(result.s, coupling.offsets[1:-1]),
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
