"""Outer Newton loop with distributed direction, decrement, and line search.

A ``Stage`` is what the agents minimize: the problem's blocks, one stage
objective per agent and the stage parameter t. Each outer iteration
linearizes the stage objectives at the current iterates, computes the
Newton direction with the splitting solver, and terminates once every
agent's local curvature form satisfies its share of the decrement test.
Otherwise every agent backtracks on its own stage objective from the
value already evaluated at its iterate, the smallest step wins by
min-consensus, and all agents move by that common step. Because every
update adds a common multiple of slices of one global vector, iterates
started consistent stay consistent to the last bit.

With ``warm_start`` on, each direction after the first in a stage starts
the splitting iteration from the previous direction scaled by (1 - alpha)
and from its final duals, on a quadratic stage exactly the next direction's
fixed point (the gradient moves by alpha H dx). The first direction of a
continued barrier stage starts from zero and the previous stage's final
duals, unscaled: H, g and rho all grow like t, so v = (H dz + g) / rho is
roughly scale-free. From the third stage on, the stage also starts from
its centre extrapolated along the central path (``extrapolated_start``).
Without ``warm_start`` every direction starts from zero and every stage
from the previous stage's solution.

Per-agent work (prox solves, decrements, backtracking) depends only on
agent-local state and could run concurrently; the consensus calls are the
only barriers. The driver itself owns its state for the duration of a
solve, and all reductions run in ascending agent order so repeated runs
are bit-identical.

A run's record is a ``SolveResult``: one trace row per outer iteration,
which holds every count, plus what the rows do not hold. The barrier
method extends one record across its stages, so a plain Newton run is a
one-stage record of the same kind.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import SolverConfig
from .direction import DirectionWorkspace, compute_direction
from .errors import (
    DecrementError,
    DirectionConvergenceError,
    InfeasibleStartError,
    IterationCapError,
    LineSearchError,
    StructureError,
)
from .network import RoundScheduler, all_agree, min_consensus
from .problem import build_coupling, check_start, consistency_error, merge_slices, scatter
from .trace import TraceRow


@dataclass(frozen=True)
class Stage:
    """What the agents minimize during one stage.

    ``blocks`` are the problem's agent blocks: they hold the true objective
    used for reporting, the inequalities whose strict feasibility the line
    search must preserve, and the equality systems. ``objectives[i]`` is
    agent i's stage objective (its block objective for plain Newton, the
    barrier transform during interior-point stages), and ``t`` is the
    stage parameter.
    """

    blocks: tuple
    objectives: tuple
    t: float = 1.0


def plain_stage(problem):
    """The stage minimizing the block objectives directly.

    Only inequality-free problems can be solved this way; anything with
    inequality constraints needs the interior-point driver.
    """
    if problem.m_total:
        raise StructureError(
            "problem has inequality constraints; solve it with the interior-point mode"
        )
    return Stage(problem.blocks, tuple(blk.objective for blk in problem.blocks))


# equality residual a continued stage may start from: steps along the averaged
# direction hold the equality rows only to the inner primal tolerance
STAGE_EQ_DRIFT = 1e-5

# keep at least this fraction of every constraint gap per step; the log
# barrier is finite arbitrarily close to the boundary while its curvature
# overflows, so bare strict feasibility is not a usable acceptance rule
BOUNDARY_FRACTION = 0.01


def local_decrement(agent, ds, index=None):
    """Curvature form ds' H ds of one agent; its local decrement squared.

    Tiny negative values (inexact directions meeting a semidefinite
    Hessian) are clamped to zero; anything below -1e-12 signals corrupted
    data and raises, naming the agent by its ``index``.
    """
    val = float(ds @ agent.hess @ ds)
    if val < -1e-12:
        raise DecrementError(f"agent {index}: local decrement {val:.3e} is significantly "
                             "negative", agent=index)
    return max(val, 0.0)


def feasible_steps(inequality, s, ds, config):
    """The steps on the ladder 1, b, b^2, ... that keep ``s + alpha ds`` inside the boundary.

    A step qualifies when it keeps every ``inequality`` value at or below
    ``BOUNDARY_FRACTION`` times its value at ``s``. ``config`` supplies the
    shrink factor b and the ladder length ``max_backtracks + 1``. Yields
    each qualifying step with its point, largest first.
    """
    gap_floor = [BOUNDARY_FRACTION * g.value(s) for g in inequality]
    alpha = 1.0
    for _ in range(config.max_backtracks + 1):
        cand = s + alpha * ds
        if all(g.value(cand) <= floor for g, floor in zip(inequality, gap_floor)):
            yield alpha, cand
        alpha *= config.shrink_b


def agent_step_size(h, inequality, s, h0, ds, grad_dot, config):
    """Backtrack on one agent's own stage objective ``h``, whose value at ``s`` is ``h0``.

    Only the feasible steps of the ladder are tried (the stage objective
    is undefined outside the ``inequality`` region), and the first that
    passes the Armijo test on the stage objective is accepted. A direction
    that improves the sum may ascend along an individual agent's slice
    (grad_dot >= 0); such an agent cannot satisfy any local decrease test,
    so only feasibility binds it and the descending agents govern the step
    through the later min reduction. ``config`` supplies the Armijo
    constant, the shrink factor and the backtracking budget. Returns the
    accepted step, or None once the budget is spent.
    """
    descending = grad_dot < 0.0
    # resolution of the objective value itself; the acceptable decrease near
    # a stiff stage center can be smaller than one rounding step of h0
    noise = 8.0 * np.finfo(float).eps * (1.0 + abs(h0))
    for alpha, cand in feasible_steps(inequality, s, ds, config):
        if not descending:
            return alpha
        if h.value(cand) <= h0 + config.armijo_a * alpha * grad_dot + noise:
            return alpha
    return None


def distributed_line_search(stage, points, h_values, workspace, ds_slices, config, scheduler):
    """Per-agent backtracking from stage values ``h_values`` at ``points``, then min-consensus."""
    alphas = []
    for i, (h, blk) in enumerate(zip(stage.objectives, stage.blocks)):
        grad_dot = float(workspace.agents[i].grad @ ds_slices[i])
        alpha = agent_step_size(h, blk.inequality, points[i], h_values[i], ds_slices[i],
                                grad_dot, config)
        if alpha is None:
            raise LineSearchError(
                f"agent {i} exhausted {config.max_backtracks} backtracks", agent=i
            )
        alphas.append(alpha)
    return min_consensus(scheduler, alphas)


def extrapolated_start(stage, s_last, s_before, config, scheduler):
    """Start of a barrier stage, extrapolated along the central path.

    ``s_last`` and ``s_before`` are each agent's last two stage solutions.
    On the central path ``x*(t) - x*`` shrinks like 1/t, so the next
    centre lies near ``s_last + (s_last - s_before) / mu``. Every agent
    takes the largest step beta of the feasibility ladder along that
    displacement (0 when none qualifies), and the agents move by the
    min-consensus of their steps. Shared entries see the same arithmetic on
    equal inputs, so a consistent pair of solutions gives a consistent
    start, to the bit.
    """
    steps = [(s - p) / config.mu for s, p in zip(s_last, s_before)]
    betas = [next(feasible_steps(blk.inequality, s, d, config), (0.0,))[0]
             for blk, s, d in zip(stage.blocks, s_last, steps)]
    beta = min_consensus(scheduler, betas)
    return [s + beta * d for s, d in zip(s_last, steps)]


@dataclass
class SolveResult:
    """Record of one Newton run, or of all the barrier stages run so far.

    Counts are read from ``rows``: the stages are ``rows[-1].stage + 1``,
    the directions ``len(rows)``, the inner iterations
    ``[r.inner_iterations for r in rows]``, the final decrement
    ``rows[-1].decrement_half``. The fields hold the final iterate, the
    solution of the stage before the last (None after one stage), the final
    duals of the last direction, the last stage parameter, the consistency
    budget ``e_c`` carried between stages, the largest agent share of the
    final decrement, and the invariant maxima and descent-check failures
    over every iterate of every stage.
    """

    rows: list = field(default_factory=list)
    x: np.ndarray = None
    s_slices: list = None
    s_before: list = None
    v: list = None
    t_final: float = 1.0
    e_c: float = 0.0
    decrement_half_max_agent: float = 0.0
    max_consistency_error: float = 0.0
    max_dual_average: float = 0.0
    max_eq_violation: float = 0.0
    descent_violations: int = 0


def _stage_objectives(stage, points):
    """Per-agent stage objective values, and the sum of the true objectives."""
    return ([h.value(s) for h, s in zip(stage.objectives, points)],
            sum(blk.objective.value(s) for blk, s in zip(stage.blocks, points)))


def newton_solve(stage, s0_slices, config, coupling, scheduler,
                 rows=None, earlier=None):
    """Run the distributed Newton iteration on one stage, recorded at ``stage.t``.

    ``s0_slices`` must be consistent (slices of one global vector) and
    feasible for the stage's constraints. Trace rows are appended to
    ``rows`` when given; the terminal iteration is recorded with alpha 0.
    ``earlier`` is the record of the previous barrier stages: when given,
    this stage is numbered after them, appends to their rows (``rows`` is
    then ignored), and the record is updated and returned. A first stage
    is a start, held to ``problem.START_EQ_ATOL``; a continued stage may
    carry an equality residual up to ``STAGE_EQ_DRIFT``. A disconnected
    coupling raises from the first consensus.

    With ``warm_start``, a continued stage starts its first direction from
    the previous stage's final duals, and from the third stage on
    ``s0_slices`` (the last stage's solution) is moved to the
    ``extrapolated_start``; the stage's first trace row counts that
    consensus.
    """
    points = [np.array(s, dtype=float) for s in s0_slices]
    sent_before = scheduler.total_sent
    warm = (np.zeros(coupling.n), None if earlier is None else earlier.v)
    if config.warm_start and earlier is not None and earlier.s_before is not None:
        points = extrapolated_start(stage, points, earlier.s_before, config, scheduler)
    cons = consistency_error(points, coupling)
    if cons > 1e-12:
        raise InfeasibleStartError(
            "starting slices are not consistent (not slices of one global vector)"
        )

    if earlier is None:
        check_start(stage.blocks, points)
        result, stage_index = SolveResult(rows=[] if rows is None else rows), 0
    else:
        check_start(stage.blocks, points, STAGE_EQ_DRIFT)
        result, stage_index = earlier, earlier.rows[-1].stage + 1
    result.t_final = stage.t
    result.max_consistency_error = max(result.max_consistency_error, cons)
    h_values, obj_f = _stage_objectives(stage, points)

    for outer in range(config.newton_max_iter):
        workspace = DirectionWorkspace(stage, points, coupling, config)
        res = compute_direction(workspace, scheduler, *(warm if config.warm_start else ()))
        result.max_dual_average = max(result.max_dual_average, res.max_dual_average)
        result.max_eq_violation = max(result.max_eq_violation, res.max_eq_violation)
        if not res.converged:
            raise DirectionConvergenceError(
                f"direction iteration cap {config.admm_max_iter} reached "
                f"(primal {res.primal_residual:.3e}, dual {res.dual_residual:.3e})",
                primal_residual=res.primal_residual,
                dual_residual=res.dual_residual,
            )

        decs = [local_decrement(a, d, i)
                for i, (a, d) in enumerate(zip(workspace.agents, res.ds_slices))]
        flags = [d / 2.0 <= config.eps_nt / coupling.n_agents for d in decs]
        done = all_agree(scheduler, flags)

        alpha = 0.0
        if not done:
            alpha = distributed_line_search(
                stage, points, h_values, workspace, res.ds_slices, config, scheduler
            )
            points = [s + alpha * d for s, d in zip(points, res.ds_slices)]
            result.e_c += alpha * alpha * config.eps_pri
            warm = ((1.0 - alpha) * res.dx, res.v)
            result.max_consistency_error = max(result.max_consistency_error,
                                               consistency_error(points, coupling))
            next_values, next_f = _stage_objectives(stage, points)
            if sum(next_values) > sum(h_values):
                result.descent_violations += 1

        result.rows.append(TraceRow(
            stage=stage_index, t=stage.t, outer=outer,
            inner_iterations=res.iterations, decrement_half=sum(decs) / 2.0,
            alpha=alpha, max_primal_residual=res.primal_residual,
            max_dual_residual=res.dual_residual, objective_h=sum(h_values),
            objective_f=obj_f, messages=scheduler.total_sent - sent_before,
            e_c_bound=result.e_c,
        ))
        sent_before = scheduler.total_sent
        if done:
            result.s_before, result.s_slices, result.v = result.s_slices, points, res.v
            result.x = merge_slices(points, coupling)
            result.decrement_half_max_agent = max(decs) / 2.0
            return result
        h_values, obj_f = next_values, next_f

    raise IterationCapError(
        f"Newton iteration cap {config.newton_max_iter} reached"
    )


def solve_newton(problem, x0, config=None):
    """Convenience driver: coupling, scheduler, and plain stage in one call."""
    config = config or SolverConfig()
    coupling = build_coupling(problem)
    scheduler = RoundScheduler(coupling)
    s0 = scatter(np.asarray(x0, dtype=float), coupling)
    result = newton_solve(plain_stage(problem), s0, config, coupling, scheduler)
    return result, scheduler
