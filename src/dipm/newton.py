"""Outer Newton loop with distributed direction, decrement, and line search.

A ``Stage`` is what the agents minimize: the problem's blocks, stacked
into groups with their stage objectives, and the stage parameter t. Each
outer iteration linearizes the stage objectives at the current iterates,
computes the Newton direction with the splitting solver, and terminates
once every agent's local curvature form satisfies its share of the
decrement test.
Otherwise every agent backtracks on its own stage objective from the
value already evaluated at its iterate, the smallest step wins by
min-consensus, and all agents move by that common step. Because every
update adds a common multiple of slices of one global vector, iterates
started consistent stay consistent to the last bit.

With ``warm_start`` on, each direction after the first in a stage starts
the splitting iteration from the previous direction scaled by (1 - alpha)
and from its final duals, on a quadratic stage exactly the next direction's
fixed point (the gradient moves by alpha H dx). The first direction of a
continued barrier stage starts from zero and from the previous stage's
final duals. H, g and rho all grow like t, so v = (H dz + g) / rho is
scale-free and follows the central path like the point, approaching its
limit like 1/t. From the third stage on, the stage therefore starts its
point and its duals extrapolated along the central path by one common
step (``extrapolated_start``). Without ``warm_start`` every direction
starts from zero and every stage from the previous stage's solution.

Per-agent work (calculus, prox solves, decrements, backtracking) depends
only on agent-local state, so the consensus calls are the only barriers.
The simulation runs every step of it at once for each group of agents of
one local size, one number of equality rows and one number of
inequalities (``Stage.groups``, stacked once per stage): gradients,
Hessians and factorizations, stage values, decrements and the line
search's ladder are one stacked call per group, each agent's arithmetic
bit for bit what it would be alone. The iterates are one flat vector of
all local entries in the coupling's layout. The driver itself owns its
state for the duration of a solve, and all reductions run in ascending
agent order so repeated runs are bit-identical.

A run's record is a ``SolveResult``: one trace row per outer iteration,
which holds every count, plus what the rows do not hold, its iterates
flat in the coupling's layout like its duals. The barrier method extends
one record across its stages, so a plain Newton run is a one-stage
record of the same kind.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import SolverConfig
from .direction import DirectionWorkspace, compute_direction
from .errors import (
    BarrierDomainError,
    DecrementError,
    DirectionConvergenceError,
    InfeasibleStartError,
    IterationCapError,
    LineSearchError,
    StructureError,
)
from .network import RoundScheduler, all_agree, min_consensus
from .problem import (
    build_coupling,
    check_start,
    consistency_error,
    flatten_slices,
    group_blocks,
    scatter,
)
from .trace import TraceRow


@dataclass(frozen=True)
class Stage:
    """What the agents minimize during one stage.

    ``blocks`` are the problem's agent blocks: they hold the true objective
    used for reporting, the inequalities whose strict feasibility the line
    search must preserve, and the equality systems. ``groups`` are the
    blocks' ``problem.BlockGroup``s, each ``objective`` the group's stacked
    stage objective (its block objectives for plain Newton, their barrier
    transform during interior-point stages), which the outer path
    evaluates one call per group; ``t`` is the stage parameter.
    """

    blocks: tuple
    groups: tuple = field(repr=False, compare=False)
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
    return Stage(problem.blocks, group_blocks(problem.blocks))


# equality residual a continued stage may start from: steps along the averaged
# direction hold the equality rows only to the inner primal tolerance
STAGE_EQ_DRIFT = 1e-5

# keep at least this fraction of every constraint gap per step; the log
# barrier is finite arbitrarily close to the boundary while its curvature
# overflows, so bare strict feasibility is not a usable acceptance rule
BOUNDARY_FRACTION = 0.01

_EPS = float(np.finfo(float).eps)


def local_decrement(hess, ds, index=None):
    """Curvature forms ds' H ds, H = ``hess``: the local decrements squared.

    ``hess`` (g, d, d) and ``ds`` (g, d) are stacks, one row per agent,
    and ``index`` names the agents; a single ``hess`` (d, d) and ``ds``
    (d,) are a stack of one, whose form is returned as a float. Tiny
    negative values (inexact directions meeting a semidefinite Hessian)
    are clamped to zero; anything below -1e-12 signals corrupted data and
    raises, naming the lowest such agent.
    """
    single = np.ndim(ds) == 1
    H, D = (hess[None], ds[None]) if single else (hess, ds)
    vals = np.matmul(np.matmul(D[:, None, :], H), D[:, :, None])[:, 0, 0]
    low = np.flatnonzero(vals < -1e-12)
    if low.size:
        k = low[0]
        agent = index if single or index is None else int(index[k])
        raise DecrementError(f"agent {agent}: local decrement {vals[k]:.3e} is significantly "
                             "negative", agent=agent)
    vals = np.maximum(vals, 0.0)
    return float(vals[0]) if single else vals


def ladder_steps(group, S, D, config, h0=None, grad_dot=None):
    """Each member's first step on the ladder 1, b, b^2, ... that qualifies, NaN where none does.

    Member k of ``group`` (a ``problem.BlockGroup``) moves from row k of
    ``S`` along row k of ``D``. A step qualifies when it keeps every
    inequality value at or below ``BOUNDARY_FRACTION`` times its value at
    the start and, with the stage values ``h0`` and slopes ``grad_dot``
    given, passes the Armijo test on the stage objective, which is
    undefined outside the inequality region. A direction that improves the
    sum may ascend along an individual agent's slice (grad_dot >= 0); such
    an agent cannot satisfy any local decrease test, so only feasibility
    binds it and the descending agents govern the step through the later
    min reduction. ``config`` supplies the Armijo constant, the shrink
    factor b and the ladder length ``max_backtracks + 1``.

    The ladder is tried in chunks of 1, 4, 16, ... steps at once, each
    chunk for every member (a stack of points with one row per step); each
    member's points and values are the bits of trying its steps one by
    one. The first chunk, the full step, is all most line searches take.
    """
    floors = [BOUNDARY_FRACTION * g.value(S) for g in group.inequality]
    if h0 is not None:
        descending = grad_dot < 0.0
        # resolution of the objective value itself; the acceptable decrease near
        # a stiff stage center can be smaller than one rounding step of h0
        noise = 8.0 * _EPS * (1.0 + np.abs(h0))
    steps = np.full(len(S), np.nan)
    pending = np.ones(len(S), dtype=bool)
    alpha, left, size = 1.0, config.max_backtracks + 1, 1
    while left and pending.any():
        chunk = []
        for _ in range(min(size, left)):
            chunk.append(alpha)
            alpha *= config.shrink_b
        left -= len(chunk)
        size *= 4
        # one row of points per step, one point per member
        A = np.array(chunk)[:, None]
        X = S + A[..., None] * D
        ok = pending & np.ones(A.shape, dtype=bool)
        for g, floor in zip(group.inequality, floors):
            ok &= g.value(X) <= floor
        if h0 is not None:
            test = ok & descending
            if test.any():
                # a step that left the region is valued at its start instead
                values = group.objective.value(np.where(ok[..., None], X, S))
                ok &= ~test | (values <= h0 + config.armijo_a * A * grad_dot + noise)
        hit = ok.any(axis=0)
        steps[hit] = A[ok.argmax(axis=0)[hit], 0]
        pending &= ~hit
    return steps


def distributed_line_search(stage, points, h_values, workspace, ds, config, scheduler):
    """Backtracking of every agent from its stage value ``h_values[i]``, then min-consensus.

    ``points`` and ``ds`` are flat vectors of all local entries (the
    coupling's layout); each group's slopes come from the ``workspace``
    gradients. An agent that spends its budget raises ``LineSearchError``,
    naming the lowest such agent.
    """
    alphas = np.empty(len(stage.blocks))
    for grp, at in zip(stage.groups, workspace.groups):
        D = ds[grp.pos]
        grad_dot = np.matmul(at.grad[:, None, :], D[:, :, None])[:, 0, 0]
        alphas[grp.members] = ladder_steps(grp, points[grp.pos], D, config,
                                           h_values[grp.members], grad_dot)
    failed = np.flatnonzero(np.isnan(alphas))
    if failed.size:
        i = int(failed[0])
        raise LineSearchError(f"agent {i} exhausted {config.max_backtracks} backtracks", agent=i)
    return min_consensus(scheduler, alphas)


def extrapolated_start(stage, s_last, s_before, config, scheduler):
    """Start of a barrier stage, extrapolated along the central path, and its step.

    ``s_last`` and ``s_before`` are the last two stage solutions, each one
    flat vector of all local entries (the coupling's layout). On the
    central path ``x*(t) - x*`` shrinks like 1/t, so the next centre lies
    near ``s_last + (s_last - s_before) / mu``. Every agent takes the
    largest step beta of the feasibility ladder along that displacement (0
    when none qualifies), and the agents move by the min-consensus of their
    steps. Returns the start and that common beta, with which
    ``newton_solve`` extrapolates the stages' final duals too. Shared
    entries see the same arithmetic on equal inputs, so a consistent pair
    of solutions gives a consistent start, to the bit.
    """
    steps = (s_last - s_before) / config.mu
    betas = np.empty(len(stage.blocks))
    for grp in stage.groups:
        betas[grp.members] = ladder_steps(grp, s_last[grp.pos], steps[grp.pos], config)
    beta = min_consensus(scheduler, np.nan_to_num(betas, nan=0.0))
    return s_last + beta * steps, beta


@dataclass
class SolveResult:
    """Record of one Newton run, or of all the barrier stages run so far.

    Counts are read from ``rows``: the stages are ``rows[-1].stage + 1``,
    the directions ``len(rows)``, the inner iterations
    ``[r.inner_iterations for r in rows]``, the final decrement
    ``rows[-1].decrement_half``. The fields hold the final global iterate
    ``x``; its local entries ``s`` and the final duals ``v`` of the last
    direction, and the same two of the stage before the last,
    ``s_before`` and ``v_before`` (None after one stage), all flat in the
    coupling's layout, from which the next barrier stage extrapolates its
    start; the last stage parameter, the consistency budget ``e_c``
    carried between stages, the largest agent share of the final
    decrement, and the invariant maxima and descent-check failures over
    every iterate of every stage.
    """

    rows: list = field(default_factory=list)
    x: np.ndarray = None
    s: np.ndarray = None
    s_before: np.ndarray = None
    v: np.ndarray = None
    v_before: np.ndarray = None
    t_final: float = 1.0
    e_c: float = 0.0
    decrement_half_max_agent: float = 0.0
    max_consistency_error: float = 0.0
    max_dual_average: float = 0.0
    max_eq_violation: float = 0.0
    descent_violations: int = 0


def _stage_objectives(stage, points):
    """Every agent's stage objective value at the flat ``points``, and the sum of the true ones.

    A point outside a barrier domain raises for the lowest such agent.
    """
    h = np.empty(len(stage.blocks))
    outside = []
    for grp in stage.groups:
        try:
            h[grp.members] = grp.objective.value(points[grp.pos])
        except BarrierDomainError as exc:
            outside.append(exc)
    if outside:
        raise min(outside, key=lambda exc: exc.agent)
    f = h.copy()
    for grp in stage.groups:
        if grp.objective is not grp.f:
            f[grp.members] = grp.f.value(points[grp.pos])
    # summed in ascending agent order, one term at a time
    return h, sum(f.tolist())


def _decrements(workspace, ds):
    """Every agent's local decrement squared; the lowest agent with a negative one raises."""
    decs = np.empty(workspace.coupling.n_agents)
    failures = []
    for grp in workspace.groups:
        try:
            decs[grp.members] = local_decrement(grp.hessian, ds[grp.pos], grp.members)
        except DecrementError as exc:
            failures.append(exc)
    if failures:
        raise min(failures, key=lambda exc: exc.agent)
    return decs


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
    ``extrapolated_start`` and those duals by the same step,
    ``v + beta (v - v_before) / mu``; the stage's first trace row counts
    that consensus. The iterates are one flat vector of all local entries in
    the coupling's layout, and every sum over agents runs in ascending
    agent order.
    """
    points = flatten_slices(s0_slices, coupling)
    split = coupling.offsets[1:-1]
    sent_before = scheduler.total_sent
    v0 = None if earlier is None else earlier.v
    if config.warm_start and earlier is not None and earlier.s_before is not None:
        points, beta = extrapolated_start(stage, points, earlier.s_before, config, scheduler)
        # the scale-free duals follow the central path like the point
        v0 = v0 + beta * ((v0 - earlier.v_before) / config.mu)
    warm = (np.zeros(coupling.n), v0)
    cons = consistency_error(points, coupling)
    if cons > 1e-12:
        raise InfeasibleStartError(
            "starting slices are not consistent (not slices of one global vector)"
        )

    if earlier is None:
        check_start(stage.blocks, np.split(points, split))
        result, stage_index = SolveResult(rows=[] if rows is None else rows), 0
    else:
        check_start(stage.blocks, np.split(points, split), STAGE_EQ_DRIFT)
        result, stage_index = earlier, earlier.rows[-1].stage + 1
    result.t_final = stage.t
    result.max_consistency_error = max(result.max_consistency_error, cons)
    h_values, obj_f = _stage_objectives(stage, points)
    h_sum = sum(h_values.tolist())

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

        ds = res.dx[coupling.flat_index]
        decs = _decrements(workspace, ds)
        done = all_agree(scheduler, decs / 2.0 <= config.eps_nt / coupling.n_agents)

        alpha = 0.0
        if not done:
            alpha = distributed_line_search(
                stage, points, h_values, workspace, ds, config, scheduler
            )
            points = points + alpha * ds
            result.e_c += alpha * alpha * config.eps_pri
            warm = ((1.0 - alpha) * res.dx, res.v)
            result.max_consistency_error = max(result.max_consistency_error,
                                               consistency_error(points, coupling))
            next_values, next_f = _stage_objectives(stage, points)
            next_sum = sum(next_values.tolist())
            if next_sum > h_sum:
                result.descent_violations += 1

        sent = scheduler.total_sent
        result.rows.append(TraceRow(
            stage=stage_index, t=stage.t, outer=outer,
            inner_iterations=res.iterations, decrement_half=sum(decs.tolist()) / 2.0,
            alpha=alpha, max_primal_residual=res.primal_residual,
            max_dual_residual=res.dual_residual, objective_h=h_sum,
            objective_f=obj_f, messages=sent - sent_before,
            e_c_bound=result.e_c,
        ))
        sent_before = sent
        if done:
            result.s_before, result.s = result.s, points
            result.v_before, result.v = result.v, res.v
            result.x = np.zeros(coupling.n)
            result.x[coupling.flat_index] = points
            result.decrement_half_max_agent = float(decs.max()) / 2.0
            return result
        h_values, obj_f, h_sum = next_values, next_f, next_sum

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
