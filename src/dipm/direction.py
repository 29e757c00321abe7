"""Distributed computation of the Newton direction by operator splitting.

The direction subproblem at a linearization point is a separable quadratic
model coupled only through the requirement that all local directions be
slices of one global direction. Splitting that requirement off as a
consensus projection yields an iteration in which every agent alternates a
local prox solve against its cached curvature factorization, an exchange
of shared components, and a running dual update:

    ds_i   <- (H_i + rho I)^{-1} (rho (dz_{J_i} + v_i) - grad_i)
    dz_j   <- mean of ds_q[j] over the owners q of variable j
    v_i    <- v_i + (dz_{J_i} - ds_i)

Agents with a local equality system solve the corresponding saddle system
instead, which keeps every iterate in the constraint null space. The
curvature matrix is constant across inner iterations, so each agent
factors exactly once per direction computation no matter how many
iterations are needed.

The simulation runs the agents' local work group by group: the agents of
one stage group (``Stage.groups``: one local size, one number of equality
rows, one number of inequalities) form an ``AgentGroup``, whose calculus
is one stacked call, factored by one stacked ``linalg`` call and solved
by one prox call per inner iteration. Each agent's arithmetic in the
stack is what it would be alone, bit for bit, so the grouping changes no
iterate, count or trace byte. The iterates and the duals are flat vectors of all
local entries in the coupling's layout (``CouplingStructure.flat_index``,
agents in ascending order), which the exchange averages as they are.

Per-agent convergence is declared when the squared slice change and the
squared disagreement both fall below their tolerances split evenly across
agents; one flooded AND per iteration turns the local declarations into a
global stop. A failed vote costs no round or message of its own: the
next iteration's data relay it (``network.all_agree`` with ``carry``),
each agent sending its new data, marked False, in the round after it
learns that the vote failed, round 1 if it holds False. An agent thus
computes its next prox only once it knows the vote failed, each agent
sends each neighbour its data once per iteration, and the iterates are
those of a vote flooded on its own, bit for bit. The last permitted
iteration's vote has no exchange to ride and is flooded on its own.

Any start whose duals have a zero owner-average is valid, and the dual
update keeps that average at zero. A start at the fixed point
rho v_i = H_i dz_i + grad_i (+ A_i' u_i with equality rows), which the
Newton driver's carry-over is on a quadratic stage, stops after one
iteration.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    BarrierDomainError,
    FactorizationError,
    NonFiniteError,
    RankError,
    StructureError,
)
from .network import all_agree, exchange_shared_components
# gather_average stays importable from here: perfbench/tracing.py wraps it
# at this lookup site
from .problem import gather_average


@dataclass
class AgentGroup:
    """A stage group's agents at one linearization point, stacked.

    ``members`` lists their indices in ascending order; row k of every
    stack belongs to agent ``members[k]``. ``pos`` holds the positions of
    each member's entries in the coupling's flat vector of local entries,
    ``grad`` and ``hessian`` the gradients and Hessians of their stage
    objectives, ``A_eq`` their equality matrices (None for agents without
    equality rows), and ``factor`` one stacked handle with all their
    factorizations.
    """

    members: np.ndarray
    pos: np.ndarray
    grad: np.ndarray
    hessian: np.ndarray
    factor: object = field(repr=False)
    A_eq: np.ndarray = None


def _blame(exc, agent):
    """``exc`` with the failing agent attached, as ``agent`` and in its message."""
    exc.agent = agent
    exc.args = (f"agent {agent}: {exc}",)
    return exc


def _by_agent(groups):
    """(agent, group index, row) of every member of ``groups``, agents ascending."""
    return sorted((int(i), j, k)
                  for j, grp in enumerate(groups) for k, i in enumerate(grp.members))


def _stage_calculus(groups, points):
    """Gradient and Hessian stacks of the stage objective of every group at the flat ``points``.

    A point outside a stage objective's domain raises for the lowest such
    agent unless a lower agent's gradient or Hessian is not finite, as a
    loop over the agents would: the agents are then evaluated one at a
    time, as stacks of one in ascending order, up to the first non-finite
    one, and each group's stacks hold its members evaluated so far.
    """
    calculus = []
    try:
        for grp in groups:
            x = points[grp.pos]
            calculus.append((grp.objective.gradient(x), grp.objective.hessian(x)))
        return calculus
    except BarrierDomainError:
        pass
    rows = [([], []) for _ in groups]
    for _, j, k in _by_agent(groups):
        one, x = groups[j].objective.take([k]), points[groups[j].pos[k]][None]
        g, H = one.gradient(x), one.hessian(x)
        rows[j][0].append(g)
        rows[j][1].append(H)
        if not (np.isfinite(g).all() and np.isfinite(H).all()):
            break
    return [(np.concatenate(gs), np.concatenate(Hs)) if gs else None for gs, Hs in rows]


def _first_nonfinite(groups, calculus):
    """A ``NonFiniteError`` for the lowest agent whose gradient or Hessian is not finite."""
    found = []
    for grp, c in zip(groups, calculus):
        if c is None or (np.isfinite(c[0]).all() and np.isfinite(c[1]).all()):
            continue
        bad_g = ~np.isfinite(c[0]).all(axis=1)
        k = int(np.argmax(bad_g | ~np.isfinite(c[1]).all(axis=(1, 2))))
        found.append(NonFiniteError(int(grp.members[k]), "gradient" if bad_g[k] else "Hessian"))
    return min(found, key=lambda exc: exc.agent, default=None)


class DirectionWorkspace:
    """Stacked gradients, Hessians and cached factorizations at one linearization point.

    ``groups`` holds one ``AgentGroup`` per group of the stage
    (``Stage.groups``: agents of one local size, one number of equality
    rows and one number of inequalities), in the stage's order. Building
    the workspace evaluates each group's stage objective once, as a stack,
    at the flat vector ``points`` of all local entries (the coupling's
    layout), and performs the N factorizations with penalty ``config.rho``,
    one ``linalg.factor_spd`` or ``linalg.factor_kkt`` call per group; they
    stay valid for the lifetime of the workspace, which is tied to the
    linearization point it was built from. When a group fails to factor,
    the agents are factored again one at a time, in ascending order, so the
    error names the lowest-numbered failing agent as a loop over the agents
    would; a non-finite gradient (reported before a non-finite Hessian)
    likewise comes after the failures of the agents before it.
    """

    def __init__(self, stage, points, coupling, config):
        self.coupling = coupling
        self.config = config
        if not (isinstance(points, np.ndarray) and points.shape == coupling.flat_index.shape):
            raise StructureError("points must be one flat vector of the agents' local entries")
        calculus = _stage_calculus(stage.groups, points)
        nonfinite = _first_nonfinite(stage.groups, calculus)
        # only the agents below a non-finite one are factored
        cut = coupling.n_agents if nonfinite is None else nonfinite.agent
        parts = [(grp, slice(0, int(np.searchsorted(grp.members, cut))), c)
                 for grp, c in zip(stage.groups, calculus)]
        try:
            self.groups = [self._group(grp, rows, c[0][rows], c[1][rows])
                           for grp, rows, c in parts if rows.stop]
        except (FactorizationError, RankError):
            for i, j, k in _by_agent(stage.groups):
                if i >= cut:
                    break
                one, (g, H) = slice(k, k + 1), calculus[j]
                try:
                    self._group(stage.groups[j], one, g[one], H[one])
                except (FactorizationError, RankError) as exc:
                    raise _blame(exc, i) from None
            raise
        if nonfinite is not None:
            raise nonfinite

    def _group(self, grp, rows, g, H):
        """The ``AgentGroup`` of the members ``rows`` (a slice) of stage group ``grp``,
        with gradients ``g`` and Hessians ``H``."""
        A_eq = None if grp.A_eq is None else grp.A_eq[rows]
        if A_eq is None:
            fac = linalg.factor_spd(H + self.config.rho * np.eye(grp.pos.shape[1]))
        else:
            fac = linalg.factor_kkt(H, self.config.rho, A_eq)
        return AgentGroup(members=grp.members[rows], pos=grp.pos[rows], grad=g, hessian=H,
                          factor=fac, A_eq=A_eq)


def prox_step_unconstrained(agent, dz_slice, v, rho):
    """Local quadratic prox solve against the cached factorization.

    ``agent`` is any object with a ``grad`` and a solve handle ``factor``,
    such as an ``AgentGroup``, whose gradients, slices and duals are
    stacked one row per member.
    """
    rhs = rho * (dz_slice + v) - agent.grad
    return agent.factor.solve(rhs)


def prox_step_equality(agent, dz_slice, v, rho):
    """Equality-constrained prox: saddle solve, direction in null(A); stacks as above."""
    rhs = rho * (dz_slice + v) - agent.grad
    ds, _ = agent.factor.solve(rhs)
    return ds


@dataclass
class DirectionResult:
    """Outcome of one distributed direction computation.

    ``dx`` is the global direction. Residuals are the final per-agent
    maxima of the squared norms the termination test uses. ``v`` holds
    the final duals, one flat vector in the coupling's layout, which the
    Newton driver carries into the next direction. ``max_dual_average``
    tracks how far the averaged dual variables drifted from zero;
    ``max_eq_violation`` tracks the worst violation of the local equality
    null-space condition over all inner iterates.
    """

    converged: bool
    iterations: int
    dx: np.ndarray
    primal_residual: float
    dual_residual: float
    max_dual_average: float
    max_eq_violation: float
    v: np.ndarray


def compute_direction(workspace, scheduler, dz0=None, v0=None):
    """Run the splitting iteration to consensus on the Newton direction.

    ``dz0`` warm-starts the averaged direction (a global vector) and ``v0``
    the duals (one flat vector in the coupling's layout, copied), zeros
    when omitted; any other shape raises ``StructureError``. ``v0`` must
    have a zero owner-average, which keeps the duals in the null space of
    the consensus projection; the Newton driver passes the final duals of
    the previous direction (within a stage) or, at a barrier stage's first
    direction, those of the previous stage's last direction, from the third
    stage on extrapolated from the last two stages' (a combination of two
    such vectors), which have one.

    The iterates are flat vectors in the coupling's layout; each inner
    iteration makes one prox call per ``AgentGroup``, whose arithmetic is
    each member's own, bit for bit. An error names the lowest-numbered
    failing agent, and a non-finite primal residual comes before a
    non-finite dual one of the same agent.

    ``max_dual_average`` is the largest owner-average of the duals over the
    iterations, a diagnostic summed in ascending agent order as
    ``gather_average`` sums, so its value is the same to the bit.

    Each iteration's convergence vote, unless it passes or is the last,
    is relayed by the next iteration's exchange (``vote``), after that
    iteration's prox calls. A non-converged result (iteration cap) is
    returned rather than raised; ``newton_solve`` rejects it. A
    disconnected graph raises ``DisconnectedNetworkError`` from the first
    vote, after the first exchange.
    """
    coupling = workspace.coupling
    groups = workspace.groups
    n_agents = coupling.n_agents
    config = workspace.config
    rho = config.rho

    dx0 = np.zeros(coupling.n) if dz0 is None else np.asarray(dz0, dtype=float)
    if dx0.shape != (coupling.n,):
        raise StructureError(f"dz0 must be a global vector of length {coupling.n}")
    dz = dx0[coupling.flat_index]
    if v0 is not None and not (isinstance(v0, np.ndarray) and v0.shape == dz.shape):
        raise StructureError("v0 must be one flat vector of the agents' local entries")
    # a copy: the dual update below works in place, and v0 is the caller's
    v = np.zeros(dz.size) if v0 is None else v0.astype(float)

    eps_pri_i = config.eps_pri / n_agents
    eps_dual_i = config.eps_dual / n_agents
    # each variable's largest owner-average of the duals so far
    dual_avg = np.zeros(coupling.n)
    max_eq_viol = 0.0
    ds = np.empty(dz.size)
    # each agent's squared primal change (row 0) and dual change (row 1)
    E = np.full((2, n_agents), np.inf)
    e_pri, e_dual = E

    converged = False
    iterations = config.admm_max_iter
    vote = None  # the flags of an AND that rides this iteration's exchange
    for k in range(config.admm_max_iter):
        failures = []
        for grp in groups:
            try:
                if grp.A_eq is None:
                    d = prox_step_unconstrained(grp, dz[grp.pos], v[grp.pos], rho)
                else:
                    d = prox_step_equality(grp, dz[grp.pos], v[grp.pos], rho)
                    viol = float(np.abs(np.matmul(grp.A_eq, d[..., None])).max(initial=0.0))
                    max_eq_viol = max(max_eq_viol, viol)
            except FactorizationError as exc:
                failures.append(_blame(exc, int(grp.members[exc.row])))
                continue
            ds[grp.pos] = d
        if failures:
            raise min(failures, key=lambda exc: exc.agent)

        dz_new = exchange_shared_components(scheduler, ds, vote)

        pri_change = ds - dz_new
        v -= pri_change
        dual_change = dz_new - dz
        pri_change *= pri_change
        dual_change *= dual_change
        for grp in groups:
            e_pri[grp.members] = pri_change[grp.pos].sum(axis=1)
            e_dual[grp.members] = dual_change[grp.pos].sum(axis=1)
        # a NaN fails every flag, so the iteration would run to its cap
        if not np.isfinite(E).all():
            i = int(np.argmin(np.isfinite(E).all(axis=0)))
            quantity = "dual residual" if np.isfinite(e_pri[i]) else "primal residual"
            raise NonFiniteError(i, quantity)
        flags = (e_dual <= eps_dual_i) & (e_pri <= eps_pri_i)

        avg_v = np.bincount(coupling.flat_index, weights=v,
                            minlength=coupling.n) / coupling.degrees
        np.maximum(dual_avg, np.abs(avg_v, out=avg_v), out=dual_avg)

        dz = dz_new
        # a failed vote is relayed by the next iteration's exchange
        converged = all_agree(scheduler, flags, carry=k + 1 < config.admm_max_iter)
        if converged:
            iterations = k + 1
            break
        vote = flags

    dx = np.zeros(coupling.n)
    dx[coupling.flat_index] = dz
    pri, dua = E.max(axis=1).tolist()
    return DirectionResult(
        converged=converged,
        iterations=iterations,
        dx=dx,
        primal_residual=pri,
        dual_residual=dua,
        max_dual_average=float(dual_avg.max(initial=0.0)),
        max_eq_violation=max_eq_viol,
        v=v,
    )
