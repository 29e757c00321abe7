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

Agents with a local equality system solve the saddle system whose bottom
block A_i ds_i = b_i - A_i s_i aims every prox output at their rows (the
infeasible-start Newton step, Boyd & Vandenberghe, *Convex Optimization*
10.3), so the next direction removes the residual a step along the
averaged one leaves. The curvature matrix is constant across inner
iterations, so each agent factors exactly once per direction computation
no matter how many iterations are needed.

The code keeps the map apart from the loop that stops it. The map is
``DirectionWorkspace.step``: one pass of the three lines above, on the
workspace's factorizations. The loop is ``compute_direction``: it checks
the start, runs the map, computes each agent's residuals from its output,
votes, and keeps the diagnostics.

The simulation runs the agents' local work group by group: the agents of
one stage group (``Stage.groups``: one local size, one number of equality
rows, one number of inequalities) form an ``AgentGroup``, whose calculus
is one stacked call, factored by one stacked ``linalg`` call and solved
by one prox call per inner iteration. Each agent's arithmetic in the
stack is what it would be alone, bit for bit, so the grouping changes no
iterate, count or trace byte. The iterates and the duals are flat vectors of all
local entries in the coupling's layout (``CouplingStructure.flat_index``,
agents in ascending order), which the exchange averages as they are. A
failure names the agent that a loop over the agents in ascending order
would meet first: building the workspace checks per agent its barrier
domain, gradient, Hessian, then factorization, replayed one agent at a
time after any failure of the stacks.

Per-agent convergence is declared when the squared slice change and the
squared disagreement both fall below their tolerances split evenly across
agents; one flooded AND per iteration turns the local declarations into a
global stop. A failed vote costs no round or message of its own: the
next step's data relay it (``network.all_agree`` with ``carry``),
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
    objectives, ``A_eq`` their equality matrices, ``closing`` the part of
    every prox output that closes their equality residuals, the saddle
    solve with top zero and bottom b - A x (both None for agents without
    equality rows), and ``factor`` one stacked handle with all their
    factorizations.
    """

    members: np.ndarray
    pos: np.ndarray
    grad: np.ndarray
    hessian: np.ndarray
    factor: object = field(repr=False)
    A_eq: np.ndarray = None
    closing: np.ndarray = None


def _blame(exc, agent):
    """``exc`` with the failing agent attached, as ``agent`` and in its message."""
    exc.agent = agent
    exc.args = (f"agent {agent}: {exc}",)
    return exc


def _by_agent(groups):
    """(agent, group index, row) of every member of ``groups``, agents ascending."""
    return sorted((int(i), j, k)
                  for j, grp in enumerate(groups) for k, i in enumerate(grp.members))


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
    linearization point it was built from. A failure raises the first
    error of a loop over the agents in ascending order, each checked for
    its barrier domain, gradient, Hessian, then factorization: after any
    failure of the stacks the agents are built again that way, one at a
    time as stacks of one.

    ``step`` is one pass of the splitting map on these factorizations.
    """

    def __init__(self, stage, points, coupling, config):
        self.coupling = coupling
        self.config = config
        if not (isinstance(points, np.ndarray) and points.shape == coupling.flat_index.shape):
            raise StructureError("points must be one flat vector of the agents' local entries")
        # the prox outputs of every step, written in place
        self._ds = np.empty(points.shape)
        try:
            self.groups = [self._group(grp, points) for grp in stage.groups]
        except (BarrierDomainError, NonFiniteError, FactorizationError, RankError):
            for i, j, k in _by_agent(stage.groups):
                try:
                    self._group(stage.groups[j], points, [k])
                except (FactorizationError, RankError) as exc:
                    raise _blame(exc, i) from None
            raise

    def _group(self, grp, points, rows=slice(None)):
        """The ``AgentGroup`` of ``grp``'s members ``rows`` (all by default) at ``points``."""
        members, pos = grp.members[rows], grp.pos[rows]
        fn = grp.objective if rows == slice(None) else grp.objective.take(rows)
        x = points[pos]
        g, H = fn.gradient(x), fn.hessian(x)
        for quantity, arr in (("gradient", g), ("Hessian", H)):
            if not np.isfinite(arr).all():
                k = int(np.argmin(np.isfinite(arr).reshape(len(members), -1).all(axis=1)))
                raise NonFiniteError(int(members[k]), quantity)
        A_eq, closing = None if grp.A_eq is None else grp.A_eq[rows], None
        if A_eq is None:
            fac = linalg.factor_spd(H + self.config.rho * np.eye(pos.shape[1]))
        else:
            fac = linalg.factor_kkt(H, self.config.rho, A_eq)
            residual = grp.b_eq[rows] - np.matmul(A_eq, x[..., None])[..., 0]
            closing = fac.solve(np.zeros(x.shape), residual)[0]
        return AgentGroup(members=members, pos=pos, grad=g, hessian=H, factor=fac, A_eq=A_eq,
                          closing=closing)

    def step(self, dz, v, scheduler, vote=None):
        """One pass of the splitting map from the direction ``dz`` and the duals ``v``.

        Each group makes one prox call, the exchange averages their outputs
        ``ds`` over the owners of each variable into ``dz_new`` (relaying
        ``vote``, the flags of a failed AND, see ``exchange_shared_components``),
        and the duals are updated in place, ``v -= ds - dz_new``. Returns
        ``(ds, dz_new, ds - dz_new)``; ``ds`` is the workspace's buffer, which
        the next step overwrites. A failed prox solve raises the lowest
        failing agent's ``FactorizationError`` before the exchange.
        """
        ds, failures = self._ds, []
        for grp in self.groups:
            prox = prox_step_unconstrained if grp.A_eq is None else prox_step_equality
            try:
                ds[grp.pos] = prox(grp, dz[grp.pos], v[grp.pos], self.config.rho)
            except FactorizationError as exc:
                failures.append(_blame(exc, int(grp.members[exc.row])))
        if failures:
            raise min(failures, key=lambda exc: exc.agent)
        dz_new = exchange_shared_components(scheduler, ds, vote)
        primal = ds - dz_new
        v -= primal
        return ds, dz_new, primal


def prox_step_unconstrained(agent, dz_slice, v, rho):
    """Local quadratic prox solve against the cached factorization.

    ``agent`` is any object with a ``grad`` and a solve handle ``factor``,
    such as an ``AgentGroup``, whose gradients, slices and duals are
    stacked one row per member.
    """
    rhs = rho * (dz_slice + v) - agent.grad
    return agent.factor.solve(rhs)


def prox_step_equality(agent, dz_slice, v, rho):
    """Equality-constrained prox: the saddle solve with bottom b - A x; stacks as above."""
    # the elimination is linear: the certified solve with bottom zero plus the closing part
    rhs = rho * (dz_slice + v) - agent.grad
    ds, _ = agent.factor.solve(rhs)
    return ds + agent.closing


@dataclass
class DirectionResult:
    """Outcome of one distributed direction computation.

    ``dz`` is the direction and ``v`` the final duals, which the Newton
    driver carries into the next direction, each one flat vector in the
    coupling's layout; the copies of a shared variable in ``dz`` are equal
    to the bit. Residuals are the final per-agent maxima of the squared
    norms the termination test uses. ``max_dual_average`` tracks how far
    the averaged dual variables drifted from zero.
    """

    converged: bool
    iterations: int
    dz: np.ndarray
    primal_residual: float
    dual_residual: float
    max_dual_average: float
    v: np.ndarray


def compute_direction(workspace, scheduler, dz0=None, v0=None):
    """Run the splitting map ``workspace.step`` until the agents agree to stop.

    ``dz0`` warm-starts the averaged direction and ``v0`` the duals
    (copied), each one flat vector in the coupling's layout, zeros when
    omitted; any other shape raises ``StructureError``. ``v0`` must have a
    zero owner-average, as the duals ``newton_solve`` carries over have.

    The stop rule: after each step, agent i's flag holds when its squared
    primal change |ds_i - dz_new_i|^2 and its squared dual change
    |dz_new_i - dz_i|^2, each summed over its slice, are at most
    ``eps_pri`` and ``eps_dual`` divided by the number of agents. One
    ``all_agree`` of the flags per step stops the loop; a failed vote rides
    the next step's exchange unless the step was the last permitted. A
    non-finite change raises ``NonFiniteError`` for the lowest such agent,
    primal before dual, and a disconnected graph raises from the first
    vote; a non-converged result (iteration cap) is returned.
    ``max_dual_average`` is the largest owner-average of the duals over the
    steps, summed in ascending agent order as ``gather_average`` sums.
    """
    coupling, config, groups = workspace.coupling, workspace.config, workspace.groups
    size, n_agents = coupling.flat_index.size, coupling.n_agents
    for name, start in (("dz0", dz0), ("v0", v0)):
        if start is not None and not (isinstance(start, np.ndarray) and start.shape == (size,)):
            raise StructureError(f"{name} must be one flat vector of the agents' local entries")
    dz = np.zeros(size) if dz0 is None else dz0
    # a copy: the step updates the duals in place, and v0 is the caller's
    v = np.zeros(size) if v0 is None else v0.astype(float)
    eps_pri_i, eps_dual_i = config.eps_pri / n_agents, config.eps_dual / n_agents
    # each agent's squared primal change (row 0) and dual change (row 1)
    E = np.full((2, n_agents), np.inf)
    e_pri, e_dual = E
    dual_avg, vote = np.zeros(coupling.n), None
    for k in range(config.admm_max_iter):
        _, dz_new, pri_change = workspace.step(dz, v, scheduler, vote)
        dual_change = dz_new - dz
        pri_change *= pri_change
        dual_change *= dual_change
        for grp in groups:
            e_pri[grp.members] = pri_change[grp.pos].sum(axis=1)
            e_dual[grp.members] = dual_change[grp.pos].sum(axis=1)
        # a NaN fails every flag, so the iteration would run to its cap
        if not np.isfinite(E).all():
            i = int(np.argmin(np.isfinite(E).all(axis=0)))
            raise NonFiniteError(i, "dual residual" if np.isfinite(e_pri[i]) else "primal residual")
        avg_v = np.bincount(coupling.flat_index, weights=v, minlength=coupling.n) / coupling.degrees
        np.maximum(dual_avg, np.abs(avg_v, out=avg_v), out=dual_avg)
        dz, vote = dz_new, (e_dual <= eps_dual_i) & (e_pri <= eps_pri_i)
        converged = all_agree(scheduler, vote, carry=k + 1 < config.admm_max_iter)
        if converged:
            break
    pri, dua = E.max(axis=1).tolist()
    return DirectionResult(converged=converged, iterations=k + 1, dz=dz,
                           primal_residual=pri, dual_residual=dua,
                           max_dual_average=float(dual_avg.max(initial=0.0)), v=v)
