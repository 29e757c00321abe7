"""Distributed computation of the Newton direction by operator splitting.

The direction subproblem at a linearization point is a separable quadratic
model coupled only through the requirement that all local directions be
slices of one global direction. Splitting that requirement off as a
consensus projection yields an iteration in which every agent alternates a
local prox solve against its cached curvature factorization, a one-round
exchange of shared components, and a running dual update:

    ds_i   <- (H_i + rho I)^{-1} (rho (dz_{J_i} + v_i) - grad_i)
    dz_j   <- mean of ds_q[j] over the owners q of variable j
    v_i    <- v_i + (dz_{J_i} - ds_i)

Agents with a local equality system solve the corresponding saddle system
instead, which keeps every iterate in the constraint null space. The
curvature matrix is constant across inner iterations, so each agent
factors exactly once per direction computation no matter how many
iterations are needed.

Per-agent convergence is declared when the squared slice change and the
squared disagreement both fall below their tolerances split evenly across
agents; one flooded AND per iteration turns the local declarations into a
global stop.

Any start whose duals have a zero owner-average is valid, and the dual
update keeps that average at zero. A start at the fixed point
rho v_i = H_i dz_i + grad_i (+ A_i' u_i with equality rows), which the
Newton driver's carry-over is on a quadratic stage, stops after one
iteration.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import FactorizationError, NonFiniteError, RankError
from .network import all_agree, exchange_shared_components
from .problem import gather_average, merge_slices, scatter


@dataclass
class AgentDirectionState:
    """One agent's share of a direction computation at one linearization point."""

    index_set: np.ndarray
    grad: np.ndarray
    hess: np.ndarray = field(repr=False)
    factor: object = field(repr=False)
    A_eq: np.ndarray = None


def _blame(exc, agent):
    """``exc`` with the failing agent attached, as ``agent`` and in its message."""
    exc.agent = agent
    exc.args = (f"agent {agent}: {exc}",)
    return exc


class DirectionWorkspace:
    """Per-agent gradients and cached factorizations at one linearization point.

    Building the workspace performs the N factorizations with penalty
    ``config.rho``; they stay valid for the lifetime of the workspace, which
    is tied to the linearization point it was built from. A system that
    cannot be factored raises with the failing agent attached.
    """

    def __init__(self, stage, points, coupling, config):
        self.coupling = coupling
        self.config = config
        self.agents = []
        for i, (h, blk, s, idx) in enumerate(zip(stage.objectives, stage.blocks, points,
                                                  coupling.index_arrays)):
            g = h.gradient(s)
            H = h.hessian(s)
            for quantity, arr in (("gradient", g), ("Hessian", H)):
                if not np.isfinite(arr).all():
                    raise NonFiniteError(i, quantity)
            try:
                if blk.A_eq is None:
                    fac = linalg.factor_spd(H + config.rho * np.eye(len(s)))
                else:
                    fac = linalg.factor_kkt(H, config.rho, blk.A_eq)
            except (FactorizationError, RankError) as exc:
                raise _blame(exc, i)
            self.agents.append(
                AgentDirectionState(index_set=idx, grad=g, hess=H, factor=fac, A_eq=blk.A_eq)
            )


def prox_step_unconstrained(agent, dz_slice, v, rho):
    """Local quadratic prox solve against the cached factorization."""
    rhs = rho * (dz_slice + v) - agent.grad
    return agent.factor.solve(rhs)


def prox_step_equality(agent, dz_slice, v, rho):
    """Equality-constrained prox: saddle solve, direction in null(A)."""
    rhs = rho * (dz_slice + v) - agent.grad
    ds, _ = agent.factor.solve(rhs)
    return ds


@dataclass
class DirectionResult:
    """Outcome of one distributed direction computation.

    ``dx`` is the global direction; ``ds_slices`` are its per-agent slices,
    read from the one vector so they are consistent by construction.
    Residuals are the final per-agent maxima of the squared norms the
    termination test uses. ``v`` holds the final per-agent duals, which
    the Newton driver carries into the next direction. ``max_dual_average``
    tracks how far the averaged dual variables drifted from zero;
    ``max_eq_violation`` tracks the worst violation of the local equality
    null-space condition over all inner iterates.
    """

    converged: bool
    iterations: int
    dx: np.ndarray
    ds_slices: list
    primal_residual: float
    dual_residual: float
    max_dual_average: float
    max_eq_violation: float
    v: list


def compute_direction(workspace, scheduler, dz0=None, v0=None):
    """Run the splitting iteration to consensus on the Newton direction.

    ``dz0`` warm-starts the averaged direction and ``v0`` the per-agent
    duals (zeros when omitted). ``v0`` must have a zero owner-average, which
    is what keeps the duals in the null space of the consensus projection;
    the Newton driver passes the previous direction's final duals, which
    have one.

    A non-converged result (iteration cap) is returned rather than raised;
    ``newton_solve`` rejects it. A disconnected graph raises
    ``DisconnectedNetworkError`` from the first flooded AND.
    """
    coupling = workspace.coupling
    agents = workspace.agents
    n_agents = len(agents)
    config = workspace.config
    rho = config.rho

    dx0 = np.zeros(coupling.n) if dz0 is None else np.asarray(dz0, dtype=float)
    dz = scatter(dx0, coupling)
    if v0 is None:
        v = [np.zeros(len(a.index_set)) for a in agents]
    else:
        v = [np.array(vi, dtype=float) for vi in v0]

    eps_pri_i = config.eps_pri / n_agents
    eps_dual_i = config.eps_dual / n_agents
    max_dual_avg = 0.0
    max_eq_viol = 0.0
    pri = dua = np.inf

    converged = False
    iterations = config.admm_max_iter
    for k in range(config.admm_max_iter):
        ds = []
        for i, a in enumerate(agents):
            try:
                if a.A_eq is None:
                    d = prox_step_unconstrained(a, dz[i], v[i], rho)
                else:
                    d = prox_step_equality(a, dz[i], v[i], rho)
                    viol = float(np.abs(a.A_eq @ d).max(initial=0.0))
                    max_eq_viol = max(max_eq_viol, viol)
            except FactorizationError as exc:
                raise _blame(exc, i)
            ds.append(d)

        dz_new = exchange_shared_components(scheduler, ds)

        flags = []
        pri = dua = 0.0
        for i in range(n_agents):
            v[i] += dz_new[i] - ds[i]
            e_dual = float(np.sum((dz_new[i] - dz[i]) ** 2))
            e_pri = float(np.sum((ds[i] - dz_new[i]) ** 2))
            # max() below would drop a NaN and let the iteration run to its cap
            if not math.isfinite(e_pri):
                raise NonFiniteError(i, "primal residual")
            if not math.isfinite(e_dual):
                raise NonFiniteError(i, "dual residual")
            flags.append(e_dual <= eps_dual_i and e_pri <= eps_pri_i)
            pri = max(pri, e_pri)
            dua = max(dua, e_dual)

        avg_v = gather_average(v, coupling)
        max_dual_avg = max(max_dual_avg, float(np.abs(avg_v).max(initial=0.0)))

        dz = dz_new
        converged = all_agree(scheduler, flags)
        if converged:
            iterations = k + 1
            break

    dx = merge_slices(dz, coupling)
    return DirectionResult(
        converged=converged,
        iterations=iterations,
        dx=dx,
        ds_slices=scatter(dx, coupling),
        primal_residual=pri,
        dual_residual=dua,
        max_dual_average=max_dual_avg,
        max_eq_violation=max_eq_viol,
        v=v,
    )
