"""Loosely coupled problem model.

A problem couples ``N`` agent blocks through a shared global variable of
dimension ``n``. Each block owns an ordered index set into the global
variable (0-based), a smooth convex objective on its local slice, optional
smooth convex inequality constraints, and an optional linear equality
system. The coupling structure derived from the index sets (who owns which
variable, who neighbors whom) is what the distributed layers operate on;
its flat layout of all local entries, agents ascending, is the one the
solver keeps its iterates in, and ``consistency_error`` reads.
The constructors own the validity checks: finite data, PSD quadratics,
functions sized to their index sets, equality rows passing
``linalg.require_full_row_rank``, coverage of 0..n-1; ``check_start``
judges starting points.

All types are immutable after construction; the operations here are pure
functions, so they are safe to evaluate concurrently.

The solver evaluates the functions of a group of agents together, through
``stack_functions``: a stack of points has one point per member along its
second-to-last axis, and every result has the member at the same place.
``QuadraticFunction`` has a stacked form, ``QuadraticStack``, whose
``np.matmul`` calls give each member the bits of its own
``QuadraticFunction`` (``np.matmul`` acts on each matrix of a stack as on
the matrix alone). Functions without a stacked form run member by member
behind the same interface (``MemberStack``).
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleStartError, StructureError
from .linalg import require_full_row_rank

# relative to max|P|: eigvalsh returns rounding-size negatives for singular PSD P
PSD_RTOL = 1e-10

# largest equality residual a starting point may have
START_EQ_ATOL = 1e-9


def _readonly(a, dtype=float):
    out = np.array(a, dtype=dtype)
    if not np.isfinite(out).all():
        raise StructureError("model data must be finite")
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# smooth scalar functions on R^d: value / gradient / hessian
# ---------------------------------------------------------------------------

class QuadraticFunction:
    """f(s) = 1/2 s'Ps + q's + r with P symmetric positive semidefinite.

    Serves both as a block objective and as the left-hand side of a
    quadratic inequality f(s) <= 0.
    """

    def __init__(self, P, q, r=0.0):
        P = _readonly(P)
        q = _readonly(q)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise StructureError("P must be square")
        if q.shape != (P.shape[0],):
            raise StructureError("q length must match P")
        scale = max(1.0, float(np.abs(P).max()) if P.size else 0.0)
        if np.abs(P - P.T).max(initial=0.0) > 1e-12 * scale:
            raise StructureError("P must be symmetric")
        if P.size and float(np.linalg.eigvalsh(P).min()) < -PSD_RTOL * scale:
            raise StructureError("quadratic form must be positive semidefinite")
        self.P = P
        self.q = q
        self.r = float(_readonly(r))
        self.dim = P.shape[0]

    def value(self, s):
        return 0.5 * float(s @ self.P @ s) + float(self.q @ s) + self.r

    def gradient(self, s):
        return self.P @ s + self.q

    def hessian(self, s):
        return self.P


class QuadraticStack:
    """Stacked ``QuadraticFunction``: 1/2 s'P_k s + q_k's + r_k for row k of a stack.

    ``P`` (g, d, d), ``q`` (g, d) and ``r`` (g,) hold the members' data.
    A stack of points has shape (..., g, d): any leading axes hold further
    points of every member. Each member's value, gradient and Hessian are
    the bits its own ``QuadraticFunction`` computes.
    """

    def __init__(self, P, q, r):
        self.P, self.q, self.r = P, q, r
        # the bits of the last points valued and their read-only values: a
        # barrier stage value, gradient and Hessian and the line search's
        # floors all take the constraint values at one iterate, and a full
        # step's trial points are the next iterate
        self._last = None

    def take(self, rows):
        """The stack of the members ``rows``, in that order."""
        return QuadraticStack(self.P[rows], self.q[rows], self.r[rows])

    def value(self, S):
        # a member's value does not depend on the leading axes: only the
        # points' bits and the member axes key the last values
        key = (S.dtype, S.shape[-2:], S.tobytes())
        if self._last is None or self._last[0] != key:
            quad = np.matmul(np.matmul(S[..., None, :], self.P), S[..., :, None])[..., 0, 0]
            out = 0.5 * quad + np.matmul(self.q[:, None, :], S[..., :, None])[..., 0, 0] + self.r
            out.setflags(write=False)
            self._last = key, out
        return self._last[1].reshape(S.shape[:-1])

    def gradient(self, S):
        return np.matmul(self.P, S[..., :, None])[..., 0] + self.q

    def hessian(self, S):
        # one Hessian per member, whatever the point; it broadcasts over leading axes
        return self.P


class MemberStack:
    """Functions without a stacked form, behind the stacked interface: one call per point."""

    def __init__(self, fns):
        self.fns = tuple(fns)

    def take(self, rows):
        """The stack of the members ``rows``, in that order."""
        return MemberStack([self.fns[k] for k in rows])

    def _each(self, method, S, shape):
        g, d = S.shape[-2:]
        out = [getattr(self.fns[k % g], method)(s) for k, s in enumerate(S.reshape(-1, d))]
        return np.array(out, dtype=float).reshape(S.shape[:-1] + shape)

    def value(self, S):
        return self._each("value", S, ())

    def gradient(self, S):
        return self._each("gradient", S, S.shape[-1:])

    def hessian(self, S):
        return self._each("hessian", S, S.shape[-1:] * 2)


def stack_functions(fns):
    """One stacked calculus object for functions of one dimension, row k for ``fns[k]``.

    Quadratic functions stack as a ``QuadraticStack``; any other mix runs
    member by member.
    """
    if all(type(f) is QuadraticFunction for f in fns):
        data = [np.array([f.P for f in fns]), np.array([f.q for f in fns]),
                np.array([f.r for f in fns])]
        for a in data:
            a.setflags(write=False)
        return QuadraticStack(*data)
    return MemberStack(fns)


def _sigmoid(s):
    """1 / (1 + exp(-s)) without overflow: exp is only taken of -|s|."""
    e = np.exp(-np.abs(s))
    return np.where(s >= 0, 1.0, e) / (1.0 + e)


class SoftplusRidge:
    """f(s) = sum_k log(1 + exp(s_k)) + ridge/2 ||s||^2 + w's.

    Built-in strictly convex nonquadratic test objective. The softplus is
    evaluated in its overflow-safe form max(s, 0) + log1p(exp(-|s|)), and
    its derivative, the logistic sigmoid, from the same exp(-|s|).
    """

    def __init__(self, dim, ridge=1.0, linear=None):
        self.ridge = float(_readonly(ridge))
        if self.ridge <= 0:
            raise StructureError("ridge must be positive for strong convexity")
        self.dim = int(dim)
        self.linear = _readonly(linear if linear is not None else np.zeros(self.dim))
        if self.linear.shape != (self.dim,):
            raise StructureError("linear term length must match dim")

    def value(self, s):
        sp = np.maximum(s, 0.0) + np.log1p(np.exp(-np.abs(s)))
        return float(sp.sum() + 0.5 * self.ridge * (s @ s) + self.linear @ s)

    def gradient(self, s):
        return _sigmoid(s) + self.ridge * s + self.linear

    def hessian(self, s):
        sig = _sigmoid(s)
        return np.diag(sig * (1.0 - sig)) + self.ridge * np.eye(self.dim)


class CustomFunction:
    """Adapter wrapping plain callables into the value/gradient/hessian protocol."""

    def __init__(self, dim, value_fn, gradient_fn, hessian_fn):
        self.dim = int(dim)
        self._value = value_fn
        self._gradient = gradient_fn
        self._hessian = hessian_fn

    def value(self, s):
        return float(self._value(s))

    def gradient(self, s):
        return np.asarray(self._gradient(s), dtype=float)

    def hessian(self, s):
        return np.asarray(self._hessian(s), dtype=float)


# ---------------------------------------------------------------------------
# blocks and problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AgentBlock:
    """One agent: index set into the global variable plus its local calculus.

    ``index_set`` must be strictly increasing and duplicate-free (0-based).
    ``inequality`` holds zero or more smooth convex constraint functions
    g(s) <= 0 on the local slice. ``A_eq``/``b_eq``, when present, impose
    A s = b with p < |index_set| rows passing ``linalg.require_full_row_rank``.
    """

    index_set: tuple
    objective: object
    inequality: tuple = ()
    A_eq: np.ndarray = None
    b_eq: np.ndarray = None

    def __post_init__(self):
        idx = tuple(int(j) for j in self.index_set)
        if len(idx) == 0:
            raise StructureError("index set must be nonempty")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise StructureError("index set must be strictly increasing")
        if idx[0] < 0:
            raise StructureError(f"index set entry {idx[0]} is negative")
        object.__setattr__(self, "index_set", idx)
        object.__setattr__(self, "inequality", tuple(self.inequality))
        for c, fn in enumerate((self.objective,) + self.inequality):
            if fn.dim != len(idx):
                name = "objective" if c == 0 else f"inequality {c - 1}"
                raise StructureError(f"{name} has dimension {fn.dim}; index set has {len(idx)}")
        if (self.A_eq is None) != (self.b_eq is None):
            raise StructureError("equality needs both A and b")
        if self.A_eq is not None:
            A = _readonly(self.A_eq)
            b = _readonly(self.b_eq)
            if A.ndim != 2 or A.shape[1] != len(idx):
                raise StructureError("A must be p x |index_set|")
            if b.shape != (A.shape[0],):
                raise StructureError("b length must match rows of A")
            if A.shape[0] >= len(idx):
                raise StructureError("need fewer equality rows than local variables")
            require_full_row_rank(A)
            object.__setattr__(self, "A_eq", A)
            object.__setattr__(self, "b_eq", b)

    @property
    def dim(self):
        return len(self.index_set)

    @property
    def n_ineq(self):
        return len(self.inequality)


@dataclass(frozen=True)
class LooselyCoupledProblem:
    """N agent blocks jointly covering a global variable of dimension n."""

    n: int
    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if len(self.blocks) < 1:
            raise StructureError("need at least one block")
        covered = set()
        for k, blk in enumerate(self.blocks):
            if blk.index_set[-1] >= self.n:
                raise StructureError(
                    f"block {k} references index {blk.index_set[-1]} outside 0..{self.n - 1}"
                )
            covered.update(blk.index_set)
        missing = sorted(set(range(self.n)) - covered)
        if missing:
            raise StructureError(f"global variable {missing[0]} is covered by no block")

    @property
    def n_agents(self):
        return len(self.blocks)

    @property
    def m_total(self):
        return sum(blk.n_ineq for blk in self.blocks)


@dataclass(frozen=True)
class CouplingStructure:
    """Ownership and adjacency derived from the index sets.

    ``owners[j]`` lists (ascending) the agents whose index set contains j;
    ``degrees[j]`` is its length. ``neighbors[i]`` lists the agents (other
    than i itself) sharing at least one variable with agent i. The stacked
    selection matrix has Gram matrix diag(degrees).

    The flat vector of all local entries, agents ascending, has entry k
    at global index ``flat_index[k]``; agent i owns entries
    ``offsets[i]:offsets[i + 1]``, and ``index_arrays[i]`` is that view of
    ``flat_index``. All arrays are read-only.
    """

    n: int
    owners: tuple
    degrees: np.ndarray
    neighbors: tuple
    index_arrays: tuple = field(repr=False)
    flat_index: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)

    @property
    def n_agents(self):
        return len(self.neighbors)

    @property
    def max_degree(self):
        """Largest number of agents sharing one variable (looseness measure)."""
        return int(self.degrees.max())


# a NamedTuple: a frozen dataclass would add about 1 ms to every import of
# the package, which dominates its set-up time
class BlockGroup(NamedTuple):
    """The agents of one local size, number of equality rows and number of inequalities.

    ``members`` lists their indices in ascending order; row k of every
    stack belongs to agent ``members[k]``. ``pos`` holds the positions of
    each member's entries in the flat vector of all local entries, agents
    ascending (``CouplingStructure.flat_index`` order). ``f`` stacks their
    block objectives, ``inequality`` their constraints (one stack per
    constraint index) and ``A_eq`` their equality matrices (None without
    equality rows); the stacks are ``stack_functions``. ``objective`` is
    the stacked objective the group minimizes: ``f`` itself unless a stage
    replaces it (``_replace``).
    """

    members: np.ndarray
    pos: np.ndarray
    f: object
    inequality: tuple
    A_eq: np.ndarray
    objective: object


def group_blocks(blocks):
    """The ``BlockGroup``s of agent ``blocks``, in the order of their first members."""
    members = {}
    for i, blk in enumerate(blocks):
        key = (blk.dim, None if blk.A_eq is None else len(blk.A_eq), blk.n_ineq)
        members.setdefault(key, []).append(i)
    offsets = np.cumsum([0] + [blk.dim for blk in blocks])
    groups = []
    for rows in members.values():
        blks = [blocks[i] for i in rows]
        f = stack_functions([blk.objective for blk in blks])
        groups.append(BlockGroup(
            members=np.array(rows),
            pos=offsets[rows][:, None] + np.arange(blks[0].dim),
            f=f,
            inequality=tuple(stack_functions([blk.inequality[c] for blk in blks])
                             for c in range(blks[0].n_ineq)),
            A_eq=None if blks[0].A_eq is None else np.array([blk.A_eq for blk in blks]),
            objective=f,
        ))
    return tuple(groups)


def build_coupling(problem):
    """Derive the CouplingStructure of a problem.

    The problem guarantees that its blocks cover 0..n-1, so the output
    satisfies the ownership/adjacency invariants by construction.
    """
    n = problem.n
    owners = [[] for _ in range(n)]
    for i, blk in enumerate(problem.blocks):
        for j in blk.index_set:
            owners[j].append(i)
    neighbors = [set() for _ in problem.blocks]
    for o in owners:
        for a in o:
            for b in o:
                if a != b:
                    neighbors[a].add(b)
    flat_index = _readonly([j for blk in problem.blocks for j in blk.index_set], dtype=np.intp)
    offsets = _readonly(np.cumsum([0] + [blk.dim for blk in problem.blocks]), dtype=np.intp)
    return CouplingStructure(
        n=n,
        owners=tuple(tuple(o) for o in owners),
        degrees=_readonly([len(o) for o in owners]),
        neighbors=tuple(tuple(sorted(s)) for s in neighbors),
        index_arrays=tuple(np.split(flat_index, offsets[1:-1])),
        flat_index=flat_index,
        offsets=offsets,
    )


# ---------------------------------------------------------------------------
# slice algebra
# ---------------------------------------------------------------------------

def scatter(x, coupling):
    """Split a global vector into per-agent local slices x_{J_i}."""
    x = np.asarray(x, dtype=float)
    if x.shape != (coupling.n,):
        raise StructureError(f"expected global vector of length {coupling.n}")
    return [x[idx].copy() for idx in coupling.index_arrays]


def gather_average(slices, coupling):
    """Average the agents' copies of each global variable.

    Contributions are accumulated in ascending agent index so results are
    reproducible bit for bit; the result equals the orthogonal projection
    of the stacked slices onto consistent configurations, expressed as a
    global vector.
    """
    z = np.zeros(coupling.n)
    for i, s in enumerate(slices):
        idx = coupling.index_arrays[i]
        if np.shape(s) != idx.shape:
            raise StructureError(f"slice {i} has wrong length")
        z[idx] += s
    z /= coupling.degrees
    return z


def flatten_slices(slices, coupling):
    """The agents' local slices as one flat vector in the coupling's layout (a copy).

    Raises ``StructureError`` naming the first slice of the wrong length.
    """
    for i, (s, idx) in enumerate(zip(slices, coupling.index_arrays)):
        if np.shape(s) != idx.shape:
            raise StructureError(f"slice {i} has wrong length")
    return np.concatenate(slices, dtype=float)


def consistency_error(copies, coupling):
    """Largest half-spread (max - min) / 2 of any variable's copies over its owners.

    ``copies`` is one flat vector of all local entries in the coupling's
    layout (``flatten_slices`` of the agents' slices). Bit-equal copies
    read exactly 0; two owners' copies read their distance from their
    average. NaN copies are left out: ``check_start`` rejects them.
    """
    if not isinstance(copies, np.ndarray) or copies.shape != coupling.flat_index.shape:
        raise StructureError(f"expected {coupling.flat_index.size} local entries")
    hi = np.full(coupling.n, -np.inf)
    lo = np.full(coupling.n, np.inf)
    np.fmax.at(hi, coupling.flat_index, copies)
    np.fmin.at(lo, coupling.flat_index, copies)
    return float(((hi - lo) / 2.0).max(initial=0.0))


def check_start(blocks, slices, eq_atol=START_EQ_ATOL):
    """Raise InfeasibleStartError unless every slice is a valid start.

    Each slice must be finite, each inequality of its block strictly negative
    and each equality residual at most ``eq_atol``. All violations are listed.
    """
    violations = []
    for i, (blk, s) in enumerate(zip(blocks, slices)):
        if not np.isfinite(s).all():
            violations.append(f"agent {i} start is not finite")
            continue
        for c, g in enumerate(blk.inequality):
            val = g.value(s)
            if not val < 0.0:
                violations.append(
                    f"agent {i} inequality {c}: value {val:.6e} must be strictly negative"
                )
        if blk.A_eq is not None:
            resid = float(np.abs(blk.A_eq @ s - blk.b_eq).max(initial=0.0))
            if resid > eq_atol:
                violations.append(f"agent {i} equality residual {resid:.3e} exceeds {eq_atol:g}")
    if violations:
        raise InfeasibleStartError("starting point is infeasible", violations)


# ---------------------------------------------------------------------------
# finite-difference validation of user calculus
# ---------------------------------------------------------------------------

@dataclass
class DerivativeCheck:
    """Relative errors of analytic derivatives against central differences."""

    grad_rel_error: float
    hess_rel_error: float
    hess_asymmetry: float
    inequality_grad_errors: list
    inequality_hess_errors: list

    @property
    def max_rel_error(self):
        errs = [self.grad_rel_error, self.hess_rel_error]
        errs += self.inequality_grad_errors + self.inequality_hess_errors
        return max(errs)


def fd_gradient(func, x, h):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        fp, fm = func.value(x + e), func.value(x - e)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise StructureError(f"non-finite value at perturbed point (coordinate {k})")
        g[k] = (fp - fm) / (2 * h)
    return g


def fd_hessian(func, x, h):
    """Central differences of the analytic gradient, symmetrized."""
    x = np.asarray(x, dtype=float)
    H = np.zeros((x.size, x.size))
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        gp, gm = func.gradient(x + e), func.gradient(x - e)
        if not (np.all(np.isfinite(gp)) and np.all(np.isfinite(gm))):
            raise StructureError(f"non-finite gradient at perturbed point (coordinate {k})")
        H[:, k] = (gp - gm) / (2 * h)
    return 0.5 * (H + H.T)


def _check_one(func, x, h):
    ga, gn = func.gradient(x), fd_gradient(func, x, h)
    g_err = float(np.abs(ga - gn).max() / (1.0 + np.abs(gn).max()))
    Ha, Hn = func.hessian(x), fd_hessian(func, x, h)
    h_err = float(np.abs(Ha - Hn).max() / (1.0 + np.abs(Hn).max()))
    asym = float(np.abs(Ha - Ha.T).max() / (1.0 + np.abs(Ha).max()))
    return g_err, h_err, asym


def check_finite_difference(block_or_function, point, h=1e-6):
    """Compare analytic gradients/Hessians to central differences.

    Accepts either a single value/gradient/hessian object or an AgentBlock,
    in which case the objective and every inequality are checked. Returns a
    DerivativeCheck report; callers decide what error level is acceptable.
    """
    point = np.asarray(point, dtype=float)
    if isinstance(block_or_function, AgentBlock):
        g_err, h_err, asym = _check_one(block_or_function.objective, point, h)
        iq_g, iq_h = [], []
        for g in block_or_function.inequality:
            e1, e2, a2 = _check_one(g, point, h)
            iq_g.append(e1)
            iq_h.append(e2)
            asym = max(asym, a2)
        return DerivativeCheck(g_err, h_err, asym, iq_g, iq_h)
    g_err, h_err, asym = _check_one(block_or_function, point, h)
    return DerivativeCheck(g_err, h_err, asym, [], [])
