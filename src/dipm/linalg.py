"""Dense symmetric factorizations with reusable solve handles.

Factorizations are computed once, then solved against arbitrarily many
right-hand sides; the prox layer leans on this to amortize one
factorization per agent across a whole inner-iteration run. One handle,
``KKTFactorization``, serves every agent: it factors the shifted leading
block G = H + rho I and, when the agent has p > 0 equality rows, the Schur
complement of the saddle system (a Schur pivot that fails means the
curvature made it singular: the model runs the same test at G = I); with
p = 0 it is the plain positive definite solve (``SymmetricFactorization``
is that case with the primal part as its only return value). Every solve
is residual-checked against the original matrix; a single refinement step
is attempted when the bound fails, after which the solve raises.

The Cholesky factor is computed by a hand-written loop rather than LAPACK:
``scipy.linalg.cholesky`` rounds differently on small blocks, so switching
would change solver iterates in the last bits and with them the recorded
traces.

Handles are immutable after construction and safe for concurrent solves.
A module-level counter records every factorization event so callers can
assert how many factorizations a computation performed.
"""

import numpy as np
from scipy.linalg import solve_triangular

from .errors import FactorizationError, RankError, StructureError

RESIDUAL_RTOL = 1e-9
PIVOT_RTOL = 1e-14
_EPS = float(np.finfo(float).eps)


def _solve_bound(rhs_scale, noise_scale, n):
    # contract bound plus the rounding floor of evaluating the residual
    # itself; with heavy cancellation in the right-hand side (late barrier
    # stages) the floor term is the only meaningful part
    return RESIDUAL_RTOL * (1.0 + rhs_scale) + 4.0 * max(n, 1) * _EPS * noise_scale


_factorizations = 0


def factorization_count():
    """Total factorization events since import (monotone counter)."""
    return _factorizations


def _count_one():
    global _factorizations
    _factorizations += 1


def _require_symmetric(M, what):
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise StructureError(f"{what} must be square")
    scale = float(np.abs(M).max(initial=0.0))
    if np.abs(M - M.T).max(initial=0.0) > 1e-12 * max(1.0, scale):
        raise StructureError(f"{what} must be symmetric")


def _cholesky_lower(M):
    """Left-looking Cholesky with a pivot floor relative to ||M||_inf."""
    n = M.shape[0]
    L = np.zeros_like(M)
    floor = PIVOT_RTOL * float(np.linalg.norm(M, np.inf)) if n else 0.0
    for k in range(n):
        d = M[k, k] - L[k, :k] @ L[k, :k]
        if d <= floor:
            raise FactorizationError(
                f"pivot {k} fell to {d:.3e} (floor {floor:.3e}); matrix is not positive definite",
                pivot_index=k,
                pivot_value=float(d),
            )
        L[k, k] = np.sqrt(d)
        if k + 1 < n:
            L[k + 1:, k] = (M[k + 1:, k] - L[k + 1:, :k] @ L[k, :k]) / L[k, k]
    return L


def require_full_row_rank(A):
    """Raise StructureError unless A passes the Schur-complement pivot test at G = I."""
    W = A @ A.T
    try:
        _cholesky_lower(0.5 * (W + W.T))
    except FactorizationError as exc:
        raise StructureError(f"equality matrix must have full row rank: {exc}") from exc


def _spd_inverse(M):
    """Inverse of a positive definite M through its Cholesky factor."""
    L = _cholesky_lower(M)
    n = L.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    Linv = solve_triangular(L, np.eye(n), lower=True)
    return Linv.T @ Linv


class KKTFactorization:
    """Solve handle for the saddle system [[G, A'], [A, 0]] with p >= 0 rows in A.

    G is the symmetric, already shifted leading block (H + rho I). Solves
    are carried out by block elimination through G; ``solve`` takes the
    top-block right-hand side (the bottom block is zero in this solver) and
    returns the primal part together with the multiplier; the primal part
    lies in the null space of A to within the residual bound. With p = 0
    the system is G itself and the multiplier has length zero.
    """

    def __init__(self, G, A=None):
        self._G = G
        self._Ginv = _spd_inverse(G)
        self.n = n = G.shape[0]
        self.norm_inf = float(np.linalg.norm(G, np.inf)) if n else 0.0
        A = np.zeros((0, n)) if A is None else np.array(A, dtype=float)
        if A.ndim != 2 or A.shape[1] != n:
            raise StructureError("A must have one column per primal variable")
        self.p = A.shape[0]
        self._A = A
        self._A_norm = float(np.linalg.norm(A, np.inf)) if self.p else 0.0
        self._no_multiplier = np.zeros(0)
        if self.p:
            W = A @ self._Ginv @ A.T
            try:
                self._Winv = _spd_inverse(0.5 * (W + W.T))
            except FactorizationError as exc:
                raise RankError(f"Schur complement A (H + rho I)^-1 A' is singular: {exc}") from exc

    def _solve(self, r):
        """Block elimination, residual check, and at most one refinement."""
        r = np.asarray(r, dtype=float)
        Ginv, A, p = self._Ginv, self._A, self.p
        ds = Ginv @ r
        u = self._no_multiplier
        if p:
            u = self._Winv @ (A @ ds)
            ds = ds - Ginv @ (A.T @ u)
        r_scale = float(np.abs(r).max(initial=0.0))
        for refined in (False, True):
            res = r - self._G @ ds
            ds_scale = float(np.abs(ds).max(initial=0.0))
            noise = self.norm_inf * ds_scale
            err_eq = bound_eq = 0.0
            if p:
                res = res - A.T @ u
                eq = A @ ds
                noise = noise + self._A_norm * float(np.abs(u).max(initial=0.0))
                err_eq = np.abs(eq).max(initial=0.0)
                bound_eq = _solve_bound(0.0, self._A_norm * ds_scale, self.n)
            err = np.abs(res).max(initial=0.0)
            bound = _solve_bound(r_scale, noise, self.n)
            # written so that a NaN passes: non-finite values are the
            # caller's to diagnose, not a factorization failure
            if not (err > bound or err_eq > bound_eq):
                return ds, u
            if refined:
                raise FactorizationError(
                    f"solve residuals ({err:.3e}, {err_eq:.3e}) exceed bounds "
                    f"({bound:.3e}, {bound_eq:.3e}) after refinement"
                )
            y = Ginv @ res
            if p:
                du = self._Winv @ (A @ y - eq)
                y = y - Ginv @ (A.T @ du)
                u = u + du
            ds = ds + y

    def solve(self, r):
        """Return (ds, u) solving the saddle system with bottom block zero."""
        return self._solve(r)


class SymmetricFactorization(KKTFactorization):
    """Solve handle for one symmetric positive definite matrix (p = 0)."""

    def solve(self, r):
        """Return x with M x = r, residual-checked and refined once if needed."""
        return self._solve(r)[0]


def factor_spd(M):
    """Factor a symmetric positive definite matrix; counts one event."""
    M = np.array(M, dtype=float)
    _require_symmetric(M, "matrix")
    f = SymmetricFactorization(0.5 * (M + M.T))
    _count_one()
    return f


def factor_kkt(H, rho, A):
    """Factor [[H + rho I, A'], [A, 0]]; counts one event.

    With A empty this degenerates to the positive definite case but keeps
    the (ds, u) return shape, u having length zero.
    """
    H = np.array(H, dtype=float)
    _require_symmetric(H, "H")
    if rho <= 0:
        raise StructureError("rho must be positive")
    G = 0.5 * (H + H.T) + rho * np.eye(H.shape[0])
    try:
        f = KKTFactorization(G, A)
    except FactorizationError as exc:
        raise FactorizationError(
            f"leading block is indefinite even after adding rho I: {exc}",
            pivot_index=exc.pivot_index,
            pivot_value=exc.pivot_value,
        ) from exc
    _count_one()
    return f
