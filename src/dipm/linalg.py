"""Dense symmetric factorizations with reusable solve handles, over stacks.

Factorizations are computed once, then solved against arbitrarily many
right-hand sides; the prox layer leans on this to amortize one
factorization per agent across a whole inner-iteration run. A handle
holds a stack of g matrices of one size, shape (g, n, n), and factors and
solves all of them at once, one numpy call per step for the whole stack;
a single matrix is a stack of one. Each matrix of a stack gets the same
arithmetic, bit for bit, as it would alone: ``np.matmul`` acts on each
matrix of a stack as on the matrix by itself (``np.einsum`` does not, so
it is not used here), and the triangular inverses are taken one matrix at
a time by LAPACK's ``dtrtrs`` on the transposed factor. That is the call
``scipy.linalg.solve_triangular`` makes for a C-ordered lower factor, so
the bits are its own, without the wrapper's input validation on every
matrix; a stack of 1 x 1 factors is inverted at once by the one division
``dtrtrs`` makes for each. Finiteness is checked instead once per stack, by ``factor_spd``
and ``factor_kkt`` (a ``KKTFactorization`` built directly is the caller's
to keep finite); the direction workspace rejects a non-finite Hessian
before either is reached.

One handle, ``KKTFactorization``, serves every agent: it factors the
shifted leading block G = H + rho I and, when the agents have p > 0
equality rows, the Schur complement of the saddle system (a Schur pivot
that fails means the curvature made it singular: the model runs the same
test at G = I); with p = 0 it is the plain positive definite solve
(``SymmetricFactorization`` is that case with the primal part as its only
return value). A solve's residuals must meet a bound against the original
matrix, row by row: RESIDUAL_RTOL (1 + ||top||) plus a rounding floor
4 n eps (||G|| ||ds|| + ||A|| ||u||) for the top block, and RESIDUAL_RTOL
plus 4 n eps ||A|| ||ds|| for A ds (all norms max-norms). A row that
misses its bound gets a single refinement step, after which the solve
raises, naming the lowest row that still fails as the error's ``row``. A
stack whose factorization fails raises as a whole; a caller that must name
the failing matrix factors them one at a time.

The bound is certified once per factorization rather than checked on
every solve. For each matrix the handle computes a cap on ||top||, and a
solve whose right-hand sides all lie within their caps skips the check,
which it provably passes; if any matrix of the stack is beyond its cap,
the whole stack runs the check and refinement. The cap follows Higham,
*Accuracy and Stability of Numerical Algorithms*, ch. 3 and section 14.1.
A product of inner dimension k computed in floating point differs from
the exact one by at most gamma_k |X||Y| entrywise, gamma_k = k eps / (1 -
k eps), whatever the summation order; all the inner dimensions here are at
most n + p + 1, so gamma = gamma_(n+p+1) serves for every product, and
for products of three factors 2 gamma does. Write G^ for the stored
inverse of G, W for the computed Schur complement fl(fl(A G^) A'), W^ for
the stored inverse of its symmetric part, and T = ||top||.

p = 0. The solve is y = fl(G^ top), so top - G y = (I - G G^) top -
G dy with |dy| <= gamma |G^||top|. Bounding the exact I - G G^ by the
computed fl(G G^) adds another gamma |G||G^|, so row by row
||top - G y|| <= E_G T with

    E_G = max row sum of |I - fl(G G^)| + 2 gamma fl(|G||G^|).

Evaluating the residual adds at most gamma_n |G||ds|, which the floor
term 4 n eps ||G|| ||ds|| covers, and one relative rounding eps.
The matrix is certified, with cap infinity, when E_G <= RESIDUAL_RTOL / 2.

p > 0. Elimination computes w = fl(A y), u = fl(W^ w), z = fl(G^ fl(A' u))
and ds = fl(y - z). In exact arithmetic on the stored inverses these give
top - G ds - A' u = (I - G G^)(top - A' u) and A ds = (I - M W^) w with
M = A G^ A'. With w1 = ||A|| ||G^|| (so ||w|| <= w1 T) and
v = ||A'|| ||W^|| w1 (so ||A' u|| <= v T), tracing the rounding of each
step as above (the floor term now also covers the eps |G||ds| of the
last subtraction) gives

    ||top - G ds - A' u|| <= [(1 + v) E_G + gamma (2 + E_G) v] T = c_top T
    ||A ds||              <= w1 [E_W + gamma (4 + 2 E_W + 4 v)] T = c_eq T

with E_W = ||I - fl(W W^)|| + 2 gamma v bounding ||I - M W^||; the
rounding of evaluating G ds and A ds again falls to the floor terms.
The equality bound is absolute, so the cap is finite: RESIDUAL_RTOL /
(2 c_eq) when c_top <= RESIDUAL_RTOL / 2, and 0 otherwise (a zero
right-hand side solves exactly).

Every constant above is a first-order bound; the dropped factors are
(1 + gamma)^k with k below 40, and the rounding of computing the norms,
the cap and the check's own bound is of the same kind. The factor 1/2 in
each cap absorbs them with room to spare whenever (n + p) eps is below
1e-3, i.e. for any matrix this solver can hold. So a check that is
skipped would have passed, and certified and checked solves return the
same bits. A right-hand side with a NaN or an infinity never fails the
check either (a comparison with NaN is false, and an infinity makes the
bound infinite), so a handle whose caps are all infinite skips the check
without looking at the right-hand side at all.

The Cholesky factor is computed by a hand-written loop rather than LAPACK:
``scipy.linalg.cholesky`` rounds differently on small blocks, so switching
would change solver iterates in the last bits and with them the recorded
traces.

Handles are immutable after construction, which is what keeps their
certificates sound: the constructor copies G and freezes every array it
stores (``setflags(write=False)``), so a stored matrix can never drift
from the inverse its cap was computed for. Handles are safe for
concurrent solves. A module-level counter records every factorization
event, one per matrix of a stack, so callers can assert how many
factorizations a computation performed; the certificate adds none.
"""

import numpy as np
from scipy.linalg.lapack import dtrtrs

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


def _count(events):
    global _factorizations
    _factorizations += events


def _mv(M, x):
    """Matrix-vector products of a stack: M (g, m, n) times x (g, n)."""
    return np.matmul(M, x[..., None])[..., 0]


def _row_sum_max(M):
    """Largest row sum of each matrix of a stack (0 for an empty one)."""
    return M.sum(axis=2).max(axis=1, initial=0.0)


def _norm_inf(M):
    """||M||_inf of each matrix of a stack (0 for an empty one)."""
    return _row_sum_max(np.abs(M))


def _symmetric_stack(M, what):
    """M as a float stack (g, n, n), each matrix checked for finiteness and symmetry."""
    M = np.array(M, dtype=float)
    if M.ndim == 2:
        M = M[None]
    if M.ndim != 3 or M.shape[1] != M.shape[2]:
        raise StructureError(f"{what} must be square")
    if not np.isfinite(M).all():
        raise StructureError(f"{what} must be finite")
    scale = np.abs(M).max(axis=(1, 2), initial=0.0)
    asym = np.abs(M - M.swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)
    if (asym > 1e-12 * np.maximum(1.0, scale)).any():
        raise StructureError(f"{what} must be symmetric")
    return M


def _cholesky_lower(M):
    """Left-looking Cholesky of each matrix of a stack (g, n, n).

    Each matrix has its own pivot floor relative to its ||M||_inf; the
    first pivot that falls to its floor in any matrix raises.
    """
    n = M.shape[1]
    L = np.zeros(M.shape)
    floor = PIVOT_RTOL * _norm_inf(M)
    for k in range(n):
        d = M[:, k, k] - np.matmul(L[:, k, None, :k], L[:, k, :k, None])[:, 0, 0]
        low = np.flatnonzero(d <= floor)
        if low.size:
            j = low[0]
            raise FactorizationError(
                f"pivot {k} fell to {d[j]:.3e} (floor {floor[j]:.3e}); "
                "matrix is not positive definite",
                pivot_index=k,
                pivot_value=float(d[j]),
            )
        L[:, k, k] = np.sqrt(d)
        if k + 1 < n:
            below = M[:, k + 1:, k] - _mv(L[:, k + 1:, :k], L[:, k, :k])
            L[:, k + 1:, k] = below / L[:, k, k, None]
    return L


def require_full_row_rank(A):
    """Raise StructureError unless A passes the Schur-complement pivot test at G = I."""
    W = A @ A.T
    try:
        _cholesky_lower(0.5 * (W + W.T)[None])
    except FactorizationError as exc:
        raise StructureError(f"equality matrix must have full row rank: {exc}") from exc


def _spd_inverse(M):
    """Inverses of a stack of positive definite matrices through their Cholesky factors."""
    L = _cholesky_lower(M)
    n = L.shape[1]
    if n == 0:
        return np.zeros_like(M)
    if n == 1:
        # dtrtrs solves a 1 x 1 system by this one division, bit for bit
        Linv = 1.0 / L
    else:
        # L^-1 per matrix, as solve_triangular(l, I, lower=True) computes it
        # for the C-ordered l: dtrtrs on the Fortran-ordered transpose, upper,
        # transposed. Its info is 0, since every pivot passed its floor
        eye = np.eye(n)
        Linv = np.stack([dtrtrs(l.T, eye, lower=0, trans=1)[0] for l in L])
    return np.matmul(Linv.swapaxes(1, 2), Linv)


class KKTFactorization:
    """Solve handles for saddle systems [[G, A'], [A, 0]], one per matrix of a stack.

    ``G`` (g, n, n) holds the symmetric, already shifted leading blocks
    (H + rho I) and ``A`` (g, p, n) the p >= 0 equality rows of each; a
    single matrix (n, n) with rows (p, n) is a stack of one. Solves are
    carried out by block elimination through G; ``solve`` takes the
    top-block right-hand sides (the bottom block is zero in this solver),
    one row per matrix, and returns the primal parts together with the
    multipliers; each primal part lies in the null space of its A to
    within the residual bound. With p = 0 the systems are the G themselves
    and the multipliers have length zero. ``cap`` holds each matrix's
    certificate, the largest ||top||_inf whose solve skips the residual
    check, and ``covers_all`` says that every cap is infinite.
    """

    def __init__(self, G, A=None):
        G = np.array(G, dtype=float)
        if G.ndim == 2:
            G = G[None]
        g, n = G.shape[:2]
        A = np.zeros((g, 0, n)) if A is None else np.array(A, dtype=float)
        if A.ndim == 2:
            A = A[None]
        if A.ndim != 3 or A.shape[0] != g or A.shape[2] != n:
            raise StructureError("A must have one column per primal variable")
        self.n, self.p = n, A.shape[1]
        self.G, self.A = G, A
        self.Ginv = _spd_inverse(G)
        self.norm_inf = _norm_inf(G)
        self.A_norm = _norm_inf(A)
        W = self.Winv = None
        if self.p:
            W = np.matmul(np.matmul(A, self.Ginv), A.swapaxes(1, 2))
            try:
                self.Winv = _spd_inverse(0.5 * (W + W.swapaxes(1, 2)))
            except FactorizationError as exc:
                raise RankError(f"Schur complement A (H + rho I)^-1 A' is singular: {exc}") from exc
        self.cap = self._certificate(W)
        # every right-hand side lies within an infinite cap
        self.covers_all = bool(np.isinf(self.cap).all())
        for a in (G, A, self.Ginv, self.norm_inf, self.A_norm, self.Winv, self.cap):
            if a is not None:
                a.setflags(write=False)

    def _certificate(self, W):
        """Caps on ||top||_inf within which a solve cannot fail its check, one per matrix.

        ``W`` is the Schur complement as computed, before it is
        symmetrized (None when p = 0). The module docstring derives the
        constants.
        """
        n, p, G, Ginv = self.n, self.p, self.G, self.Ginv
        gamma = (n + p + 1) * _EPS / (1.0 - (n + p + 1) * _EPS)
        abs_Ginv = np.abs(Ginv)
        E_G = _row_sum_max(np.abs(np.eye(n) - np.matmul(G, Ginv))
                           + 2.0 * gamma * np.matmul(np.abs(G), abs_Ginv))
        if not p:
            return np.where(E_G <= 0.5 * RESIDUAL_RTOL, np.inf, 0.0)
        w = self.A_norm * _row_sum_max(abs_Ginv)
        v = _norm_inf(self.A.swapaxes(1, 2)) * _norm_inf(self.Winv) * w
        E_W = _norm_inf(np.eye(p) - np.matmul(W, self.Winv)) + 2.0 * gamma * v
        c_top = (1.0 + v) * E_G + gamma * (2.0 + E_G) * v
        c_eq = w * (E_W + gamma * (4.0 + 2.0 * E_W + 4.0 * v))
        return np.where(c_top <= 0.5 * RESIDUAL_RTOL, 0.5 * RESIDUAL_RTOL / c_eq, 0.0)

    def _eliminate(self, k, top, bottom=None):
        """Block elimination on matrices ``k``: (y, du) with G y + A' du = top, A y = bottom.

        ``bottom`` is zero when omitted.
        """
        Ginv = self.Ginv[k]
        y = _mv(Ginv, top)
        if not self.p:
            return y, np.zeros((len(y), 0))
        A = self.A[k]
        w = _mv(A, y)
        if bottom is not None:
            w = w - bottom
        du = _mv(self.Winv[k], w)
        return y - _mv(Ginv, _mv(A.swapaxes(1, 2), du)), du

    def _check(self, k, top, r_scale, ds, u):
        """Residuals of the solves on matrices ``k`` and which miss their bounds."""
        res = top - _mv(self.G[k], ds)
        ds_scale = np.abs(ds).max(axis=1, initial=0.0)
        noise = self.norm_inf[k] * ds_scale
        eq = None
        err_eq = bound_eq = np.zeros(len(res))
        if self.p:
            A, A_norm = self.A[k], self.A_norm[k]
            res = res - _mv(A.swapaxes(1, 2), u)
            eq = _mv(A, ds)
            noise = noise + A_norm * np.abs(u).max(axis=1, initial=0.0)
            err_eq = np.abs(eq).max(axis=1, initial=0.0)
            bound_eq = _solve_bound(0.0, A_norm * ds_scale, self.n)
        err = np.abs(res).max(axis=1, initial=0.0)
        bound = _solve_bound(r_scale, noise, self.n)
        # written so that a NaN passes: non-finite values are the
        # caller's to diagnose, not a factorization failure
        fail = (err > bound) | (err_eq > bound_eq)
        return res, eq, fail, (err, err_eq, bound, bound_eq)

    def _check_and_refine(self, top, r_scale, ds, u):
        """Check every solve, refine the failing ones once in place, raise if any still fails."""
        res, eq, fail, _ = self._check(slice(None), top, r_scale, ds, u)
        if not fail.any():
            return
        k = np.flatnonzero(fail)
        y, du = self._eliminate(k, res[k], None if eq is None else -eq[k])
        ds[k] += y
        u[k] += du
        _, _, fail, report = self._check(k, top[k], r_scale[k], ds[k], u[k])
        if fail.any():
            j = int(np.argmax(fail))
            err, err_eq, bound, bound_eq = (float(a[j]) for a in report)
            raise FactorizationError(
                f"solve residuals ({err:.3e}, {err_eq:.3e}) exceed bounds "
                f"({bound:.3e}, {bound_eq:.3e}) after refinement",
                row=int(k[j]),
            )

    def _solve(self, r):
        """Block elimination, then the residual checks unless the certificate covers ``r``."""
        r = np.asarray(r, dtype=float)
        g = len(self.G)
        if r.shape != (g, self.n) and (g != 1 or r.shape != (self.n,)):
            raise StructureError(f"right-hand side of shape {r.shape} does not match "
                                 f"{g} systems of size {self.n}")
        top = r.reshape(g, self.n)
        ds, u = self._eliminate(slice(None), top)
        if not self.covers_all:
            r_scale = np.abs(top).max(axis=1, initial=0.0)
            # within its cap a solve provably passes the check (module docstring)
            if not (r_scale <= self.cap).all():
                self._check_and_refine(top, r_scale, ds, u)
        if r.ndim == 1:
            return ds[0], u[0]
        return ds, u

    def solve(self, r):
        """Return (ds, u) solving the saddle systems with bottom block zero.

        ``r`` is one right-hand side (n,) for a stack of one, or one per
        matrix (g, n); the results have the same leading shape.
        """
        return self._solve(r)


class SymmetricFactorization(KKTFactorization):
    """Solve handles for a stack of symmetric positive definite matrices (p = 0)."""

    def solve(self, r):
        """Return x with M x = r per matrix, residual-checked and refined once if needed."""
        return self._solve(r)[0]


def factor_spd(M):
    """Factor a symmetric positive definite matrix, or each of a stack (g, n, n).

    Counts one event per matrix.
    """
    M = _symmetric_stack(M, "matrix")
    f = SymmetricFactorization(0.5 * (M + M.swapaxes(1, 2)))
    _count(len(M))
    return f


def factor_kkt(H, rho, A):
    """Factor [[H + rho I, A'], [A, 0]], or each of a stack; counts one event per matrix.

    ``H`` is (n, n) or (g, n, n) and ``A`` accordingly (p, n) or (g, p, n).
    With A empty this degenerates to the positive definite case but keeps
    the (ds, u) return shape, u having length zero.
    """
    H = _symmetric_stack(H, "H")
    if not 0.0 < rho < np.inf:
        raise StructureError("rho must be positive and finite")
    if A is not None and not np.isfinite(A).all():
        raise StructureError("A must be finite")
    G = 0.5 * (H + H.swapaxes(1, 2)) + rho * np.eye(H.shape[1])
    try:
        f = KKTFactorization(G, A)
    except FactorizationError as exc:
        raise FactorizationError(
            f"leading block is indefinite even after adding rho I: {exc}",
            pivot_index=exc.pivot_index,
            pivot_value=exc.pivot_value,
        ) from exc
    _count(len(H))
    return f
