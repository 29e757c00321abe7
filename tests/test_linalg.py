"""Factorization layer: residual contracts, error reporting, determinism."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dtrtrs

import dipm
from dipm import linalg
from dipm.errors import FactorizationError, RankError, StructureError
from dipm.linalg import KKTFactorization, factor_kkt, factor_spd, factorization_count


def random_spd(rng, n, cond=None):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if cond is None:
        eigs = rng.uniform(0.5, 3.0, size=n)
    else:
        eigs = np.geomspace(1.0, cond, n)
    return (Q * eigs) @ Q.T


class TestFactorSpd:
    def test_identity(self):
        f = factor_spd(np.eye(2))
        np.testing.assert_array_equal(f.solve(np.array([3.0, 4.0])), [3.0, 4.0])

    def test_diagonal(self):
        f = factor_spd(np.diag([2.0, 4.0]))
        np.testing.assert_allclose(f.solve(np.array([2.0, 4.0])), [1.0, 1.0], rtol=1e-14)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(0)
        M = random_spd(rng, 8)
        r = rng.standard_normal(8)
        x = factor_spd(M).solve(r)
        assert np.abs(M @ x - r).max() <= 1e-10

    def test_residual_contract_across_conditioning(self):
        rng = np.random.default_rng(1)
        for cond in (1e2, 1e5, 1e8):
            M = random_spd(rng, 10, cond=cond)
            r = rng.standard_normal(10)
            x = factor_spd(M).solve(r)
            assert np.abs(M @ x - r).max() <= 1e-9 * (1.0 + np.abs(r).max())

    def test_indefinite_reports_pivot(self):
        M = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(FactorizationError) as exc_info:
            factor_spd(M)
        assert exc_info.value.pivot_index == 1

    def test_asymmetric_rejected(self):
        with pytest.raises(StructureError):
            factor_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_rejected(self, bad):
        # checked before the symmetry test; the triangular solves do not check
        for M in ([[bad]], [[1.0, bad], [bad, 1.0]]):
            with pytest.raises(StructureError, match="matrix must be finite"):
                factor_spd(M)

    def test_deterministic_solves(self):
        rng = np.random.default_rng(2)
        M = random_spd(rng, 6)
        r = rng.standard_normal(6)
        f = factor_spd(M)
        x1 = f.solve(r)
        x2 = f.solve(r)
        np.testing.assert_array_equal(x1, x2)

    def test_matches_dense_elimination_oracle(self):
        rng = np.random.default_rng(3)
        for n in (3, 10, 25, 50):
            M = random_spd(rng, n)
            r = rng.standard_normal(n)
            x = factor_spd(M).solve(r)
            ref = np.linalg.solve(M, r)
            np.testing.assert_allclose(x, ref, rtol=1e-9, atol=1e-12)


class TestFactorKkt:
    def test_hand_solved_3x3(self):
        # [[2, 0, 1], [0, 2, -1], [1, -1, 0]] (ds1, ds2, u) = (2, 0, 0)
        f = factor_kkt(np.eye(2), 1.0, np.array([[1.0, -1.0]]))
        ds, u = f.solve(np.array([2.0, 0.0]))
        np.testing.assert_allclose(ds, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(u, [1.0], atol=1e-12)

    def test_empty_A_reduces_to_spd(self):
        rng = np.random.default_rng(4)
        H = random_spd(rng, 4)
        r = rng.standard_normal(4)
        ds, u = factor_kkt(H, 0.5, None).solve(r)
        ref = factor_spd(H + 0.5 * np.eye(4)).solve(r)
        np.testing.assert_array_equal(ds, ref)
        assert u.size == 0

    def test_nan_right_hand_side_passes_through(self):
        # non-finite data is diagnosed by the caller, not reported as a
        # failed factorization
        r = np.array([np.nan, 1.0, 0.0])
        assert np.isnan(factor_spd(np.eye(3)).solve(r)).any()
        ds, u = factor_kkt(np.eye(3), 1.0, np.array([[1.0, 1.0, 0.0]])).solve(r)
        assert np.isnan(ds).any() and np.isnan(u).any()

    def test_random_kkt_residuals(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            H = random_spd(rng, 6)
            A = rng.standard_normal((2, 6))
            r = rng.standard_normal(6)
            rho = 1.0
            ds, u = factor_kkt(H, rho, A).solve(r)
            assert np.abs(A @ ds).max() <= 1e-9
            top = (H + rho * np.eye(6)) @ ds + A.T @ u - r
            assert np.abs(top).max() <= 1e-9 * (1.0 + np.abs(r).max())

    def test_matches_assembled_dense_solve(self):
        rng = np.random.default_rng(6)
        H = random_spd(rng, 8)
        A = rng.standard_normal((3, 8))
        r = rng.standard_normal(8)
        rho = 2.0
        K = np.zeros((11, 11))
        K[:8, :8] = H + rho * np.eye(8)
        K[:8, 8:] = A.T
        K[8:, :8] = A
        ref = np.linalg.solve(K, np.concatenate([r, np.zeros(3)]))
        ds, u = factor_kkt(H, rho, A).solve(r)
        np.testing.assert_allclose(np.concatenate([ds, u]), ref, rtol=1e-8, atol=1e-10)

    def test_rank_deficient_A_rejected(self):
        A = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(RankError):
            factor_kkt(np.eye(3), 1.0, A)

    def test_deterministic_repeat_solves(self):
        rng = np.random.default_rng(7)
        H = random_spd(rng, 5)
        A = rng.standard_normal((2, 5))
        r = rng.standard_normal(5)
        f = factor_kkt(H, 1.0, A)
        ds1, u1 = f.solve(r)
        ds2, u2 = f.solve(r)
        np.testing.assert_array_equal(ds1, ds2)
        np.testing.assert_array_equal(u1, u2)

    def test_psd_plus_rho_is_enough(self):
        # H merely positive semidefinite: rho I must carry the factorization
        H = np.diag([1.0, 0.0])
        ds, u = factor_kkt(H, 1.0, None).solve(np.array([2.0, 2.0]))
        np.testing.assert_allclose(ds, [1.0, 2.0], atol=1e-12)

    def test_indefinite_leading_block_rejected(self):
        with pytest.raises(FactorizationError, match="indefinite"):
            factor_kkt(np.diag([1.0, -5.0]), 1.0, np.array([[1.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_rejected(self, bad):
        for H in ([[bad]], [[1.0, bad], [bad, 1.0]]):
            with pytest.raises(StructureError, match="H must be finite"):
                factor_kkt(H, 1.0, np.ones((1, len(H))))
        with pytest.raises(StructureError, match="A must be finite"):
            factor_kkt(np.eye(2), 1.0, [[1.0, bad]])
        with pytest.raises(StructureError, match="rho must be positive and finite"):
            factor_kkt(np.eye(2), bad, [[1.0, 1.0]])


def reflected_saddle(v, A, step=3.0):
    """G = Q diag(1, 10^-step, ..., 10^-4 step) Q' for the reflector Q along v, and A."""
    v = np.array(v, dtype=float)
    Q = np.eye(5) - 2.0 * np.outer(v, v) / (v @ v)
    G = Q @ np.diag(10.0 ** -(step * np.arange(5.0))) @ Q.T
    return 0.5 * (G + G.T), np.array(A, dtype=float)


def recorded_bounds(monkeypatch):
    """Record every residual bound a solve computes, in order."""
    bounds = []
    original = linalg._solve_bound

    def recording(*args):
        bounds.append(original(*args))
        return bounds[-1]

    monkeypatch.setattr(linalg, "_solve_bound", recording)
    return bounds


class TestRefinement:
    # one equality row; each pass computes the equality bound, then the
    # primal one. At condition number 1e12 the plain elimination misses its
    # bound about 300-fold and the refined solve meets it with the same
    # margin; at 1e14 the refined solve still misses it about 60-fold
    def test_refined_saddle_solve_meets_its_bound(self, monkeypatch):
        G, A = reflected_saddle([-3, 0, 2, -2, 3], [[3, -3, 2, 2, 3]])
        r = np.array([2.0, 2.0, 3.0, -2.0, 3.0])
        f = KKTFactorization(G, A)
        bounds = recorded_bounds(monkeypatch)
        ds, u = f.solve(r)
        assert len(bounds) == 4
        bound_eq, bound = bounds[2:]
        assert np.abs(A @ ds).max() <= bound_eq
        assert np.abs(G @ ds + A.T @ u - r).max() <= bound

    def test_refined_saddle_solve_that_misses_its_bound_raises(self, monkeypatch):
        G, A = reflected_saddle([1, 2, -1, -2, 3], [[-1, 3, -2, 0, 0]], step=3.5)
        f = KKTFactorization(G, A)
        bounds = recorded_bounds(monkeypatch)
        with pytest.raises(FactorizationError, match="after refinement"):
            f.solve(np.array([2.0, 0.0, 3.0, -2.0, 3.0]))
        assert len(bounds) == 4

    def test_refinement_removes_the_equality_residual(self, monkeypatch):
        # a well-conditioned system whose first elimination is pushed off
        # the null space of A: the correction solves A y = -A ds, which
        # takes A ds to rounding (solving A y = +A ds would double it). It
        # is stacked with an ill-conditioned system that the certificate
        # does not cover, so the stack's solves run the full check
        rng = np.random.default_rng(11)
        G, A, r = random_spd(rng, 4), rng.standard_normal((1, 4)), rng.standard_normal(4)
        f = KKTFactorization(np.stack([G, random_spd(rng, 4, cond=1e10)]),
                             np.stack([A, rng.standard_normal((1, 4))]))
        r = np.stack([r, rng.standard_normal(4)])
        assert np.abs(r[1]).max() > f.cap[1]
        exact, _ = f.solve(r)
        eliminate = f._eliminate
        calls = []

        def perturbed(k, top, bottom=None):
            y, du = eliminate(k, top, bottom)
            calls.append(bottom)
            if len(calls) == 1:
                y[0] += 1e-3 * A[0]
            return y, du

        monkeypatch.setattr(f, "_eliminate", perturbed)
        ds, u = f.solve(r)
        assert len(calls) == 2 and np.abs(calls[1]).max() > 1e-4
        assert np.abs(A @ ds[0]).max() <= 1e-14
        np.testing.assert_allclose(ds[0], exact[0], rtol=0, atol=1e-12)


class TestCounter:
    def test_each_factorization_counts_once(self):
        before = factorization_count()
        factor_spd(np.eye(3))
        factor_kkt(np.eye(3), 1.0, np.array([[1.0, 1.0, 0.0]]))
        assert factorization_count() == before + 2


def random_stack(rng, g, d, p):
    """g positive semidefinite d x d curvatures, p equality rows each, and right-hand sides."""
    X = rng.standard_normal((g, d, d))
    H = np.matmul(X, X.swapaxes(1, 2)) * rng.uniform(0.01, 3.0, size=(g, 1, 1))
    return H, rng.standard_normal((g, p, d)), rng.standard_normal((g, d))


class TestStacks:
    # a stack of N is N stacks of one: same factors, same solves, to the bit
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_stack_of_n_equals_n_stacks_of_one(self, d, p):
        rng = np.random.default_rng(100 * d + p)
        for _ in range(20):
            H, A, r = random_stack(rng, 6, d, p)
            before = factorization_count()
            spd = factor_spd(H + 0.7 * np.eye(d))
            kkt = factor_kkt(H, 0.7, A)
            assert factorization_count() == before + 12
            x = spd.solve(r)
            ds, u = kkt.solve(r)
            assert x.shape == ds.shape == (6, d) and u.shape == (6, p)
            for k in range(6):
                one_spd = factor_spd(H[k] + 0.7 * np.eye(d))
                one_kkt = factor_kkt(H[k], 0.7, A[k])
                np.testing.assert_array_equal(spd.Ginv[k], one_spd.Ginv[0])
                np.testing.assert_array_equal(kkt.Ginv[k], one_kkt.Ginv[0])
                np.testing.assert_array_equal(x[k], one_spd.solve(r[k]))
                ds_k, u_k = one_kkt.solve(r[k])
                np.testing.assert_array_equal(ds[k], ds_k)
                np.testing.assert_array_equal(u[k], u_k)

    def test_one_by_one_inverse_is_the_triangular_solve(self):
        # a 1 x 1 factor is inverted by one division; dtrtrs, which the
        # larger factors go through, divides the same way, bit for bit
        rng = np.random.default_rng(11)
        pivots = rng.uniform(1.0, 2.0, 100_000) * 2.0 ** rng.integers(-1000, 1000, 100_000)
        one = np.ones((1, 1))
        by_lapack = np.array([dtrtrs(np.full((1, 1), p), one, lower=0, trans=1)[0][0, 0]
                              for p in pivots])
        assert (by_lapack == 1.0 / pivots).all()
        assert by_lapack.tobytes() == (1.0 / pivots).tobytes()
        # the stacked inverse L^-T L^-1 of 1 x 1 matrices, squares in range
        M = rng.uniform(1.0, 2.0, (2000, 1, 1)) * 2.0 ** rng.integers(-400, 400, (2000, 1, 1))
        Linv = np.array([dtrtrs(np.sqrt(m), one, lower=0, trans=1)[0] for m in M])
        assert linalg._spd_inverse(M).tobytes() == np.matmul(Linv, Linv).tobytes()

    def test_single_right_hand_side_needs_a_stack_of_one(self):
        f = factor_spd(np.stack([np.eye(2), 2.0 * np.eye(2)]))
        for r in (np.ones(2), np.ones(4), np.ones((1, 2)), np.ones((2, 2, 1))):
            with pytest.raises(StructureError, match="does not match 2 systems of size 2"):
                f.solve(r)
        one = factor_spd(np.eye(2))
        assert one.solve(np.ones(2)).shape == (2,)
        assert one.solve(np.ones((1, 2))).shape == (1, 2)

    def test_a_stack_fails_when_any_matrix_fails(self):
        M = np.stack([np.eye(3), np.diag([1.0, 1.0, -1.0]), np.eye(3)])
        with pytest.raises(FactorizationError, match="^pivot 2 fell to -1.000e\\+00") as info:
            factor_spd(M)
        assert (info.value.pivot_index, info.value.pivot_value) == (2, -1.0)
        H = np.stack([np.eye(3), np.eye(3)])
        A = np.stack([[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]])
        with pytest.raises(RankError):
            factor_kkt(H, 1.0, A)
        with pytest.raises(FactorizationError, match="indefinite"):
            factor_kkt(np.stack([np.eye(3), np.diag([1.0, -5.0, 1.0])]), 1.0, A)

    def test_only_the_failing_row_is_refined(self, monkeypatch):
        # the reflected saddle of TestRefinement misses its first bound and
        # meets it refined; between two well-conditioned systems it is the
        # only row refined, and every row solves as it does alone
        rng = np.random.default_rng(9)
        G1, A1 = reflected_saddle([-3, 0, 2, -2, 3], [[3, -3, 2, 2, 3]])
        G = np.stack([random_spd(rng, 5), G1, random_spd(rng, 5)])
        A = np.stack([rng.standard_normal((1, 5)), A1, rng.standard_normal((1, 5))])
        r = np.stack([rng.standard_normal(5), [2.0, 2.0, 3.0, -2.0, 3.0],
                      rng.standard_normal(5)])
        alone = [KKTFactorization(G[k], A[k]).solve(r[k]) for k in range(3)]
        f = KKTFactorization(G, A)
        bounds = recorded_bounds(monkeypatch)
        ds, u = f.solve(r)
        assert [np.shape(b) for b in bounds] == [(3,), (3,), (1,), (1,)]
        for k in range(3):
            np.testing.assert_array_equal(ds[k], alone[k][0])
            np.testing.assert_array_equal(u[k], alone[k][1])

    def test_solve_that_fails_after_refinement_names_its_row(self, mismatched_inverses):
        f = factor_spd(np.stack([np.eye(2), np.eye(2), np.eye(2)]))
        f = mismatched_inverses(f, [1])   # the stored matrix no longer matches its inverse
        with pytest.raises(FactorizationError, match="after refinement") as info:
            f.solve(np.ones((3, 2)))
        assert info.value.row == 1


@st.composite
def stacks(draw, max_log_cond, ps=(0, 1, 2), well_conditioned=False):
    """A solve handle on a random stack with its right-hand sides, one per matrix.

    Each matrix has its own condition number in 10^[0, max_log_cond]. With
    ``well_conditioned`` the equality rows are orthonormal, so that the
    Schur complement is no worse conditioned than G, and the right-hand
    sides are unit vectors in the max-norm; otherwise the rows are Gaussian
    and the right-hand sides have max-norms in 10^[-8, 8].
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g, n, p = draw(st.integers(1, 3)), draw(st.integers(3, 6)), draw(st.sampled_from(ps))
    G = np.stack([random_spd(rng, n, cond=10.0 ** draw(st.floats(0.0, max_log_cond)))
                  for _ in range(g)])
    if well_conditioned:
        A = np.stack([np.linalg.qr(rng.standard_normal((n, p)))[0].T for _ in range(g)])
    else:
        A = rng.standard_normal((g, p, n))
    try:
        f = KKTFactorization(G, A)
    except RankError:
        reject()
    r = rng.standard_normal((g, n))
    r /= np.abs(r).max(axis=1, keepdims=True)
    if not well_conditioned:
        r *= 10.0 ** np.array([draw(st.floats(-8.0, 8.0)) for _ in range(g)])[:, None]
    return f, r


class TestCertificate:
    # the certificate caps ||top||_inf per matrix; within its cap a solve
    # must pass the full check, whatever the conditioning
    @settings(deadline=None, database=None)
    @given(stacks(max_log_cond=10.0))
    def test_certified_solves_pass_the_full_check(self, stack):
        f, r = stack
        r_scale = np.abs(r).max(axis=1)
        ds, u = f._eliminate(slice(None), r)
        _, _, fail, _ = f._check(slice(None), r, r_scale, ds, u)
        assert not (fail & (r_scale <= f.cap)).any()

    # without equality rows the certificate covers condition numbers up to
    # 1e4; with them the normwise bound reaches 1e2
    @settings(deadline=None, database=None)
    @given(stacks(max_log_cond=4.0, ps=(0,), well_conditioned=True),
           stacks(max_log_cond=2.0, ps=(1, 2), well_conditioned=True))
    def test_well_conditioned_stacks_are_certified(self, plain, saddle):
        for f, r in (plain, saddle):
            assert (np.abs(r).max(axis=1) <= f.cap).all()

    def test_certified_solve_skips_the_check(self, monkeypatch):
        f = factor_kkt(np.eye(3), 1.0, np.array([[1.0, 1.0, 0.0]]))
        bounds = recorded_bounds(monkeypatch)
        f.solve(np.array([1.0, -2.0, 0.5]))
        assert bounds == []

    def test_a_solve_with_a_bottom_runs_the_check(self, monkeypatch):
        # the certificate covers a zero bottom only; with one, the same
        # handle checks the solve, which meets A ds = bottom
        f = factor_kkt(np.eye(3), 1.0, np.array([[1.0, 1.0, 0.0]]))
        assert f.covers_all is False and f.cap[0] > 2.0
        bounds = recorded_bounds(monkeypatch)
        ds, u = f.solve(np.array([1.0, -2.0, 0.5]), np.array([0.25]))
        assert len(bounds) == 2
        assert abs(ds[0] + ds[1] - 0.25) <= 1e-15
        K = np.block([[2.0 * np.eye(3), f.A[0].T], [f.A[0], np.zeros((1, 1))]])
        want = np.linalg.solve(K, [1.0, -2.0, 0.5, 0.25])
        np.testing.assert_allclose(np.concatenate([ds, u]), want, atol=1e-15)

    @pytest.mark.parametrize("bottom", [np.zeros(2), np.zeros((2, 1))])
    def test_a_bottom_of_the_wrong_shape_is_refused(self, bottom):
        f = factor_kkt(np.eye(3), 1.0, np.array([[1.0, 1.0, 0.0]]))
        with pytest.raises(StructureError, match=r"right-hand side of shape \(2"):
            f.solve(np.zeros(3), bottom)

    def test_handles_are_read_only(self):
        G = np.eye(3)
        f = KKTFactorization(G, np.array([[1.0, 1.0, 0.0]]))
        for a in (f.G, f.A, f.Ginv, f.Winv, f.cap):
            with pytest.raises(ValueError, match="read-only"):
                a[0] *= 2.0
        G[0, 0] = 2.0   # the caller's matrix is copied, not frozen


def lapack_lower_inverse(L):
    """L^-1 of each factor of a stack by one ``dtrtrs`` call per matrix, the
    call ``scipy.linalg.solve_triangular`` makes for a C-ordered lower factor."""
    eye = np.eye(L.shape[1])
    return np.stack([dtrtrs(l.T, eye, lower=0, trans=1)[0] for l in L])


@st.composite
def spd_stacks(draw, sizes):
    """1-40 symmetric positive definite matrices of one size drawn from ``sizes``,
    each with its own condition number in 10^[0, 8] and scale in 2^[-20, 20]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g, n = draw(st.integers(1, 40)), draw(st.sampled_from(sizes))
    M = np.stack([random_spd(rng, n, cond=10.0 ** rng.uniform(0.0, 8.0)) for _ in range(g)])
    M *= 2.0 ** rng.integers(-20, 21, (g, 1, 1))
    return 0.5 * (M + M.swapaxes(1, 2))


class TestTriangularKernel:
    # up to KERNEL_ROWS rows the stacked kernel inverts the factors with
    # LAPACK's bits; beyond, the factors still go to dtrtrs one at a time
    @settings(deadline=None, database=None)
    @given(spd_stacks(sizes=range(1, linalg.KERNEL_ROWS + 1)))
    def test_kernel_matches_dtrtrs_bitwise(self, M):
        L = linalg._cholesky_lower(M)
        Linv = linalg._lower_inverse(L)
        assert Linv.tobytes() == lapack_lower_inverse(L).tobytes()
        for k in range(len(L)):
            assert linalg._lower_inverse(L[k:k + 1]).tobytes() == Linv[k:k + 1].tobytes()

    @settings(deadline=None, database=None)
    @given(spd_stacks(sizes=range(linalg.KERNEL_ROWS + 1, 9)))
    def test_larger_factors_take_the_lapack_path(self, M):
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return dtrtrs(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scipy.linalg.lapack, "dtrtrs", counting)
            f = factor_spd(M)
        assert len(calls) == len(M)
        Linv = lapack_lower_inverse(linalg._cholesky_lower(f.G))
        assert f.Ginv.tobytes() == np.matmul(Linv.swapaxes(1, 2), Linv).tobytes()


# run in a fresh interpreter: solves whose blocks and equality rows have at
# most KERNEL_ROWS entries, through the API and the command line, load no
# scipy module; a 6-entry block then loads LAPACK on first use and solves
NO_SCIPY_SCRIPT = """
import json, sys
from dipm import cli, random_qp, solve_ipm, solve_newton

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out = sys.argv[1]
solve_newton(*random_qp(0, 5, 4, overlap=1, n_eq=2))
solve_newton(*random_qp(1, 6, 3, overlap=1))
solve_ipm(*random_qp(2, 5, 3, overlap=1, n_eq=1, n_ineq=2))
assert cli.main(["generate", "--seed", "0", "--agents", "4", "--inequalities", "1",
                 "--out", f"{out}/small.json"]) == 0
assert cli.main(["run", "--mode", "compare", "--problem", f"{out}/small.json",
                 "--out", f"{out}/small"]) == 0
assert not scipy_modules(), scipy_modules()
assert cli.main(["generate", "--seed", "0", "--agents", "4", "--block-size", "6",
                 "--overlap", "2", "--out", f"{out}/large.json"]) == 0
assert cli.main(["run", "--mode", "compare", "--problem", f"{out}/large.json",
                 "--out", f"{out}/large"]) == 0
assert "scipy.linalg.lapack" in sys.modules
gap = json.load(open(f"{out}/large/summary.json"))["gap_inf"]
assert gap < 1e-6, gap
print("ok")
"""


def test_small_blocks_solve_without_loading_scipy(tmp_path):
    # the interpreter imports the dipm these tests import
    path = [str(pathlib.Path(dipm.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"
