"""Factorization layer: residual contracts, error reporting, determinism."""

import numpy as np
import pytest

from dipm.errors import FactorizationError, RankError, StructureError
from dipm.linalg import factor_kkt, factor_spd, factorization_count


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


class TestCounter:
    def test_each_factorization_counts_once(self):
        before = factorization_count()
        factor_spd(np.eye(3))
        factor_kkt(np.eye(3), 1.0, np.array([[1.0, 1.0, 0.0]]))
        assert factorization_count() == before + 2
