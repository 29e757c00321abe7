"""Problem model: coupling structure, slice algebra, calculus validation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipm.errors import RankError, StructureError
from dipm.linalg import factor_kkt
from dipm.problem import (
    AgentBlock,
    CustomFunction,
    LooselyCoupledProblem,
    QuadraticFunction,
    SoftplusRidge,
    build_coupling,
    check_finite_difference,
    consistency_error,
    gather_average,
    scatter,
    stack_functions,
)


def quad_block(index_set, P=None, q=None, r=0.0):
    dim = len(index_set)
    P = np.eye(dim) if P is None else np.asarray(P, dtype=float)
    q = np.zeros(dim) if q is None else np.asarray(q, dtype=float)
    return AgentBlock(index_set=tuple(index_set), objective=QuadraticFunction(P, q, r))


def random_problem(rng, max_agents=20, max_n=50):
    """Random index-set layout guaranteed to cover every global variable."""
    n = int(rng.integers(2, max_n + 1))
    n_agents = int(rng.integers(1, max_agents + 1))
    blocks = []
    covered = set()
    for _ in range(n_agents - 1):
        size = int(rng.integers(1, min(6, n) + 1))
        idx = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        covered.update(idx)
        blocks.append(quad_block(idx))
    rest = tuple(sorted(set(range(n)) - covered)) or (0,)
    blocks.append(quad_block(rest))
    return LooselyCoupledProblem(n=n, blocks=tuple(blocks))


class TestBuildCoupling:
    def test_chain_owners_degrees_neighbors(self):
        prob = LooselyCoupledProblem(
            n=4, blocks=(quad_block((0, 1)), quad_block((1, 2)), quad_block((2, 3)))
        )
        c = build_coupling(prob)
        assert c.owners[1] == (0, 1)
        assert c.owners[2] == (1, 2)
        assert c.degrees.tolist() == [1, 2, 2, 1]
        assert c.neighbors[1] == (0, 2)

    def test_single_agent(self):
        prob = LooselyCoupledProblem(n=5, blocks=(quad_block(range(5)),))
        c = build_coupling(prob)
        assert c.degrees.tolist() == [1] * 5
        assert c.neighbors[0] == ()
        assert c.max_degree == 1

    def test_fully_decoupled(self):
        prob = LooselyCoupledProblem(n=2, blocks=(quad_block((0,)), quad_block((1,))))
        c = build_coupling(prob)
        assert c.neighbors == ((), ())
        assert c.degrees.tolist() == [1, 1]

    def test_uncovered_index_names_variable(self):
        with pytest.raises(StructureError, match="variable 1"):
            LooselyCoupledProblem(n=3, blocks=(quad_block((0,)), quad_block((2,))))

    def test_ownership_round_trip_random(self):
        # j in J_i iff i in owners[j], neighbor relation symmetric
        for seed in range(30):
            rng = np.random.default_rng(seed)
            prob = random_problem(rng)
            c = build_coupling(prob)
            for i, blk in enumerate(prob.blocks):
                for j in range(prob.n):
                    assert (j in blk.index_set) == (i in c.owners[j])
            for i, ne in enumerate(c.neighbors):
                assert i not in ne
                for j in ne:
                    assert i in c.neighbors[j]
            assert all(d >= 1 for d in c.degrees)


class TestSliceAlgebra:
    def test_scatter_chain(self):
        prob = LooselyCoupledProblem(n=3, blocks=(quad_block((0, 1)), quad_block((1, 2))))
        c = build_coupling(prob)
        s = scatter(np.array([10.0, 20.0, 30.0]), c)
        assert s[0].tolist() == [10.0, 20.0]
        assert s[1].tolist() == [20.0, 30.0]

    def test_scatter_zero_and_singleton(self):
        prob = LooselyCoupledProblem(n=1, blocks=(quad_block((0,)),))
        c = build_coupling(prob)
        assert scatter(np.array([7.0]), c)[0].tolist() == [7.0]
        prob2 = LooselyCoupledProblem(n=3, blocks=(quad_block((0, 1)), quad_block((1, 2))))
        c2 = build_coupling(prob2)
        assert all(np.all(sl == 0) for sl in scatter(np.zeros(3), c2))

    def test_scatter_dimension_mismatch(self):
        prob = LooselyCoupledProblem(n=3, blocks=(quad_block((0, 1, 2)),))
        c = build_coupling(prob)
        with pytest.raises(StructureError):
            scatter(np.zeros(4), c)

    def test_gather_average_chain(self):
        prob = LooselyCoupledProblem(n=3, blocks=(quad_block((0, 1)), quad_block((1, 2))))
        c = build_coupling(prob)
        z = gather_average([np.array([1.0, 2.0]), np.array([4.0, 6.0])], c)
        assert z.tolist() == [1.0, 3.0, 6.0]
        z2 = gather_average([np.array([0.0, 0.0]), np.array([2.0, 0.0])], c)
        assert z2.tolist() == [0.0, 1.0, 0.0]

    def test_gather_of_scatter_is_identity(self):
        # identity up to one rounding step: summing d equal copies and
        # dividing by d is exact only when d is a power of two
        for seed in range(20):
            rng = np.random.default_rng(seed)
            prob = random_problem(rng)
            c = build_coupling(prob)
            x = rng.standard_normal(prob.n)
            z = gather_average(scatter(x, c), c)
            np.testing.assert_allclose(z, x, rtol=1e-14, atol=1e-14)
            assert consistency_error(np.concatenate(scatter(x, c)), c) <= 1e-12

    def test_consistency_error_reads_only_one_flat_vector(self):
        prob = LooselyCoupledProblem(n=3, blocks=(quad_block((0, 1)), quad_block((1, 2))))
        c = build_coupling(prob)
        for copies in (scatter(np.zeros(c.n), c), np.zeros(c.flat_index.size + 1)):
            with pytest.raises(StructureError, match="local entries"):
                consistency_error(copies, c)

    def test_gather_matches_dense_projection(self):
        # explicit stacked selection matrix, materialized only here
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            prob = random_problem(rng, max_agents=8, max_n=20)
            c = build_coupling(prob)
            E = np.vstack([
                np.eye(prob.n)[list(blk.index_set), :] for blk in prob.blocks
            ])
            slices = [rng.standard_normal(blk.dim) for blk in prob.blocks]
            stacked = np.concatenate(slices)
            dense = np.linalg.solve(E.T @ E, E.T @ stacked)
            z = gather_average(slices, c)
            np.testing.assert_allclose(z, dense, atol=1e-12)
            # E'E is exactly diag(degrees)
            np.testing.assert_array_equal(np.diag(E.T @ E), c.degrees)


class TestBlockValidation:
    def test_index_set_must_increase(self):
        with pytest.raises(StructureError):
            quad_block((1, 0))
        with pytest.raises(StructureError):
            quad_block((0, 0))
        with pytest.raises(StructureError):
            quad_block(())

    def test_equality_rank_and_shape(self):
        with pytest.raises(StructureError, match="full row rank"):
            AgentBlock(
                index_set=(0, 1, 2),
                objective=QuadraticFunction(np.eye(3), np.zeros(3)),
                A_eq=np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
                b_eq=np.zeros(2),
            )
        with pytest.raises(StructureError, match="fewer equality rows"):
            AgentBlock(
                index_set=(0, 1),
                objective=QuadraticFunction(np.eye(2), np.zeros(2)),
                A_eq=np.eye(2),
                b_eq=np.zeros(2),
            )

    def test_objective_sized_to_the_index_set(self):
        with pytest.raises(StructureError, match="objective has dimension 2; index set has 3"):
            AgentBlock((0, 1, 2), QuadraticFunction(np.eye(2), np.zeros(2)))

    def test_inequality_sized_to_the_index_set(self):
        with pytest.raises(StructureError, match="inequality 1 has dimension 2"):
            AgentBlock((0, 1, 2), QuadraticFunction(np.eye(3), np.zeros(3)),
                       inequality=(QuadraticFunction(np.zeros((3, 3)), np.ones(3), -1.0),
                                   QuadraticFunction(np.zeros((2, 2)), np.ones(2), -1.0)))

    @pytest.mark.parametrize("P, q, r", [
        ([[np.nan]], [0.0], 0.0),
        ([[1.0]], [np.inf], 0.0),
        ([[1.0]], [0.0], np.nan),
    ], ids=["P", "q", "r"])
    def test_nonfinite_quadratic_rejected(self, P, q, r):
        # NaN fails every comparison, so it would pass the PSD check
        with pytest.raises(StructureError, match="finite"):
            QuadraticFunction(np.array(P), np.array(q), r)

    @pytest.mark.parametrize("A, b", [([[np.nan, 1.0, 0.0]], [0.0]),
                                      ([[1.0, 1.0, 0.0]], [np.inf])], ids=["A", "b"])
    def test_nonfinite_equality_rejected(self, A, b):
        with pytest.raises(StructureError, match="finite"):
            AgentBlock(index_set=(0, 1, 2), objective=QuadraticFunction(np.eye(3), np.zeros(3)),
                       A_eq=np.array(A), b_eq=np.array(b))

    @pytest.mark.parametrize("ridge, linear", [(np.nan, None), (1.0, [0.0, -np.inf])],
                             ids=["ridge", "linear"])
    def test_nonfinite_softplus_rejected(self, ridge, linear):
        with pytest.raises(StructureError, match="finite"):
            SoftplusRidge(2, ridge=ridge, linear=linear)

    def test_quadratic_calculus_is_exact(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((4, 4))
        P = A @ A.T
        q = rng.standard_normal(4)
        f = QuadraticFunction(P, q, 1.5)
        s = rng.standard_normal(4)
        np.testing.assert_array_equal(f.gradient(s), P @ s + q)
        np.testing.assert_array_equal(f.hessian(s), P)
        assert f.value(s) == pytest.approx(0.5 * s @ P @ s + q @ s + 1.5, rel=1e-14)


@settings(max_examples=300, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-16, -1), d=st.integers(3, 6))
def test_block_accepts_exactly_the_equality_rows_the_factorization_takes(seed, k, d):
    # the last row is the first plus 10^k u: from clearly independent down
    # to rows that differ in the last bits
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, d))
    A = rng.standard_normal((p, d))
    A[-1] = A[0] + 10.0 ** k * rng.standard_normal(d)
    try:
        factor_kkt(np.zeros((d, d)), 1.0, A)
        factors = True
    except RankError:
        factors = False
    try:
        AgentBlock(index_set=tuple(range(d)), objective=QuadraticFunction(np.eye(d), np.zeros(d)),
                   A_eq=A, b_eq=np.zeros(p))
        accepted = True
    except StructureError:
        accepted = False
    assert accepted == factors


class TestQuadraticStackValues:
    """A stack's values at the points it valued last come back without a new
    evaluation, read-only, whatever the leading axes of the stack of points."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(c=st.integers(1, 4), g=st.integers(1, 6), d=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_last_values_are_the_bits_of_each_member(self, c, g, d, seed):
        rng = np.random.default_rng(seed)
        fns = []
        for _ in range(g):
            M = rng.standard_normal((d, d))
            fns.append(QuadraticFunction(M @ M.T, rng.standard_normal(d), rng.standard_normal()))
        X = rng.standard_normal((c, g, d))
        stack = stack_functions(fns)
        values = stack.value(X)
        assert values.shape == (c, g) and not values.flags.writeable
        expected = [[f.value(x) for f, x in zip(fns, row)] for row in X]
        assert values.tobytes() == np.array(expected).tobytes()
        # a copy with the same bits is not evaluated again
        assert np.shares_memory(stack.value(X.copy()), values)
        if c == 1:
            # nor is one stack of points without the leading axis
            again = stack.value(X[0].copy())
            assert again.shape == (g,) and np.shares_memory(again, values)
        # other bits are evaluated afresh
        Y = X + 1.0
        assert not np.shares_memory(stack.value(Y), values)
        assert stack.value(Y).tobytes() == stack_functions(fns).value(Y).tobytes()


class TestFiniteDifference:
    def test_quadratic_gradient_near_exact(self):
        f = QuadraticFunction(np.eye(2), np.zeros(2))
        report = check_finite_difference(f, np.array([1.0, 1.0]), h=1e-6)
        assert report.grad_rel_error <= 1e-6
        assert report.max_rel_error <= 1e-4

    def test_quartic_gradient(self):
        # f(s) = s^4 has gradient 4 at s = 1; central differences at h = 1e-4
        # land within 4h^2 of it, comfortably inside 1e-6 relative
        f = CustomFunction(
            1,
            lambda s: s[0] ** 4,
            lambda s: np.array([4.0 * s[0] ** 3]),
            lambda s: np.array([[12.0 * s[0] ** 2]]),
        )
        report = check_finite_difference(f, np.array([1.0]), h=1e-4)
        assert report.grad_rel_error <= 1e-6

    def test_wrong_gradient_is_flagged(self):
        f = CustomFunction(
            2,
            lambda s: 0.5 * float(s @ s),
            lambda s: 2.5 * s,          # deliberately wrong
            lambda s: np.eye(2),
        )
        report = check_finite_difference(f, np.array([1.0, 1.0]), h=1e-6)
        assert report.grad_rel_error > 1e-2

    def test_softplus_ridge_calculus(self):
        rng = np.random.default_rng(7)
        f = SoftplusRidge(3, ridge=0.7, linear=rng.standard_normal(3))
        report = check_finite_difference(f, rng.standard_normal(3), h=1e-6)
        assert report.max_rel_error <= 1e-7

    def test_softplus_ridge_derivatives_do_not_overflow(self):
        # exp(800) overflows a double; at s = -800 the sigmoid is exactly 0
        f = SoftplusRidge(1)
        s = np.array([-800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert f.gradient(s).tolist() == [-800.0]
            assert f.hessian(s).tolist() == [[1.0]]

    def test_block_checks_objective_and_inequalities(self):
        blk = AgentBlock(
            index_set=(0, 1),
            objective=QuadraticFunction(np.eye(2), np.zeros(2)),
            inequality=(QuadraticFunction(np.zeros((2, 2)), np.ones(2), -5.0),),
        )
        report = check_finite_difference(blk, np.array([0.5, 0.5]))
        assert report.max_rel_error <= 1e-6
        assert len(report.inequality_grad_errors) == 1
        assert report.hess_asymmetry <= 1e-12

    def test_non_finite_value_raises(self):
        f = CustomFunction(
            1,
            lambda s: float("inf") if s[0] > 1.0 else s[0],
            lambda s: np.ones(1),
            lambda s: np.zeros((1, 1)),
        )
        with pytest.raises(StructureError, match="non-finite"):
            check_finite_difference(f, np.array([1.0]), h=1e-3)
