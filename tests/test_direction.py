"""Distributed direction computation against hand values and the dense oracle."""

import numpy as np
import pytest

from dipm.barrier import BarrierFunction
from dipm.config import SolverConfig
from dipm.direction import (
    AgentDirectionState,
    DirectionWorkspace,
    compute_direction,
    prox_step_equality,
    prox_step_unconstrained,
)
from dipm.errors import DisconnectedNetworkError, FactorizationError, NonFiniteError
from dipm.generator import random_qp
from dipm.linalg import factor_kkt, factor_spd, factorization_count
from dipm.network import RoundScheduler
from dipm.newton import plain_stage, solve_newton
from dipm.oracle import direct_direction
from dipm.problem import (
    AgentBlock,
    CustomFunction,
    LooselyCoupledProblem,
    QuadraticFunction,
    build_coupling,
    gather_average,
    scatter,
)


def chain_qp():
    """Two quadratic blocks sharing one variable; direction at zero is (0, 1/2, 1)."""
    b1 = AgentBlock(index_set=(0, 1), objective=QuadraticFunction(np.eye(2), np.zeros(2)))
    b2 = AgentBlock(
        index_set=(1, 2), objective=QuadraticFunction(np.eye(2), np.array([-1.0, -1.0]), 1.0)
    )
    return LooselyCoupledProblem(n=3, blocks=(b1, b2))


def setup_instance(problem, config=None):
    config = config or SolverConfig()
    coupling = build_coupling(problem)
    return coupling, RoundScheduler(coupling), config


class TestProxSteps:
    def test_quadratic_at_interior_point(self):
        # f(s) = 1/2 |s|^2 linearized at (1, 1): grad (1, 1), hessian I
        grad = np.array([1.0, 1.0])
        agent = AgentDirectionState(
            index_set=np.array([0, 1]), grad=grad, hess=np.eye(2),
            factor=factor_spd(np.eye(2) + np.eye(2)),
        )
        ds = prox_step_unconstrained(agent, np.zeros(2), np.zeros(2), 1.0)
        np.testing.assert_allclose(ds, [-0.5, -0.5], rtol=1e-14)

    def test_stationary_point_returns_pull(self):
        # grad 0, curvature 0: the prox just returns the pull rho w / rho
        w = np.array([0.3, -0.7])
        agent = AgentDirectionState(
            index_set=np.array([0, 1]), grad=np.zeros(2), hess=np.zeros((2, 2)),
            factor=factor_spd(np.zeros((2, 2)) + 1.0 * np.eye(2)),
        )
        ds = prox_step_unconstrained(agent, w, np.zeros(2), 1.0)
        np.testing.assert_allclose(ds, w, rtol=1e-14)

    def test_barrier_scalar_case(self):
        # f = 0, g(s) = s - 2 at s = 1: barrier gradient 1, curvature 1
        zero = QuadraticFunction(np.zeros((1, 1)), np.zeros(1))
        g = QuadraticFunction(np.zeros((1, 1)), np.ones(1), -2.0)
        h = BarrierFunction(zero, (g,), t=3.7)
        s = np.array([1.0])
        np.testing.assert_allclose(h.gradient(s), [1.0], rtol=1e-14)
        np.testing.assert_allclose(h.hessian(s), [[1.0]], rtol=1e-14)
        agent = AgentDirectionState(
            index_set=np.array([0]), grad=h.gradient(s), hess=h.hessian(s),
            factor=factor_spd(h.hessian(s) + np.eye(1)),
        )
        ds = prox_step_unconstrained(agent, np.zeros(1), np.zeros(1), 1.0)
        np.testing.assert_allclose(ds, [-0.5], rtol=1e-14)

    def test_equality_hand_case(self):
        agent = AgentDirectionState(
            index_set=np.array([0, 1]), grad=np.array([-2.0, 0.0]), hess=np.eye(2),
            factor=factor_kkt(np.eye(2), 1.0, np.array([[1.0, -1.0]])),
            A_eq=np.array([[1.0, -1.0]]),
        )
        ds = prox_step_equality(agent, np.zeros(2), np.zeros(2), 1.0)
        np.testing.assert_allclose(ds, [0.5, 0.5], atol=1e-12)

    def test_equality_projects_onto_line(self):
        # constraints span the orthogonal complement of d, so the step is the
        # one-dimensional prox along d: tau = (rho d'w - d'g) / (d'Hd + rho d'd)
        rng = np.random.default_rng(8)
        dim = 4
        d = rng.standard_normal(dim)
        basis = np.linalg.svd(d.reshape(1, -1))[2][1:]   # orthonormal complement
        H = np.diag(rng.uniform(0.5, 2.0, size=dim))
        grad = rng.standard_normal(dim)
        w = rng.standard_normal(dim)
        rho = 1.3
        agent = AgentDirectionState(
            index_set=np.arange(dim), grad=grad, hess=H,
            factor=factor_kkt(H, rho, basis), A_eq=basis,
        )
        ds = prox_step_equality(agent, w, np.zeros(dim), rho)
        tau = (rho * d @ w - d @ grad) / (d @ H @ d + rho * d @ d)
        np.testing.assert_allclose(ds, tau * d, atol=1e-9)

    def test_zero_rhs_gives_zero(self):
        agent = AgentDirectionState(
            index_set=np.array([0, 1]), grad=np.zeros(2), hess=np.eye(2),
            factor=factor_kkt(np.eye(2), 1.0, np.array([[1.0, 1.0]])),
            A_eq=np.array([[1.0, 1.0]]),
        )
        ds = prox_step_equality(agent, np.zeros(2), np.zeros(2), 1.0)
        np.testing.assert_array_equal(ds, np.zeros(2))


class TestComputeDirection:
    def test_single_block_newton_step(self):
        rng = np.random.default_rng(1)
        P = np.diag(rng.uniform(0.5, 2.0, size=3))
        q = rng.standard_normal(3)
        prob = LooselyCoupledProblem(
            n=3, blocks=(AgentBlock(index_set=(0, 1, 2), objective=QuadraticFunction(P, q)),)
        )
        coupling, sched, cfg = setup_instance(prob)
        s0 = scatter(np.zeros(3), coupling)
        ws = DirectionWorkspace(plain_stage(prob), s0, coupling, cfg)
        res = compute_direction(ws, sched)
        assert res.converged
        np.testing.assert_allclose(res.dx, np.linalg.solve(P, -q), atol=1e-6)
        assert sched.total_sent == 0

    def test_warm_start_at_fixed_point_finishes_fast(self):
        prob = chain_qp()
        coupling, sched, cfg = setup_instance(prob)
        s0 = scatter(np.zeros(3), coupling)
        _, dx_star = direct_direction(prob, s0, coupling)
        # fixed-point duals: rho v_i = H_i dz*_{J_i} + grad_i
        v_star = []
        for blk, s in zip(prob.blocks, s0):
            idx = np.array(blk.index_set)
            v_star.append(
                (blk.objective.hessian(s) @ dx_star[idx] + blk.objective.gradient(s)) / cfg.rho
            )
        assert np.abs(gather_average(v_star, coupling)).max() <= 1e-12
        ws = DirectionWorkspace(plain_stage(prob), s0, coupling, cfg)
        res = compute_direction(ws, sched, dz0=dx_star, v0=v_star)
        assert res.converged
        assert res.iterations <= 2
        np.testing.assert_allclose(res.dx, dx_star, atol=1e-9)

    def test_final_duals_have_zero_owner_average(self):
        # the Newton driver starts the next direction from these duals, which
        # is a valid start only while their owner-average is zero
        prob, x0 = random_qp(0, n_agents=6, block_size=3, overlap=2, n_eq=1)
        coupling, sched, cfg = setup_instance(prob)
        ws = DirectionWorkspace(plain_stage(prob), scatter(x0, coupling), coupling, cfg)
        res = compute_direction(ws, sched)
        assert res.converged
        assert np.abs(gather_average(res.v, coupling)).max() <= 1e-12

    def test_dual_average_diagnostic_matches_gather_average_bitwise(self):
        # duals with a nonzero owner-average on a three-owner coupling, so the
        # diagnostic sums three unequal terms per interior variable, whose
        # rounding depends on their order; over 20 draws, summing in
        # descending agent order changes the value in some
        prob, x0 = random_qp(1, n_agents=6, block_size=3, overlap=2)
        coupling, sched, cfg = setup_instance(prob, SolverConfig(admm_max_iter=1))
        ws = DirectionWorkspace(plain_stage(prob), scatter(x0, coupling), coupling, cfg)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            v0 = [rng.standard_normal(len(idx)) for idx in coupling.index_arrays]
            res = compute_direction(ws, sched, v0=v0)
            assert res.iterations == 1
            assert res.max_dual_average == float(np.abs(gather_average(res.v, coupling)).max())
            assert res.max_dual_average > 0.0

    def test_chain_matches_dense_oracle(self):
        prob = chain_qp()
        coupling, sched, cfg = setup_instance(prob)
        s0 = scatter(np.zeros(3), coupling)
        ws = DirectionWorkspace(plain_stage(prob), s0, coupling, cfg)
        res = compute_direction(ws, sched)
        np.testing.assert_allclose(res.dx, [0.0, 0.5, 1.0], atol=1e-5)
        _, dx_star = direct_direction(prob, s0, coupling)
        assert np.abs(res.dx - dx_star).max() <= 1e-5

    def test_random_instances_match_oracle(self):
        for seed in range(15):
            prob, x0 = random_qp(seed, n_agents=4 + seed % 4, block_size=3, overlap=1)
            coupling, sched, cfg = setup_instance(prob)
            s0 = scatter(x0, coupling)
            ws = DirectionWorkspace(plain_stage(prob), s0, coupling, cfg)
            res = compute_direction(ws, sched)
            assert res.converged
            _, dx_star = direct_direction(prob, s0, coupling)
            assert np.abs(res.dx - dx_star).max() <= 1e-5

    def test_slices_are_views_of_one_vector(self):
        prob = chain_qp()
        coupling, sched, cfg = setup_instance(prob)
        ws = DirectionWorkspace(plain_stage(prob), scatter(np.zeros(3), coupling), coupling, cfg)
        res = compute_direction(ws, sched)
        for i, idx in enumerate(coupling.index_arrays):
            np.testing.assert_array_equal(res.ds_slices[i], res.dx[idx])

    def test_dual_average_stays_null(self):
        prob, x0 = random_qp(11, n_agents=6, block_size=3, overlap=2)
        coupling, sched, cfg = setup_instance(prob)
        ws = DirectionWorkspace(plain_stage(prob), scatter(x0, coupling), coupling, cfg)
        res = compute_direction(ws, sched)
        assert res.max_dual_average <= 1e-10

    def test_equality_blocks_stay_in_nullspace(self):
        prob, x0 = random_qp(5, n_agents=4, block_size=4, overlap=1, n_eq=1)
        coupling, sched, cfg = setup_instance(prob)
        ws = DirectionWorkspace(plain_stage(prob), scatter(x0, coupling), coupling, cfg)
        res = compute_direction(ws, sched)
        assert res.converged
        # every inner prox output lies in the null space; the returned
        # averaged slices satisfy the constraint only to the primal tolerance
        assert res.max_eq_violation <= 1e-9
        slack = np.sqrt(cfg.eps_pri / prob.n_agents)
        for blk, ds in zip(prob.blocks, res.ds_slices):
            norm_A = np.abs(blk.A_eq).sum(axis=1).max()
            assert np.abs(blk.A_eq @ ds).max() <= norm_A * slack

    def test_one_factorization_per_agent(self):
        prob, x0 = random_qp(3, n_agents=5, block_size=3, overlap=1)
        coupling, sched, cfg = setup_instance(prob)
        before = factorization_count()
        ws = DirectionWorkspace(plain_stage(prob), scatter(x0, coupling), coupling, cfg)
        res = compute_direction(ws, sched)
        assert factorization_count() - before == prob.n_agents
        assert res.iterations > 1

    def test_disconnected_graph_raises_from_the_consensus(self):
        prob = LooselyCoupledProblem(n=2, blocks=(
            AgentBlock(index_set=(0,), objective=QuadraticFunction(np.eye(1), np.zeros(1))),
            AgentBlock(index_set=(1,), objective=QuadraticFunction(np.eye(1), np.ones(1))),
        ))
        coupling, sched, cfg = setup_instance(prob)
        ws = DirectionWorkspace(plain_stage(prob), scatter(np.zeros(2), coupling), coupling, cfg)
        with pytest.raises(DisconnectedNetworkError):
            compute_direction(ws, sched)

    def test_iteration_cap_returns_unconverged(self):
        prob = chain_qp()
        cfg = SolverConfig(admm_max_iter=3)
        coupling, sched, _ = setup_instance(prob)
        ws = DirectionWorkspace(plain_stage(prob), scatter(np.zeros(3), coupling), coupling, cfg)
        res = compute_direction(ws, sched)
        assert not res.converged
        assert res.iterations == 3
        assert res.primal_residual > 0 or res.dual_residual > 0


class TestNonFinite:
    def test_nan_gradient_fails_fast_naming_agent(self):
        # the NaN must stop the solve where it appears, not vanish in a
        # max() of residuals and leave the inner iteration to run to its cap
        nan_grad = CustomFunction(
            2, lambda s: 0.5 * float(s @ s), lambda s: np.full(2, np.nan), lambda s: np.eye(2)
        )
        prob = LooselyCoupledProblem(n=3, blocks=(
            AgentBlock(index_set=(0, 1), objective=QuadraticFunction(np.eye(2), np.zeros(2))),
            AgentBlock(index_set=(1, 2), objective=nan_grad),
        ))
        with pytest.raises(NonFiniteError, match="agent 1: gradient") as info:
            solve_newton(prob, np.zeros(3), SolverConfig())
        assert (info.value.agent, info.value.quantity) == (1, "gradient")

    def test_nan_residual_stops_in_first_iteration(self):
        prob = chain_qp()
        coupling, sched, cfg = setup_instance(prob)
        ws = DirectionWorkspace(plain_stage(prob), scatter(np.zeros(3), coupling), coupling, cfg)
        v0 = [np.zeros(2), np.array([np.nan, 0.0])]
        with pytest.raises(NonFiniteError) as info:
            compute_direction(ws, sched, v0=v0)
        # agent 1's NaN reaches agent 0 through the shared variable first
        assert (info.value.agent, info.value.quantity) == (0, "primal residual")
        assert sched.round_index == 1


class TestFactorizationFailure:
    def test_indefinite_hessian_names_agent(self):
        # -2I plus rho = 1 leaves -I: the first pivot of agent 1's system fails
        indefinite = CustomFunction(
            2, lambda s: -float(s @ s), lambda s: -2.0 * s, lambda s: -2.0 * np.eye(2)
        )
        prob = LooselyCoupledProblem(n=3, blocks=(
            AgentBlock(index_set=(0, 1), objective=QuadraticFunction(np.eye(2), np.zeros(2))),
            AgentBlock(index_set=(1, 2), objective=indefinite),
        ))
        coupling, _, cfg = setup_instance(prob)
        with pytest.raises(FactorizationError, match="^agent 1: pivot 0 fell") as info:
            DirectionWorkspace(plain_stage(prob), scatter(np.zeros(3), coupling), coupling, cfg)
        assert (info.value.agent, info.value.pivot_index) == (1, 0)

    def test_failed_prox_solve_names_agent(self):
        class FailingFactor:
            def solve(self, rhs):
                raise FactorizationError("solve residuals exceed bounds after refinement")

        prob = chain_qp()
        coupling, sched, cfg = setup_instance(prob)
        ws = DirectionWorkspace(plain_stage(prob), scatter(np.zeros(3), coupling), coupling, cfg)
        ws.agents[1].factor = FailingFactor()
        with pytest.raises(FactorizationError, match="^agent 1: solve residuals") as info:
            compute_direction(ws, sched)
        assert info.value.agent == 1
