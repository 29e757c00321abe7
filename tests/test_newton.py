"""Outer Newton loop: decrement, distributed line search, end-to-end solves."""

import numpy as np
import pytest

import dipm.newton
from dipm.barrier import BarrierFunction, solve_ipm
from dipm.config import SolverConfig
from dipm.direction import DirectionWorkspace, compute_direction
from dipm.errors import (
    DecrementError,
    DirectionConvergenceError,
    DisconnectedNetworkError,
    InfeasibleStartError,
    IterationCapError,
    LineSearchError,
)
from dipm.generator import random_qp
from dipm.network import RoundScheduler
from dipm.newton import (
    agent_step_size,
    local_decrement,
    newton_solve,
    plain_stage,
    solve_newton,
)
from dipm.oracle import assemble_dense, centralized_newton
from dipm.problem import (
    AgentBlock,
    CustomFunction,
    LooselyCoupledProblem,
    QuadraticFunction,
    SoftplusRidge,
    build_coupling,
    scatter,
)


def chain_qp():
    b1 = AgentBlock(index_set=(0, 1), objective=QuadraticFunction(np.eye(2), np.zeros(2)))
    b2 = AgentBlock(
        index_set=(1, 2), objective=QuadraticFunction(np.eye(2), np.array([-1.0, -1.0]), 1.0)
    )
    return LooselyCoupledProblem(n=3, blocks=(b1, b2))


def tied_chain():
    """Two chained agents; agent 0 ties its variables together (x0 = x1)."""
    eye = np.eye(2)
    b1 = AgentBlock(index_set=(0, 1), objective=QuadraticFunction(eye, np.array([1.0, 0.0])),
                    A_eq=np.array([[1.0, -1.0]]), b_eq=np.zeros(1))
    b2 = AgentBlock(index_set=(1, 2), objective=QuadraticFunction(eye, np.array([0.0, -2.0])))
    return LooselyCoupledProblem(n=3, blocks=(b1, b2))


class TestLocalDecrement:
    def test_zero_direction(self):
        assert local_decrement(np.eye(2), np.zeros(2)) == 0.0

    def test_chain_qp_total_is_three_halves(self):
        # exact direction (0, 1/2, 1): slices (0, 1/2) and (1/2, 1) against
        # identity block Hessians give 1/4 + 5/4
        prob = chain_qp()
        coupling = build_coupling(prob)
        dx = np.array([0.0, 0.5, 1.0])
        total = 0.0
        for blk, idx in zip(prob.blocks, coupling.index_arrays):
            total += local_decrement(blk.objective.hessian(np.zeros(2)), dx[idx])
        assert total == pytest.approx(1.5, rel=1e-14)

    def test_identity_hessian_gives_squared_norm(self):
        ds = np.array([1.0, -2.0, 2.0])
        assert local_decrement(np.eye(3), ds) == pytest.approx(9.0, rel=1e-14)

    def test_tiny_negative_clamps_large_raises(self):
        assert local_decrement(np.array([[-1e-15]]), np.array([1.0])) == 0.0
        with pytest.raises(DecrementError):
            local_decrement(np.array([[-1.0]]), np.array([1.0]))

    def test_negative_decrement_names_its_agent(self):
        with pytest.raises(DecrementError, match=r"^agent 3: local decrement -1\.000e\+00") \
                as err:
            local_decrement(np.array([[-1.0]]), np.array([1.0]), 3)
        assert err.value.agent == 3


class TestAgentStepSize:
    def test_quadratic_full_step(self):
        f = QuadraticFunction(np.eye(2), np.array([-1.0, -1.0]))
        s = np.zeros(2)
        ds = np.array([1.0, 1.0])       # exact Newton step
        alpha = agent_step_size(f, (), s, f.value(s), ds, float(f.gradient(s) @ ds),
                                SolverConfig())
        assert alpha == 1.0

    def test_ascending_slice_accepts_full_step(self):
        # the direction may climb an individual term; only feasibility binds
        f = QuadraticFunction(np.eye(1), np.zeros(1))
        s = np.zeros(1)
        alpha = agent_step_size(f, (), s, f.value(s), np.array([0.5]), 0.0, SolverConfig())
        assert alpha == 1.0

    def test_zero_direction_accepted(self):
        f = QuadraticFunction(np.eye(1), np.ones(1))
        s = np.ones(1)
        assert agent_step_size(f, (), s, f.value(s), np.zeros(1), 0.0, SolverConfig()) == 1.0

    def test_barrier_forces_backtrack(self):
        # f = (s+1)^2/2 with s >= 0: from s = 2 the Newton step of the
        # stage objective is -2, landing on the boundary; one halving is
        # feasible and passes the Armijo test, so alpha = 1/2
        f = QuadraticFunction(np.eye(1), np.ones(1), 0.5)
        g = QuadraticFunction(np.zeros((1, 1)), -np.ones(1), 0.0)   # -s <= 0
        h = BarrierFunction(f, (g,), t=1.0)
        s = np.array([2.0])
        ds = np.array([-2.0])
        grad_dot = float(h.gradient(s) @ ds)
        assert grad_dot < 0
        alpha = agent_step_size(h, (g,), s, h.value(s), ds, grad_dot, SolverConfig())
        assert alpha == 0.5

    def test_budget_exhaustion_returns_none(self):
        f = QuadraticFunction(np.eye(1), np.zeros(1))
        g = QuadraticFunction(np.zeros((1, 1)), np.ones(1), -1.0)   # s <= 1
        h = BarrierFunction(f, (g,), t=1.0)
        # direction jumps far past the boundary; zero backtracks allowed
        params = SolverConfig(max_backtracks=0)
        s = np.zeros(1)
        assert agent_step_size(h, (g,), s, h.value(s), np.array([5.0]), -1.0, params) is None


class TestDistributedLineSearch:
    def test_min_consensus_takes_barrier_limited_agent(self):
        # agent 0 is feasibility-limited to 1/2, agent 1 accepts 1
        f0 = QuadraticFunction(np.eye(1), np.ones(1), 0.5)
        g0 = QuadraticFunction(np.zeros((1, 1)), -np.ones(1), 0.0)
        b0 = AgentBlock(index_set=(0,), objective=f0, inequality=(g0,))
        b1 = AgentBlock(index_set=(0, 1), objective=QuadraticFunction(np.eye(2), np.zeros(2)))
        prob = LooselyCoupledProblem(n=2, blocks=(b0, b1))
        coupling = build_coupling(prob)
        scheduler = RoundScheduler(coupling)
        from dipm.barrier import barrier_stage
        from dipm.newton import distributed_line_search

        stage = barrier_stage(prob, 1.0)
        points = scatter(np.array([2.0, 1.0]), coupling)
        cfg = SolverConfig()
        ws = DirectionWorkspace(stage, points, coupling, cfg)
        dx = np.array([-2.0, 0.3])
        ds = scatter(dx, coupling)
        params = SolverConfig()
        h_values = [h.value(s) for h, s in zip(stage.objectives, points)]
        alpha = distributed_line_search(stage, points, h_values, ws, ds, params, scheduler)
        assert alpha == 0.5

    def test_exhaustion_identifies_agent(self):
        f0 = QuadraticFunction(np.eye(1), np.zeros(1))
        g0 = QuadraticFunction(np.zeros((1, 1)), np.ones(1), -1.0)
        b0 = AgentBlock(index_set=(0,), objective=f0, inequality=(g0,))
        b1 = AgentBlock(index_set=(0, 1), objective=QuadraticFunction(np.eye(2), np.zeros(2)))
        prob = LooselyCoupledProblem(n=2, blocks=(b0, b1))
        coupling = build_coupling(prob)
        scheduler = RoundScheduler(coupling)
        from dipm.barrier import barrier_stage
        from dipm.newton import distributed_line_search

        stage = barrier_stage(prob, 1.0)
        points = scatter(np.array([0.0, 0.0]), coupling)
        cfg = SolverConfig()
        ws = DirectionWorkspace(stage, points, coupling, cfg)
        ds = scatter(np.array([50.0, 0.0]), coupling)
        params = SolverConfig(max_backtracks=0)
        h_values = [h.value(s) for h, s in zip(stage.objectives, points)]
        with pytest.raises(LineSearchError) as err:
            distributed_line_search(stage, points, h_values, ws, ds, params, scheduler)
        assert err.value.agent == 0


class TestNewtonSolve:
    def test_chain_qp_converges_to_known_minimizer(self):
        result, _ = solve_newton(chain_qp(), np.zeros(3), SolverConfig())
        assert result.rows[-1].alpha == 0.0
        assert result.rows[-1].outer <= 3
        np.testing.assert_allclose(result.x, [0.0, 0.5, 1.0], atol=1e-6)

    def test_already_optimal_terminates_immediately(self):
        prob = chain_qp()
        result, _ = solve_newton(prob, np.array([0.0, 0.5, 1.0]), SolverConfig())
        assert result.rows[-1].outer == 0

    def test_stage_value_evaluated_once_per_iterate(self):
        # one agent and one full step: the stage and the true objective at
        # each of the two iterates, plus the Armijo candidate; the line
        # search reuses the stage value at the current iterate
        calls = []

        def value(s):
            calls.append(s)
            return 0.5 * float(s @ s) - s[0]

        f = CustomFunction(2, value, lambda s: s - np.array([1.0, 0.0]), lambda s: np.eye(2))
        prob = LooselyCoupledProblem(n=2, blocks=(AgentBlock(index_set=(0, 1), objective=f),))
        result, _ = solve_newton(prob, np.zeros(2), SolverConfig())
        assert [row.alpha for row in result.rows] == [1.0, 0.0]
        assert len(calls) == 5

    def test_softplus_blocks_match_centralized(self):
        rng = np.random.default_rng(0)
        blocks = tuple(
            AgentBlock(
                index_set=(2 * i, 2 * i + 1, 2 * i + 2),
                objective=SoftplusRidge(3, ridge=0.5, linear=rng.standard_normal(3)),
            )
            for i in range(4)
        )
        prob = LooselyCoupledProblem(n=9, blocks=blocks)
        x0 = 3.0 * np.ones(9)
        result, _ = solve_newton(prob, x0, SolverConfig())
        dense = assemble_dense(prob)
        x_ref = centralized_newton(dense, x0, eps_nt=1e-10)
        assert abs(dense.value(result.x) - dense.value(x_ref)) <= 1e-6

    def test_monotone_descent_and_consistency(self):
        prob = chain_qp()
        result, _ = solve_newton(prob, np.array([5.0, -3.0, 2.0]), SolverConfig())
        assert result.descent_violations == 0
        assert result.max_consistency_error <= 1e-12
        objectives = [row.objective_h for row in result.rows]
        assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))

    def test_termination_implies_global_decrement_rule(self):
        prob = chain_qp()
        cfg = SolverConfig()
        result, _ = solve_newton(prob, np.array([1.0, 1.0, 1.0]), cfg)
        assert result.rows[-1].decrement_half <= cfg.eps_nt
        assert result.decrement_half_max_agent <= cfg.eps_nt / prob.n_agents

    def test_budget_accumulator_identity(self):
        prob = chain_qp()
        cfg = SolverConfig()
        result, _ = solve_newton(prob, np.array([5.0, -3.0, 2.0]), cfg)
        expected = 0.0
        for row in result.rows:
            expected += row.alpha * row.alpha * cfg.eps_pri
        assert result.e_c == expected

    def test_equality_constrained_run(self):
        # both blocks tie their local coordinates together
        A = np.array([[1.0, -1.0]])
        b1 = AgentBlock(index_set=(0, 1), objective=QuadraticFunction(np.eye(2), np.array([1.0, 0.0])),
                        A_eq=A, b_eq=np.zeros(1))
        b2 = AgentBlock(index_set=(1, 2), objective=QuadraticFunction(np.eye(2), np.array([0.0, -2.0])),
                        A_eq=A, b_eq=np.zeros(1))
        prob = LooselyCoupledProblem(n=3, blocks=(b1, b2))
        cfg = SolverConfig(eps_pri=1e-16, eps_dual=1e-16)
        result, _ = solve_newton(prob, np.zeros(3), cfg)
        for blk, s in zip(prob.blocks, result.s_slices):
            assert np.abs(blk.A_eq @ s - blk.b_eq).max() <= 1e-8
        dense = assemble_dense(prob)
        x_ref = centralized_newton(dense, np.zeros(3), eps_nt=1e-10)
        assert abs(dense.value(result.x) - dense.value(x_ref)) <= 1e-6

    def test_inconsistent_start_rejected(self):
        prob = chain_qp()
        coupling = build_coupling(prob)
        scheduler = RoundScheduler(coupling)
        stage = plain_stage(prob)
        bad = [np.array([0.0, 1.0]), np.array([2.0, 0.0])]   # disagree on shared var
        with pytest.raises(InfeasibleStartError):
            newton_solve(stage, bad, SolverConfig(), coupling, scheduler)

    @pytest.mark.parametrize("drift", [1e-6, 1e-4])
    def test_continued_stage_admits_only_the_inner_drift(self, drift):
        # a first stage is held to the start tolerance, a continued one to
        # the equality drift its steps can leave behind
        prob = tied_chain()
        coupling = build_coupling(prob)
        scheduler = RoundScheduler(coupling)
        stage, config = plain_stage(prob), SolverConfig()
        first = newton_solve(stage, scatter(np.zeros(3), coupling), config, coupling, scheduler)
        drifted = scatter(np.array([drift, 0.0, 0.0]), coupling)
        with pytest.raises(InfeasibleStartError, match="starting point is infeasible"):
            newton_solve(stage, drifted, config, coupling, scheduler)
        if drift < 1e-5:
            result = newton_solve(stage, drifted, config, coupling, scheduler, earlier=first)
            assert result.rows[-1].stage == 1
        else:
            with pytest.raises(InfeasibleStartError) as err:
                newton_solve(stage, drifted, config, coupling, scheduler, earlier=first)
            assert err.value.violations == ["agent 0 equality residual 1.000e-04 exceeds 1e-05"]

    def test_nonfinite_start_rejected_before_iterating(self):
        x0 = np.array([np.nan, 0.0, 0.0])
        with pytest.raises(InfeasibleStartError) as err:
            solve_newton(tied_chain(), x0)
        assert err.value.violations == ["agent 0 start is not finite"]

    def test_disconnected_coupling_raises_at_the_first_consensus(self):
        quad = QuadraticFunction(np.eye(1), np.ones(1))
        blocks = tuple(AgentBlock(index_set=(j,), objective=quad) for j in range(2))
        prob = LooselyCoupledProblem(n=2, blocks=blocks)
        coupling = build_coupling(prob)
        with pytest.raises(DisconnectedNetworkError, match="split the problem"):
            newton_solve(plain_stage(prob), scatter(np.zeros(2), coupling), SolverConfig(),
                         coupling, RoundScheduler(coupling))

    def test_outer_cap_raises(self):
        prob = chain_qp()
        with pytest.raises(IterationCapError):
            solve_newton(prob, np.ones(3), SolverConfig(newton_max_iter=0))

    def test_inner_cap_raises_by_default(self):
        prob = chain_qp()
        with pytest.raises(DirectionConvergenceError):
            solve_newton(prob, np.ones(3), SolverConfig(admm_max_iter=2))

    def test_trace_rows_shape(self):
        prob = chain_qp()
        result, _ = solve_newton(prob, np.array([5.0, -3.0, 2.0]), SolverConfig())
        assert len(result.rows) == result.rows[-1].outer + 1
        assert result.rows[-1].alpha == 0.0
        for row in result.rows:
            assert row.stage == 0
            assert row.messages > 0

    def test_dual_average_bound_over_run(self):
        prob = chain_qp()
        result, _ = solve_newton(prob, np.array([5.0, -3.0, 2.0]), SolverConfig())
        assert result.max_dual_average <= 1e-10


class TestWarmStart:
    def test_quadratic_directions_after_the_first_take_one_inner_iteration(self):
        # the carried direction and duals are the next direction's fixed point
        problem, x0 = random_qp(0, n_agents=16, block_size=3, overlap=1, n_eq=1)
        result, _ = solve_newton(problem, x0, SolverConfig(eps_nt=1e-8))
        assert len(result.rows) == 10
        assert [r.inner_iterations for r in result.rows[1:]] == [1] * 9

    @pytest.mark.parametrize("warm_start", [True, False])
    def test_carry_over_resets_at_every_barrier_stage(self, monkeypatch, warm_start):
        calls = []

        def spy(workspace, scheduler, dz0=None, v0=None):
            res = compute_direction(workspace, scheduler, dz0, v0)
            calls.append((dz0, v0, res))
            return res

        monkeypatch.setattr(dipm.newton, "compute_direction", spy)
        problem, x0 = random_qp(1, n_agents=3, block_size=3, overlap=1, n_ineq=2)
        result, _ = solve_ipm(problem, x0, SolverConfig(warm_start=warm_start))
        assert len(calls) == len(result.rows)
        assert result.rows[-1].stage >= 2
        for k, (row, (dz0, v0, _)) in enumerate(zip(result.rows, calls)):
            if not warm_start:
                assert dz0 is None and v0 is None
            elif row.outer == 0:
                # a stage's first direction: zero, and the previous stage's
                # final duals, unscaled
                assert not dz0.any()
                if row.stage == 0:
                    assert v0 is None
                else:
                    prev = calls[k - 1][2]
                    assert len(v0) == len(prev.v)
                    for vi, prev_vi in zip(v0, prev.v):
                        np.testing.assert_array_equal(vi, prev_vi)
            else:
                alpha, prev = result.rows[k - 1].alpha, calls[k - 1][2]
                np.testing.assert_array_equal(dz0, (1.0 - alpha) * prev.dx)
                for vi, prev_vi in zip(v0, prev.v):
                    np.testing.assert_array_equal(vi, prev_vi)
