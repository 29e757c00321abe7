"""Barrier calculus and the staged interior-point driver."""

import numpy as np
import pytest

import dipm.barrier
import dipm.newton
from dipm.barrier import (
    EPS_STAGE_FLOOR,
    BarrierFunction,
    barrier_calculus,
    barrier_stage,
    ipm_solve,
    solve_ipm,
)
from dipm.config import SolverConfig
from dipm.errors import BarrierDomainError, DisconnectedNetworkError, InfeasibleStartError
from dipm.generator import random_qp
from dipm.network import KIND_MIN, RoundScheduler
from dipm.newton import BOUNDARY_FRACTION, STAGE_EQ_DRIFT, extrapolated_start
from dipm.oracle import assemble_dense, centralized_ipm
from dipm.problem import (
    AgentBlock,
    LooselyCoupledProblem,
    QuadraticFunction,
    build_coupling,
    check_finite_difference,
    consistency_error,
    scatter,
)


def one_d_boundary_problem():
    """min s subject to 1 - s <= 0; optimum 1, stage center 1 + 1/t."""
    blk = AgentBlock(
        index_set=(0,),
        objective=QuadraticFunction(np.zeros((1, 1)), np.ones(1)),
        inequality=(QuadraticFunction(np.zeros((1, 1)), -np.ones(1), 1.0),),
    )
    return LooselyCoupledProblem(n=1, blocks=(blk,))


class TestBarrierCalculus:
    def test_scalar_log_case(self):
        # f = 0, g(s) = s - 2 at s = 1: value -log 1 = 0, slope 1, curvature 1
        blk = AgentBlock(
            index_set=(0,),
            objective=QuadraticFunction(np.zeros((1, 1)), np.zeros(1)),
            inequality=(QuadraticFunction(np.zeros((1, 1)), np.ones(1), -2.0),),
        )
        val, grad, hess = barrier_calculus(blk, 1.0, np.array([1.0]))
        assert val == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(grad, [1.0], rtol=1e-14)
        np.testing.assert_allclose(hess, [[1.0]], rtol=1e-14)

    def test_scaled_objective_case(self):
        # f(s) = s, g(s) = 1 - s, t = 4 at s = 2: slope 4 - 1 = 3, curvature 1
        blk = AgentBlock(
            index_set=(0,),
            objective=QuadraticFunction(np.zeros((1, 1)), np.ones(1)),
            inequality=(QuadraticFunction(np.zeros((1, 1)), -np.ones(1), 1.0),),
        )
        val, grad, hess = barrier_calculus(blk, 4.0, np.array([2.0]))
        assert val == pytest.approx(8.0, rel=1e-14)
        np.testing.assert_allclose(grad, [3.0], rtol=1e-14)
        np.testing.assert_allclose(hess, [[1.0]], rtol=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            dim = int(rng.integers(1, 4))
            P = rng.standard_normal((dim, dim))
            P = P @ P.T + 0.5 * np.eye(dim)
            f = QuadraticFunction(P, rng.standard_normal(dim))
            point = rng.standard_normal(dim)
            # affine constraint strictly satisfied at the point
            a = rng.standard_normal(dim)
            c = -(a @ point) - rng.uniform(0.5, 1.5)
            g = QuadraticFunction(np.zeros((dim, dim)), a, c)
            h = BarrierFunction(f, (g,), t=float(rng.uniform(0.5, 20.0)))
            report = check_finite_difference(h, point, h=1e-6)
            assert report.max_rel_error <= 1e-4

    def test_barrier_summand_is_psd(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            dim = 3
            Q = rng.standard_normal((dim, dim))
            Q = Q @ Q.T
            point = rng.standard_normal(dim)
            c = -(0.5 * point @ Q @ point) - rng.uniform(0.5, 2.0)
            g = QuadraticFunction(Q, np.zeros(dim), c)
            assert g.value(point) < 0
            val = g.value(point)
            gg = g.gradient(point)
            summand = np.outer(gg, gg) / val**2 - g.hessian(point) / val
            assert np.linalg.eigvalsh(summand).min() >= -1e-10

    def test_domain_error_names_constraint(self):
        blk = AgentBlock(
            index_set=(0,),
            objective=QuadraticFunction(np.zeros((1, 1)), np.zeros(1)),
            inequality=(
                QuadraticFunction(np.zeros((1, 1)), np.ones(1), -2.0),
                QuadraticFunction(np.zeros((1, 1)), -np.ones(1), 0.0),
            ),
        )
        with pytest.raises(BarrierDomainError) as err:
            barrier_calculus(blk, 1.0, np.array([-1.0]))
        assert err.value.constraint == 1

    @pytest.mark.parametrize("t", [0.0, -1.0, np.nan, np.inf])
    def test_parameter_must_be_positive_and_finite(self, t):
        f = QuadraticFunction(np.eye(1), np.zeros(1))
        g = QuadraticFunction(np.zeros((1, 1)), np.ones(1), -1.0)
        with pytest.raises(ValueError, match="barrier parameter t"):
            BarrierFunction(f, (g,), t)


class TestIpmSolve:
    def test_one_d_analytic_path(self):
        prob = one_d_boundary_problem()
        cfg = SolverConfig()
        result, scheduler = solve_ipm(prob, np.array([3.0]), cfg)
        # final point within eps_p of the optimum
        assert abs(result.x[0] - 1.0) <= cfg.eps_p
        assert prob.m_total / result.t_final < cfg.eps_p
        assert scheduler.total_sent == 0     # single agent
        # stage ends track the analytic center 1 + 1/t: decrement tolerance
        # in the barrier metric translates to |t(s-1) - 1| <= sqrt(2 eps_nt)
        stage_ends = {}
        for row in result.rows:
            stage_ends[row.stage] = (row.t, row.objective_f)
        for q, (t, obj) in stage_ends.items():
            s_end = obj   # objective f(s) = s
            assert abs(s_end - (1.0 + 1.0 / t)) <= 2.0 * np.sqrt(2 * cfg.eps_nt) / t

    def test_stage_count_formula(self):
        # three constraints: stages = ceil(log_mu(m / (eps_p t0))) + 1 when
        # the log is not an integer
        blk = AgentBlock(
            index_set=(0,),
            objective=QuadraticFunction(np.eye(1), np.ones(1)),
            inequality=(
                QuadraticFunction(np.zeros((1, 1)), np.ones(1), -10.0),
                QuadraticFunction(np.zeros((1, 1)), -np.ones(1), -10.0),
                QuadraticFunction(np.eye(1), np.zeros(1), -50.0),
            ),
        )
        prob = LooselyCoupledProblem(n=1, blocks=(blk,))
        cfg = SolverConfig()
        result, _ = solve_ipm(prob, np.array([0.5]), cfg)
        expected = int(np.ceil(np.log(3.0 / (cfg.eps_p * cfg.t0)) / np.log(cfg.mu))) + 1
        assert result.rows[-1].stage + 1 == expected
        # powers of the default mu = 10 are exact in doubles
        assert result.t_final == cfg.t0 * cfg.mu ** result.rows[-1].stage

    def test_suboptimality_bound_each_stage(self):
        prob, x0 = random_qp(4, n_agents=3, block_size=3, overlap=1, n_ineq=1)
        cfg = SolverConfig()
        result, _ = solve_ipm(prob, x0, cfg)
        dense = assemble_dense(prob)
        x_ref = centralized_ipm(dense, x0, eps_p=1e-9, eps_nt=1e-9)
        f_star = dense.value(x_ref)
        coupling = build_coupling(prob)
        # at the end of each stage the true objective obeys the m/t bound
        last_by_stage = {}
        for row in result.rows:
            last_by_stage[row.stage] = (row.t, row.objective_f)
        for q, (t, obj) in last_by_stage.items():
            assert obj - f_star <= prob.m_total / t + 1e-6

    def test_strict_feasibility_throughout(self):
        prob, x0 = random_qp(9, n_agents=4, block_size=3, overlap=1, n_ineq=2)
        result, _ = solve_ipm(prob, x0, SolverConfig())
        coupling = build_coupling(prob)
        slices = scatter(result.x, coupling)
        for blk, s in zip(prob.blocks, slices):
            for g in blk.inequality:
                assert g.value(s) < 0.0

    def test_infeasible_start_rejected_before_iterating(self):
        prob = one_d_boundary_problem()
        with pytest.raises(InfeasibleStartError) as err:
            solve_ipm(prob, np.array([0.5]), SolverConfig())
        assert err.value.violations

    def test_boundary_start_rejected(self):
        prob = one_d_boundary_problem()
        with pytest.raises(InfeasibleStartError):
            solve_ipm(prob, np.array([1.0]), SolverConfig())

    def test_nonfinite_start_rejected_before_iterating(self):
        # NaN fails every comparison, so only a finiteness test catches it
        eye = np.eye(2)
        prob = LooselyCoupledProblem(n=3, blocks=(
            AgentBlock(index_set=(0, 1), objective=QuadraticFunction(eye, np.zeros(2)),
                       A_eq=np.array([[1.0, 1.0]]), b_eq=np.ones(1)),
            AgentBlock(index_set=(1, 2), objective=QuadraticFunction(eye, np.zeros(2)),
                       inequality=(QuadraticFunction(0 * eye, np.array([0.0, 1.0]), -3.0),)),
        ))
        with pytest.raises(InfeasibleStartError) as err:
            solve_ipm(prob, np.array([np.nan, 1.0, 2.0]), SolverConfig())
        assert err.value.violations == ["agent 0 start is not finite"]

    @pytest.mark.parametrize("x0, error", [
        ([2.0, 2.0], DisconnectedNetworkError),
        ([0.5, 2.0], InfeasibleStartError),
    ], ids=["feasible", "infeasible"])
    def test_disconnected_coupling(self, x0, error):
        # the scheduler's first consensus reports the disconnection, after
        # the start has been checked
        blk = one_d_boundary_problem().blocks[0]
        prob = LooselyCoupledProblem(n=2, blocks=(
            blk, AgentBlock(index_set=(1,), objective=blk.objective, inequality=blk.inequality)))
        coupling = build_coupling(prob)
        with pytest.raises(error):
            ipm_solve(prob, scatter(np.array(x0), coupling), SolverConfig(), coupling,
                      RoundScheduler(coupling))

    def test_equality_constrained_stages(self):
        prob, x0 = random_qp(7, n_agents=3, block_size=3, overlap=1, n_ineq=1, n_eq=1)
        cfg = SolverConfig(eps_pri=1e-17, eps_dual=1e-17)
        result, _ = solve_ipm(prob, x0, cfg)
        coupling = build_coupling(prob)
        slices = scatter(result.x, coupling)
        for blk, s in zip(prob.blocks, slices):
            assert np.abs(blk.A_eq @ s - blk.b_eq).max() <= 1e-8
        dense = assemble_dense(prob)
        x_ref = centralized_ipm(dense, x0, eps_p=1e-7, eps_nt=1e-9)
        assert dense.value(result.x) - dense.value(x_ref) <= prob.m_total / result.t_final + 1e-6

    def test_consistency_budget_accumulates_stage_tolerances(self):
        prob, x0 = random_qp(4, n_agents=3, block_size=3, overlap=1, n_ineq=1)
        cfg = SolverConfig()
        result, _ = solve_ipm(prob, x0, cfg)
        expected = 0.0
        for row in result.rows:
            eps_stage = max(cfg.eps_pri / max(1.0, row.t) ** 2, EPS_STAGE_FLOOR)
            expected += row.alpha * row.alpha * eps_stage
        assert result.e_c == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_record_keeps_flat_consistent_iterates(self):
        prob, x0 = random_qp(1, n_agents=3, block_size=3, overlap=1, n_ineq=2)
        result, scheduler = solve_ipm(prob, x0, SolverConfig())
        coupling = scheduler.coupling
        assert result.rows[-1].stage >= 2
        for s in (result.s, result.s_before):
            assert s.shape == (coupling.flat_index.size,)
            assert consistency_error(s, coupling) == 0.0
        assert result.x[coupling.flat_index].tobytes() == result.s.tobytes()

    def test_unconstrained_problem_single_stage(self):
        blk = AgentBlock(index_set=(0, 1), objective=QuadraticFunction(np.eye(2), np.ones(2)))
        prob = LooselyCoupledProblem(n=2, blocks=(blk,))
        result, _ = solve_ipm(prob, np.zeros(2), SolverConfig())
        assert result.rows[-1].stage + 1 == 1
        assert prob.m_total / result.t_final == 0.0
        np.testing.assert_allclose(result.x, [-1.0, -1.0], atol=1e-5)

    def test_trace_rows_ordered_by_stage_then_iteration(self):
        prob, x0 = random_qp(4, n_agents=3, block_size=3, overlap=1, n_ineq=1)
        result, _ = solve_ipm(prob, x0, SolverConfig())
        keys = [(row.stage, row.outer) for row in result.rows]
        assert keys == sorted(keys)
        stages = sorted({row.stage for row in result.rows})
        assert stages == list(range(result.rows[-1].stage + 1))


def spy_on_extrapolation(monkeypatch):
    """Record (stage, s_last, start) for every extrapolated stage start."""
    calls = []

    def spy(stage, s_last, s_before, config, scheduler):
        start, beta = extrapolated_start(stage, s_last, s_before, config, scheduler)
        calls.append((stage, s_last, start))
        return start, beta

    monkeypatch.setattr(dipm.newton, "extrapolated_start", spy)
    return calls


class TestStageWarmStart:
    def test_extrapolated_start_is_consistent_and_keeps_the_gaps(self, monkeypatch):
        # three owners per interior variable: the shared entries are computed
        # by three agents, and must agree to the bit
        calls = spy_on_extrapolation(monkeypatch)
        prob, x0 = random_qp(0, n_agents=6, block_size=3, overlap=2, n_ineq=1)
        result, _ = solve_ipm(prob, x0, SolverConfig())
        coupling = build_coupling(prob)
        assert len(calls) == result.rows[-1].stage - 1
        split = coupling.offsets[1:-1]
        for stage, s_last, start in calls:
            x = np.zeros(coupling.n)
            x[coupling.flat_index] = start
            np.testing.assert_array_equal(x[coupling.flat_index], start)
            assert consistency_error(start, coupling) == 0.0
            for blk, s, s_new in zip(stage.blocks, np.split(s_last, split),
                                     np.split(start, split)):
                for g in blk.inequality:
                    assert g.value(s_new) <= BOUNDARY_FRACTION * g.value(s)

    def test_extrapolated_start_has_zero_consistency_error_on_a_chain(self, monkeypatch):
        calls = spy_on_extrapolation(monkeypatch)
        prob, x0 = random_qp(2, n_agents=4, block_size=3, overlap=1, n_ineq=1)
        solve_ipm(prob, x0, SolverConfig())
        coupling = build_coupling(prob)
        assert calls
        for _, _, start in calls:
            assert consistency_error(start, coupling) == 0.0

    def test_step_backs_off_where_the_full_extrapolation_crosses_a_constraint(self):
        # agent 0 needs s0 >= 1; from s_last = 1.5 after s_before = 30 the
        # full step (s_last - s_before) / 10 = -2.85 lands at -1.35. Steps 1/2
        # and 1/4 leave s0 below 1 too; 1/8 lands at 1.14375, keeping more
        # than 1% of the gap 0.5. Agent 1 has no constraint and would take 1
        bound = QuadraticFunction(np.zeros((2, 2)), np.array([-1.0, 0.0]), 1.0)
        quad = QuadraticFunction(np.eye(2), np.zeros(2))
        prob = LooselyCoupledProblem(n=3, blocks=(
            AgentBlock(index_set=(0, 1), objective=quad, inequality=(bound,)),
            AgentBlock(index_set=(1, 2), objective=quad),
        ))
        coupling = build_coupling(prob)
        scheduler = RoundScheduler(coupling)
        s_last = np.array([1.5, 0.0, 2.0])[coupling.flat_index]
        s_before = np.array([30.0, 1.0, 1.0])[coupling.flat_index]
        start, _ = extrapolated_start(barrier_stage(prob, 100.0), s_last, s_before,
                                      SolverConfig(), scheduler)
        expected = np.array([1.5, 0.0, 2.0]) + 0.125 * np.array([-2.85, -0.1, 0.1])
        np.testing.assert_allclose(start, expected[coupling.flat_index], rtol=1e-15)
        assert consistency_error(start, coupling) == 0.0
        # one min-consensus: one scalar each way over the single edge
        assert scheduler.messages_of_kind(KIND_MIN) == 2

    @pytest.mark.parametrize("warm_start", [True, False])
    def test_one_min_consensus_per_stage_from_the_third_on(self, monkeypatch, warm_start):
        events = []

        def spy_direction(*args):
            events.append("direction")
            return compute_direction(*args)

        def spy_min(scheduler, values):
            events.append("min")
            return min_consensus(scheduler, values)

        compute_direction, min_consensus = dipm.newton.compute_direction, dipm.newton.min_consensus
        monkeypatch.setattr(dipm.newton, "compute_direction", spy_direction)
        monkeypatch.setattr(dipm.newton, "min_consensus", spy_min)
        prob, x0 = random_qp(1, n_agents=3, block_size=3, overlap=1, n_ineq=2)
        result, scheduler = solve_ipm(prob, x0, SolverConfig(warm_start=warm_start))
        assert result.rows[-1].stage >= 3
        expected = []
        for row in result.rows:
            if row.outer == 0 and row.stage >= 2 and warm_start:
                expected.append("min")
            expected.append("direction")
            if row.alpha > 0.0:
                expected.append("min")
        assert events == expected
        # no message falls between rows, the stage-start consensus's included
        assert sum(row.messages for row in result.rows) == scheduler.total_sent

    def test_a_stage_record_keeps_its_duals_through_the_next_stage(self, monkeypatch):
        # each stage's first direction starts from the last stage's final duals
        # and updates its own duals in place, so it must start from a copy
        stages = []

        def spy(*args, **kwargs):
            result = newton_solve(*args, **kwargs)
            stages.append((result.v, result.v.copy()))
            return result

        newton_solve = dipm.barrier.newton_solve
        monkeypatch.setattr(dipm.barrier, "newton_solve", spy)
        prob, x0 = random_qp(1, n_agents=3, block_size=3, overlap=1, n_ineq=2)
        result, _ = solve_ipm(prob, x0, SolverConfig())
        assert len(stages) == result.rows[-1].stage + 1 >= 3
        n_local = build_coupling(prob).offsets[-1]
        for v, at_stage_end in stages:
            assert v.shape == (n_local,)
            np.testing.assert_array_equal(v, at_stage_end)

    def test_equality_rows_pass_the_stage_start_gate(self):
        # every continued stage, extrapolated or not, is held to STAGE_EQ_DRIFT
        # on its equality rows; a start beyond it would raise
        for seed in range(6):
            prob, x0 = random_qp(seed, 5, 3, overlap=1, n_eq=1, n_ineq=2)
            result, _ = solve_ipm(prob, x0, SolverConfig())
            assert result.rows[-1].stage >= 2
            assert result.max_dual_average <= 1e-10
            coupling = build_coupling(prob)
            for blk, s in zip(prob.blocks, scatter(result.x, coupling)):
                assert np.abs(blk.A_eq @ s - blk.b_eq).max() <= STAGE_EQ_DRIFT
                for g in blk.inequality:
                    assert g.value(s) < 0.0
            # judged on the point, with the chain-long benchmark's tolerance: the
            # equality residuals the default inner tolerances leave (up to 4.5e-6)
            # move the objective by more than the m/t gap bound on some seeds
            x_ref = centralized_ipm(assemble_dense(prob), x0, eps_p=1e-7, eps_nt=1e-9)
            assert np.abs(result.x - x_ref).max() <= 1e-5
