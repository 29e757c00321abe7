"""Outer Newton loop: decrement, distributed line search, end-to-end solves."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dipm.newton
from dipm.barrier import BarrierFunction, barrier_stage, solve_ipm
from dipm.config import SolverConfig
from dipm.direction import DirectionWorkspace, compute_direction
from dipm.errors import (
    BarrierDomainError,
    DecrementError,
    DirectionConvergenceError,
    DisconnectedNetworkError,
    InfeasibleStartError,
    IterationCapError,
    LineSearchError,
    NonFiniteError,
)
from dipm.generator import random_qp
from dipm.network import KIND_MIN, RoundScheduler
from dipm.newton import (
    BOUNDARY_FRACTION,
    distributed_line_search,
    extrapolated_start,
    ladder_steps,
    local_decrement,
    newton_solve,
    plain_stage,
    solve_newton,
)
from dipm.oracle import assemble_dense, centralized_newton
from dipm.problem import (
    AgentBlock,
    BlockGroup,
    CustomFunction,
    LooselyCoupledProblem,
    QuadraticFunction,
    SoftplusRidge,
    build_coupling,
    gather_average,
    scatter,
    stack_functions,
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


def agent_step_size(h, inequality, s, h0, ds, grad_dot, config):
    """One agent's accepted step (None when none is) on the group ladder, as a stack of one."""
    group = BlockGroup(members=np.array([0]), pos=np.arange(len(s))[None], f=None,
                       inequality=tuple(stack_functions([g]) for g in inequality), A_eq=None,
                       objective=stack_functions([h]))
    step = ladder_steps(group, s[None], ds[None], config, np.array([h0]), np.array([grad_dot]))
    return None if np.isnan(step[0]) else float(step[0])


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
        ws = DirectionWorkspace(stage, np.concatenate(points), coupling, cfg)
        dx = np.array([-2.0, 0.3])
        params = SolverConfig()
        h_values = np.array([BarrierFunction(blk.objective, blk.inequality, 1.0).value(s)
                             for blk, s in zip(prob.blocks, points)])
        alpha = distributed_line_search(stage, np.concatenate(points), h_values, ws,
                                        dx[coupling.flat_index], params, scheduler,
                                        np.zeros(2, dtype=bool))
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
        ws = DirectionWorkspace(stage, np.concatenate(points), coupling, cfg)
        ds = np.array([50.0, 0.0])[coupling.flat_index]
        params = SolverConfig(max_backtracks=0)
        h_values = np.array([BarrierFunction(blk.objective, blk.inequality, 1.0).value(s)
                             for blk, s in zip(prob.blocks, points)])
        with pytest.raises(LineSearchError) as err:
            distributed_line_search(stage, np.concatenate(points), h_values, ws, ds, params,
                                    scheduler, np.zeros(2, dtype=bool))
        assert err.value.agent == 0


def exhaust(agents):
    """A stand-in for ``ladder_steps`` whose ``agents`` exhaust their ladders."""
    def ladder(group, *args):
        steps = ladder_steps(group, *args)
        steps[np.isin(group.members, agents)] = np.nan
        return steps
    return ladder


class TestVoteRidesTheStepMin:
    """Every agent runs its ladder before it knows the decrement vote, which
    one min-consensus settles with the step."""

    def test_an_exhausted_ladder_at_a_terminal_iteration_is_thrown_away(self, monkeypatch):
        calls = []

        def ladder(group, *args):
            calls.append(group.members.tolist())
            return exhaust(group.members)(group, *args)

        monkeypatch.setattr(dipm.newton, "ladder_steps", ladder)
        # the minimizer: the first iteration is terminal
        result, sched = solve_newton(chain_qp(), np.array([0.0, 0.5, 1.0]), SolverConfig())
        assert [row.alpha for row in result.rows] == [0.0]
        assert sorted(sum(calls, [])) == [0, 1]
        np.testing.assert_allclose(result.x, [0.0, 0.5, 1.0], atol=1e-12)
        assert sched.rounds_by_kind[KIND_MIN] == sched.diameter == 1
        assert sum(row.messages for row in result.rows) == sched.total_sent

    def test_an_exhausted_ladder_at_a_failed_vote_names_the_lowest_agent(self, monkeypatch):
        monkeypatch.setattr(dipm.newton, "ladder_steps", exhaust([3, 1, 2]))
        problem, x0 = random_qp(0, 5, 3, overlap=1, n_eq=1)
        coupling = build_coupling(problem)
        sched = RoundScheduler(coupling)
        with pytest.raises(LineSearchError, match="^agent 1 exhausted 60 backtracks") as err:
            newton_solve(plain_stage(problem), scatter(x0, coupling), SolverConfig(), coupling,
                         sched)
        assert err.value.agent == 1
        # the error follows the flood, whose rounds and messages are counted
        assert sched.rounds_by_kind[KIND_MIN] == sched.diameter == 4
        assert sched.messages_of_kind(KIND_MIN) >= sched.plan.n_edges

    def test_a_zero_step_at_a_failed_vote_does_not_stop_the_solve(self, monkeypatch):
        # a ladder rung can underflow to 0.0 (shrink_b = 1e-200: 1, 1e-200,
        # 0.0); only the vote ends a solve
        monkeypatch.setattr(dipm.newton, "ladder_steps",
                            lambda group, *args: np.zeros(len(group.members)))
        with pytest.raises(IterationCapError):
            solve_newton(chain_qp(), np.zeros(3), SolverConfig(newton_max_iter=3))


def reference_step(h, inequality, s, h0, ds, grad_dot, config, armijo=True):
    """The per-agent backtracking that the group ladder replaced, one step at a time."""
    gap_floor = [BOUNDARY_FRACTION * g.value(s) for g in inequality]
    noise = 8.0 * np.finfo(float).eps * (1.0 + abs(h0))
    alpha = 1.0
    for _ in range(config.max_backtracks + 1):
        cand = s + alpha * ds
        if all(g.value(cand) <= floor for g, floor in zip(inequality, gap_floor)):
            if not armijo or not grad_dot < 0.0:
                return alpha
            if h.value(cand) <= h0 + config.armijo_a * alpha * grad_dot + noise:
                return alpha
        alpha *= config.shrink_b
    return None


def one_group_problem(rng, d, g, m, kind):
    """g agents of local size d with m inequalities each, strictly inside at the rows of S."""
    S = rng.standard_normal((g, d))
    blocks = []
    for k in range(g):
        if kind == "quadratic":
            X = rng.standard_normal((d, d))
            f = QuadraticFunction(X @ X.T + 0.1 * np.eye(d), rng.standard_normal(d),
                                  rng.standard_normal())
        else:
            f = SoftplusRidge(d, ridge=rng.uniform(0.1, 2.0), linear=rng.standard_normal(d))
        ineqs = []
        for c in range(m):
            margin = rng.uniform(0.05, 1.0)
            if c % 2 == 0:
                a = rng.standard_normal(d)
                ineqs.append(QuadraticFunction(np.zeros((d, d)), a, -(a @ S[k]) - margin))
            else:
                center = S[k] + rng.uniform(-0.5, 0.5, d)
                radius2 = float((S[k] - center) @ (S[k] - center)) + 2.0 * margin
                ineqs.append(QuadraticFunction(np.eye(d), -center,
                                               0.5 * float(center @ center) - 0.5 * radius2))
        blocks.append(AgentBlock(index_set=tuple(range(k * d, (k + 1) * d)), objective=f,
                                 inequality=tuple(ineqs)))
    return LooselyCoupledProblem(n=g * d, blocks=tuple(blocks)), S


class TestStackedBits:
    """One stacked call per group gives every member the bits of its own evaluation."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(d=st.integers(1, 6), g=st.integers(1, 20), m=st.integers(0, 3),
           kind=st.sampled_from(["quadratic", "softplus"]), barrier=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_stacked_calculus_decrements_and_steps_equal_the_per_agent_ones(
            self, d, g, m, kind, barrier, seed):
        rng = np.random.default_rng(seed)
        problem, S = one_group_problem(rng, d, g, m, kind)
        if m or barrier:
            stage = barrier_stage(problem, float(rng.uniform(0.1, 1e3)))
        else:
            stage = plain_stage(problem)
        [grp] = stage.groups
        hs = [BarrierFunction(blk.objective, blk.inequality, stage.t, agent=i)
              if m or barrier else blk.objective for i, blk in enumerate(problem.blocks)]

        def bits(stacked, per_agent):
            return stacked.tobytes() == np.array(per_agent).tobytes()

        assert bits(grp.objective.value(S), [h.value(s) for h, s in zip(hs, S)])
        G = grp.objective.gradient(S)
        H = grp.objective.hessian(S)
        assert bits(G, [h.gradient(s) for h, s in zip(hs, S)])
        assert bits(H, [h.hessian(s) for h, s in zip(hs, S)])
        assert bits(grp.f.value(S), [blk.objective.value(s) for blk, s in zip(problem.blocks, S)])

        # Newton steps of mixed lengths: some reversed, some far out, some
        # within the rounding of the stage value
        scale = rng.choice([-1.0, 1e-16, 0.1, 1.0, 3.0, 30.0], size=(g, 1))
        D = np.array([np.linalg.solve(Hk, -gk) for Hk, gk in zip(H, G)])
        D = scale * (D + 0.1 * rng.standard_normal((g, d)))
        decs = local_decrement(H, D, grp.members)
        assert bits(decs, [local_decrement(Hk, Dk) for Hk, Dk in zip(H, D)])
        assert bits(decs, [max(float(Dk @ Hk @ Dk), 0.0) for Hk, Dk in zip(H, D)])

        config = SolverConfig(max_backtracks=int(rng.integers(0, 12)),
                              shrink_b=float(rng.uniform(0.1, 0.9)),
                              armijo_a=float(rng.uniform(0.01, 0.49)))
        h0 = grp.objective.value(S)
        grad_dot = np.matmul(G[:, None, :], D[:, :, None])[:, 0, 0]
        assert bits(grad_dot, [float(gk @ Dk) for gk, Dk in zip(G, D)])
        for armijo in (True, False):
            args = (h0, grad_dot) if armijo else ()
            steps = ladder_steps(grp, S, D, config, *args)
            expected = [reference_step(h, blk.inequality, s, h0k, Dk, gd, config, armijo)
                        for h, blk, s, h0k, Dk, gd in zip(hs, problem.blocks, S, h0, D, grad_dot)]
            assert bits(steps, [np.nan if a is None else a for a in expected])


class TestLowestAgentIsNamed:
    """When two agents of one group fail, the error names the lower one."""

    def test_non_finite_gradient_and_hessian(self):
        # agent 1's Hessian and agent 2's gradient are NaN; alone, agent 2's
        # gradient, and agent 1 with both comes with its gradient
        def custom(nan_grad, nan_hess):
            return CustomFunction(2, lambda s: 0.5 * float(s @ s),
                                  lambda s: np.full(2, np.nan) if nan_grad else s,
                                  lambda s: np.full((2, 2), np.nan) if nan_hess else np.eye(2))

        for flags, agent, quantity in ((((0, 1), (1, 0)), 1, "Hessian"),
                                       (((1, 1), (1, 0)), 1, "gradient"),
                                       (((0, 0), (1, 0)), 2, "gradient")):
            objectives = [custom(0, 0), custom(*flags[0]), custom(*flags[1]), custom(0, 0)]
            prob = LooselyCoupledProblem(n=5, blocks=tuple(
                AgentBlock(index_set=(i, i + 1), objective=f) for i, f in enumerate(objectives)))
            coupling = build_coupling(prob)
            [grp] = plain_stage(prob).groups
            assert grp.members.tolist() == [0, 1, 2, 3]
            with pytest.raises(NonFiniteError) as err:
                DirectionWorkspace(plain_stage(prob), np.zeros(coupling.flat_index.size),
                                   coupling, SolverConfig())
            assert (err.value.agent, err.value.quantity) == (agent, quantity)

    def test_non_finite_point_in_a_quadratic_stack(self):
        problem, x0 = random_qp(0, n_agents=5, block_size=3, overlap=1)
        coupling = build_coupling(problem)
        points = x0[coupling.flat_index]
        points[coupling.offsets[3]] = points[coupling.offsets[1]] = np.inf
        with pytest.raises(NonFiniteError) as err:
            DirectionWorkspace(plain_stage(problem), points, coupling, SolverConfig())
        assert (err.value.agent, err.value.quantity) == (1, "gradient")

    def outside(self):
        """A barrier stage whose agent 2 breaks constraint 1, agent 3 constraint 0."""
        problem, x0 = random_qp(3, n_agents=5, block_size=3, overlap=1, n_ineq=2)
        coupling = build_coupling(problem)
        stage = barrier_stage(problem, 10.0)
        points = x0[coupling.flat_index]
        for agent, c in ((2, 1), (3, 0)):
            g = problem.blocks[agent].inequality[c]
            s = points[coupling.offsets[agent]:coupling.offsets[agent + 1]]
            # move along the gradient until the constraint holds no more
            step = g.gradient(s)
            while g.value(s) < 0.0:
                s += step
            assert all(h.value(s) < 0.0 for h in problem.blocks[agent].inequality[:c])
        return problem, coupling, stage, points

    @pytest.mark.parametrize("method", ["value", "gradient", "hessian"])
    def test_barrier_domain_names_agent_then_constraint(self, method):
        problem, coupling, stage, points = self.outside()
        [grp] = stage.groups
        with pytest.raises(BarrierDomainError, match="^constraint 1 of agent 2 ") as err:
            getattr(grp.objective, method)(points[grp.pos])
        assert (err.value.agent, err.value.constraint) == (2, 1)
        with pytest.raises(BarrierDomainError) as err:
            DirectionWorkspace(stage, points, coupling, SolverConfig())
        assert (err.value.agent, err.value.constraint) == (2, 1)

    def test_lower_non_finite_agent_comes_before_a_point_outside_the_domain(self):
        problem, coupling, stage, points = self.outside()
        points[coupling.offsets[1]] = np.nan
        with pytest.raises(NonFiniteError) as err:
            DirectionWorkspace(stage, points, coupling, SolverConfig())
        assert (err.value.agent, err.value.quantity) == (1, "gradient")

    def test_line_search(self):
        # every agent s <= 1 from 0 on a chain; agents 1 and 3 jump past it
        bound = QuadraticFunction(np.zeros((2, 2)), np.array([1.0, 0.0]), -1.0)
        quad = QuadraticFunction(np.eye(2), np.zeros(2))
        prob = LooselyCoupledProblem(n=5, blocks=tuple(
            AgentBlock(index_set=(i, i + 1), objective=quad, inequality=(bound,))
            for i in range(4)))
        coupling = build_coupling(prob)
        stage = barrier_stage(prob, 1.0)
        points = np.zeros(coupling.flat_index.size)
        ws = DirectionWorkspace(stage, points, coupling, SolverConfig())
        ds = np.zeros_like(points)
        ds[coupling.offsets[[1, 3]]] = 50.0
        h_values = stage.groups[0].objective.value(points[stage.groups[0].pos])
        with pytest.raises(LineSearchError, match="^agent 1 exhausted 0 backtracks") as err:
            distributed_line_search(stage, points, h_values, ws, ds,
                                    SolverConfig(max_backtracks=0), RoundScheduler(coupling),
                                    np.zeros(4, dtype=bool))
        assert err.value.agent == 1

    def test_decrement(self):
        H = np.stack([np.eye(2), -np.eye(2), np.eye(2), -2.0 * np.eye(2)])
        with pytest.raises(DecrementError, match=r"^agent 5: local decrement -1\.000e\+00") \
                as err:
            local_decrement(H, np.ones((4, 2)) / np.sqrt(2.0), np.array([2, 5, 6, 9]))
        assert err.value.agent == 5


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
        # one agent and one full step: the stage value at each of the two
        # iterates, which is the true objective's too, plus the Armijo
        # candidate; the line search reuses the stage value at the current
        # iterate
        calls = []

        def value(s):
            calls.append(s)
            return 0.5 * float(s @ s) - s[0]

        f = CustomFunction(2, value, lambda s: s - np.array([1.0, 0.0]), lambda s: np.eye(2))
        prob = LooselyCoupledProblem(n=2, blocks=(AgentBlock(index_set=(0, 1), objective=f),))
        result, _ = solve_newton(prob, np.zeros(2), SolverConfig())
        assert [row.alpha for row in result.rows] == [1.0, 0.0]
        assert len(calls) == 3

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
        result, scheduler = solve_newton(prob, np.zeros(3), cfg)
        for blk, s in zip(prob.blocks, np.split(result.s, scheduler.coupling.offsets[1:-1])):
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

    def test_one_stage_record_has_flat_iterates_and_no_earlier_stage(self):
        result, scheduler = solve_newton(chain_qp(), np.array([5.0, -3.0, 2.0]), SolverConfig())
        flat_index = scheduler.coupling.flat_index
        assert result.s_before is None
        assert result.x[flat_index].tobytes() == result.s.tobytes()

    def test_dual_average_bound_over_run(self):
        prob = chain_qp()
        result, _ = solve_newton(prob, np.array([5.0, -3.0, 2.0]), SolverConfig())
        assert result.max_dual_average <= 1e-10


def spy_on_directions(monkeypatch):
    """Record (dz0, v0, result) of every direction and the beta of every extrapolated start."""
    calls, betas = [], []

    def spy_direction(workspace, scheduler, dz0=None, v0=None):
        res = compute_direction(workspace, scheduler, dz0, v0)
        calls.append((dz0, v0, res))
        return res

    def spy_start(*args):
        start, beta = extrapolated_start(*args)
        betas.append(beta)
        return start, beta

    monkeypatch.setattr(dipm.newton, "compute_direction", spy_direction)
    monkeypatch.setattr(dipm.newton, "extrapolated_start", spy_start)
    return calls, betas


class TestWarmStart:
    def test_quadratic_directions_after_the_first_take_one_inner_iteration(self):
        # the carried direction and duals are the next direction's fixed point
        problem, x0 = random_qp(0, n_agents=16, block_size=3, overlap=1, n_eq=1)
        result, _ = solve_newton(problem, x0, SolverConfig(eps_nt=1e-8))
        assert len(result.rows) == 10
        assert [r.inner_iterations for r in result.rows[1:]] == [1] * 9

    @pytest.mark.parametrize("warm_start", [True, False])
    def test_carry_over_resets_at_every_barrier_stage(self, monkeypatch, warm_start):
        calls, betas = spy_on_directions(monkeypatch)
        problem, x0 = random_qp(1, n_agents=3, block_size=3, overlap=1, n_ineq=2)
        config = SolverConfig(warm_start=warm_start)
        result, _ = solve_ipm(problem, x0, config)
        assert len(calls) == len(result.rows)
        assert result.rows[-1].stage >= 2
        final_v = {}  # each stage's final duals
        for k, (row, (dz0, v0, res)) in enumerate(zip(result.rows, calls)):
            if not warm_start:
                assert dz0 is None and v0 is None
            elif row.outer == 0:
                # a stage's first direction starts from zero
                assert not dz0.any()
                if row.stage == 0:
                    assert v0 is None
                elif row.stage == 1:
                    # stage 0's final duals, bit for bit
                    assert v0.tobytes() == final_v[0].tobytes()
                else:
                    # extrapolated along the central path with the point's beta
                    v_k, v_before = final_v[row.stage - 1], final_v[row.stage - 2]
                    beta = betas[row.stage - 2]
                    expected = v_k + beta * ((v_k - v_before) / config.mu)
                    assert v0.tobytes() == expected.tobytes()
            else:
                alpha, prev = result.rows[k - 1].alpha, calls[k - 1][2]
                np.testing.assert_array_equal(dz0, (1.0 - alpha) * prev.dx)
                np.testing.assert_array_equal(v0, prev.v)
            final_v[row.stage] = res.v
        if warm_start:
            assert len(betas) == result.rows[-1].stage - 1
            assert any(beta > 0.0 for beta in betas)
        else:
            assert betas == []

    def test_extrapolated_duals_keep_a_zero_owner_average(self, monkeypatch):
        # three owners per interior variable, so the average is a three-term sum
        calls, betas = spy_on_directions(monkeypatch)
        problem, x0 = random_qp(0, n_agents=6, block_size=3, overlap=2, n_ineq=1)
        result, _ = solve_ipm(problem, x0, SolverConfig())
        coupling = build_coupling(problem)
        assert any(beta > 0.0 for beta in betas)
        starts = [v0 for row, (_, v0, _) in zip(result.rows, calls)
                  if row.outer == 0 and row.stage >= 2]
        assert len(starts) == len(betas) >= 1
        for v0 in starts:
            avg = gather_average(np.split(v0, coupling.offsets[1:-1]), coupling)
            assert np.abs(avg).max() <= 1e-12 * np.abs(v0).max()

    def test_duals_are_carried_unscaled_when_no_ladder_step_qualifies(self, monkeypatch):
        # agent 0 needs x0 + x1 / 2 >= 1, active at the optimum, so the duals of
        # the shared x1 move between stages. The recorded stage before the last
        # is moved so far above the last in x0 that even the ladder's last step,
        # 2^-60 of the extrapolation, crosses the bound: the stage starts with
        # beta = 0
        bound = QuadraticFunction(np.zeros((2, 2)), np.array([-1.0, -0.5]), 1.0)
        problem = LooselyCoupledProblem(n=3, blocks=(
            AgentBlock(index_set=(0, 1), objective=QuadraticFunction(np.eye(2), np.ones(2)),
                       inequality=(bound,)),
            AgentBlock(index_set=(1, 2),
                       objective=QuadraticFunction(np.eye(2), np.array([-3.0, 1.0]))),
        ))
        coupling = build_coupling(problem)
        scheduler = RoundScheduler(coupling)
        config = SolverConfig()
        s = scatter(np.array([2.0, 0.0, 0.0]), coupling)
        record = None
        for t in (1.0, 10.0):
            record = newton_solve(barrier_stage(problem, t), s, replace(config, rho=t),
                                  coupling, scheduler, earlier=record)
            s = np.split(record.s, coupling.offsets[1:-1])
        assert np.abs(record.v - record.v_before).max() > 0.0
        record.s_before = record.s + np.where(coupling.flat_index == 0, 1e30, 0.0)
        v_last = record.v.copy()
        calls, betas = spy_on_directions(monkeypatch)
        newton_solve(barrier_stage(problem, 100.0), s, replace(config, rho=100.0),
                     coupling, scheduler, earlier=record)
        assert betas == [0.0]
        assert calls[0][1].tobytes() == v_last.tobytes()
