"""Distributed direction computation against hand values and the dense oracle."""

from types import SimpleNamespace

import numpy as np
import pytest

import dipm.direction
from dipm.barrier import BarrierFunction
from dipm.config import SolverConfig
from dipm.direction import (
    DirectionWorkspace,
    compute_direction,
    prox_step_equality,
    prox_step_unconstrained,
)
from dipm.errors import (
    DisconnectedNetworkError,
    FactorizationError,
    NonFiniteError,
    StructureError,
)
from dipm.generator import random_qp
from dipm.linalg import factor_kkt, factor_spd, factorization_count
from dipm.network import KIND_SHARED, RoundScheduler, all_agree, exchange_shared_components
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
        agent = SimpleNamespace(grad=grad, factor=factor_spd(np.eye(2) + np.eye(2)))
        ds = prox_step_unconstrained(agent, np.zeros(2), np.zeros(2), 1.0)
        np.testing.assert_allclose(ds, [-0.5, -0.5], rtol=1e-14)

    def test_stationary_point_returns_pull(self):
        # grad 0, curvature 0: the prox just returns the pull rho w / rho
        w = np.array([0.3, -0.7])
        agent = SimpleNamespace(grad=np.zeros(2),
                                factor=factor_spd(np.zeros((2, 2)) + 1.0 * np.eye(2)))
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
        agent = SimpleNamespace(grad=h.gradient(s), factor=factor_spd(h.hessian(s) + np.eye(1)))
        ds = prox_step_unconstrained(agent, np.zeros(1), np.zeros(1), 1.0)
        np.testing.assert_allclose(ds, [-0.5], rtol=1e-14)

    def test_equality_hand_case(self):
        agent = SimpleNamespace(grad=np.array([-2.0, 0.0]),
                                factor=factor_kkt(np.eye(2), 1.0, np.array([[1.0, -1.0]])))
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
        agent = SimpleNamespace(grad=grad, factor=factor_kkt(H, rho, basis))
        ds = prox_step_equality(agent, w, np.zeros(dim), rho)
        tau = (rho * d @ w - d @ grad) / (d @ H @ d + rho * d @ d)
        np.testing.assert_allclose(ds, tau * d, atol=1e-9)

    def test_zero_rhs_gives_zero(self):
        agent = SimpleNamespace(grad=np.zeros(2),
                                factor=factor_kkt(np.eye(2), 1.0, np.array([[1.0, 1.0]])))
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
        ws = DirectionWorkspace(plain_stage(prob), np.concatenate(s0), coupling, cfg)
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
        ws = DirectionWorkspace(plain_stage(prob), np.concatenate(s0), coupling, cfg)
        res = compute_direction(ws, sched, dz0=dx_star, v0=np.concatenate(v_star))
        assert res.converged
        assert res.iterations <= 2
        np.testing.assert_allclose(res.dx, dx_star, atol=1e-9)

    def test_final_duals_have_zero_owner_average(self):
        # the Newton driver starts the next direction from these duals, which
        # is a valid start only while their owner-average is zero
        prob, x0 = random_qp(0, n_agents=6, block_size=3, overlap=2, n_eq=1)
        coupling, sched, cfg = setup_instance(prob)
        ws = DirectionWorkspace(plain_stage(prob), x0[coupling.flat_index], coupling, cfg)
        res = compute_direction(ws, sched)
        assert res.converged
        v = np.split(res.v, coupling.offsets[1:-1])
        assert np.abs(gather_average(v, coupling)).max() <= 1e-12

    def test_dual_average_diagnostic_matches_gather_average_bitwise(self):
        # duals with a nonzero owner-average on a three-owner coupling, so the
        # diagnostic sums three unequal terms per interior variable, whose
        # rounding depends on their order; over 20 draws, summing in
        # descending agent order changes the value in some
        prob, x0 = random_qp(1, n_agents=6, block_size=3, overlap=2)
        coupling, sched, cfg = setup_instance(prob, SolverConfig(admm_max_iter=1))
        ws = DirectionWorkspace(plain_stage(prob), x0[coupling.flat_index], coupling, cfg)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            v0 = np.concatenate([rng.standard_normal(len(idx)) for idx in coupling.index_arrays])
            res = compute_direction(ws, sched, v0=v0)
            assert res.iterations == 1
            v = np.split(res.v, coupling.offsets[1:-1])
            assert res.max_dual_average == float(np.abs(gather_average(v, coupling)).max())
            assert res.max_dual_average > 0.0

    def test_chain_matches_dense_oracle(self):
        prob = chain_qp()
        coupling, sched, cfg = setup_instance(prob)
        s0 = scatter(np.zeros(3), coupling)
        ws = DirectionWorkspace(plain_stage(prob), np.concatenate(s0), coupling, cfg)
        res = compute_direction(ws, sched)
        np.testing.assert_allclose(res.dx, [0.0, 0.5, 1.0], atol=1e-5)
        _, dx_star = direct_direction(prob, s0, coupling)
        assert np.abs(res.dx - dx_star).max() <= 1e-5

    def test_random_instances_match_oracle(self):
        for seed in range(15):
            prob, x0 = random_qp(seed, n_agents=4 + seed % 4, block_size=3, overlap=1)
            coupling, sched, cfg = setup_instance(prob)
            s0 = scatter(x0, coupling)
            ws = DirectionWorkspace(plain_stage(prob), np.concatenate(s0), coupling, cfg)
            res = compute_direction(ws, sched)
            assert res.converged
            _, dx_star = direct_direction(prob, s0, coupling)
            assert np.abs(res.dx - dx_star).max() <= 1e-5

    def test_dual_average_stays_null(self):
        prob, x0 = random_qp(11, n_agents=6, block_size=3, overlap=2)
        coupling, sched, cfg = setup_instance(prob)
        ws = DirectionWorkspace(plain_stage(prob), x0[coupling.flat_index], coupling, cfg)
        res = compute_direction(ws, sched)
        assert res.max_dual_average <= 1e-10

    def test_equality_blocks_stay_in_nullspace(self):
        prob, x0 = random_qp(5, n_agents=4, block_size=4, overlap=1, n_eq=1)
        coupling, sched, cfg = setup_instance(prob)
        ws = DirectionWorkspace(plain_stage(prob), x0[coupling.flat_index], coupling, cfg)
        res = compute_direction(ws, sched)
        assert res.converged
        # every inner prox output lies in the null space; the returned
        # averaged slices satisfy the constraint only to the primal tolerance
        assert res.max_eq_violation <= 1e-9
        slack = np.sqrt(cfg.eps_pri / prob.n_agents)
        for blk, ds in zip(prob.blocks, scatter(res.dx, coupling)):
            norm_A = np.abs(blk.A_eq).sum(axis=1).max()
            assert np.abs(blk.A_eq @ ds).max() <= norm_A * slack

    def test_one_factorization_per_agent(self):
        prob, x0 = random_qp(3, n_agents=5, block_size=3, overlap=1)
        coupling, sched, cfg = setup_instance(prob)
        before = factorization_count()
        ws = DirectionWorkspace(plain_stage(prob), x0[coupling.flat_index], coupling, cfg)
        res = compute_direction(ws, sched)
        assert factorization_count() - before == prob.n_agents
        assert res.iterations > 1

    def test_disconnected_graph_raises_from_the_consensus(self):
        prob = LooselyCoupledProblem(n=2, blocks=(
            AgentBlock(index_set=(0,), objective=QuadraticFunction(np.eye(1), np.zeros(1))),
            AgentBlock(index_set=(1,), objective=QuadraticFunction(np.eye(1), np.ones(1))),
        ))
        coupling, sched, cfg = setup_instance(prob)
        ws = DirectionWorkspace(plain_stage(prob), np.zeros(coupling.flat_index.size),
                                coupling, cfg)
        with pytest.raises(DisconnectedNetworkError):
            compute_direction(ws, sched)

    @pytest.mark.parametrize("start, message", [
        ({"v0": [np.zeros(2), np.zeros(2)]}, "v0 must be one flat vector"),
        ({"v0": [np.zeros(2), np.zeros(3)]}, "v0 must be one flat vector"),
        ({"v0": np.zeros(3)}, "v0 must be one flat vector"),
        ({"v0": np.zeros(5)}, "v0 must be one flat vector"),
        ({"dz0": np.zeros(4)}, "dz0 must be a global vector of length 3"),
    ], ids=["per-agent-list", "ragged-list", "short-duals", "long-duals", "long-direction"])
    def test_warm_start_of_the_wrong_form_is_refused(self, start, message):
        prob = chain_qp()
        coupling, sched, cfg = setup_instance(prob)
        ws = DirectionWorkspace(plain_stage(prob), np.zeros(coupling.flat_index.size),
                                coupling, cfg)
        with pytest.raises(StructureError, match=message):
            compute_direction(ws, sched, **start)
        assert sched.round_index == 0

    def test_iteration_cap_returns_unconverged(self):
        prob = chain_qp()
        cfg = SolverConfig(admm_max_iter=3)
        coupling, sched, _ = setup_instance(prob)
        ws = DirectionWorkspace(plain_stage(prob), np.zeros(coupling.flat_index.size),
                                coupling, cfg)
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
        ws = DirectionWorkspace(plain_stage(prob), np.zeros(coupling.flat_index.size),
                                coupling, cfg)
        v0 = np.array([0.0, 0.0, np.nan, 0.0])
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
            DirectionWorkspace(plain_stage(prob), np.zeros(coupling.flat_index.size),
                               coupling, cfg)
        assert (info.value.agent, info.value.pivot_index) == (1, 0)

    def test_failed_prox_solve_names_agent(self, mismatched_inverses):
        # both agents share one stacked handle; halving agent 1's stored
        # inverse leaves its solve residual at half the rhs, which
        # refinement cannot fix, while agent 0's row still solves cleanly
        prob = chain_qp()
        coupling, sched, cfg = setup_instance(prob)
        ws = DirectionWorkspace(plain_stage(prob), np.zeros(coupling.flat_index.size),
                                coupling, cfg)
        [group] = ws.groups
        assert group.members.tolist() == [0, 1]
        group.factor = mismatched_inverses(group.factor, [1])
        with pytest.raises(FactorizationError, match="^agent 1: solve residuals") as info:
            compute_direction(ws, sched)
        assert info.value.agent == 1


# sizes and equality rows interleaved along a chain (each block shares its
# first variable with the previous one): groups by first appearance are
# (2, -): 0, 4; (3, 1): 1, 6; (4, 1): 2; (3, -): 3; (4, 2): 5
MIXED = ((2, 0), (3, 1), (4, 1), (3, 0), (2, 0), (4, 2), (3, 1))


def mixed_chain(indefinite=()):
    """The MIXED chain, with each equality row orthogonal to the unconstrained direction.

    The dense oracle ignores equality rows; rows that the unconstrained
    direction already satisfies leave it the constrained one as well.
    Agents in ``indefinite`` get the curvature -2 I instead.
    """
    rng = np.random.default_rng(4)
    index_sets, start = [], 0
    for d, _ in MIXED:
        index_sets.append(tuple(range(start, start + d)))
        start += d - 1
    n = start + 1
    objectives = []
    for d, _ in MIXED:
        X = rng.standard_normal((d, d))
        objectives.append(QuadraticFunction(X @ X.T + 0.5 * np.eye(d), rng.standard_normal(d)))
    x0 = rng.standard_normal(n)
    plain = LooselyCoupledProblem(n=n, blocks=tuple(
        AgentBlock(index_set=idx, objective=f) for idx, f in zip(index_sets, objectives)))
    _, dx = direct_direction(plain, scatter(x0, build_coupling(plain)), build_coupling(plain))
    blocks = []
    for i, ((d, p), idx, f) in enumerate(zip(MIXED, index_sets, objectives)):
        if i in indefinite:
            f = CustomFunction(d, lambda s: -float(s @ s), lambda s: -2.0 * s,
                               lambda s, d=d: -2.0 * np.eye(d))
        A = b = None
        if p:
            w = dx[list(idx)]
            A = rng.standard_normal((p, d))
            A -= np.outer(A @ w, w) / (w @ w)
            b = A @ x0[list(idx)]
        blocks.append(AgentBlock(index_set=idx, objective=f, A_eq=A, b_eq=b))
    return LooselyCoupledProblem(n=n, blocks=tuple(blocks)), x0, dx


class TestGroups:
    def test_mixed_groups_match_the_dense_oracle(self):
        prob, x0, dx = mixed_chain()
        cfg = SolverConfig(eps_pri=1e-24, eps_dual=1e-24, admm_max_iter=20000)
        coupling, sched, cfg = setup_instance(prob, cfg)
        before = factorization_count()
        ws = DirectionWorkspace(plain_stage(prob), x0[coupling.flat_index], coupling, cfg)
        assert factorization_count() - before == len(MIXED)
        assert [g.members.tolist() for g in ws.groups] == [[0, 4], [1, 6], [2], [3], [5]]
        for g in ws.groups:
            for k, i in enumerate(g.members):
                np.testing.assert_array_equal(coupling.flat_index[g.pos[k]],
                                              coupling.index_arrays[i])
        res = compute_direction(ws, sched)
        assert res.converged
        assert np.abs(res.dx - dx).max() <= 1e-8
        assert res.max_eq_violation <= 1e-9

    def test_failure_in_the_second_group_names_its_agent(self):
        # agent 6 is row 1 of the group (3, 1)
        prob, x0, _ = mixed_chain(indefinite=(6,))
        coupling, _, cfg = setup_instance(prob)
        with pytest.raises(FactorizationError, match="^agent 6: leading block is indefinite") \
                as info:
            DirectionWorkspace(plain_stage(prob), x0[coupling.flat_index], coupling, cfg)
        assert info.value.agent == 6

    def test_lowest_failing_agent_is_named_across_groups(self):
        # agent 4 fails in the first group factored, agent 3 in a later one
        prob, x0, _ = mixed_chain(indefinite=(3, 4))
        coupling, _, cfg = setup_instance(prob)
        with pytest.raises(FactorizationError, match="^agent 3: pivot 0 fell") as info:
            DirectionWorkspace(plain_stage(prob), x0[coupling.flat_index], coupling, cfg)
        assert info.value.agent == 3

    def test_lowest_failing_solve_is_named_across_groups(self, mismatched_inverses):
        # halving a stored inverse fails its row's solve after refinement, as
        # in TestFactorizationFailure: agent 4 is row 1 of the first group
        # solved, agent 3 row 0 of a later one
        prob, x0, _ = mixed_chain()
        coupling, sched, cfg = setup_instance(prob)
        ws = DirectionWorkspace(plain_stage(prob), x0[coupling.flat_index], coupling, cfg)
        for g, k, agent in ((0, 1, 4), (3, 0, 3)):
            assert ws.groups[g].members[k] == agent
            ws.groups[g].factor = mismatched_inverses(ws.groups[g].factor, [k])
        with pytest.raises(FactorizationError, match="^agent 3: solve residuals") as info:
            compute_direction(ws, sched)
        assert info.value.agent == 3

    def test_factorization_failure_comes_before_a_later_non_finite_gradient(self):
        nan_grad = CustomFunction(
            2, lambda s: 0.5 * float(s @ s), lambda s: np.full(2, np.nan), lambda s: np.eye(2)
        )
        indefinite = CustomFunction(
            2, lambda s: -float(s @ s), lambda s: -2.0 * s, lambda s: -2.0 * np.eye(2)
        )
        quad = QuadraticFunction(np.eye(2), np.zeros(2))
        for objectives, agent, error in (((quad, indefinite, nan_grad), 1, FactorizationError),
                                         ((quad, nan_grad, indefinite), 1, NonFiniteError)):
            prob = LooselyCoupledProblem(n=4, blocks=tuple(
                AgentBlock(index_set=(i, i + 1), objective=f) for i, f in enumerate(objectives)))
            coupling, _, cfg = setup_instance(prob)
            with pytest.raises(error) as info:
                DirectionWorkspace(plain_stage(prob), np.zeros(coupling.flat_index.size), coupling,
                                   cfg)
            assert info.value.agent == agent


@pytest.fixture
def flooded_votes(monkeypatch):
    """``compute_direction`` with every convergence AND a flood of its own,
    round 1 included, and every exchange one plain data round: the protocol
    before a failed vote rode the next exchange."""
    def agree(scheduler, flags, carry=False):
        return all_agree(scheduler, flags)

    def exchange(scheduler, flat, vote=None):
        return exchange_shared_components(scheduler, flat)

    def run(workspace, scheduler):
        with monkeypatch.context() as patch:
            patch.setattr(dipm.direction, "all_agree", agree)
            patch.setattr(dipm.direction, "exchange_shared_components", exchange)
            return compute_direction(workspace, scheduler)

    return run


class FailingSolve:
    """A stacked factor handle that solves as ``factor`` does, except that
    its ``at``-th solve fails for the stack rows ``rows``: with NaN in them,
    or, if ``raises``, with a ``FactorizationError`` naming the first."""

    def __init__(self, factor, at, rows, raises):
        self.factor, self.at, self.rows, self.raises = factor, at, rows, raises
        self.calls = 0

    def solve(self, rhs):
        self.calls += 1
        out = self.factor.solve(rhs)
        if self.calls == self.at:
            if self.raises:
                raise FactorizationError("solve residuals too large", row=self.rows[0])
            out[self.rows] = np.nan
        return out


class TestCarriedVote:
    """A failed vote is relayed by the next exchange's data; iterates and
    failures stay those of a vote flooded on its own."""

    @pytest.mark.parametrize("make", [
        lambda: random_qp(0, n_agents=5, block_size=3, overlap=1),
        lambda: random_qp(1, n_agents=6, block_size=3, overlap=2, n_eq=1),
        lambda: mixed_chain()[:2],
    ], ids=["chain", "three-owner-equality", "mixed-groups"])
    def test_iterates_match_votes_flooded_on_their_own_bitwise(self, make, flooded_votes):
        prob, x0 = make()
        results = []
        for carried in (True, False):
            coupling, sched, cfg = setup_instance(prob)
            ws = DirectionWorkspace(plain_stage(prob), x0[coupling.flat_index], coupling, cfg)
            res = (compute_direction if carried else flooded_votes)(ws, sched)
            results.append((res, sched))
        (res, carried), (ref, flooded) = results
        assert res.converged and res.iterations == ref.iterations > 1
        for name in ("dx", "v"):
            assert getattr(res, name).tobytes() == getattr(ref, name).tobytes()
        assert (res.primal_residual, res.dual_residual) == (ref.primal_residual,
                                                             ref.dual_residual)
        # every agent sends each neighbour one data message per iteration
        np.testing.assert_array_equal(carried.sent_by_kind[KIND_SHARED],
                                      flooded.sent_by_kind[KIND_SHARED])
        np.testing.assert_array_equal(carried.sent_by_kind[KIND_SHARED],
                                      res.iterations * carried.plan.out_degree)
        assert carried.round_index < flooded.round_index
        assert carried.total_sent < flooded.total_sent

    @pytest.mark.parametrize("raises, error, agent, quantity", [
        (True, FactorizationError, 2, None),
        # agent 2's NaN reaches agent 1 through their shared variable
        (False, NonFiniteError, 1, "primal residual"),
    ], ids=["factorization", "non-finite"])
    def test_a_failure_after_carried_votes_names_the_same_agent(
            self, raises, error, agent, quantity, flooded_votes):
        # the fourth prox solve fails for agents 2 and 4, after the votes of
        # iterations 1-3 failed
        prob, x0 = random_qp(0, n_agents=5, block_size=3, overlap=1)
        found = []
        for carried in (True, False):
            coupling, sched, cfg = setup_instance(prob)
            ws = DirectionWorkspace(plain_stage(prob), x0[coupling.flat_index], coupling, cfg)
            [group] = ws.groups
            group.factor = FailingSolve(group.factor, 4, [2, 4], raises)
            with pytest.raises(error) as info:
                (compute_direction if carried else flooded_votes)(ws, sched)
            assert group.factor.calls == 4
            found.append((info.value.agent, getattr(info.value, "quantity", None),
                          sched.round_index))
        (got, got_quantity, carried_rounds), (want, want_quantity, flooded_rounds) = found
        assert (got, got_quantity) == (want, want_quantity) == (agent, quantity)
        assert carried_rounds < flooded_rounds

    def test_disconnected_graph_raises_at_the_first_vote(self):
        # two chains of two agents: the first exchange runs, its vote raises
        quad = QuadraticFunction(np.eye(2), np.ones(2))
        prob = LooselyCoupledProblem(n=6, blocks=tuple(
            AgentBlock(index_set=idx, objective=quad) for idx in ((0, 1), (1, 2), (3, 4), (4, 5))))
        coupling, sched, cfg = setup_instance(prob)
        ws = DirectionWorkspace(plain_stage(prob), np.zeros(coupling.flat_index.size),
                                coupling, cfg)
        with pytest.raises(DisconnectedNetworkError):
            compute_direction(ws, sched)
        assert sched.rounds_by_kind == {KIND_SHARED: 1}


class TestResidualBits:
    """Every iteration's flags and residuals are those of each agent's own
    sum of squared changes. From 8 entries on, numpy sums a contiguous row
    pairwise, but a sum over a fancy-indexed (2, members, size) stack, whose
    rows are not contiguous, in another order."""

    def test_flags_and_residuals_of_long_slices(self, monkeypatch):
        # agents 0-2 own 9 entries each (one group), agent 3 owns 10 (a group of one)
        rng = np.random.default_rng(3)
        blocks = []
        for start, size in ((0, 9), (8, 9), (16, 9), (24, 10)):
            X = rng.standard_normal((size, size))
            blocks.append(AgentBlock(index_set=tuple(range(start, start + size)),
                                     objective=QuadraticFunction(X @ X.T + np.eye(size),
                                                                 rng.standard_normal(size))))
        prob = LooselyCoupledProblem(n=34, blocks=tuple(blocks))
        coupling = build_coupling(prob)
        points = rng.standard_normal(coupling.flat_index.size)
        exchanges, votes = [], []

        def exchange(scheduler, flat, vote=None):
            out = exchange_shared_components(scheduler, flat, vote)
            exchanges.append((flat.copy(), out))
            return out

        def agree(scheduler, flags, carry=False):
            votes.append(np.array(flags))
            return all_agree(scheduler, flags, carry)

        def solve(cap=None):
            cfg = SolverConfig() if cap is None else SolverConfig(admm_max_iter=cap)
            ws = DirectionWorkspace(plain_stage(prob), points, coupling, cfg)
            return ws, compute_direction(ws, RoundScheduler(coupling))

        with monkeypatch.context() as patch:
            patch.setattr(dipm.direction, "exchange_shared_components", exchange)
            patch.setattr(dipm.direction, "all_agree", agree)
            ws, res = solve()
        assert [g.members.tolist() for g in ws.groups] == [[0, 1, 2], [3]]
        assert res.converged and res.iterations == len(votes) > 30
        cfg, dz = ws.config, np.zeros(coupling.flat_index.size)
        e_pri, e_dual = np.empty(4), np.empty(4)

        def assert_reports_the_residuals(result):
            assert np.float64(result.primal_residual).tobytes() == e_pri.max().tobytes()
            assert np.float64(result.dual_residual).tobytes() == e_dual.max().tobytes()

        for k, ((ds, dz_new), flags) in enumerate(zip(exchanges, votes), start=1):
            for grp in ws.groups:
                e_pri[grp.members] = ((ds - dz_new) ** 2)[grp.pos].sum(axis=1)
                e_dual[grp.members] = ((dz_new - dz) ** 2)[grp.pos].sum(axis=1)
            np.testing.assert_array_equal(
                flags, (e_dual <= cfg.eps_dual / 4) & (e_pri <= cfg.eps_pri / 4))
            dz = dz_new
            if k <= 30:
                # a run capped at iteration k reports that iteration's residuals
                _, capped = solve(cap=k)
                assert capped.iterations == k
                assert_reports_the_residuals(capped)
        assert_reports_the_residuals(res)
