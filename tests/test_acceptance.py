"""Acceptance suite: one test per criterion, printed as its own pass line.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
verdicts; add ``-s`` (or ``-rA``) to see the measured metrics each
criterion prints.
"""

import time
from dataclasses import replace

import numpy as np

from dipm.barrier import EPS_STAGE_FLOOR, BarrierFunction, solve_ipm
from dipm.cli import main as cli_main
from dipm.config import SolverConfig
from dipm.direction import DirectionWorkspace, compute_direction
from dipm.generator import random_direction_instance, random_qp
from dipm.linalg import factorization_count
from dipm.network import KIND_SHARED, RoundScheduler, exchange_shared_components
from dipm.newton import newton_solve, plain_stage, solve_newton
from dipm.oracle import assemble_dense, centralized_ipm, centralized_newton, direct_direction
from dipm.problem import (
    AgentBlock,
    LooselyCoupledProblem,
    QuadraticFunction,
    SoftplusRidge,
    build_coupling,
    check_finite_difference,
    scatter,
)

DIRECTION_SEEDS = range(50)


def one_d_boundary_problem():
    blk = AgentBlock(
        index_set=(0,),
        objective=QuadraticFunction(np.zeros((1, 1)), np.ones(1)),
        inequality=(QuadraticFunction(np.zeros((1, 1)), -np.ones(1), 1.0),),
    )
    return LooselyCoupledProblem(n=1, blocks=(blk,))


def softplus_chain(n_agents=5, ridge=0.15, seed=0):
    rng = np.random.default_rng(seed)
    blocks = tuple(
        AgentBlock(
            index_set=(2 * i, 2 * i + 1, 2 * i + 2),
            objective=SoftplusRidge(3, ridge=ridge, linear=rng.standard_normal(3)),
        )
        for i in range(n_agents)
    )
    return LooselyCoupledProblem(n=2 * n_agents + 1, blocks=blocks)


def test_criterion_1_direction_oracle_equivalence():
    """Splitting direction matches the dense reduced solve on 50 random QPs."""
    started = time.perf_counter()
    worst = 0.0
    for seed in DIRECTION_SEEDS:
        prob, x0 = random_direction_instance(seed)
        assert 2 <= prob.n_agents <= 10
        assert max(blk.dim for blk in prob.blocks) <= 5
        coupling = build_coupling(prob)
        scheduler = RoundScheduler(coupling)
        config = SolverConfig(rho=1.0, eps_pri=1e-12, eps_dual=1e-12)
        s0 = scatter(x0, coupling)
        workspace = DirectionWorkspace(plain_stage(prob), np.concatenate(s0), coupling, config)
        result = compute_direction(workspace, scheduler)
        assert result.converged
        _, dx_ref = direct_direction(prob, s0, coupling)
        worst = max(worst, float(np.abs(result.dz - dx_ref[coupling.flat_index]).max()))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-5
    assert elapsed < 30.0
    print(f"\nCRITERION 1 direction oracle equivalence: PASS "
          f"(worst gap {worst:.3e}, {elapsed:.1f}s)")


def test_criterion_2_newton_equivalence():
    """Distributed Newton reaches the centralized objective on the same 50."""
    worst_gap = 0.0
    for seed in DIRECTION_SEEDS:
        prob, x0 = random_direction_instance(seed)
        config = SolverConfig(eps_nt=1e-8)
        result, _ = solve_newton(prob, x0, config)
        dense = assemble_dense(prob)
        x_ref = centralized_newton(dense, x0, eps_nt=1e-8)
        worst_gap = max(worst_gap, abs(dense.value(result.x) - dense.value(x_ref)))
    assert worst_gap <= 1e-6

    b1 = AgentBlock(index_set=(0, 1), objective=QuadraticFunction(np.eye(2), np.zeros(2)))
    b2 = AgentBlock(index_set=(1, 2),
                    objective=QuadraticFunction(np.eye(2), np.array([-1.0, -1.0]), 1.0))
    chain = LooselyCoupledProblem(n=3, blocks=(b1, b2))
    result, _ = solve_newton(chain, np.zeros(3), SolverConfig(eps_nt=1e-8))
    chain_gap = float(np.abs(result.x - np.array([0.0, 0.5, 1.0])).max())
    assert chain_gap <= 1e-6
    print(f"\nCRITERION 2 Newton equivalence: PASS "
          f"(worst objective gap {worst_gap:.3e}, chain gap {chain_gap:.3e})")


def test_criterion_3_interior_point_correctness():
    """Analytic central path plus suboptimality bound on 20 random QPs."""
    started = time.perf_counter()
    config = SolverConfig(eps_p=1e-6)

    # (a) analytic problem: min s subject to s >= 1
    result, _ = solve_ipm(one_d_boundary_problem(), np.array([3.0]), config)
    final_err = abs(result.x[0] - 1.0)
    assert final_err <= 1e-6
    stage_ends = {}
    for row in result.rows:
        stage_ends[row.stage] = (row.t, row.objective_f)
    for q, (t, s_end) in stage_ends.items():
        # decrement tolerance in the stage metric: |t(s-1) - 1| <= sqrt(2 eps_nt)
        assert abs(s_end - (1.0 + 1.0 / t)) <= 2.0 * np.sqrt(2 * config.eps_nt) / t

    # (b) random inequality-constrained families
    worst_excess = -np.inf
    for seed in range(20):
        prob, x0 = random_qp(seed, n_agents=2 + seed % 5, block_size=3,
                             overlap=1, n_ineq=1 + seed % 2)
        res, _ = solve_ipm(prob, x0, config)
        dense = assemble_dense(prob)
        x_ref = centralized_ipm(dense, x0, eps_p=1e-7, eps_nt=1e-9)
        gap = dense.value(res.x) - dense.value(x_ref)
        bound = prob.m_total / res.t_final + 1e-6
        worst_excess = max(worst_excess, gap - bound)
        assert gap <= bound, f"seed {seed}: gap {gap:.3e} above bound {bound:.3e}"
        coupling = build_coupling(prob)
        slices = scatter(res.x, coupling)
        for blk, s in zip(prob.blocks, slices):
            for g in blk.inequality:
                assert g.value(s) <= 0.0
            if blk.A_eq is not None:
                assert np.abs(blk.A_eq @ s - blk.b_eq).max() <= 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"\nCRITERION 3 interior-point correctness: PASS "
          f"(final |s-1| {final_err:.2e}, worst gap-bound {worst_excess:.2e}, {elapsed:.1f}s)")


def test_criterion_4_communication_structure():
    """Data messages flow only between neighbors, |Ne(i)| sends per iteration."""
    for seed in (0, 7, 23):
        prob, x0 = random_direction_instance(seed)
        coupling = build_coupling(prob)
        scheduler = RoundScheduler(coupling)
        config = SolverConfig()
        stage = plain_stage(prob)
        s0 = scatter(x0, coupling)
        nres = newton_solve(stage, s0, config, coupling, scheduler)
        exchanges = sum(r.inner_iterations for r in nres.rows)
        data_counts = scheduler.sent_by_kind[KIND_SHARED]
        for i in range(prob.n_agents):
            assert data_counts[i] == exchanges * len(coupling.neighbors[i])
        assert scheduler.total_sent == scheduler.total_delivered

    # fully decoupled: single agent end to end, and an edge-free exchange
    blk = AgentBlock(index_set=(0, 1), objective=QuadraticFunction(np.eye(2), np.ones(2)))
    prob = LooselyCoupledProblem(n=2, blocks=(blk,))
    result, scheduler = solve_newton(prob, np.zeros(2), SolverConfig())
    assert scheduler.total_sent == 0
    assert scheduler.round_index == 0

    decoupled = LooselyCoupledProblem(
        n=2,
        blocks=(AgentBlock(index_set=(0,), objective=QuadraticFunction(np.eye(1), np.zeros(1))),
                AgentBlock(index_set=(1,), objective=QuadraticFunction(np.eye(1), np.zeros(1)))),
    )
    coupling = build_coupling(decoupled)
    sched = RoundScheduler(coupling)
    out = exchange_shared_components(sched, np.array([1.0, 2.0]))
    assert sched.total_sent == 0 and sched.round_index == 0
    assert out[0] == 1.0 and out[1] == 2.0
    print("\nCRITERION 4 communication structure: PASS "
          "(per-iteration sends = |Ne(i)|, decoupled runs send nothing)")


def test_criterion_5_precached_factorizations():
    """One factorization per agent regardless of inner iteration count."""
    prob, x0 = random_qp(31, n_agents=6, block_size=4, overlap=2,
                         spectrum=(0.01, 10.0))
    coupling = build_coupling(prob)
    scheduler = RoundScheduler(coupling)
    config = SolverConfig(eps_pri=1e-16, eps_dual=1e-16)
    before = factorization_count()
    workspace = DirectionWorkspace(plain_stage(prob), x0[coupling.flat_index],
                                   coupling, config)
    result = compute_direction(workspace, scheduler)
    used = factorization_count() - before
    assert result.converged
    assert result.iterations >= 100
    assert used == prob.n_agents
    print(f"\nCRITERION 5 pre-cached factorizations: PASS "
          f"({result.iterations} inner iterations, {used} factorizations for "
          f"{prob.n_agents} agents)")


def test_criterion_6_consistency_invariants():
    """Iterate consistency, dual null average, and the error budget identity."""
    config = SolverConfig()
    prob, x0 = random_qp(3, n_agents=5, block_size=3, overlap=1)
    nres, _ = solve_newton(prob, x0, config)
    assert nres.max_consistency_error <= 1e-12
    assert nres.max_dual_average <= 1e-10
    expected = 0.0
    for row in nres.rows:
        expected += row.alpha * row.alpha * config.eps_pri
    assert nres.e_c == expected

    prob_c, x0_c = random_qp(5, n_agents=4, block_size=3, overlap=1, n_ineq=1)
    ires, _ = solve_ipm(prob_c, x0_c, config)
    assert ires.max_consistency_error <= 1e-12
    assert ires.max_dual_average <= 1e-10
    expected = 0.0
    for row in ires.rows:
        eps_stage = max(config.eps_pri / max(1.0, row.t) ** 2, EPS_STAGE_FLOOR)
        expected += row.alpha * row.alpha * eps_stage
    assert ires.e_c == expected
    print(f"\nCRITERION 6 consistency invariants: PASS "
          f"(consistency {max(nres.max_consistency_error, ires.max_consistency_error):.2e}, "
          f"dual avg {max(nres.max_dual_average, ires.max_dual_average):.2e}, "
          f"budget identity exact)")


def test_criterion_7_barrier_calculus():
    """Barrier derivatives match central differences; summands stay PSD."""
    rng = np.random.default_rng(123)
    worst_fd = 0.0
    worst_eig = 0.0
    for trial in range(100):
        dim = int(rng.integers(1, 5))
        A = rng.standard_normal((dim, dim))
        f = QuadraticFunction(A @ A.T + 0.5 * np.eye(dim), rng.standard_normal(dim))
        point = rng.standard_normal(dim)
        ineqs = []
        a = rng.standard_normal(dim)
        ineqs.append(QuadraticFunction(np.zeros((dim, dim)), a,
                                       -(a @ point) - rng.uniform(0.5, 1.5)))
        Q = rng.standard_normal((dim, dim))
        Q = Q @ Q.T
        c = -(0.5 * point @ Q @ point) - rng.uniform(0.5, 2.0)
        ineqs.append(QuadraticFunction(Q, np.zeros(dim), c))
        t = float(rng.uniform(0.5, 50.0))
        h = BarrierFunction(f, tuple(ineqs), t)
        report = check_finite_difference(h, point, h=1e-6)
        worst_fd = max(worst_fd, report.max_rel_error)
        for g in ineqs:
            val = g.value(point)
            gg = g.gradient(point)
            summand = np.outer(gg, gg) / val**2 - g.hessian(point) / val
            worst_eig = max(worst_eig, -float(np.linalg.eigvalsh(summand).min()))
    assert worst_fd <= 1e-4
    assert worst_eig <= 1e-10
    print(f"\nCRITERION 7 barrier calculus: PASS "
          f"(worst FD error {worst_fd:.2e}, worst summand eigenvalue deficit {worst_eig:.2e})")


def warm_and_cold_softplus_solves():
    """Criterion 8's softplus chain solved with and without the warm start."""
    prob = softplus_chain()
    x0 = 8.0 * np.ones(prob.n)
    config = SolverConfig(eps_nt=1e-10)
    warm, _ = solve_newton(prob, x0, config)
    cold, _ = solve_newton(prob, x0, replace(config, warm_start=False))
    return warm, cold


def test_criterion_8_warm_start_report():
    """Soft criterion: warm-start inner iterations reported, never fatal."""
    warm, cold = warm_and_cold_softplus_solves()
    assert warm.rows[-1].outer >= 5
    mean_warm = float(np.mean([r.inner_iterations for r in warm.rows]))
    mean_cold = float(np.mean([r.inner_iterations for r in cold.rows]))
    verdict = "improved" if mean_warm <= mean_cold else "did not improve (logged, non-fatal)"
    print(f"\nCRITERION 8 warm-start report: PASS "
          f"(mean inner iterations warm {mean_warm:.1f} vs cold {mean_cold:.1f}; "
          f"warm start {verdict})")


def test_warm_start_needs_no_more_inner_iterations_than_cold():
    """On criterion 8's softplus chain the warm start saves inner iterations."""
    warm, cold = warm_and_cold_softplus_solves()
    total_warm = sum(r.inner_iterations for r in warm.rows)
    total_cold = sum(r.inner_iterations for r in cold.rows)
    assert total_warm <= total_cold


def test_criterion_9_trace_determinism(tmp_path):
    """Identical seeds produce byte-identical traces."""
    pfile = tmp_path / "p.json"
    assert cli_main(["generate", "--seed", "17", "--out", str(pfile),
                     "--agents", "4", "--block-size", "3", "--overlap", "1",
                     "--inequalities", "1"]) == 0
    assert cli_main(["run", "--mode", "ipm", "--problem", str(pfile),
                     "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["run", "--mode", "ipm", "--problem", str(pfile),
                     "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "trace.csv").read_bytes()
    b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert a == b
    print(f"\nCRITERION 9 determinism: PASS ({len(a)} byte trace reproduced exactly)")
