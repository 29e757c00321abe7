"""Problem files, run orchestration, exit codes, and trace determinism."""

import argparse
import csv
import json
from dataclasses import fields

import numpy as np
import pytest

import dipm.barrier
import dipm.direction
import dipm.linalg
import dipm.newton
from dipm import cli
from dipm.cli import (
    EXIT_CAP,
    EXIT_DECREMENT,
    EXIT_DOMAIN,
    EXIT_FACTORIZATION,
    EXIT_INFEASIBLE,
    EXIT_INNER,
    EXIT_LINESEARCH,
    EXIT_NONFINITE,
    EXIT_PARSE,
    EXIT_RANK,
    build_parser,
    emit_problem,
    main,
    parse_problem,
    run,
)
from dipm.barrier import barrier_stage, ipm_solve, solve_ipm
from dipm.config import SolverConfig
from dipm.errors import (
    FactorizationError,
    InfeasibleStartError,
    ParseError,
    SolverError,
    StructureError,
)
from dipm.generator import random_qp
from dipm.network import KIND_FLAG, KIND_MIN, KIND_SHARED, RoundScheduler, all_agree
from dipm.newton import newton_solve, solve_newton
from dipm.problem import (
    AgentBlock,
    CustomFunction,
    LooselyCoupledProblem,
    QuadraticFunction,
    build_coupling,
    scatter,
)
from test_network import deciding_flood, relay_rounds


def write_doc(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def minimal_quadratic_doc():
    return {
        "n": 2,
        "agents": [
            {
                "index_set": [0, 1],
                "objective": {"kind": "quadratic", "P": [[2.0, 0.0], [0.0, 4.0]],
                              "q": [2.0, 4.0], "r": 0.0},
            }
        ],
        "x0": [0.0, 0.0],
    }


def chain_doc():
    return {
        "n": 3,
        "agents": [
            {"index_set": [0, 1],
             "objective": {"kind": "quadratic", "P": [[1.0, 0.0], [0.0, 1.0]],
                           "q": [0.0, 0.0], "r": 0.0}},
            {"index_set": [1, 2],
             "objective": {"kind": "quadratic", "P": [[1.0, 0.0], [0.0, 1.0]],
                           "q": [-1.0, -1.0], "r": 1.0}},
        ],
        "x0": [0.0, 0.0, 0.0],
    }


def equality_doc(P, A):
    """Agent 0 (P, equality rows A) on variables 0..2, chained to agent 1 on 2..3."""
    return {
        "n": 4,
        "agents": [
            {"index_set": [0, 1, 2],
             "objective": {"kind": "quadratic", "P": P, "q": [0.0] * 3},
             "equality": {"A": A, "b": [0.0] * len(A)}},
            {"index_set": [2, 3],
             "objective": {"kind": "quadratic", "P": np.eye(2).tolist(), "q": [1.0, 0.0]}},
        ],
        "x0": [0.0] * 4,
    }


class TestParse:
    def test_minimal_file_solves_to_closed_form(self, tmp_path):
        path = write_doc(tmp_path / "p.json", minimal_quadratic_doc())
        problem, config, x0 = parse_problem(path)
        assert problem.n_agents == 1
        summary = run("newton", path, tmp_path / "out")
        np.testing.assert_allclose(summary["x"], [-1.0, -1.0], atol=1e-5)

    def test_chain_file_reproduces_canonical_instance(self, tmp_path):
        path = write_doc(tmp_path / "p.json", chain_doc())
        summary = run("newton", path, tmp_path / "out")
        np.testing.assert_allclose(summary["x"], [0.0, 0.5, 1.0], atol=1e-6)

    def test_boundary_start_rejected(self, tmp_path):
        doc = minimal_quadratic_doc()
        doc["agents"][0]["inequalities"] = [{"a": [1.0, 0.0], "c": 0.0}]  # x0 on boundary
        path = write_doc(tmp_path / "p.json", doc)
        with pytest.raises(InfeasibleStartError):
            parse_problem(path)

    def test_unknown_keys_rejected(self, tmp_path):
        doc = minimal_quadratic_doc()
        doc["surprise"] = 1
        with pytest.raises(ParseError, match="surprise"):
            parse_problem(write_doc(tmp_path / "p.json", doc))
        doc = minimal_quadratic_doc()
        doc["agents"][0]["objective"]["extra"] = 2
        with pytest.raises(ParseError, match="extra"):
            parse_problem(write_doc(tmp_path / "p2.json", doc))

    def test_dimension_mismatch_rejected(self, tmp_path):
        doc = minimal_quadratic_doc()
        doc["agents"][0]["objective"]["q"] = [1.0]
        with pytest.raises(ParseError):
            parse_problem(write_doc(tmp_path / "p.json", doc))

    def test_same_violations_as_the_solvers(self, tmp_path):
        # one start check serves the parser and both distributed drivers:
        # x0 = 0 sits on agent 0's boundary and misses agent 1's equality
        eye = np.eye(2)
        problem = LooselyCoupledProblem(n=3, blocks=(
            AgentBlock(index_set=(0, 1), objective=QuadraticFunction(eye, np.zeros(2)),
                       inequality=(QuadraticFunction(0 * eye, np.array([1.0, 0.0])),)),
            AgentBlock(index_set=(1, 2), objective=QuadraticFunction(eye, np.zeros(2)),
                       A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0])),
        ))
        path = tmp_path / "p.json"
        path.write_text(emit_problem(problem, np.zeros(3)))
        coupling = build_coupling(problem)
        s0 = scatter(np.zeros(3), coupling)
        with pytest.raises(InfeasibleStartError) as parsed:
            parse_problem(str(path))
        with pytest.raises(InfeasibleStartError) as newton:
            newton_solve(barrier_stage(problem, 1.0), s0, SolverConfig(), coupling,
                         RoundScheduler(coupling))
        with pytest.raises(InfeasibleStartError) as ipm:
            ipm_solve(problem, s0, SolverConfig(), coupling, RoundScheduler(coupling))
        assert len(parsed.value.violations) == 2
        assert parsed.value.violations == newton.value.violations == ipm.value.violations

    @pytest.mark.parametrize("residual, rejected", [(5e-9, True), (5e-10, False)])
    def test_one_start_tolerance_for_the_parser_and_both_solvers(self, tmp_path, residual,
                                                                 rejected):
        eye = np.eye(2)
        problem = LooselyCoupledProblem(n=3, blocks=(
            AgentBlock(index_set=(0, 1), objective=QuadraticFunction(eye, np.zeros(2)),
                       A_eq=np.array([[1.0, 1.0]]), b_eq=np.ones(1)),
            AgentBlock(index_set=(1, 2), objective=QuadraticFunction(eye, np.zeros(2))),
        ))
        x0 = np.array([0.5 + residual, 0.5, 0.0])
        path = tmp_path / "p.json"
        path.write_text(emit_problem(problem, x0))
        for drive in (lambda: parse_problem(str(path)), lambda: solve_newton(problem, x0),
                      lambda: solve_ipm(problem, x0)):
            if not rejected:
                drive()
                continue
            with pytest.raises(InfeasibleStartError) as err:
                drive()
            assert err.value.violations == ["agent 0 equality residual 5.000e-09 exceeds 1e-09"]

    def test_solver_section_round_trips(self, tmp_path):
        doc = minimal_quadratic_doc()
        doc["solver"] = {"rho": 2.0, "eps_nt": 1e-9}
        _, config, _ = parse_problem(write_doc(tmp_path / "p.json", doc))
        assert config.rho == 2.0
        assert config.eps_nt == 1e-9

    def test_emit_parse_round_trip(self, tmp_path):
        problem, x0 = random_qp(11, n_agents=3, block_size=3, overlap=1,
                                n_ineq=2, n_eq=1)
        path = tmp_path / "rt.json"
        path.write_text(emit_problem(problem, x0, SolverConfig()))
        reparsed, config, x0_back = parse_problem(str(path))
        assert reparsed.n == problem.n
        assert reparsed.n_agents == problem.n_agents
        np.testing.assert_array_equal(x0_back, x0)
        for a, b in zip(problem.blocks, reparsed.blocks):
            assert a.index_set == b.index_set
            np.testing.assert_array_equal(a.objective.P, b.objective.P)
            np.testing.assert_array_equal(a.objective.q, b.objective.q)
            assert a.objective.r == b.objective.r
            assert len(a.inequality) == len(b.inequality)
            for ga, gb in zip(a.inequality, b.inequality):
                np.testing.assert_array_equal(ga.P, gb.P)
            np.testing.assert_array_equal(a.A_eq, b.A_eq)
        # emit of the reparse is byte-identical
        assert emit_problem(reparsed, x0_back, config) == path.read_text()


    def test_emit_rejects_a_non_quadratic_inequality(self):
        g = CustomFunction(1, lambda s: s[0] - 1.0, lambda s: np.ones(1),
                           lambda s: np.zeros((1, 1)))
        blk = AgentBlock(index_set=(0,), objective=QuadraticFunction(np.eye(1), np.zeros(1)),
                         inequality=(g,))
        with pytest.raises(StructureError, match="cannot serialize inequality of type "
                                                 "CustomFunction"):
            emit_problem(LooselyCoupledProblem(n=1, blocks=(blk,)), np.zeros(1))


class TestRun:
    def test_compare_mode_chain(self, tmp_path):
        path = write_doc(tmp_path / "p.json", chain_doc())
        summary = run("compare", path, tmp_path / "out")
        assert summary["gap_inf"] <= 1e-5

    def test_newton_single_agent_no_messages(self, tmp_path):
        path = write_doc(tmp_path / "p.json", minimal_quadratic_doc())
        summary = run("newton", path, tmp_path / "out")
        assert summary["messages_total"] == 0

    def test_trace_file_written_with_header(self, tmp_path):
        path = write_doc(tmp_path / "p.json", chain_doc())
        run("newton", path, tmp_path / "out")
        lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        assert lines[0].startswith("stage,t,outer,inner_iterations")
        assert len(lines) >= 2
        assert "," in lines[1] and ";" not in lines[1]

    def test_ipm_mode_analytic_problem(self, tmp_path):
        doc = {
            "n": 1,
            "agents": [{
                "index_set": [0],
                "objective": {"kind": "quadratic", "P": [[0.0]], "q": [1.0]},
                "inequalities": [{"a": [-1.0], "c": 1.0}],
            }],
            "x0": [3.0],
        }
        path = write_doc(tmp_path / "p.json", doc)
        summary = run("ipm", path, tmp_path / "out")
        assert abs(summary["objective_f"] - 1.0) <= 1e-6
        assert summary["worst_inequality_value"] < 0

    def test_consistency_error_reads_the_final_slices(self, tmp_path, monkeypatch):
        # the solver's own copies, not a re-scatter of x (consistent by
        # construction); oracle modes have no copies and no such key
        def disagreeing(problem, x0, config):
            result, scheduler = solve_newton(problem, x0, config)
            result.s[1] += 1e-3
            return result, scheduler

        monkeypatch.setattr(cli, "solve_newton", disagreeing)
        path = write_doc(tmp_path / "p.json", chain_doc())
        summary = run("newton", path, tmp_path / "out")
        assert summary["consistency_error"] == pytest.approx(5e-4, rel=1e-9)
        assert "consistency_error" not in run("oracle-newton", path, tmp_path / "oracle")

    def test_ipm_summary_agrees_with_its_trace(self, tmp_path):
        problem, x0 = random_qp(4, n_agents=3, block_size=3, overlap=1, n_ineq=1)
        path = tmp_path / "p.json"
        path.write_text(emit_problem(problem, x0, SolverConfig()))
        summary = run("ipm", str(path), tmp_path / "out")
        with open(tmp_path / "out" / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert summary["stages"] == len({r["stage"] for r in rows}) > 1
        assert summary["e_c_bound"] == float(rows[-1]["e_c_bound"])

    def test_summary_counts_rounds_and_messages_by_kind(self, tmp_path, monkeypatch):
        problem, x0 = random_qp(4, n_agents=3, block_size=3, overlap=1, n_ineq=1)
        path = tmp_path / "p.json"
        path.write_text(emit_problem(problem, x0, SolverConfig()))
        summary = run("ipm", str(path), tmp_path / "out")
        # the same solve again, with every AND's flags noted for the reference
        agreements = []

        def noting(scheduler, flags, carry=False):
            agreements.append((list(flags), carry))
            return all_agree(scheduler, flags, carry)

        for module in (dipm.direction, dipm.newton):
            monkeypatch.setattr(module, "all_agree", noting)
        _, scheduler = solve_ipm(problem, x0, SolverConfig())
        kinds = {KIND_SHARED, KIND_FLAG, KIND_MIN}
        assert summary["rounds"] == scheduler.rounds_by_kind and set(summary["rounds"]) == kinds
        assert summary["rounds_total"] == sum(summary["rounds"].values()) == scheduler.round_index
        assert set(summary["messages"]) == kinds
        assert summary["messages_total"] == sum(summary["messages"].values())
        with open(tmp_path / "out" / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert summary["messages_total"] == sum(int(r["messages"]) for r in rows)
        # a MIN takes diameter rounds; an AND ends once every agent holds the
        # outcome, and sends only False, each agent once to the neighbours
        # that have not told it. A splitting iteration's failed vote sends
        # no flag: the next exchange's data relay it, in 1 + the largest
        # distance from an agent that holds False rounds, and every exchange
        # uses each directed edge once
        assert summary["rounds"][KIND_MIN] % scheduler.diameter == 0
        flooded = [flags for flags, carry in agreements if not carry or all(flags)]
        relayed = [np.array(flags) for flags, carry in agreements if carry and not all(flags)]
        references = [deciding_flood(scheduler.coupling, flags) for flags in flooded]
        assert summary["rounds"][KIND_FLAG] == sum(rounds for _, _, rounds in references)
        assert summary["messages"][KIND_FLAG] == sum(m.sum() for _, m, _ in references)
        inner = sum(int(r["inner_iterations"]) for r in rows)
        assert summary["rounds"][KIND_SHARED] == inner + sum(
            relay_rounds(scheduler.coupling, flags) - 1 for flags in relayed)
        assert relayed and summary["rounds"][KIND_SHARED] > inner
        assert summary["messages"][KIND_SHARED] == inner * scheduler.plan.n_edges
        per_round = {kind: summary["messages"][kind] / summary["rounds"][kind] for kind in kinds}
        assert per_round[KIND_FLAG] < per_round[KIND_SHARED]

    def test_oracle_modes(self, tmp_path):
        path = write_doc(tmp_path / "p.json", chain_doc())
        summary = run("oracle-newton", path, tmp_path / "out")
        np.testing.assert_allclose(summary["x"], [0.0, 0.5, 1.0], atol=1e-8)

    def test_softplus_objective_supported(self, tmp_path):
        doc = {
            "n": 2,
            "agents": [{
                "index_set": [0, 1],
                "objective": {"kind": "softplus_ridge", "ridge": 1.0},
            }],
            "x0": [2.0, -2.0],
        }
        path = write_doc(tmp_path / "p.json", doc)
        summary = run("compare", path, tmp_path / "out")
        assert summary["gap_inf"] <= 1e-5


class TestMainExitCodes:
    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        code = main(["run", "--mode", "newton", "--problem", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_PARSE

    def test_infeasible_start(self, tmp_path):
        doc = minimal_quadratic_doc()
        doc["agents"][0]["inequalities"] = [{"a": [1.0, 0.0], "c": -1.0}]
        doc["x0"] = [5.0, 0.0]
        path = write_doc(tmp_path / "p.json", doc)
        code = main(["run", "--mode", "ipm", "--problem", path,
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_INFEASIBLE

    def test_inner_nonconvergence(self, tmp_path):
        path = write_doc(tmp_path / "p.json", chain_doc())
        code = main(["run", "--mode", "newton", "--problem", path,
                     "--out", str(tmp_path / "o"), "--admm-max-iter", "2"])
        assert code == EXIT_INNER

    def test_line_search_failure(self, tmp_path):
        doc = {
            "n": 1,
            "agents": [{
                "index_set": [0],
                "objective": {"kind": "quadratic", "P": [[0.0]], "q": [1.0]},
                "inequalities": [{"a": [-1.0], "c": 1.0}],
            }],
            "x0": [4.0],
        }
        path = write_doc(tmp_path / "p.json", doc)
        code = main(["run", "--mode", "ipm", "--problem", path,
                     "--out", str(tmp_path / "o"), "--max-backtracks", "0"])
        assert code == EXIT_LINESEARCH

    def test_exhausted_ladder_at_a_failed_vote(self, tmp_path, monkeypatch, capsys):
        # the agents backtrack before the decrement vote is known; an
        # exhausted ladder fails the run when the vote fails
        monkeypatch.setattr(dipm.newton, "ladder_steps",
                            lambda group, *args: np.full(len(group.members), np.nan))
        path = write_doc(tmp_path / "p.json", chain_doc())
        assert main(["run", "--mode", "newton", "--problem", path,
                     "--out", str(tmp_path / "o")]) == EXIT_LINESEARCH
        assert "error: agent 0 exhausted 60 backtracks" in capsys.readouterr().err

    def test_outer_cap(self, tmp_path):
        path = write_doc(tmp_path / "p.json", chain_doc())
        code = main(["run", "--mode", "newton", "--problem", path,
                     "--out", str(tmp_path / "o"), "--newton-max-iter", "0"])
        assert code == EXIT_CAP

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_nonfinite_gradient(self, tmp_path):
        # finite data whose gradient overflows at the start point
        doc = chain_doc()
        doc["agents"][1]["objective"]["P"] = [[1e308, 0.0], [0.0, 1.0]]
        doc["x0"] = [0.0, 10.0, 0.0]
        path = write_doc(tmp_path / "p.json", doc)
        code = main(["run", "--mode", "newton", "--problem", path,
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_NONFINITE

    def test_disconnected_problem_is_a_validation_error(self, tmp_path):
        doc = {
            "n": 2,
            "agents": [
                {"index_set": [0], "objective": {"kind": "quadratic", "P": [[1.0]], "q": [0.0]}},
                {"index_set": [1], "objective": {"kind": "quadratic", "P": [[1.0]], "q": [0.0]}},
            ],
            "x0": [1.0, 1.0],
        }
        path = write_doc(tmp_path / "p.json", doc)
        code = main(["run", "--mode", "newton", "--problem", path,
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("agent, index_set, message", [
        (1, [1, 3], "block 1 references index 3 outside 0..2"),
        (0, [-1, 0], "agents[0]: index set entry -1 is negative"),
    ], ids=["above-n", "negative"])
    def test_index_outside_range_is_a_parse_error(self, tmp_path, capsys, agent, index_set,
                                                  message):
        doc = chain_doc()
        doc["agents"][agent]["index_set"] = index_set
        path = write_doc(tmp_path / "p.json", doc)
        assert main(["run", "--mode", "newton", "--problem", path,
                     "--out", str(tmp_path / "o")]) == EXIT_PARSE
        assert f"error: {message}" in capsys.readouterr().err

    def test_nonfinite_array_entry_is_a_parse_error(self, tmp_path):
        # Python's json reads the NaN and Infinity literals
        doc = minimal_quadratic_doc()
        doc["agents"][0]["objective"]["q"] = [float("nan"), 0.0]
        path = write_doc(tmp_path / "p.json", doc)
        with pytest.raises(ParseError, match="'q' .* must be finite"):
            parse_problem(path)
        assert main(["run", "--mode", "newton", "--problem", path,
                     "--out", str(tmp_path / "o")]) == EXIT_PARSE

    def test_nonfinite_scalar_is_a_parse_error(self, tmp_path):
        doc = minimal_quadratic_doc()
        doc["agents"][0]["inequalities"] = [{"a": [1.0, 0.0], "c": float("nan")}]
        path = write_doc(tmp_path / "p.json", doc)
        with pytest.raises(ParseError, match="'c' .* must be finite"):
            parse_problem(path)
        assert main(["run", "--mode", "ipm", "--problem", path,
                     "--out", str(tmp_path / "o")]) == EXIT_PARSE

    def test_nonfinite_solver_setting_is_a_parse_error(self, tmp_path):
        doc = minimal_quadratic_doc()
        doc["solver"] = {"rho": float("nan")}
        path = write_doc(tmp_path / "p.json", doc)
        with pytest.raises(ParseError, match="rho must be finite"):
            parse_problem(path)
        assert main(["run", "--mode", "newton", "--problem", path,
                     "--out", str(tmp_path / "o")]) == EXIT_PARSE

    def test_fractional_iteration_cap_is_a_parse_error(self, tmp_path):
        doc = minimal_quadratic_doc()
        doc["solver"] = {"admm_max_iter": 2.5}
        path = write_doc(tmp_path / "p.json", doc)
        with pytest.raises(ParseError, match="admm_max_iter must be int"):
            parse_problem(path)
        assert main(["run", "--mode", "newton", "--problem", path,
                     "--out", str(tmp_path / "o")]) == EXIT_PARSE

    @pytest.mark.parametrize("flag, value", [("--rho", "-1"), ("--admm-max-iter", "0")])
    def test_invalid_override_is_a_parse_error(self, tmp_path, flag, value):
        path = write_doc(tmp_path / "p.json", chain_doc())
        assert main(["run", "--mode", "newton", "--problem", path,
                     "--out", str(tmp_path / "o"), flag, value]) == EXIT_PARSE

    @pytest.mark.parametrize("where", ["index_set", "n"])
    def test_json_boolean_is_not_an_integer(self, tmp_path, where):
        doc = minimal_quadratic_doc()
        if where == "index_set":
            doc["agents"][0]["index_set"] = [False, True]
        else:
            doc.update(n=True, x0=[0.0])
            doc["agents"][0].update(index_set=[0], objective={
                "kind": "quadratic", "P": [[1.0]], "q": [0.0]})
        path = write_doc(tmp_path / "p.json", doc)
        with pytest.raises(ParseError, match=f"'{where}' .*integer"):
            parse_problem(path)
        assert main(["run", "--mode", "newton", "--problem", path,
                     "--out", str(tmp_path / "o")]) == EXIT_PARSE

    def test_unlisted_solver_error_exits_1(self, tmp_path, monkeypatch, capsys):
        def failing_run(*args):
            raise SolverError("no exit code of its own")

        monkeypatch.setattr(cli, "run", failing_run)
        assert main(["run", "--mode", "newton", "--problem", "p.json",
                     "--out", str(tmp_path / "o")]) == 1
        assert "error: no exit code of its own" in capsys.readouterr().err

    def test_negative_decrement_names_the_agent(self, tmp_path, monkeypatch, capsys):
        # the model admits only convex objectives, so no file reaches a
        # negative curvature form; flip agent 1's curvature after factoring
        class Corrupted(dipm.newton.DirectionWorkspace):
            def __init__(self, *args):
                super().__init__(*args)
                for grp in self.groups:
                    grp.hessian = np.where((grp.members == 1)[:, None, None], -grp.hessian,
                                           grp.hessian)

        monkeypatch.setattr(dipm.newton, "DirectionWorkspace", Corrupted)
        path = write_doc(tmp_path / "p.json", chain_doc())
        assert main(["run", "--mode", "newton", "--problem", path,
                     "--out", str(tmp_path / "o")]) == EXIT_DECREMENT
        assert "error: agent 1: local decrement" in capsys.readouterr().err

    def test_step_outside_the_barrier_domain_names_the_constraint(self, tmp_path, monkeypatch,
                                                                  capsys):
        # the line search keeps every step inside the domain; accept the full
        # Newton step instead, which from 5 overshoots the bound s >= 1 to -7
        monkeypatch.setattr(dipm.newton, "distributed_line_search", lambda *args: 1.0)
        path = write_doc(tmp_path / "p.json", {
            "n": 1,
            "agents": [{"index_set": [0],
                        "objective": {"kind": "quadratic", "P": [[0.0]], "q": [1.0]},
                        "inequalities": [{"a": [-1.0], "c": 1.0}]}],
            "x0": [5.0],
        })
        assert main(["run", "--mode", "ipm", "--problem", path,
                     "--out", str(tmp_path / "o")]) == EXIT_DOMAIN
        assert "error: constraint 0 of agent 0 is not strictly satisfied" \
            in capsys.readouterr().err

    def test_numerically_rank_deficient_equality_names_the_agent(self, tmp_path, capsys):
        # numpy's matrix_rank passes these rows, the factorization's pivot
        # floor does not; the model applies the floor, so every mode agrees
        path = write_doc(tmp_path / "p.json", equality_doc(np.eye(3).tolist(),
                                                          [[1, 1, 0], [1, 1.0000000000001, 0]]))
        for mode in ("newton", "oracle-newton", "compare"):
            assert main(["run", "--mode", mode, "--problem", path,
                         "--out", str(tmp_path / mode)]) == EXIT_PARSE
            assert "error: agents[0]: equality matrix must have full row rank" \
                in capsys.readouterr().err

    def test_curvature_singular_schur_complement_names_the_agent(self, tmp_path, capsys):
        # the rows pass the model's rank test, but the large curvature on the
        # second variable leaves A (H + rho I)^-1 A' numerically singular
        path = write_doc(tmp_path / "p.json", equality_doc(np.diag([0.0, 1e8, 0.0]).tolist(),
                                                          [[1, 1, 0], [1, 1.001, 0]]))
        assert main(["run", "--mode", "newton", "--problem", path,
                     "--out", str(tmp_path / "o")]) == EXIT_RANK
        assert "error: agent 0: Schur complement" in capsys.readouterr().err

    def test_factorization_failure_names_the_agent(self, tmp_path, monkeypatch, capsys):
        # the parser admits only PSD quadratics, so no file reaches an
        # indefinite system; fail the first factorization of the solve instead
        def failing(M):
            raise FactorizationError("pivot 0 fell to -1.000e+00 (floor 1.000e-14)", 0, -1.0)

        monkeypatch.setattr(dipm.linalg, "factor_spd", failing)
        path = write_doc(tmp_path / "p.json", chain_doc())
        assert main(["run", "--mode", "newton", "--problem", path,
                     "--out", str(tmp_path / "o")]) == EXIT_FACTORIZATION
        assert "error: agent 0: pivot 0 fell" in capsys.readouterr().err

    def test_function_sized_unlike_its_index_set_names_the_agent(self, tmp_path, capsys):
        doc = minimal_quadratic_doc()
        doc["agents"][0]["objective"].update(P=np.eye(3).tolist(), q=[0.0] * 3)
        path = write_doc(tmp_path / "p.json", doc)
        assert main(["run", "--mode", "newton", "--problem", path,
                     "--out", str(tmp_path / "o")]) == EXIT_PARSE
        assert "error: agents[0]: objective has dimension 3" in capsys.readouterr().err

    @pytest.mark.parametrize("inequality, message", [
        ({"a": [1.0, 0.0, 0.0], "c": -1.0}, "'a' in agents[0].inequalities[0] must be "
                                            "an array of length 2"),
        ({"Q": np.eye(3).tolist(), "a": [1.0, 0.0], "c": -1.0},
         "'Q' in agents[0].inequalities[0] must be a 2x2 array"),
    ], ids=["a", "Q"])
    def test_inequality_sized_unlike_its_agent_names_the_file_key(self, tmp_path, capsys,
                                                                   inequality, message):
        doc = minimal_quadratic_doc()
        doc["agents"][0]["inequalities"] = [inequality]
        path = write_doc(tmp_path / "p.json", doc)
        assert main(["run", "--mode", "ipm", "--problem", path,
                     "--out", str(tmp_path / "o")]) == EXIT_PARSE
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("inequalities", [5, True], ids=["number", "boolean"])
    def test_inequalities_not_a_list_is_a_parse_error(self, tmp_path, capsys, inequalities):
        doc = minimal_quadratic_doc()
        doc["agents"][0]["inequalities"] = inequalities
        path = write_doc(tmp_path / "p.json", doc)
        assert main(["run", "--mode", "ipm", "--problem", path,
                     "--out", str(tmp_path / "o")]) == EXIT_PARSE
        assert "error: agents[0].inequalities must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["t0", "mu"])
    def test_stage_parameter_beyond_sqrt_float_max_is_a_solver_error(self, tmp_path, capsys,
                                                                      setting):
        # t = 1e300 at the first or the second stage: t^2 overflows, so no
        # inner tolerance can be matched to the stage scale; the stage is
        # refused before it runs
        doc = {
            "n": 1,
            "agents": [{
                "index_set": [0],
                "objective": {"kind": "quadratic", "P": [[0.0]], "q": [1.0]},
                "inequalities": [{"a": [-1.0], "c": 1.0}],
            }],
            "x0": [3.0],
            "solver": {setting: 1e300},
        }
        path = write_doc(tmp_path / "p.json", doc)
        assert main(["run", "--mode", "compare", "--problem", path,
                     "--out", str(tmp_path / "o")]) == EXIT_PARSE
        assert "error: stage parameter t = 1e+300 is too large: t^2 overflows" \
            in capsys.readouterr().err

    def test_generate_then_run(self, tmp_path):
        pfile = tmp_path / "gen.json"
        assert main(["generate", "--seed", "3", "--out", str(pfile),
                     "--agents", "3", "--block-size", "3", "--overlap", "1"]) == 0
        assert main(["run", "--mode", "compare", "--problem", str(pfile),
                     "--out", str(tmp_path / "o")]) == 0


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        pfile = tmp_path / "gen.json"
        main(["generate", "--seed", "9", "--out", str(pfile),
              "--agents", "4", "--block-size", "3", "--overlap", "1",
              "--inequalities", "1"])
        run("ipm", str(pfile), tmp_path / "a")
        run("ipm", str(pfile), tmp_path / "b")
        assert (tmp_path / "a" / "trace.csv").read_bytes() == \
               (tmp_path / "b" / "trace.csv").read_bytes()

    def test_generator_deterministic(self, tmp_path):
        main(["generate", "--seed", "5", "--out", str(tmp_path / "a.json")])
        main(["generate", "--seed", "5", "--out", str(tmp_path / "b.json")])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.mark.parametrize("mode", cli.MODES)
def test_one_coupling_per_run(mode, tmp_path, monkeypatch):
    builds = []

    def counting(problem):
        builds.append(problem)
        return build_coupling(problem)

    for module in (cli, dipm.newton, dipm.barrier):
        monkeypatch.setattr(module, "build_coupling", counting)
    path = write_doc(tmp_path / "p.json", chain_doc())
    run(mode, path, tmp_path / "out")
    assert len(builds) == 1


def run_parser_options():
    """(dest, option strings) of every option of the ``run`` subcommand."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(a.dest, a.option_strings) for a in sub.choices["run"]._actions]


@pytest.mark.parametrize("field", fields(SolverConfig), ids=lambda f: f.name)
def test_each_solver_setting_has_one_flag(field, tmp_path, monkeypatch):
    switches = {"warm_start": "--no-warm-start"}
    flag = switches.get(field.name, "--" + field.name.replace("_", "-"))
    assert [opts for dest, opts in run_parser_options() if dest == field.name] == [[flag]]

    if field.type is bool:
        argv, value = [flag], not field.default
    else:
        value = 7 if field.type is int else 0.375
        argv = [flag, str(value)]
    seen = {}

    def recording_run(mode, problem_path, out_dir, overrides):
        seen.update(overrides)
        return {}

    monkeypatch.setattr(cli, "run", recording_run)
    assert main(["run", "--mode", "newton", "--problem", "p.json",
                 "--out", str(tmp_path / "o"), *argv]) == 0
    assert seen == {field.name: value}
    assert type(seen[field.name]) is field.type
