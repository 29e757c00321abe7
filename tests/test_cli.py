"""Problem files, run orchestration, exit codes, and trace determinism."""

import json

import numpy as np
import pytest

from dipm.cli import (
    EXIT_CAP,
    EXIT_INFEASIBLE,
    EXIT_INNER,
    EXIT_LINESEARCH,
    EXIT_NONFINITE,
    EXIT_PARSE,
    emit_problem,
    main,
    parse_problem,
    run,
)
from dipm.config import SolverConfig
from dipm.errors import InfeasibleStartError, ParseError
from dipm.generator import random_qp


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
