"""Command-line front end: problem files, runs, traces, and comparisons.

Problem files are JSON with explicit dimensions and 0-based index sets:

    {
      "n": 3,
      "agents": [
        {"index_set": [0, 1],
         "objective": {"kind": "quadratic", "P": [[1,0],[0,1]], "q": [0,0], "r": 0.0},
         "inequalities": [{"Q": [[0,0],[0,0]], "a": [1,0], "c": -2.0}],
         "equality": {"A": [[1,-1]], "b": [0.0]}}
      ],
      "x0": [0.0, 0.0, 0.0],
      "solver": {"rho": 1.0}
    }

Objective kinds: "quadratic" (P, q, r) and "softplus_ridge" (ridge,
optional linear). Inequalities are quadratic forms 1/2 s'Qs + a's + c <= 0
with Q optional (affine when omitted). Unknown keys anywhere are rejected.
The starting point must be strictly feasible for all inequalities and
satisfy equalities to 1e-9; it is validated before any solve.

Runs write ``trace.csv`` (one row per outer Newton iteration, full float
precision, no locale dependence) and ``summary.json`` into the output
directory. Exit codes: of the failures the solver can diagnose, a parse or
validation problem is 2, an infeasible start 3, inner non-convergence 4, a
failed line search 5, an outer iteration cap 6, and a NaN or infinite
derivative or inner residual 7.
"""

import argparse
import json
import sys
import time

import numpy as np

from .barrier import solve_ipm
from .config import CONFIG_FIELD_NAMES, SolverConfig
from .errors import (
    DirectionConvergenceError,
    DisconnectedNetworkError,
    InfeasibleStartError,
    IterationCapError,
    LineSearchError,
    NonFiniteError,
    ParseError,
    SolverError,
    StructureError,
)
from .generator import random_qp
from .newton import solve_newton
from .oracle import assemble_dense, centralized_ipm, centralized_newton
from .problem import (
    AgentBlock,
    LooselyCoupledProblem,
    QuadraticFunction,
    SoftplusRidge,
    build_coupling,
    consistency_error,
    scatter,
)
from .trace import rows_to_csv

EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_INNER = 4
EXIT_LINESEARCH = 5
EXIT_CAP = 6
EXIT_NONFINITE = 7

MODES = ("newton", "ipm", "oracle-newton", "oracle-ipm", "compare")


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

def _reject_unknown(obj, allowed, where):
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ParseError(f"unknown key '{unknown[0]}' in {where}")


def _matrix(obj, key, where, rows=None, cols=None, required=True):
    if key not in obj:
        if required:
            raise ParseError(f"missing '{key}' in {where}")
        return None
    try:
        arr = np.array(obj[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"'{key}' in {where} is not numeric: {exc}") from exc
    if cols is not None and (arr.ndim != 2 or arr.shape[1] != cols):
        raise ParseError(f"'{key}' in {where} must be a matrix with {cols} columns")
    if rows is not None and arr.shape[0] != rows:
        raise ParseError(f"'{key}' in {where} must have {rows} rows")
    return arr


def _vector(obj, key, where, length=None, required=True):
    if key not in obj:
        if required:
            raise ParseError(f"missing '{key}' in {where}")
        return None
    try:
        arr = np.array(obj[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"'{key}' in {where} is not numeric: {exc}") from exc
    if arr.ndim != 1 or (length is not None and arr.shape[0] != length):
        raise ParseError(f"'{key}' in {where} must be a vector of length {length}")
    return arr


def _parse_objective(obj, dim, where):
    if not isinstance(obj, dict):
        raise ParseError(f"objective in {where} must be an object")
    kind = obj.get("kind")
    if kind == "quadratic":
        _reject_unknown(obj, ("kind", "P", "q", "r"), where)
        P = _matrix(obj, "P", where, rows=dim, cols=dim)
        q = _vector(obj, "q", where, length=dim)
        r = float(obj.get("r", 0.0))
        try:
            return QuadraticFunction(P, q, r, require_psd=True)
        except StructureError as exc:
            raise ParseError(f"objective in {where}: {exc}") from exc
    if kind == "softplus_ridge":
        _reject_unknown(obj, ("kind", "ridge", "linear"), where)
        linear = _vector(obj, "linear", where, length=dim, required=False)
        try:
            return SoftplusRidge(dim, ridge=float(obj.get("ridge", 1.0)), linear=linear)
        except StructureError as exc:
            raise ParseError(f"objective in {where}: {exc}") from exc
    raise ParseError(f"objective in {where} has unknown kind {kind!r}")


def _parse_inequality(obj, dim, where):
    if not isinstance(obj, dict):
        raise ParseError(f"inequality in {where} must be an object")
    _reject_unknown(obj, ("Q", "a", "c"), where)
    Q = _matrix(obj, "Q", where, rows=dim, cols=dim, required=False)
    if Q is None:
        Q = np.zeros((dim, dim))
    a = _vector(obj, "a", where, length=dim)
    if "c" not in obj:
        raise ParseError(f"missing 'c' in {where}")
    try:
        return QuadraticFunction(Q, a, float(obj["c"]), require_psd=True)
    except StructureError as exc:
        raise ParseError(f"inequality in {where}: {exc}") from exc


def _parse_agent(obj, k, n):
    where = f"agents[{k}]"
    if not isinstance(obj, dict):
        raise ParseError(f"{where} must be an object")
    _reject_unknown(obj, ("index_set", "objective", "inequalities", "equality"), where)
    if "index_set" not in obj:
        raise ParseError(f"missing 'index_set' in {where}")
    index_set = obj["index_set"]
    if (not isinstance(index_set, list) or not index_set
            or any(not isinstance(j, int) for j in index_set)):
        raise ParseError(f"'index_set' in {where} must be a nonempty list of integers")
    if any(j < 0 or j >= n for j in index_set):
        raise ParseError(f"'index_set' in {where} has entries outside 0..{n - 1}")
    dim = len(index_set)
    if "objective" not in obj:
        raise ParseError(f"missing 'objective' in {where}")
    objective = _parse_objective(obj["objective"], dim, where)
    ineqs = []
    for c, ent in enumerate(obj.get("inequalities", [])):
        ineqs.append(_parse_inequality(ent, dim, f"{where}.inequalities[{c}]"))
    A = b = None
    if "equality" in obj:
        eq = obj["equality"]
        if not isinstance(eq, dict):
            raise ParseError(f"'equality' in {where} must be an object")
        _reject_unknown(eq, ("A", "b"), f"{where}.equality")
        A = _matrix(eq, "A", f"{where}.equality", cols=dim)
        b = _vector(eq, "b", f"{where}.equality", length=A.shape[0])
    try:
        return AgentBlock(index_set=tuple(index_set), objective=objective,
                          inequality=tuple(ineqs), A_eq=A, b_eq=b)
    except StructureError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _parse_solver(obj):
    if not isinstance(obj, dict):
        raise ParseError("'solver' must be an object")
    _reject_unknown(obj, CONFIG_FIELD_NAMES, "solver")
    try:
        return SolverConfig(**obj)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"solver section: {exc}") from exc


def _check_start_feasibility(problem, x0):
    coupling = build_coupling(problem)
    slices = scatter(x0, coupling)
    violations = []
    for i, blk in enumerate(problem.blocks):
        for c, g in enumerate(blk.inequality):
            val = g.value(slices[i])
            if not val < 0.0:
                violations.append(
                    f"agent {i} inequality {c}: value {val:.6e} must be strictly negative"
                )
        if blk.A_eq is not None:
            resid = float(np.abs(blk.A_eq @ slices[i] - blk.b_eq).max(initial=0.0))
            if resid > 1e-9:
                violations.append(f"agent {i} equality residual {resid:.3e} exceeds 1e-9")
    if violations:
        raise InfeasibleStartError("starting point x0 is infeasible", violations)


def parse_problem(path):
    """Load and fully validate a problem file.

    Returns (problem, config, x0); raises ParseError on malformed input and
    InfeasibleStartError when x0 violates the constraints.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    _reject_unknown(doc, ("n", "agents", "x0", "solver"), "top level")
    if "n" not in doc or not isinstance(doc["n"], int) or doc["n"] < 1:
        raise ParseError("'n' must be a positive integer")
    n = doc["n"]
    agents = doc.get("agents")
    if not isinstance(agents, list) or not agents:
        raise ParseError("'agents' must be a nonempty list")
    blocks = tuple(_parse_agent(a, k, n) for k, a in enumerate(agents))
    try:
        problem = LooselyCoupledProblem(n=n, blocks=blocks)
    except StructureError as exc:
        raise ParseError(str(exc)) from exc
    x0 = _vector(doc, "x0", "top level", length=n)
    config = _parse_solver(doc.get("solver", {}))
    _check_start_feasibility(problem, x0)
    return problem, config, x0


def emit_problem(problem, x0, config=None):
    """Serialize a problem back into the file format (round-trips exactly)."""
    agents = []
    for blk in problem.blocks:
        obj = blk.objective
        if isinstance(obj, QuadraticFunction):
            objective = {"kind": "quadratic", "P": obj.P.tolist(),
                         "q": obj.q.tolist(), "r": obj.r}
        elif isinstance(obj, SoftplusRidge):
            objective = {"kind": "softplus_ridge", "ridge": obj.ridge,
                         "linear": obj.linear.tolist()}
        else:
            raise StructureError(f"cannot serialize objective of type {type(obj).__name__}")
        entry = {"index_set": list(blk.index_set), "objective": objective}
        if blk.inequality:
            entry["inequalities"] = [
                {"Q": g.P.tolist(), "a": g.q.tolist(), "c": g.r} for g in blk.inequality
            ]
        if blk.A_eq is not None:
            entry["equality"] = {"A": blk.A_eq.tolist(), "b": blk.b_eq.tolist()}
        agents.append(entry)
    doc = {"n": problem.n, "agents": agents, "x0": np.asarray(x0, dtype=float).tolist()}
    if config is not None:
        doc["solver"] = {name: getattr(config, name) for name in CONFIG_FIELD_NAMES}
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# run orchestration
# ---------------------------------------------------------------------------

def _constraint_report(problem, x):
    coupling = build_coupling(problem)
    slices = scatter(x, coupling)
    worst_ineq = -np.inf
    worst_eq = 0.0
    for i, blk in enumerate(problem.blocks):
        for g in blk.inequality:
            worst_ineq = max(worst_ineq, g.value(slices[i]))
        if blk.A_eq is not None:
            worst_eq = max(worst_eq, float(np.abs(blk.A_eq @ slices[i] - blk.b_eq).max()))
    return (None if worst_ineq == -np.inf else worst_ineq), worst_eq


def _objective_value(problem, x):
    coupling = build_coupling(problem)
    slices = scatter(x, coupling)
    return sum(blk.objective.value(s) for blk, s in zip(problem.blocks, slices))


def _distributed(mode, problem, x0, config):
    if mode == "newton":
        result, scheduler = solve_newton(problem, x0, config)
        stages = 1
        e_c = result.e_c
    else:
        result, scheduler = solve_ipm(problem, x0, config)
        stages = result.stages
        e_c = result.e_c
    summary = {
        "objective_f": _objective_value(problem, result.x),
        "stages": stages,
        "e_c_bound": e_c,
        "max_consistency_error": result.max_consistency_error,
        "max_dual_average": result.max_dual_average,
        "max_eq_violation": result.max_eq_violation,
        "descent_violations": result.descent_violations,
        "messages": {
            kind: int(arr.sum()) for kind, arr in scheduler.sent_by_kind.items()
        },
        "messages_total": int(scheduler.total_sent),
    }
    return result.x, result.rows, summary


def _oracle(mode, problem, x0, config):
    from .trace import TraceRow

    dense = assemble_dense(problem)
    newton_kw = dict(armijo_a=config.armijo_a, shrink_b=config.shrink_b,
                     max_backtracks=config.max_backtracks,
                     max_iter=config.newton_max_iter)
    rows = []
    history = []
    if mode == "oracle-newton":
        if problem.m_total:
            raise StructureError("oracle-newton requires an inequality-free problem")
        x = centralized_newton(dense, x0, eps_nt=config.eps_nt, history=history,
                               **newton_kw)
        history = [(0, 1.0) + entry for entry in history]
        barrier_stage_rows = False
    else:
        x = centralized_ipm(dense, x0, t0=config.t0, mu=config.mu,
                            eps_p=config.eps_p, eps_nt=config.eps_nt,
                            history=history, **newton_kw)
        barrier_stage_rows = True
    for q, t, it, dec_half, alpha, obj_h in history:
        # the per-iterate true objective is not tracked by the barrier
        # oracle, only the stage objective it minimizes
        obj_f = float("nan") if barrier_stage_rows else obj_h
        rows.append(TraceRow(
            stage=q, t=t, outer=it, inner_iterations=0, decrement_half=dec_half,
            alpha=alpha, max_primal_residual=0.0, max_dual_residual=0.0,
            objective_h=obj_h, objective_f=obj_f, messages=0, e_c_bound=0.0,
        ))
    return x, rows, {"objective_f": _objective_value(problem, x)}


def run(mode, problem_path, out_dir, overrides=None):
    """Execute one mode on a problem file, writing trace and summary.

    Returns the summary dict. ``overrides`` maps SolverConfig field names to
    values taking precedence over the file's solver section.
    """
    import pathlib

    problem, config, x0 = parse_problem(problem_path)
    if overrides:
        cfg = {name: getattr(config, name) for name in CONFIG_FIELD_NAMES}
        cfg.update(overrides)
        config = SolverConfig(**cfg)

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    coupling = build_coupling(problem)
    started = time.perf_counter()

    if mode in ("newton", "ipm"):
        x, rows, extra = _distributed(mode, problem, x0, config)
    elif mode in ("oracle-newton", "oracle-ipm"):
        x, rows, extra = _oracle(mode, problem, x0, config)
    elif mode == "compare":
        dist_mode = "ipm" if problem.m_total else "newton"
        x, rows, extra = _distributed(dist_mode, problem, x0, config)
        x_ref, _, ref_extra = _oracle(
            "oracle-ipm" if problem.m_total else "oracle-newton", problem, x0, config
        )
        extra["oracle_objective_f"] = ref_extra["objective_f"]
        extra["gap_inf"] = float(np.abs(x - x_ref).max())
    else:
        raise ParseError(f"unknown mode {mode!r}")

    wall = time.perf_counter() - started
    worst_ineq, worst_eq = _constraint_report(problem, x)
    slices = scatter(x, coupling)

    summary = {
        "mode": mode,
        "n": problem.n,
        "agents": problem.n_agents,
        "m_total": problem.m_total,
        "max_degree": coupling.max_degree,
        "x": x.tolist(),
        "worst_inequality_value": worst_ineq,
        "worst_equality_residual": worst_eq,
        "consistency_error": consistency_error(slices, coupling),
        "wall_time_s": wall,
    }
    summary.update(extra)

    (out / "trace.csv").write_text(rows_to_csv(rows))
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_config_overrides(parser):
    parser.add_argument("--rho", type=float)
    parser.add_argument("--eps-pri", type=float, dest="eps_pri")
    parser.add_argument("--eps-dual", type=float, dest="eps_dual")
    parser.add_argument("--eps-nt", type=float, dest="eps_nt")
    parser.add_argument("--t0", type=float)
    parser.add_argument("--mu", type=float)
    parser.add_argument("--eps-p", type=float, dest="eps_p")
    parser.add_argument("--armijo-a", type=float, dest="armijo_a")
    parser.add_argument("--shrink-b", type=float, dest="shrink_b")
    parser.add_argument("--max-backtracks", type=int, dest="max_backtracks")
    parser.add_argument("--admm-max-iter", type=int, dest="admm_max_iter")
    parser.add_argument("--newton-max-iter", type=int, dest="newton_max_iter")
    parser.add_argument("--no-warm-start", action="store_true")
    parser.add_argument("--accept-unconverged-direction", action="store_true")


def _collect_overrides(args):
    overrides = {}
    for name in CONFIG_FIELD_NAMES:
        val = getattr(args, name, None)
        if val is not None and not isinstance(val, bool):
            overrides[name] = val
    if getattr(args, "no_warm_start", False):
        overrides["warm_start"] = False
    if getattr(args, "accept_unconverged_direction", False):
        overrides["accept_unconverged_direction"] = True
    return overrides


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dipm",
        description="Distributed Newton / interior-point solver over simulated agent networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="solve a problem file")
    runp.add_argument("--mode", choices=MODES, required=True)
    runp.add_argument("--problem", required=True)
    runp.add_argument("--out", required=True)
    _add_config_overrides(runp)

    gen = sub.add_parser("generate", help="emit a seeded random problem file")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--agents", type=int, default=4)
    gen.add_argument("--block-size", type=int, default=3, dest="block_size")
    gen.add_argument("--overlap", type=int, default=1)
    gen.add_argument("--inequalities", type=int, default=0)
    gen.add_argument("--equalities", type=int, default=0)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            problem, x0 = random_qp(
                args.seed, n_agents=args.agents, block_size=args.block_size,
                overlap=args.overlap, n_ineq=args.inequalities, n_eq=args.equalities,
            )
            text = emit_problem(problem, x0, SolverConfig())
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
            return 0
        summary = run(args.mode, args.problem, args.out, _collect_overrides(args))
        print(json.dumps(summary, indent=2))
        return 0
    except (ParseError, StructureError, DisconnectedNetworkError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InfeasibleStartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for v in exc.violations:
            print(f"  {v}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DirectionConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INNER
    except LineSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LINESEARCH
    except IterationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except NonFiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONFINITE
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
