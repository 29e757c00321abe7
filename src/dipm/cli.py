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
with Q optional (affine when omitted). Unknown keys anywhere are rejected,
and so are non-finite numbers (the NaN and Infinity literals).
The starting point must be strictly feasible for all inequalities and
satisfy equalities to ``START_EQ_ATOL``; it is validated before any solve.

Runs write ``trace.csv`` (one row per outer Newton iteration, full float
precision, no locale dependence) and ``summary.json`` into the output
directory. Exit codes: of the failures the solver can diagnose, a parse or
validation problem is 2, an infeasible start 3, inner non-convergence 4, a
failed line search 5, an outer iteration cap 6, a NaN or infinite
derivative or inner residual 7, an agent's system that cannot be factored
or solved 8, an agent's Schur complement made singular by its curvature 9,
a significantly negative local decrement 10, and a stage objective
evaluated outside its barrier domain 11.
"""

import argparse
import json
import pathlib
import sys
import time
from dataclasses import asdict, fields, replace

import numpy as np

from .barrier import solve_ipm
from .config import SolverConfig
from .errors import (
    BarrierDomainError,
    DecrementError,
    DirectionConvergenceError,
    DisconnectedNetworkError,
    FactorizationError,
    InfeasibleStartError,
    IterationCapError,
    LineSearchError,
    NonFiniteError,
    ParseError,
    RankError,
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
    check_start,
    consistency_error,
    scatter,
)
from .trace import TraceRow, rows_to_csv

EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_INNER = 4
EXIT_LINESEARCH = 5
EXIT_CAP = 6
EXIT_NONFINITE = 7
EXIT_FACTORIZATION = 8
EXIT_RANK = 9
EXIT_DECREMENT = 10
EXIT_DOMAIN = 11
# the first entry whose classes match a SolverError gives the exit code; 1 otherwise
EXIT_CODES = (
    ((ParseError, StructureError, DisconnectedNetworkError), EXIT_PARSE),
    ((InfeasibleStartError,), EXIT_INFEASIBLE),
    ((DirectionConvergenceError,), EXIT_INNER),
    ((LineSearchError,), EXIT_LINESEARCH),
    ((IterationCapError,), EXIT_CAP),
    ((NonFiniteError,), EXIT_NONFINITE),
    ((FactorizationError,), EXIT_FACTORIZATION),
    ((RankError,), EXIT_RANK),
    ((DecrementError,), EXIT_DECREMENT),
    ((BarrierDomainError,), EXIT_DOMAIN),
)

MODES = ("newton", "ipm", "oracle-newton", "oracle-ipm", "compare")


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------

def _reject_unknown(obj, allowed, where):
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ParseError(f"unknown key '{unknown[0]}' in {where}")


def _array(obj, key, where, shape=None, required=True):
    """``obj[key]`` as a float array, of ``shape`` when given.

    The model checks the shapes of its own arrays; a shape is given here
    for arrays the model does not hold, or holds under another name.

    Python's json accepts the NaN and Infinity literals; any non-finite
    entry is rejected here rather than surfacing later in the solve.
    """
    if key not in obj:
        if required:
            raise ParseError(f"missing '{key}' in {where}")
        return None
    try:
        arr = np.array(obj[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"'{key}' in {where} is not numeric: {exc}") from exc
    if shape is not None and arr.shape != shape:
        if not shape:
            kind = "a number"
        elif len(shape) == 1:
            kind = f"an array of length {shape[0]}"
        else:
            kind = f"a {shape[0]}x{shape[1]} array"
        raise ParseError(f"'{key}' in {where} must be {kind}")
    if not np.isfinite(arr).all():
        raise ParseError(f"'{key}' in {where} must be finite")
    return arr


def _scalar(obj, key, where, default=None):
    """``obj[key]`` as a finite float; required unless a default is given."""
    if key not in obj and default is not None:
        return default
    return float(_array(obj, key, where, ()))


def _parse_objective(obj, dim, where):
    if not isinstance(obj, dict):
        raise ParseError(f"objective in {where} must be an object")
    kind = obj.get("kind")
    if kind == "quadratic":
        _reject_unknown(obj, ("kind", "P", "q", "r"), where)
        P = _array(obj, "P", where)
        q = _array(obj, "q", where)
        r = _scalar(obj, "r", where, 0.0)
        try:
            return QuadraticFunction(P, q, r)
        except StructureError as exc:
            raise ParseError(f"objective in {where}: {exc}") from exc
    if kind == "softplus_ridge":
        _reject_unknown(obj, ("kind", "ridge", "linear"), where)
        linear = _array(obj, "linear", where, required=False)
        try:
            return SoftplusRidge(dim, ridge=_scalar(obj, "ridge", where, 1.0), linear=linear)
        except StructureError as exc:
            raise ParseError(f"objective in {where}: {exc}") from exc
    raise ParseError(f"objective in {where} has unknown kind {kind!r}")


def _parse_inequality(obj, dim, where):
    if not isinstance(obj, dict):
        raise ParseError(f"inequality in {where} must be an object")
    _reject_unknown(obj, ("Q", "a", "c"), where)
    # the model names these P and q; sized here, a mismatch names the file's keys
    Q = _array(obj, "Q", where, (dim, dim), required=False)
    if Q is None:
        Q = np.zeros((dim, dim))
    a = _array(obj, "a", where, (dim,))
    c = _scalar(obj, "c", where)
    try:
        return QuadraticFunction(Q, a, c)
    except StructureError as exc:
        raise ParseError(f"inequality in {where}: {exc}") from exc


def _parse_agent(obj, k):
    where = f"agents[{k}]"
    if not isinstance(obj, dict):
        raise ParseError(f"{where} must be an object")
    _reject_unknown(obj, ("index_set", "objective", "inequalities", "equality"), where)
    if "index_set" not in obj:
        raise ParseError(f"missing 'index_set' in {where}")
    index_set = obj["index_set"]
    if (not isinstance(index_set, list) or not index_set
            or any(type(j) is not int for j in index_set)):
        raise ParseError(f"'index_set' in {where} must be a nonempty list of integers")
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
        A = _array(eq, "A", f"{where}.equality")
        b = _array(eq, "b", f"{where}.equality")
    try:
        return AgentBlock(index_set=tuple(index_set), objective=objective,
                          inequality=tuple(ineqs), A_eq=A, b_eq=b)
    except StructureError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _configure(config, settings, where):
    """``config`` with ``settings`` applied; a mistyped or invalid value is a ParseError."""
    try:
        return replace(config, **settings)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _parse_solver(obj):
    if not isinstance(obj, dict):
        raise ParseError("'solver' must be an object")
    _reject_unknown(obj, [f.name for f in fields(SolverConfig)], "solver")
    return _configure(SolverConfig(), obj, "solver section")


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
    n = doc.get("n")
    # exact type: json's true and false are ints to isinstance
    if type(n) is not int or n < 1:
        raise ParseError("'n' must be a positive integer")
    agents = doc.get("agents")
    if not isinstance(agents, list) or not agents:
        raise ParseError("'agents' must be a nonempty list")
    blocks = tuple(_parse_agent(a, k) for k, a in enumerate(agents))
    try:
        problem = LooselyCoupledProblem(n=n, blocks=blocks)
    except StructureError as exc:
        raise ParseError(str(exc)) from exc
    x0 = _array(doc, "x0", "top level", (n,))
    config = _parse_solver(doc.get("solver", {}))
    check_start(problem.blocks, [x0[list(blk.index_set)] for blk in problem.blocks])
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
        for g in blk.inequality:
            if not isinstance(g, QuadraticFunction):
                raise StructureError(f"cannot serialize inequality of type {type(g).__name__}")
        if blk.inequality:
            entry["inequalities"] = [
                {"Q": g.P.tolist(), "a": g.q.tolist(), "c": g.r} for g in blk.inequality
            ]
        if blk.A_eq is not None:
            entry["equality"] = {"A": blk.A_eq.tolist(), "b": blk.b_eq.tolist()}
        agents.append(entry)
    doc = {"n": problem.n, "agents": agents, "x0": np.asarray(x0, dtype=float).tolist()}
    if config is not None:
        doc["solver"] = asdict(config)
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# run orchestration
# ---------------------------------------------------------------------------

def _constraint_report(problem, slices):
    worst_ineq = -np.inf
    worst_eq = 0.0
    for i, blk in enumerate(problem.blocks):
        for g in blk.inequality:
            worst_ineq = max(worst_ineq, g.value(slices[i]))
        if blk.A_eq is not None:
            worst_eq = max(worst_eq, float(np.abs(blk.A_eq @ slices[i] - blk.b_eq).max()))
    return (None if worst_ineq == -np.inf else worst_ineq), worst_eq


def _objective_value(problem, slices):
    return sum(blk.objective.value(s) for blk, s in zip(problem.blocks, slices))


def _distributed(mode, problem, x0, config):
    solve = solve_newton if mode == "newton" else solve_ipm
    result, scheduler = solve(problem, x0, config)
    summary = {
        "stages": result.rows[-1].stage + 1,
        "e_c_bound": result.e_c,
        "consistency_error": consistency_error(result.s_slices, scheduler.coupling),
        "max_consistency_error": result.max_consistency_error,
        "max_dual_average": result.max_dual_average,
        "max_eq_violation": result.max_eq_violation,
        "descent_violations": result.descent_violations,
        "messages": {
            kind: int(arr.sum()) for kind, arr in scheduler.sent_by_kind.items()
        },
        "messages_total": int(scheduler.total_sent),
    }
    return result.x, result.rows, summary, scheduler.coupling


def _oracle(mode, problem, x0, config):
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
    return x, rows, {}


def run(mode, problem_path, out_dir, overrides=None):
    """Execute one mode on a problem file, writing trace and summary.

    Returns the summary dict. ``overrides`` maps SolverConfig field names to
    values taking precedence over the file's solver section.
    """
    problem, config, x0 = parse_problem(problem_path)
    config = _configure(config, overrides or {}, "solver override")

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()

    if mode in ("newton", "ipm"):
        x, rows, extra, coupling = _distributed(mode, problem, x0, config)
    elif mode in ("oracle-newton", "oracle-ipm"):
        x, rows, extra = _oracle(mode, problem, x0, config)
        coupling = build_coupling(problem)
    elif mode == "compare":
        dist_mode = "ipm" if problem.m_total else "newton"
        x, rows, extra, coupling = _distributed(dist_mode, problem, x0, config)
        x_ref, _, _ = _oracle(
            "oracle-ipm" if problem.m_total else "oracle-newton", problem, x0, config
        )
        extra["oracle_objective_f"] = _objective_value(problem, scatter(x_ref, coupling))
        extra["gap_inf"] = float(np.abs(x - x_ref).max())
    else:
        raise ParseError(f"unknown mode {mode!r}")

    wall = time.perf_counter() - started
    slices = scatter(x, coupling)
    worst_ineq, worst_eq = _constraint_report(problem, slices)

    summary = {
        "mode": mode,
        "n": problem.n,
        "agents": problem.n_agents,
        "m_total": problem.m_total,
        "max_degree": coupling.max_degree,
        "x": x.tolist(),
        "worst_inequality_value": worst_ineq,
        "worst_equality_residual": worst_eq,
        "wall_time_s": wall,
        "objective_f": _objective_value(problem, slices),
    }
    summary.update(extra)

    (out / "trace.csv").write_text(rows_to_csv(rows))
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_config_overrides(parser):
    # one flag per SolverConfig field; a bool field is a switch flipping its default
    for f in fields(SolverConfig):
        name = f.name.replace("_", "-")
        if f.type is bool:
            parser.add_argument(f"--no-{name}" if f.default else f"--{name}",
                                action="store_const", const=not f.default, dest=f.name)
        else:
            parser.add_argument(f"--{name}", type=f.type, dest=f.name)


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
        overrides = {f.name: getattr(args, f.name) for f in fields(SolverConfig)
                     if getattr(args, f.name) is not None}
        summary = run(args.mode, args.problem, args.out, overrides)
        print(json.dumps(summary, indent=2))
        return 0
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for v in getattr(exc, "violations", ()):
            print(f"  {v}", file=sys.stderr)
        return next((code for kinds, code in EXIT_CODES if isinstance(exc, kinds)), 1)


if __name__ == "__main__":
    sys.exit(main())
