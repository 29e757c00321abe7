"""Per-iteration trace records and their CSV serialization."""

import io
from dataclasses import dataclass, fields


@dataclass
class TraceRow:
    """One outer Newton iteration.

    ``stage`` and ``t`` identify the barrier stage (stage 0 with t = 1 for
    plain Newton runs). ``messages`` counts every message sent during the
    iteration, data and consensus alike. ``e_c_bound`` is the running
    consistency-error budget, the sum of squared accepted step sizes times
    the primal tolerance. Residuals are the final per-agent maxima of the
    squared norms used by the inner termination test. The terminal
    iteration of a solve carries alpha = 0 since no step is taken.
    """

    stage: int
    t: float
    outer: int
    inner_iterations: int
    decrement_half: float
    alpha: float
    max_primal_residual: float
    max_dual_residual: float
    objective_h: float
    objective_f: float
    messages: int
    e_c_bound: float


TRACE_HEADER = ",".join(f.name for f in fields(TraceRow))


def _fmt(value):
    # plain-float repr: shortest round-trip form, no numpy scalar wrappers
    return repr(float(value)) if isinstance(value, float) else str(int(value))


def rows_to_csv(rows):
    """Render trace rows as CSV with full round-trip float precision."""
    buf = io.StringIO()
    buf.write(TRACE_HEADER + "\n")
    for row in rows:
        buf.write(",".join(_fmt(getattr(row, f.name)) for f in fields(TraceRow)) + "\n")
    return buf.getvalue()

