"""Exception hierarchy shared by all solver components."""


class SolverError(Exception):
    """Base class for everything this package raises deliberately.

    ``agent`` names the failing agent where one is known, and is None otherwise.
    """

    def __init__(self, message, agent=None):
        super().__init__(message)
        self.agent = agent


class StructureError(SolverError):
    """Problem data violates a structural requirement (coverage, shapes, rank)."""


class ParseError(SolverError):
    """Problem file is malformed; message carries the offending field or line."""


class FactorizationError(SolverError):
    """Matrix could not be factored or solved.

    ``pivot_index`` names the failing pivot of a factorization; ``row``
    names the matrix of a stack whose solve failed (None otherwise).
    """

    def __init__(self, message, pivot_index=None, pivot_value=None, row=None):
        super().__init__(message)
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        self.row = row


class RankError(SolverError):
    """An agent's Schur complement A (H + rho I)^-1 A' is singular for its curvature."""


class BarrierDomainError(SolverError):
    """Point lies outside the barrier domain; names agent and constraint."""

    def __init__(self, message, agent=None, constraint=None):
        super().__init__(message, agent)
        self.constraint = constraint


class InfeasibleStartError(SolverError):
    """Starting point violates constraints; ``violations`` lists them."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = list(violations)


class DisconnectedNetworkError(SolverError):
    """Coupling graph is disconnected, so consensus cannot reach every agent."""


class DirectionConvergenceError(SolverError):
    """Inner splitting iterations hit their cap before meeting tolerance."""

    def __init__(self, message, primal_residual=None, dual_residual=None):
        super().__init__(message)
        self.primal_residual = primal_residual
        self.dual_residual = dual_residual


class NonFiniteError(SolverError):
    """A computed quantity came out NaN or infinite; names the agent and the quantity."""

    def __init__(self, agent, quantity):
        super().__init__(f"agent {agent}: {quantity} is not finite", agent)
        self.quantity = quantity


class LineSearchError(SolverError):
    """An agent exhausted its backtracking budget; ``agent`` identifies it."""


class IterationCapError(SolverError):
    """Outer loop reached its iteration cap without converging."""


class DecrementError(SolverError):
    """Local curvature form came out significantly negative."""
