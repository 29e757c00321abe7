"""Solver configuration record with conventional defaults."""

import math
import numbers
from dataclasses import dataclass, fields


@dataclass
class SolverConfig:
    """Tuning knobs shared by the splitting, Newton, and barrier layers.

    ``eps_pri`` and ``eps_dual`` are compared against squared norms, as the
    per-agent convergence checks are stated on squared quantities.
    """

    rho: float = 1.0
    eps_pri: float = 1e-12
    eps_dual: float = 1e-12
    eps_nt: float = 1e-8
    t0: float = 1.0
    mu: float = 10.0
    eps_p: float = 1e-6
    armijo_a: float = 0.2
    shrink_b: float = 0.5
    max_backtracks: int = 60
    admm_max_iter: int = 5000
    newton_max_iter: int = 200
    warm_start: bool = True

    def __post_init__(self):
        # types first (to Python a bool is an int, here it is not); then
        # finiteness, since NaN passes every comparison below. Values are
        # stored as the built-in type, so a numpy scalar serializes as JSON
        kinds = {bool: bool, int: numbers.Integral, float: numbers.Real}
        for f in fields(self):
            val = getattr(self, f.name)
            if isinstance(val, bool) != (f.type is bool) or not isinstance(val, kinds[f.type]):
                module = "" if type(val).__module__ == "builtins" else type(val).__module__ + "."
                raise TypeError(f"{f.name} must be {f.type.__name__}, "
                                f"not {module}{type(val).__qualname__}")
            if not math.isfinite(val):
                raise ValueError(f"{f.name} must be finite")
            setattr(self, f.name, f.type(val))
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        for name in ("eps_pri", "eps_dual", "eps_nt", "eps_p", "t0"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.mu <= 1:
            raise ValueError("mu must exceed 1")
        if not 0 < self.armijo_a < 0.5:
            raise ValueError("armijo_a must lie in (0, 0.5)")
        if not 0 < self.shrink_b < 1:
            raise ValueError("shrink_b must lie in (0, 1)")
        if self.max_backtracks < 0:
            raise ValueError("max_backtracks must be nonnegative")
        if self.admm_max_iter < 1:
            raise ValueError("admm_max_iter must be at least 1")
        if self.newton_max_iter < 0:
            raise ValueError("newton_max_iter must be nonnegative")
