"""Solver configuration validation."""

import math

import pytest

from dipm.config import SolverConfig


@pytest.mark.parametrize("name", ["rho", "eps_pri", "eps_dual", "eps_nt", "t0", "mu",
                                  "eps_p", "armijo_a", "shrink_b"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_float_rejected(name, value):
    # NaN passes every range comparison, so it needs its own check
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SolverConfig(**{name: value})
