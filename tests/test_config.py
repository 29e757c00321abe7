"""Solver configuration validation."""

import math

import numpy as np
import pytest

from dipm.config import SolverConfig


@pytest.mark.parametrize("name", ["rho", "eps_pri", "eps_dual", "eps_nt", "t0", "mu",
                                  "eps_p", "armijo_a", "shrink_b"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_float_rejected(name, value):
    # NaN passes every range comparison, so it needs its own check
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SolverConfig(**{name: value})


@pytest.mark.parametrize("name, value", [
    ("admm_max_iter", 2.5),
    ("newton_max_iter", 3.0),
    ("max_backtracks", True),
    ("rho", True),
    ("eps_nt", "1e-8"),
    ("warm_start", "yes"),
    ("warm_start", 1),
    ("accept_unconverged_direction", 0),
])
def test_mistyped_setting_rejected(name, value):
    # bool is an int to isinstance, so it needs its own test
    with pytest.raises(TypeError, match=f"{name} must be"):
        SolverConfig(**{name: value})


def test_integral_values_accepted_where_numbers_are_wanted():
    # a problem file's "rho": 2 is a JSON integer
    config = SolverConfig(rho=2, t0=np.int64(3), admm_max_iter=np.int64(7),
                          eps_p=np.float32(1e-3))
    assert (config.rho, config.t0, config.admm_max_iter) == (2, 3, 7)
