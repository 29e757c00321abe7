"""Solver configuration validation."""

import math
from dataclasses import fields

import numpy as np
import pytest

from dipm.cli import emit_problem, parse_problem
from dipm.config import SolverConfig
from dipm.generator import random_qp


@pytest.mark.parametrize("name", ["rho", "eps_pri", "eps_dual", "eps_nt", "t0", "mu",
                                  "eps_p", "armijo_a", "shrink_b"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_float_rejected(name, value):
    # NaN passes every range comparison, so it needs its own check
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SolverConfig(**{name: value})


# every range check of __post_init__: a value just outside the bound, the
# message naming the field and its bound, and the value on the bound's
# other side, which passes
RANGES = [
    ("rho", 0.0, "rho must be positive", 1e-12),
    ("eps_pri", 0.0, "eps_pri must be positive", 1e-300),
    ("eps_dual", -1.0, "eps_dual must be positive", 1e-300),
    ("eps_nt", 0.0, "eps_nt must be positive", 1e-300),
    ("eps_p", 0.0, "eps_p must be positive", 1e-300),
    ("t0", 0.0, "t0 must be positive", 1e-300),
    ("mu", 1.0, "mu must exceed 1", 1.0 + 2**-52),
    ("armijo_a", 0.0, r"armijo_a must lie in \(0, 0.5\)", 1e-300),
    ("armijo_a", 0.5, r"armijo_a must lie in \(0, 0.5\)", 0.5 - 2**-53),
    ("shrink_b", 0.0, r"shrink_b must lie in \(0, 1\)", 1e-300),
    ("shrink_b", 1.0, r"shrink_b must lie in \(0, 1\)", 1.0 - 2**-53),
    ("max_backtracks", -1, "max_backtracks must be nonnegative", 0),
    ("admm_max_iter", 0, "admm_max_iter must be at least 1", 1),
    ("newton_max_iter", -1, "newton_max_iter must be nonnegative", 0),
]


@pytest.mark.parametrize("name, bad, message, good", RANGES,
                         ids=[f"{name}={bad}" for name, bad, *_ in RANGES])
def test_out_of_range_setting_is_named_with_its_bound(name, bad, message, good):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SolverConfig(**{name: bad})
    assert getattr(SolverConfig(**{name: good}), name) == good


def test_every_range_check_is_exercised():
    # a new numeric setting needs a row above
    numeric = {f.name for f in fields(SolverConfig) if f.type is not bool}
    assert {name for name, *_ in RANGES} == numeric


@pytest.mark.parametrize("name, value", [
    ("admm_max_iter", 2.5),
    ("newton_max_iter", 3.0),
    ("max_backtracks", True),
    ("rho", True),
    ("eps_nt", "1e-8"),
    ("warm_start", "yes"),
    ("warm_start", 1),
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


@pytest.mark.parametrize("name, value", [
    ("admm_max_iter", np.int64(7)),
    ("newton_max_iter", np.int32(50)),
    ("rho", np.float32(0.5)),
    ("t0", np.int64(2)),
])
def test_numpy_scalar_setting_round_trips_through_a_problem_file(name, value, tmp_path):
    # validation accepts numpy scalars; the record keeps the built-in type,
    # so the solver section serializes as JSON and reads back equal
    problem, x0 = random_qp(0, n_agents=2, block_size=2, overlap=1)
    config = SolverConfig(**{name: value})
    kind = next(f.type for f in fields(SolverConfig) if f.name == name)
    assert type(getattr(config, name)) is kind
    path = tmp_path / "p.json"
    path.write_text(emit_problem(problem, x0, config))
    _, parsed, _ = parse_problem(str(path))
    assert parsed == config


def test_rejected_type_is_named_with_its_module():
    # numpy's bool scalar is called "bool" too
    with pytest.raises(TypeError, match="warm_start must be bool, not numpy.bool"):
        SolverConfig(warm_start=np.bool_(True))
