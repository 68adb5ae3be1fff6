"""Shared fixtures: the expensive reference solves are session-scoped so
unit tests and acceptance criteria reuse them instead of re-integrating."""

import pytest

from blowup_lab.pde import solve_to_blowup
from run_defaults import model_params


@pytest.fixture(scope="session")
def solve_fine():
    """Reference solve at alpha=1, epsilon=0.001 (the singularity-track and
    profile parameter point)."""
    params = model_params(1.0, 0.001)
    return params, solve_to_blowup(params)


@pytest.fixture(scope="session")
def solve_mid():
    """Reference solve at alpha=1, epsilon=0.01 (the coefficient-decay
    parameter point)."""
    params = model_params(1.0, 0.01)
    return params, solve_to_blowup(params)


@pytest.fixture(scope="session")
def solve_small():
    """Reference solve at alpha=0.25, epsilon=0.1 (the continuation
    parameter point)."""
    params = model_params(0.25, 0.1)
    return params, solve_to_blowup(params)
