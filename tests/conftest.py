import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from _support import reference_params  # noqa: E402

from spring_platform import solve_equilibria


@pytest.fixture(scope="session")
def params_zero():
    return reference_params(l01=0.0)


@pytest.fixture(scope="session")
def params_one():
    return reference_params(l01=1.0)


@pytest.fixture(scope="session")
def solutions_zero(params_zero):
    return solve_equilibria(params_zero)


@pytest.fixture(scope="session")
def solutions_one(params_one):
    return solve_equilibria(params_one)
