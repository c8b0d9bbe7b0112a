import pytest

from sfpr.analytics import cp_ratio_sweep


@pytest.fixture(scope="session")
def cp_sweep_1e5():
    """cp_ratio_sweep(100_000), computed once for the tests that read it."""
    return cp_ratio_sweep(100_000)
