import pytest


@pytest.fixture(scope="module")
def nx():
    """networkx, the reference for tests that compare against it; they skip
    without it."""
    return pytest.importorskip("networkx")


@pytest.fixture(scope="module")
def optimize():
    """scipy.optimize, whose HiGHS `milp` is the reference model of a
    detach split; tests that use it skip without scipy."""
    return pytest.importorskip("scipy.optimize")
