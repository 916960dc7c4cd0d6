import pytest


@pytest.fixture(scope="module")
def nx():
    """networkx, the reference for tests that compare against it; they skip
    without it."""
    return pytest.importorskip("networkx")
