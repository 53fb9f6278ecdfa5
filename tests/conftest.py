import pytest

from permstat.equidist import verify_suite


@pytest.fixture(scope="session")
def verify_8():
    """verify_suite(8), run once for every test that reads it."""
    return verify_suite(8)
