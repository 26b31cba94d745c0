import pytest

from jcsim.interferometer import _theta_coefficients


@pytest.fixture(autouse=True)
def cold_reference_store():
    """Start and leave every test with the Mach-Zehnder theta-polynomial store empty.

    perfbench's tracer test pins two splitter spans under one
    ``mach_zehnder`` call, which holds only while its key is cold, so no
    test here may leave the store warm, and none sees another's entries.
    """
    _theta_coefficients.cache_clear()
    yield
    _theta_coefficients.cache_clear()
