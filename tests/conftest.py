import pytest

from jcsim.interferometer import _reference_mix


@pytest.fixture(autouse=True)
def cold_reference_store():
    """Start and leave every test with the Mach-Zehnder reference store empty.

    perfbench's tracer test pins two splitter spans under one
    ``mach_zehnder`` call, which holds only while its key is cold, so no
    test here may leave the store warm, and none sees another's entries.
    """
    _reference_mix.cache_clear()
    yield
    _reference_mix.cache_clear()
