import numpy as np
import pytest
from hypothesis import settings

import simorx.chain
from simorx.phy.grid import GridConfig

# Property tests draw the same examples on every run, so there is no
# example database to keep, and no example has a deadline: on a shared
# two-core machine one slow example says nothing.
settings.register_profile("simorx", derandomize=True, deadline=None, database=None)
settings.load_profile("simorx")


@pytest.fixture
def desk_grid():
    return GridConfig(num_subcarriers=32, guard_lo=2, guard_hi=3)


@pytest.fixture
def tiny_grid():
    # Smallest grid that still has guards and pilots on both sides.
    return GridConfig(num_subcarriers=12, guard_lo=1, guard_hi=1)


@pytest.fixture
def seeded():
    """Factory for independent seeded generators: ``seeded(3)``."""
    return np.random.default_rng


@pytest.fixture
def blas_get():
    """The getter of OpenBLAS's thread count, with the count set to 2 (not 1,
    whatever an earlier run left behind) and put back afterwards."""
    blas = simorx.chain._openblas()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS thread setter is not available")
    get, set_ = blas
    outside = get()
    set_(2)
    yield get
    set_(outside)
