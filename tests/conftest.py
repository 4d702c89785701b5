import numpy as np
import pytest
from hypothesis import settings

from simorx.phy.grid import GridConfig

# Property tests draw the same examples on every run, so there is no
# example database to keep, and no example has a deadline: on a shared
# two-core machine one slow example says nothing.
settings.register_profile("simorx", derandomize=True, deadline=None, database=None)
settings.load_profile("simorx")


@pytest.fixture
def desk_grid():
    return GridConfig(num_symbols=14, num_subcarriers=32, guard_lo=2, guard_hi=3)


@pytest.fixture
def tiny_grid():
    # Smallest grid that still has guards and pilots on both sides.
    return GridConfig(num_symbols=14, num_subcarriers=12, guard_lo=1, guard_hi=1)


@pytest.fixture
def seeded():
    """Factory for independent seeded generators: ``seeded(3)``."""
    return np.random.default_rng
