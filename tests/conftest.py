import numpy as np
import pytest

from pwlab.geometry import BUILTIN_BODIES


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def disc():
    return BUILTIN_BODIES["ball2"]()


@pytest.fixture
def unit_square():
    return BUILTIN_BODIES["square"]()


@pytest.fixture
def right_triangle():
    return BUILTIN_BODIES["triangle"]()


@pytest.fixture
def shifted_pyramid():
    return BUILTIN_BODIES["pyramid"]()
