import numpy as np
import pytest

from ncaudit import spacemac


@pytest.fixture(autouse=True)
def _fresh_mac_cache():
    spacemac._r_matrix.cache_clear()
    yield


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
