import numpy as np
import pytest

from gexlab.experiments import reference_set


@pytest.fixture
def ref_set():
    return reference_set()


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)
