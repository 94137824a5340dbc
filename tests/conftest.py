import os
from pathlib import Path

import numpy as np
import pytest

from gexlab.experiments import reference_set

# pyproject's `pythonpath` puts src/ on this process's import path; the tests
# that run `python -m gexlab` in a subprocess need it in the environment too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def ref_set():
    return reference_set()


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)
