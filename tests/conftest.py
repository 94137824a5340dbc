import os
from pathlib import Path

import numpy as np
import pytest

from gexlab import _kernels, fuzz, gheat, pengsum
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


@pytest.fixture
def no_compute(monkeypatch):
    """Make both kernels, the solvers' evaluation of phi and the fuzz suites' first draw fail
    the test; returns a phi that does too.

    ``pytest.fail`` raises past ``except Exception``, so the CLI cannot turn a
    call into an exit code.
    """

    def forbidden(*args):
        pytest.fail("a refused run must not compute")

    for module, name in (
        (_kernels, "dp_step"), (_kernels, "gheat_march"), (pengsum, "evaluate_on"), (gheat, "evaluate_on"),
        (fuzz, "random_ambiguity_set"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    return forbidden
