"""Hot numeric kernels with a numba fast path and a pure-numpy fallback.

The backend is chosen once at import time from the ``GEXLAB_BACKEND``
environment variable: ``auto`` (default) uses numba when importable,
``numba`` requires it, ``numpy`` forces the fallback.  Both paths perform
the identical arithmetic per grid point, so results agree to rounding.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ConfigurationError

_ENV_VAR = "GEXLAB_BACKEND"

try:
    import numba

    _HAS_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    numba = None
    _HAS_NUMBA = False


def _selected_backend() -> str:
    choice = os.environ.get(_ENV_VAR, "auto").strip().lower()
    if choice in ("", "auto"):
        return "numba" if _HAS_NUMBA else "numpy"
    if choice == "numpy":
        return "numpy"
    if choice == "numba":
        if not _HAS_NUMBA:
            raise ConfigurationError(
                f"{_ENV_VAR}=numba but numba cannot be imported"
            )
        return "numba"
    raise ConfigurationError(
        f"{_ENV_VAR}={choice!r} not understood (use auto, numba, or numpy)"
    )


BACKEND = _selected_backend()


# ---------------------------------------------------------------------------
# One sweep of the lattice dynamic-programming operator.
#
# For output slot i the value is  max over laws of  sum_j p_j * f[i + base + k_j]
# where base aligns the shrunken output grid inside the input grid.
# ---------------------------------------------------------------------------


def dp_step_numpy(values, law_ptr, law_k, law_p, base, out_len):
    out = np.full(out_len, -np.inf)
    acc = np.empty(out_len)
    for l in range(law_ptr.shape[0] - 1):
        acc[:] = 0.0
        for a in range(law_ptr[l], law_ptr[l + 1]):
            start = base + law_k[a]
            acc += law_p[a] * values[start : start + out_len]
        np.maximum(out, acc, out=out)
    return out


# ---------------------------------------------------------------------------
# Explicit march of the variance-uncertainty heat equation.
#
# Per step, interior nodes receive  u_i += cu*max(d2,0) - cd*max(-d2,0)
# with d2 the raw centered second difference; cu/cd fold dt, dx^2 and the
# squared volatility bounds.  Boundary nodes are frozen (zero second
# difference).  Returns (bad_step, result): bad_step is the index of the
# first step that produced a non-finite value, or -1 on success.
# ---------------------------------------------------------------------------


def _gheat_steps_numpy(u, cu, cd, n_steps, check_each_step):
    u = u.copy()
    for step in range(n_steps):
        d2 = u[:-2] - 2.0 * u[1:-1] + u[2:]
        u[1:-1] += cu * np.maximum(d2, 0.0) - cd * np.maximum(-d2, 0.0)
        if check_each_step and not np.isfinite(u).all():
            return step, u
    return -1, u


def gheat_march_numpy(u, cu, cd, n_steps):
    # A non-finite node stays non-finite under this update: NaN passes
    # through np.maximum and an inf node turns NaN on the next step.  So one
    # check of the final profile decides success, and only a failed march is
    # repeated with the per-step check to find the first bad step.
    _, out = _gheat_steps_numpy(u, cu, cd, n_steps, check_each_step=False)
    if np.isfinite(out).all():
        return -1, out
    return _gheat_steps_numpy(u, cu, cd, n_steps, check_each_step=True)


if _HAS_NUMBA:

    @numba.njit(cache=True)
    def dp_step_numba(values, law_ptr, law_k, law_p, base, out_len):  # pragma: no cover - exercised via dispatch
        n_laws = law_ptr.shape[0] - 1
        out = np.empty(out_len)
        for i in range(out_len):
            best = -np.inf
            for l in range(n_laws):
                acc = 0.0
                for a in range(law_ptr[l], law_ptr[l + 1]):
                    acc += law_p[a] * values[i + base + law_k[a]]
                if acc > best:
                    best = acc
            out[i] = best
        return out

    @numba.njit(cache=True)
    def gheat_march_numba(u, cu, cd, n_steps):  # pragma: no cover - exercised via dispatch
        n = u.shape[0]
        cur = u.copy()
        nxt = u.copy()
        for step in range(n_steps):
            for i in range(1, n - 1):
                d2 = cur[i - 1] - 2.0 * cur[i] + cur[i + 1]
                if d2 > 0.0:
                    v = cur[i] + cu * d2
                else:
                    v = cur[i] + cd * d2
                if not np.isfinite(v):
                    return step, cur
                nxt[i] = v
            tmp = cur
            cur = nxt
            nxt = tmp
        return -1, cur

else:  # pragma: no cover - numba is a declared dependency
    dp_step_numba = None
    gheat_march_numba = None


if BACKEND == "numba":
    dp_step = dp_step_numba
    gheat_march = gheat_march_numba
else:
    dp_step = dp_step_numpy
    gheat_march = gheat_march_numpy


def warm_up() -> None:
    """Trigger JIT compilation of the active kernels on toy inputs."""
    values = np.array([0.0, 1.0, 4.0])
    ptr = np.array([0, 1], dtype=np.int64)
    ks = np.array([0], dtype=np.int64)
    ps = np.array([1.0])
    dp_step(values, ptr, ks, ps, 1, 1)
    gheat_march(np.zeros(5), 0.1, 0.1, 1)
