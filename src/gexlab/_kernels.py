"""Hot numeric kernels in plain numpy.

One lattice sweep for the dynamic program and one explicit march for the
G-heat equation, each computed on whole array slices.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# One sweep of the lattice dynamic-programming operator.
#
# For output slot i the value is  max over laws of  sum_j p_j * f[i + base + k_j]
# where base aligns the shrunken output grid inside the input grid.
# ---------------------------------------------------------------------------


def dp_step(values, law_ptr, law_k, law_p, base, out_len):
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


def _gheat_steps(u, cu, cd, n_steps, check_each_step):
    u = u.copy()
    for step in range(n_steps):
        d2 = u[:-2] - 2.0 * u[1:-1] + u[2:]
        u[1:-1] += cu * np.maximum(d2, 0.0) - cd * np.maximum(-d2, 0.0)
        if check_each_step and not np.isfinite(u).all():
            return step, u
    return -1, u


def gheat_march(u, cu, cd, n_steps):
    # A non-finite node stays non-finite under this update: NaN passes
    # through np.maximum and an inf node turns NaN on the next step.  So one
    # check of the final profile decides success, and only a failed march is
    # repeated with the per-step check to find the first bad step.
    _, out = _gheat_steps(u, cu, cd, n_steps, check_each_step=False)
    if np.isfinite(out).all():
        return -1, out
    return _gheat_steps(u, cu, cd, n_steps, check_each_step=True)
