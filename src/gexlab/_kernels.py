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
#
# Shared products: each distinct probability multiplies the input once.  A
# probability that several atoms share is applied to the whole input and
# each of those atoms reads its shifted slice of that product (four atoms of
# probability 1/2 cost one multiply); a probability used by one atom is
# applied to that atom's slice only, in one scratch buffer, so a family of
# distinct probabilities holds no more than one slice at a time.  Each law's
# sum is 0.0 + its first term plus its other terms in atom order; the first
# law writes straight into the output and every later law is merged with an
# in-place maximum.  This is the per-atom loop
#   acc = 0; acc += p_j * f[...]; out = max(out, acc)   (out = -inf at start)
# bit for bit:
# - a product computed once rounds like one computed per atom;
# - the additions run in the same order;
# - the leading 0.0 + turns a -0.0 first term into +0.0, as the zero-filled
#   accumulator did;
# - max(-inf, x) is x, NaN included;
# - +0.0 and -0.0 probabilities count as one (they compare equal) although
#   their products differ in the sign of a zero: the accumulator is never
#   -0.0 after its first term (x + y is -0.0 only if both are), so adding
#   either zero gives the same bits, and a zero times inf or NaN gives the
#   same NaN whatever the zero's sign.
# Precondition: at least one law, and every law has at least one atom.
# ---------------------------------------------------------------------------


def dp_step(values, law_ptr, law_k, law_p, base, out_len):
    probs = law_p.tolist()
    uses = {}
    for p in probs:
        uses[p] = uses.get(p, 0) + 1
    shared = {p: np.multiply(values, p) for p, n in uses.items() if n > 1}
    scratch = np.empty(out_len) if len(shared) < len(uses) else None
    starts = [k + base for k in law_k.tolist()]
    ptr = law_ptr.tolist()
    out = np.empty(out_len)
    acc = np.empty(out_len) if len(ptr) > 2 else None
    for l in range(len(ptr) - 1):
        target = acc if l else out
        for a in range(ptr[l], ptr[l + 1]):
            s, p = starts[a], probs[a]
            if p in shared:
                term = shared[p][s : s + out_len]
            else:
                term = np.multiply(values[s : s + out_len], p, out=scratch)
            if a == ptr[l]:
                np.add(term, 0.0, out=target)
            else:
                np.add(target, term, out=target)
        if l:
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
#
# Precondition: 0 <= cd <= cu (solve_g_heat has cd/cu = (sigma_lo/sigma_hi)^2
# and scales both alike for a remainder step).  Then the update equals
# max(cu*d2, cd*d2), computed in place on two scratch buffers: 7 ufunc calls
# per step and no allocation.  The two forms differ only in the sign of a
# zero increment: max gives -0.0 where the two-max form gives +0.0 when cd*d2
# rounds to zero for d2 < 0, which changes bits only at a node holding -0.0.
# With cd == 0 that happens for every d2 < 0 (negabs holds -0.0 at x = 0), so
# that case uses cu*(d2 - min(d2, 0)): the two-max form bit for bit, also
# when d2 overflows to -inf (NaN, so the march still fails there).
# ---------------------------------------------------------------------------


def _gheat_steps(u, cu, cd, n_steps, check_each_step):
    u = u.copy()
    left, mid, right = u[:-2], u[1:-1], u[2:]
    d2 = np.empty_like(mid)
    tmp = np.empty_like(mid)
    for step in range(n_steps):
        np.multiply(mid, 2.0, out=tmp)
        np.subtract(left, tmp, out=d2)
        np.add(d2, right, out=d2)
        if cd == 0.0:
            np.minimum(d2, 0.0, out=tmp)
            np.subtract(d2, tmp, out=d2)
            np.multiply(d2, cu, out=d2)
        else:
            np.multiply(d2, cu, out=tmp)
            np.multiply(d2, cd, out=d2)
            np.maximum(tmp, d2, out=d2)
        np.add(mid, d2, out=mid)
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
