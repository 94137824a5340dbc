"""Hot numeric kernels in plain numpy.

One lattice sweep for the dynamic program and one explicit march for the
G-heat equation, each computed on whole array slices.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Calling convention of the hot loops.
#
# Both loops make many ufunc calls on short arrays (1 199 interior nodes in
# the march, often only tens of points late in a DP sweep), so the fixed
# cost of a call, not its arithmetic, sets the time.  Hence:
# - every scalar operand is a 0-d float64 array, built once per kernel call
#   (once per sweep for dp_step's plan); a Python float goes through NumPy's
#   weak-scalar conversion on every call.  On float64 inputs both select the
#   same float64 loop, so the bits do not change;
# - np.multiply, np.subtract and np.add are bound to locals and get `out`
#   positionally;
# - np.maximum and np.minimum keep `out=` as a keyword: NumPy 2.4 deprecates
#   a positional `out` there, and the warning it raises costs more per call
#   than the keyword does (pytest turns that warning into an error).
# Measured per np.multiply call (2-vCPU Xeon, NumPy 2.4, Python 3.11): on 21
# points ~425 ns with `np.multiply(a, 2.0, out=o)`, ~290-320 ns with a 0-d
# operand, ~240-250 ns with a local and a positional `out`; on 1 199 points
# ~580, ~435 and ~385 ns.  np.maximum on 1 199 points: ~550 ns with `out=`,
# ~920 ns with a positional `out` and its warning.
# ---------------------------------------------------------------------------


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
#
# dp_plan holds what depends on the family only: the distinct shared
# probabilities, each atom's start and the 0-d probabilities.  `plan` is
# optional: a sweep builds it once and passes it to every step, and without
# it dp_step builds its own, so the six positional arguments alone still
# work.  Either way dp_step returns a fresh 1-D array.
# ---------------------------------------------------------------------------


def dp_plan(law_ptr, law_k, law_p, base):
    """Per-family constants of ``dp_step``: ``(shared, laws, zero)``.

    ``shared`` holds one 0-d probability per distinct value that several
    atoms use; ``laws`` holds per law a list of ``(start, slot, p)`` per
    atom, with ``slot`` the index into ``shared`` or -1 and ``p`` the atom's
    0-d probability; ``zero`` is a 0-d 0.0.
    """
    probs = law_p.tolist()
    uses = {}
    for p in probs:
        uses[p] = uses.get(p, 0) + 1
    slot = {}
    for p, n in uses.items():
        if n > 1:
            slot[p] = len(slot)
    atoms = [(k + base, slot.get(p, -1), np.array(p)) for k, p in zip(law_k.tolist(), probs)]
    ptr = law_ptr.tolist()
    laws = [atoms[a:b] for a, b in zip(ptr, ptr[1:])]
    return [np.array(p) for p in slot], laws, np.array(0.0)


def dp_step(values, law_ptr, law_k, law_p, base, out_len, plan=None):
    shared_p, laws, zero = plan if plan is not None else dp_plan(law_ptr, law_k, law_p, base)
    mul, add = np.multiply, np.add
    shared = [mul(values, p) for p in shared_p]
    scratch = None
    out = np.empty(out_len)
    acc = np.empty(out_len) if len(laws) > 1 else None
    for l, atoms in enumerate(laws):
        target = acc if l else out
        for j, (s, i, p) in enumerate(atoms):
            if i >= 0:
                term = shared[i][s : s + out_len]
            else:
                # the first unshared product allocates the scratch buffer,
                # every later one reuses it
                term = scratch = mul(values[s : s + out_len], p, scratch)
            if j:
                add(target, term, target)
            else:
                add(term, zero, target)
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
    mul, sub, add = np.multiply, np.subtract, np.add
    two, zero = np.array(2.0), np.array(0.0)
    zero_cd = cd == 0.0
    cu, cd = np.array(cu, dtype=np.float64), np.array(cd, dtype=np.float64)
    for step in range(n_steps):
        mul(mid, two, tmp)
        sub(left, tmp, d2)
        add(d2, right, d2)
        if zero_cd:
            np.minimum(d2, zero, out=tmp)
            sub(d2, tmp, d2)
            mul(d2, cu, d2)
        else:
            mul(d2, cu, tmp)
            mul(d2, cd, d2)
            np.maximum(tmp, d2, out=d2)
        add(mid, d2, mid)
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
