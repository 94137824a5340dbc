"""Hot numeric kernels in plain numpy.

The dynamic program's lattice step and the sweep loop around it, one explicit
G-heat march, both on whole array slices, and the size and work limits.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .errors import SizeError

# ---------------------------------------------------------------------------
# Admission.  A run is refused before any compute if it needs more than
# MAX_GRID_POINTS points or an estimated steps * terms * (points +
# _STEP_COST) above MAX_WORK updates (terms: a sweep's atoms, the march's 1).
# _STEP_COST prices a step's fixed cost, which 1-point blocks and small grids
# do not amortise.  Measured (2-vCPU Xeon, NumPy 2.4): ~1-2 us per atom of a
# 1-point sweep step, ~5-8 us per 3-node march step; so fixed-cost steps
# alone stop within ~40 s at the limit, and a full march within a minute.
# ---------------------------------------------------------------------------

MAX_GRID_POINTS = 1 << 26
MAX_WORK = 2 * 10**10
_STEP_COST = 4096  # updates that one step's fixed cost is priced at


def _admit(what, points, steps, terms, remedy):
    """Raise SizeError unless ``steps`` steps of ``terms`` per point on ``points`` points fit.

    In floats, a count past 1e308 or NaN read as inf; ``steps`` = 0 checks the points alone.
    """
    points, steps, terms = (float(v) if v < 1e308 else math.inf for v in (points, steps, terms))
    work = steps * terms * (points + _STEP_COST)
    for need, limit, unit in ((points, MAX_GRID_POINTS, "points"), (work, MAX_WORK, "updates")):
        if not need <= limit:
            # the fewest digits, 3 or more, at which the need reads above the limit (17 show any float)
            d = next(n for n in range(3, 18) if float(f"{need:.{n}g}") > float(f"{limit:.{n}g}"))
            raise SizeError(f"{what} would need about {need:.{d}g} {unit} (limit {limit:.{d}g}); {remedy}")


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
#
# Buffer alignment.
#
# Every buffer the two kernels write starts on a 64-byte boundary.  NumPy
# dispatches 64-byte (AVX-512) loops where the CPU has them, and malloc
# hands out blocks aligned to 16 bytes only, so a fresh array starts at 0,
# 16, 32 or 48 mod 64 B depending on the heap's history; off 0, every
# vector load or store of it spans two cache lines.  _aligned_rows carves
# the buffers from one over-allocated block instead, so their offsets no
# longer move with unrelated code (or with the length of the directory a
# run starts from).  The march also puts u 8 bytes before a line, so the
# interior u[1:-1] it updates in place is aligned too.  Only where results
# live changes, never an operation or its order, so the bits do not.
# Measured (2-vCPU Sapphire Rapids guest, NumPy 2.4, thread time, medians
# of 14 alternations): the same code with its buffers at 0 against 16 mod
# 64 B took ~130 against ~149 ms for a 2-law, 3-atom sweep over n = 4096,
# and ~115 against ~129 ms for 25 000 steps of the 1 201-node march.  End
# to end (gexbench, 10 alternating pairs against fresh malloc'd buffers):
# dp-scan ops_per_s 7.99 -> 8.81, pde-solve op_s_p50 0.138 -> 0.137 s.
# ---------------------------------------------------------------------------


_LINE = 8  # float64 elements per 64-byte cache line


def _aligned_rows(*sizes):
    """One uninitialised float64 array per size, each on a 64-byte boundary.

    The rows are carved from one block, a whole number of lines apart, so
    one allocation and one address lookup serve them all.
    """
    starts = [0]
    for n in sizes:
        starts.append(starts[-1] + -(-n // _LINE) * _LINE)
    block = np.empty(starts[-1] + _LINE)
    skip = -block.ctypes.data % 64 // 8
    return [block[skip + a : skip + a + n] for a, n in zip(starts, sizes)]


# ---------------------------------------------------------------------------
# One sweep of the lattice dynamic-programming operator.
#
# For output slot i the value is  max over laws of  sum_j p_j * f[i + base + k_j]
# where base aligns the shrunken output grid inside the input grid, so
# output i reads the inputs i .. i + reach, with reach = base + max_j k_j.
#
# Shared products: a probability that several atoms of laws with two or
# more atoms use is applied to the whole input once, and each of those atoms
# reads its shifted slice of that product (four atoms of probability 1/2
# cost one multiply).  Every other atom's probability is applied to that
# atom's slice only, in one scratch buffer or, for a law's first atom,
# straight into the law's sum, so a family of distinct probabilities holds
# no more than one slice at a time, and a one-atom law's term is its own
# multiply into its sum.  Each law's sum is its first term plus its second
# in one add, then its other terms in atom order.  The first law writes
# straight into the output and every later law is merged with an in-place
# maximum.
#
# Zero signs.  The result equals the per-atom loop
#   acc = 0; acc += p_j * f[...]; out = max(out, acc)   (out = -inf at start)
# elementwise, NaN where the loop has NaN, but a zero may carry either sign;
# x + 0.0 of it gives the loop's bits:
# - a product computed once rounds like one computed per atom;
# - the additions run in the same order;
# - the loop's leading 0 + is dropped, and in round-to-nearest x + y is -0.0
#   only if both are, so a sum differs from the loop's only where all its
#   terms are zeros: -0.0 here, +0.0 there;
# - max(-inf, x) is x, NaN included;
# - +0.0 and -0.0 probabilities count as one (they compare equal) although
#   their products differ in the sign of a zero, and a zero times inf or NaN
#   gives the same NaN whatever the zero's sign.
# Values that differ only in the sign of a zero stay so through every later
# product, sum and maximum (a zero added to a non-zero x gives x, and the
# maximum picks the same value or one of two zeros), so a whole sweep keeps
# this contract, and one + 0.0 where a value is read (sum_expectations, at
# the origin) restores the loop's bits.  An add(out, 0.0, out) ending every
# step would cost two of the reference family's 13 array streams per step,
# for zeros that nothing reads before the origin.
#
# Rows and strips.  The outputs of each of the plan's two rows of input
# width start `margin` = max(base, 0) slots into it, on a line: output slot
# i of row t is rows[t][margin + i].  _sweep passes base = -min(k_lo, 0) >= 0
# and fills both rows with phi's block cut to its first window [-R, R] and
# the strips [min(k_lo, 0) - R, -R) and (R, R + max(k_hi, 0)], so output
# slot i lies where input slot i + base lies, a point keeps its slot all
# sweep, and every step reads rows[t ^ 1] entire: the last outputs and the
# strips around them.  No step writes a strip, so the strips keep the
# values they had when the window's stage began (phi's in the first
# stage), which the sweep pays wherever the sum leaves the window.  The
# window narrows with plan.narrow(d, cut): both rows, and so their
# outputs, move d slots inward at each end.  A stage's radius cuts the
# game: d is a whole number of lines, so the outputs stay on lines; the
# call lists, which read the old views, go; and the row last written,
# whose slots just outside the new outputs become its strips, is copied
# into the other row, so the steps of either direction read the same
# strips.  The origin's cone (N - m) K cuts nothing the origin reads, so
# it moves the views only.
#
# Call lists per window.  A step's calls depend only on the family, on the
# rows they read and write, and on the number of outputs, yet slicing the
# plan's buffers anew at every length costs a Python slice per view: a
# step of an n = 64 reference-family sweep took 11-13 us sliced anew and
# 5.5-7 us with kept lists (2-vCPU Xeon guest, NumPy 2.4, thread time).  So a
# step's calls are built as one list over views of a fixed length, and the
# plan keeps one list per ping-pong direction, for steps that read its
# whole row.  Such a step reuses its direction's list while the list's
# length, its window's outputs, is out_len .. out_len + _SLACK points;
# otherwise it builds a list at exactly out_len, as a step handed any
# other array and the no-plan form always do.  A stage's steps all have
# one length, so each direction reuses one list per stage.  Narrowing to
# the cone keeps the lists: a kept list still writes its own wider window
# at the same slots, the new outputs among them, and reads the rows it was
# built on, around them.  The slots outside the new outputs hold
# don't-care values, which no output of the cone reads (each reads only
# the last step's outputs) and which are read from earlier outputs, strip
# values or the zeros dp_plan fills both rows with: no step reads
# uninitialised memory, and on finite data a don't-care value is a
# probability-weighted sum of finite values like any other.  A list of a
# window near out_len wastes a few points of arithmetic per call and saves
# one Python slice per view.  _SLACK was chosen by timing sweeps of one
# process over every candidate in turn, when shrinking blocks did what the
# cone does now, losing 2K outputs a step; sweeps use it only while the
# window follows the cone (~radius / K steps), and it still paid (2-vCPU Xeon
# guest, NumPy 2.4, thread time, medians of 15 rounds, _SLACK = 0 / 32 /
# 128 / 256 / 512): at n = 4096 the reference family took 21.9 / 19.9 /
# 19.5 / 19.4 / 19.5 ms and the dp-scan shape 42.2 / 39.7 / 39.5 / 38.8 /
# 39.3 ms; at n = 512, 2.75 / 2.09 / 2.00 / 1.99 / 1.95 and 4.44 / 3.53 /
# 3.40 / 3.37 / 3.42 ms.
# Precondition: at least one law, every law has at least one atom, and
# every atom's start base + k_j is >= 0.
#
# dp_plan holds what depends on the family only, and the work buffers:
# two rows used in turn, the law accumulator, the unshared-product scratch
# and one product per shared probability, sized for one sweep, whose first
# step is its largest; a step with more outputs raises ValueError.  `plan`
# is optional: _sweep builds it once and passes it to every step, and
# without it dp_step builds its own, so the six positional arguments alone
# still work.  Result lifetime: with a plan, dp_step returns exactly
# rows[turn][margin : margin + out_len], a view that stays valid until
# the plan's next-but-one call (so it may be the next call's input);
# without one it returns a fresh 1-D array.
# ---------------------------------------------------------------------------


_SLACK = 256  # points a kept call list may compute beyond out_len


class _DpPlan:
    """Per-family constants, work buffers and call lists of ``dp_step``; see ``dp_plan``."""

    __slots__ = (
        "shared_p", "laws", "reach", "margin", "rows", "acc", "scratch", "shared", "turn", "lists",
    )

    def __init__(self, shared_p, laws, reach, base, n_in, n_out):
        self.shared_p, self.laws, self.reach = shared_p, laws, reach
        # a row's outputs start `margin` slots into it, on a line
        margin = self.margin = max(base, 0)
        width, pad = max(n_in, margin + n_out), -margin % _LINE
        rows = _aligned_rows(pad + width, pad + width, n_out, n_out, *[n_in] * len(shared_p))
        self.acc, self.scratch, self.shared = rows[2], rows[3], rows[4:]
        self.rows = [row[pad:] for row in rows[:2]]
        for row in self.rows:  # a kept call list reads its input row past the valid values
            row.fill(0.0)
        self.turn, self.lists = 0, [None, None]

    def narrow(self, d, cut):
        """Move both rows, and so their outputs, ``d`` > 0 slots inward at each end.

        A ``cut`` (a stage's radius) drops the call lists, which read the
        old views, and copies the row last written into the other, so both
        hold its strips; the origin's cone keeps both (see "Rows and strips").
        """
        a, b = self.rows
        self.rows = [a[d:-d], b[d:-d]]
        if cut:
            self.lists = [None, None]
            self.rows[self.turn ^ 1][:] = self.rows[self.turn]


def dp_plan(law_ptr, law_k, law_p, base, n_in, n_out):
    """Per-family constants, work buffers and call lists of ``dp_step``.

    ``shared_p`` holds one 0-d probability per distinct value that several
    atoms of laws with two or more atoms use; ``laws`` holds per law its
    first atom and the list of its other atoms, each atom as ``(start,
    slot, p)`` with ``slot`` the index into ``shared_p`` or -1 and ``p`` the
    atom's 0-d probability (a one-atom law multiplies its own term, whatever
    its slot); ``reach`` is the largest start.  The buffers are sized
    when the plan is built, for one sweep: inputs of up to ``n_in`` and
    outputs of up to ``n_out`` points, both rows zero-filled, the outputs
    of ``rows[t]`` from its slot ``margin``.  The call lists are kept by
    the steps that reuse them.
    """
    probs = law_p.tolist()
    ptr = law_ptr.tolist()
    spans = list(zip(ptr, ptr[1:]))
    uses = Counter(p for a, b in spans if b - a > 1 for p in probs[a:b])
    slot = {}
    for p, n in uses.items():
        if n > 1:
            slot[p] = len(slot)
    starts = [k + base for k in law_k.tolist()]
    atoms = [(s, slot.get(p, -1), np.array(p)) for s, p in zip(starts, probs)]
    laws = [(atoms[a], atoms[a + 1 : b]) for a, b in spans]
    return _DpPlan([np.array(p) for p in slot], laws, max(starts), base, n_in, n_out)


def _step_calls(plan, values, out, n):
    """The ufunc calls of a step writing ``n`` outputs into ``out`` from ``values``.

    Each call is ``(ufunc, a, b, result)`` over views fixed at this length;
    ``None`` in place of the ufunc marks the in-place ``np.maximum``, whose
    ``out`` must be a keyword.  Shared products cover the ``n + reach``
    inputs the outputs read, or all of ``values`` if it is shorter.
    """
    if n > len(plan.acc):
        raise ValueError(f"a step of {n} outputs exceeds its plan's {len(plan.acc)}")
    mul, add = np.multiply, np.add
    m = min(len(values), n + plan.reach)
    shared = [buf[:m] for buf in plan.shared]
    calls = [(mul, values[:m], p, buf) for p, buf in zip(plan.shared_p, shared)]
    out, acc, scratch = out[:n], plan.acc[:n], plan.scratch[:n]
    for l, ((s, i, p), rest) in enumerate(plan.laws):
        target = acc if l else out
        if i < 0 or not rest:
            calls.append((mul, values[s : s + n], p, target))
            total = target
        else:
            total = shared[i][s : s + n]
        for s, i, p in rest:
            if i < 0:
                calls.append((mul, values[s : s + n], p, scratch))
            calls.append((add, total, shared[i][s : s + n] if i >= 0 else scratch, target))
            total = target
        if l:
            calls.append((None, out, acc, out))
    return calls


def dp_step(values, law_ptr, law_k, law_p, base, out_len, plan=None):
    if plan is None:
        plan = dp_plan(law_ptr, law_k, law_p, base, len(values), out_len)
    turn = plan.turn = plan.turn ^ 1
    held = values is plan.rows[turn ^ 1]  # the whole row the last step wrote
    kept = plan.lists[turn]
    if held and kept is not None and out_len <= kept[0] <= out_len + _SLACK:
        calls = kept[1]
    else:
        calls = _step_calls(plan, values, plan.rows[turn][plan.margin :], out_len)
        if held:
            plan.lists[turn] = (out_len, calls)
    for f, a, b, result in calls:
        if f is None:
            np.maximum(a, b, out=result)
        else:
            f(a, b, result)
    return plan.rows[turn][plan.margin : plan.margin + out_len]


def _sweep(laws, values, lo, n_steps, stages):
    """Apply the operator of ``laws`` ``n_steps`` times to ``values``, the block from index ``lo``.

    ``laws`` holds one ``(indices, probs)`` pair of int64 and float64
    arrays per law, and ``values`` holds at least ``[-n_steps K,
    n_steps K]``, K the largest absolute atom index.  Step m, one
    ``dp_step`` call with the sweep's plan, writes its outputs at the
    window ``[-R, R]`` and yields them, the origin at their centre: R is
    the least of its stage's radius and the origin's cone ``(n_steps - m)
    K``, outside which no point reaches the origin in the steps left.

    ``stages`` is the window's schedule: ``(first step, radius)`` per
    stage, the first at step 1 and at most ``(n_steps - 1) K``, each later
    radius below the last by a whole number of cache lines.  The strips
    ``[min(k_lo, 0) - R, -R)`` and ``(R, R + max(k_hi, 0)]`` keep the
    values they had when the stage began, phi's in the first (see "Rows
    and strips"), so the sweep computes the game stopped where the sum
    leaves its stage's window.  A stage no narrower than the window is
    skipped, and the cone stops nothing the origin reads.  The outputs
    live in the plan until the next step (read or copy them before
    resuming) and may hold -0.0 where the per-atom loop holds +0.0: add
    0.0 to what you read to get its bits.
    """
    ptr = np.cumsum([0] + [len(k) for k, _ in laws])
    ks = np.concatenate([k for k, _ in laws])
    ps = np.concatenate([p for _, p in laws])
    k_lo, k_hi = int(ks.min()), int(ks.max())
    K, base = max(-k_lo, k_hi), max(-k_lo, 0)
    radius = stages[0][1]
    later = dict(stages[1:])
    # slot j of both rows holds point j - base - radius of the first block
    first = values[-base - radius - lo :][: base + 2 * radius + 1 + max(k_hi, 0)]
    plan = dp_plan(ptr, ks, ps, base, len(first), 2 * radius + 1)
    for row in plan.rows:
        row[: len(first)] = first
    for m in range(1, n_steps + 1):
        cone = (n_steps - m) * K
        window = min(later.get(m, radius), cone)
        if window < radius:  # only a stage's radius below the cone cuts the game
            plan.narrow(radius - window, window < cone)
            radius = window
        row = plan.rows[plan.turn]
        out = dp_step(row, ptr, ks, ps, base, 2 * radius + 1, plan=plan)
        if out.base is not row.base:  # a stand-in for dp_step returned an array of its own
            row[base : base + len(out)] = out
        yield out


# ---------------------------------------------------------------------------
# Explicit march of the variance-uncertainty heat equation.
#
# Per step, interior nodes receive  u_i += cu*max(d2,0) - cd*max(-d2,0)
# with d2 the raw centered second difference; cu/cd fold dt, dx^2 and the
# squared volatility bounds.  Boundary nodes are frozen (zero second
# difference).  Returns (bad_step, result): bad_step is the index of the
# first step that produced a non-finite value, or -1 on success.
#
# Precondition: 0 <= cd <= cu (solve_g_heat has cd/cu = (sigma_lo/sigma_hi)^2).
# Then the update equals max(cu*d2, cd*d2), computed in place for every band
# on two scratch buffers: 7 ufunc calls per step and no allocation.  Where
# cd*d2 rounds to zero for d2 < 0 (every d2 < 0 when cd == 0), max gives
# -0.0 and the two-max form +0.0, so a node holding -0.0 (negabs at x = 0)
# keeps it where that form makes +0.0; PdeSolution.value_at adds 0.0 where
# it reads, as sum_expectations does at the origin.  With cd == 0 a d2
# overflowed to -inf gives 0 * -inf = NaN, so the march still fails there.
# ---------------------------------------------------------------------------


def _march_rows(n):
    """``u``, ``d2`` and ``tmp`` of an n-node march, from one aligned block.

    ``u`` starts 8 bytes before a cache line, so its interior ``u[1:-1]``,
    like ``d2`` and ``tmp``, starts on one.
    """
    head, d2, tmp = _aligned_rows(n + _LINE - 1, n - 2, n - 2)
    return head[_LINE - 1 :], d2, tmp


def _gheat_steps(u0, cu, cd, n_steps, check_each_step):
    u, d2, tmp = _march_rows(len(u0))
    u[:] = u0
    left, mid, right = u[:-2], u[1:-1], u[2:]
    mul, sub, add = np.multiply, np.subtract, np.add
    two = np.array(2.0)
    cu, cd = np.array(cu, dtype=np.float64), np.array(cd, dtype=np.float64)
    for step in range(n_steps):
        mul(mid, two, tmp)
        sub(left, tmp, d2)
        add(d2, right, d2)
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
