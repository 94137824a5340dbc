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
# Shared products: each distinct probability multiplies the input once.  A
# probability that several atoms share is applied to the whole input and
# each of those atoms reads its shifted slice of that product (four atoms of
# probability 1/2 cost one multiply); a probability used by one atom is
# applied to that atom's slice only, in one scratch buffer (or, for a law's
# first atom, straight into the law's sum), so a family of distinct
# probabilities holds no more than one slice at a time.  Each law's sum is
# its first term plus its second in one add, then its other terms in atom
# order; a one-atom law whose probability is shared is copied as 0.0 + its
# term.  The first law writes straight into the output and every later law
# is merged with an in-place maximum.
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
# Rows and strips.  Each of the plan's two output rows sits `margin` =
# max(base, 0) slots into a row of input width, on a line: outs[t] is
# rows[t][margin : margin + n_out].  Output slot i thus lies where input
# slot i + base lies in a row read whole, so a sweep can hold its block:
# a held step reads rows[t ^ 1] entire, that is the last outputs plus
# `base` strip slots before them and reach - base after, and writes
# outs[t].  No step writes a strip, so the strips keep what _sweep put in
# both rows before its first held step, and the held sweep pays those
# values wherever the sum leaves the outputs' block; a slot keeps its index
# all sweep, so the first unheld step reads its block off the last row.
#
# Call lists per block.  A step's calls depend only on the family, on the
# rows they read and write, and on the number of outputs, yet slicing the
# plan's buffers anew at every length cost a third of a short step: over an
# n = 64 reference-family sweep (129 points down to 1) a step took 5.29 us
# sliced anew and 3.58 us with kept lists, both still ending with the add
# of 0.0 (3.15 us without it).  So a step's calls are built as one list
# over views of a fixed length, and the plan keeps one list per ping-pong
# direction, with what it read: the plan's last output, or the whole row
# around it (a held step).  A step reuses the list of its direction only
# when
# - it is handed back what that list read (the same row, from the same slot),
# - len(values) >= out_len + reach, and
# - the list's length, its block, is out_len .. out_len + _SLACK points;
# otherwise it builds a list at exactly out_len, as a sweep's first step
# and the no-plan form always do.  A held sweep's steps all have one
# length, so each direction reuses one list until the block shrinks.  A
# reused list computes `block` outputs, and slots [out_len, block) hold
# don't-care values.  No valid output reads one: output i < out_len reads
# inputs up to i + reach < out_len + reach <= len(values), all of them the
# previous step's valid outputs (or strips).  A list is
# kept only when its whole input span held valid values, so past
# len(values) it reads earlier outputs of the plan, strip values or the
# zeros dp_plan fills both rows with: no step reads uninitialised memory.
# On finite data a don't-care value is thus a probability-weighted sum of
# finite values like any other.  A list of a block near out_len wastes a
# few points of arithmetic per call and saves one Python slice per view.
# _SLACK was chosen by timing sweeps of one process over every candidate in
# turn (2-vCPU Xeon guest, NumPy 2.4, thread time, medians of 21 rounds):
# at n = 4096 and _SLACK = 0 / 32 / 64 / 128 / 256 / 512 the reference
# family took 78.1 / 61.1 / 58.9 / 57.6 / 59.0 / 57.8 ms and dp-scan's
# two-law, three-atom shape 151.3 / 125.9 / 122.0 / 118.9 / 118.5 /
# 116.3 ms; at n = 512 both stay flat from 64 to 512.  256 sits mid-plateau.
# With held sweeps only the shrinking tail (~radius / K steps) uses it, and
# it still pays (same host, medians of 15 rounds, _SLACK = 0 / 32 / 128 /
# 256 / 512): at n = 4096 the reference family took 21.9 / 19.9 / 19.5 /
# 19.4 / 19.5 ms and the dp-scan shape 42.2 / 39.7 / 39.5 / 38.8 / 39.3 ms;
# at n = 512, 2.75 / 2.09 / 2.00 / 1.99 / 1.95 and 4.44 / 3.53 / 3.40 /
# 3.37 / 3.42 ms.
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
# outs[turn][:out_len], a view that stays valid until the plan's
# next-but-one call (so it may be the next call's input); without one it
# returns a fresh 1-D array.
# ---------------------------------------------------------------------------


_SLACK = 256  # points a kept call list may compute beyond out_len


class _DpPlan:
    """Per-family constants, work buffers and call lists of ``dp_step``; see ``dp_plan``."""

    __slots__ = (
        "shared_p", "laws", "zero", "reach", "margin", "rows", "outs", "acc", "scratch", "shared", "turn", "last",
        "lists",
    )

    def __init__(self, shared_p, laws, reach, base, n_in, n_out):
        self.shared_p, self.laws, self.zero, self.reach = shared_p, laws, np.array(0.0), reach
        # each output row sits `margin` slots into a row of input width, on a line
        margin = self.margin = max(base, 0)
        width, pad = max(n_in, margin + n_out), -margin % _LINE
        rows = _aligned_rows(pad + width, pad + width, n_out, n_out, *[n_in] * len(shared_p))
        self.acc, self.scratch, self.shared = rows[2], rows[3], rows[4:]
        self.rows = [row[pad:] for row in rows[:2]]
        for row in self.rows:  # a kept call list reads its input row past the valid values
            row.fill(0.0)
        self.outs = [row[margin : margin + n_out] for row in self.rows]
        self.turn, self.last, self.lists = 0, None, [None, None]


def dp_plan(law_ptr, law_k, law_p, base, n_in, n_out):
    """Per-family constants, work buffers and call lists of ``dp_step``.

    ``shared_p`` holds one 0-d probability per distinct value that several
    atoms use; ``laws`` holds per law its first atom and the list of its
    other atoms, each atom as ``(start, slot, p)`` with ``slot`` the index
    into ``shared_p`` or -1 and ``p`` the atom's 0-d probability; ``zero``
    is a 0-d 0.0; ``reach`` is the largest start.  The buffers are sized
    when the plan is built, for one sweep: inputs of up to ``n_in`` and
    outputs of up to ``n_out`` points, both rows zero-filled, each output
    row ``outs[t]`` ``margin`` slots into its row ``rows[t]``.  The call
    lists are kept by the steps that reuse them.
    """
    probs = law_p.tolist()
    uses = Counter(probs)
    slot = {}
    for p, n in uses.items():
        if n > 1:
            slot[p] = len(slot)
    starts = [k + base for k in law_k.tolist()]
    atoms = [(s, slot.get(p, -1), np.array(p)) for s, p in zip(starts, probs)]
    ptr = law_ptr.tolist()
    laws = [(atoms[a], atoms[a + 1 : b]) for a, b in zip(ptr, ptr[1:])]
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
        if i < 0:
            calls.append((mul, values[s : s + n], p, target))
            total = target
        elif rest:
            total = shared[i][s : s + n]
        else:
            calls.append((add, shared[i][s : s + n], plan.zero, target))
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
    held = values is plan.rows[turn ^ 1]  # a held step reads the whole row around the last output
    handed_back = (held or values is plan.last) and len(values) >= out_len + plan.reach
    kept = plan.lists[turn]
    if handed_back and kept is not None and kept[2] == held and out_len <= kept[0] <= out_len + _SLACK:
        calls = kept[1]
    else:
        calls = _step_calls(plan, values, plan.outs[turn], out_len)
        if handed_back:
            plan.lists[turn] = (out_len, calls, held)
    for f, a, b, result in calls:
        if f is None:
            np.maximum(a, b, out=result)
        else:
            f(a, b, result)
    plan.last = plan.outs[turn][:out_len]
    return plan.last


def _sweep(laws, values, lo, n_steps, radius):
    """Apply the operator of ``laws`` ``n_steps`` times to ``values``, the block from index ``lo``.

    ``laws`` holds one ``(indices, probs)`` pair of int64 and float64
    arrays per law.  Each step, one ``dp_step`` call with the sweep's plan,
    keeps the largest block on which every law's shifted support stays
    inside the last one, and yields ``(outputs, lo, hi)`` for it; the last
    block is non-empty if ``hi - lo >= n_steps * (k_hi - k_lo)``.  The
    outputs live in the plan until the next step (read or copy them before
    resuming) and may hold -0.0 where the per-atom loop holds +0.0: add 0.0
    to what you read to get its bits.

    While the block is wider than ``[-radius, radius]`` (``k_lo <= 0 <=
    k_hi`` and a window inside the first block), a step holds its outputs
    there and the strips ``[k_lo - radius, -radius)`` and ``(radius,
    radius + k_hi]`` keep their first values (see "Rows and strips"), so
    the sweep computes the game stopped where the sum leaves the window.
    """
    ptr = np.cumsum([0] + [len(k) for k, _ in laws])
    ks = np.concatenate([k for k, _ in laws])
    ps = np.concatenate([p for _, p in laws])
    k_lo, k_hi = int(ks.min()), int(ks.max())
    hi = lo + len(values) - 1
    held = lo - k_lo < -radius or hi - k_hi > radius
    if held:
        values = values[k_lo - radius - lo : radius + k_hi - lo + 1]
    plan = dp_plan(ptr, ks, ps, -k_lo, len(values), len(values) - (k_hi - k_lo))
    if held:
        for row in plan.rows:
            row[: len(values)] = values
    for _ in range(n_steps):
        lo, hi = lo - k_lo, hi - k_hi
        if held and (lo < -radius or hi > radius):
            out = dp_step(plan.rows[plan.turn], ptr, ks, ps, -k_lo, 2 * radius + 1, plan=plan)
            if out is not plan.last:  # a stand-in for dp_step returned a fresh array
                plan.rows[plan.turn][plan.margin : plan.margin + len(out)] = out
            yield out, -radius, radius
            continue
        if held:  # the block now fits the window: read it off the held row
            values, held = plan.rows[plan.turn][radius + lo : radius + hi + k_hi - k_lo + 1], False
        values = dp_step(values, ptr, ks, ps, -k_lo, hi - lo + 1, plan=plan)
        yield values, lo, hi


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
# Then the update equals max(cu*d2, cd*d2), computed in place on two scratch
# buffers: 7 ufunc calls per step and no allocation.  The two forms differ
# only in the sign of a zero increment: max gives -0.0 where the two-max form
# gives +0.0 when cd*d2 rounds to zero for d2 < 0, which changes bits only at
# a node holding -0.0.
# With cd == 0 that happens for every d2 < 0 (negabs holds -0.0 at x = 0), so
# that case uses cu*(d2 - min(d2, 0)): the two-max form bit for bit, also
# when d2 overflows to -inf (NaN, so the march still fails there).
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
