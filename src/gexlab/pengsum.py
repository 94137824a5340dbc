"""Exact dynamic programming for sums of lattice variables under ambiguity.

The n-fold upper expectation of phi(S_n) is computed by backward induction:
one application of the one-step operator per summand, on the integer lattice,
held at a window, narrowing in stages, that moves no exact value by more than
2^-60 of max|phi|; the rest of the error is the arithmetic's rounding.  A
brute-force oracle enumerates every adapted law-choice strategy for
cross-checks.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from .ambiguity import AmbiguitySet, _lower, _upper, evaluate_on, indicator_of
from .errors import CapacityError, ValidationError

STRATEGY_CEILING = 10**6
INDEPENDENCE_TOL = 1e-12


def _check_n(n, what: str = "n", low: int = 1) -> int:
    """``n`` as an int, refusing non-integral, non-finite, boolean or too small values.

    ``int(n)`` alone would truncate 2.7 to 2 and answer for the wrong n.
    ``what`` names the quantity in the message and ``low`` is the least
    value accepted.
    """
    try:
        whole = int(n)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != n or isinstance(n, (bool, np.bool_)):
        raise ValidationError(f"need a whole number {what}, got {n!r}")
    if whole < low:
        raise ValidationError(f"need {what} >= {low}, got {whole}")
    return whole


_HOLD_TOL = 2.0**-60  # how far a held sweep may move a value, as a share of max|phi| on the block
_STAGE = 64  # a held window narrows by whole multiples of this many slots (8 cache lines)


def _hold_stages(aset: AmbiguitySet, n: int):
    """The window a sweep of ``n`` steps holds, as ``(J, stages)``.

    ``stages`` lists ``(first step, radius)`` per stage, from step 1 and
    with falling radii; ``J >= len(stages)``.

    Under any adapted choice of laws, the sum less its laws' means is a
    martingale whose steps each lie in a range of width ``k_hi - k_lo <=
    2K``, and the means add at most ``t * drift`` in t steps.  By the
    Azuma-Hoeffding maximal inequality the sum leaves ``[-rho(t), rho(t)]``
    within its first t steps with chance at most ``2 exp(-L) = _HOLD_TOL /
    (2J)``, where ``rho(t) = ceil(K sqrt(2 t L) + t * drift) + 1`` and ``L =
    ln(4J / _HOLD_TOL)``.  Step m writes states the sum reaches in n - m
    steps off states it reaches in t = n - m + 1, so a stage whose radius
    is at least rho(t) at its first step covers all its steps.  The held
    game differs from the full one only where the sum leaves a stage's
    window during that stage, and there by at most phi's oscillation ``osc
    <= 2 max|phi|``, so over the J stages the value moves by at most ``tol
    = _HOLD_TOL * max|phi|``, for every phi.

    The first radius is ``rho(n)``.  At the first step whose rho(t) is
    ``_STAGE`` or more below the radius, the radius falls by whole
    multiples of ``_STAGE`` to the least one still at least rho(t).  The
    list ends at the origin's cone ``(n - m) K``, outside which no point
    reaches the origin in the steps left: before the first stage whose
    radius is no narrower than the cone at its first step, or whose
    predecessor's is no narrower than the cone at the step before.  So
    every stage cuts the game, the first below the block and each later
    one below the window of the step before, and J, which starts at 1 and
    takes the count of stages until it covers them, counts cuts only.
    Without a window (the first must lie inside the first block with room
    for its strips, and the atoms must take both signs), the one stage is
    the cone ``(n - 1) K``, which cuts nothing.
    """
    K, k_lo, k_hi = int(np.abs(aset.indices).max()), int(aset.indices[0]), int(aset.indices[-1])
    drift = max(abs(float(law.probs @ law.indices)) for law in aset.laws)
    J = 1
    while True:
        L = math.log(4.0 * J / _HOLD_TOL)

        def rho(t):
            return math.ceil(K * math.sqrt(2.0 * t * L) + t * drift) + 1

        if not (k_lo <= 0 <= k_hi and rho(n) <= n * K - K):
            return J, [(1, n * K - K)]
        stages = [(1, rho(n))]
        while True:
            radius = stages[-1][1]
            # the largest t in 1 .. n - 1 with rho(t) <= radius - _STAGE (rho rises with t), or 0
            t = bisect.bisect_right(range(1, n), radius - _STAGE, key=rho)
            step, narrower = n - t + 1, radius - (radius - rho(t)) // _STAGE * _STAGE
            # a cut lies below the window of the step before and below the cone at its first step
            if t < 1 or (n - step + 1) * K <= radius or (n - step) * K <= narrower:
                break
            stages.append((step, narrower))
        if len(stages) <= J:
            return J, stages
        J = len(stages)


def _admit_sweep(aset: AmbiguitySet, n: int) -> tuple[int, list[tuple[int, int]]]:
    """Refuse, by ``_kernels``' rule, phi's block ``[-n*K, n*K]`` or a sweep of ``n`` steps.

    The sweep is priced at its widest window, the first stage's; returns K
    and the window's schedule, ``_hold_stages``' stages.
    """
    K = int(np.abs(aset.indices).max())
    atoms = sum(law.indices.size for law in aset.laws)
    remedy = "reduce n or the atom span"
    _kernels._admit("lattice sweep", 2 * n * K + 1, 0, atoms, remedy)
    stages = _hold_stages(aset, n)[1]
    _kernels._admit("lattice sweep", 2 * stages[0][1] + 1, n, atoms, remedy)
    return K, stages


def sum_expectations(aset: AmbiguitySet, ns: Sequence[int], phi: Callable) -> list[float]:
    """Upper expectations of ``phi(S_n)`` for every n in ``ns``, in order.

    ``W_m = T^m phi`` is the same for every n >= m, so one backward sweep,
    ``_kernels._sweep``, from the block ``[-N*K, N*K]`` (N the largest n, K
    the largest absolute atom index) passes every n on its way and reads
    ``W_n`` at the origin.  It holds the window of ``_hold_stages``, set
    by N, narrowing in stages and to the origin's cone as the sweep nears
    the origin's time and priced by admission at its widest, so in exact
    arithmetic each entry is within ``tol = _HOLD_TOL * max|phi|`` (on the
    block) of the whole block's value, and so of ``sum_expectation(aset,
    n, phi)``'s.  Tests pin that the floats are the same bits as the whole
    block's on the catalog's shapes and the benchmark's families.  Raises
    SizeError, before phi is evaluated, when ``_kernels`` refuses the
    block's points or the sweep's work.
    """
    ns = [_check_n(n) for n in ns]
    if not ns:
        raise ValidationError("need at least one n")
    n_max = max(ns)
    K, stages = _admit_sweep(aset, n_max)
    points = np.arange(-n_max * K, n_max * K + 1, dtype=np.int64) * aset.step
    wanted = set(ns)
    at_origin = {}
    laws = [(law.indices, law.probs) for law in aset.laws]
    sweeps = _kernels._sweep(laws, evaluate_on(phi, points), -n_max * K, n_max, stages)
    for m, values in enumerate(sweeps, start=1):
        if m in wanted:
            # + 0.0 turns a -0.0 the kernel may leave at the origin into the per-atom loop's +0.0
            at_origin[m] = float(values[len(values) // 2]) + 0.0
    return [at_origin[n] for n in ns]


def sum_expectation(aset: AmbiguitySet, n: int, phi: Callable) -> float:
    """Upper expectation of ``phi(S_n)`` for the n-fold independent sum.

    ``sum_expectations`` for one n: one ``_kernels._sweep`` to the origin.
    """
    return sum_expectations(aset, [n], phi)[0]


def normalized_sum_expectation(aset: AmbiguitySet, n: int, phi: Callable) -> float:
    """Upper expectation of ``phi(S_n / sqrt(n))``."""
    n = _check_n(n)
    scale = 1.0 / np.sqrt(float(n))

    def scaled(x):
        return phi(np.asarray(x, dtype=np.float64) * scale)

    return sum_expectation(aset, n, scaled)


def _reachable_runs(aset: AmbiguitySet, n: int):
    """Yield the reachable index sets of S_0 .. S_n as maximal runs.

    A level is the pair ``(starts, ends)`` of its runs ``[starts[i], ends[i]]``
    of consecutive indices: the next level is the union of the runs shifted
    by every atom, merged where they overlap or touch.  A level never has
    more runs than points, and once a walk fills its span it is a single
    run, so this costs far less than listing the sets.
    """
    starts = ends = np.zeros(1, dtype=np.int64)
    yield starts, ends
    for _ in range(n):
        s = (starts[:, None] + aset.indices).ravel()
        e = (ends[:, None] + aset.indices).ravel()
        order = np.argsort(s)
        s = s[order]
        reach = np.maximum.accumulate(e[order])
        head = np.flatnonzero(s[1:] > reach[:-1] + 1) + 1
        starts = np.concatenate((s[:1], s[head]))
        ends = np.append(reach[head - 1], reach[-1])
        yield starts, ends


def reachable_index_sets(aset: AmbiguitySet, n: int) -> list[np.ndarray]:
    """Sorted lattice-index sets reachable by the partial sums S_0 .. S_n."""
    sets = []
    for starts, ends in _reachable_runs(aset, n):
        lengths = ends - starts + 1
        # run i's points are starts[i] + 0 .. lengths[i] - 1, laid end to end
        offsets = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        sets.append(offsets + np.arange(offsets.size))
    return sets


def _reachable_state_count(aset: AmbiguitySet, n: int) -> int:
    """Total size of the reachable index sets of S_0 .. S_{n-1}."""
    runs = _reachable_runs(aset, n - 1)
    return sum(int((ends - starts).sum()) + starts.size for starts, ends in runs)


def count_adapted_strategies(aset: AmbiguitySet, n: int) -> int:
    """Number of adapted law-choice strategies for an n-step sum.

    A strategy picks one law per (step, current partial sum) pair, so the
    count is the product over steps of laws ** reachable_states.
    """
    n = _check_n(n)
    return len(aset.laws) ** _reachable_state_count(aset, n)


def _transition_tensor(aset: AmbiguitySet, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """T[l, i, j] = P(law l steps from src[i] to dst[j])."""
    T = np.zeros((len(aset.laws), src.size, dst.size))
    rows = np.arange(src.size)
    for l, law in enumerate(aset.laws):
        for k, p in zip(law.indices, law.probs):
            cols = np.searchsorted(dst, src + k)
            T[l, rows, cols] += p
    return T


def _enumerate_strategy_distributions(aset: AmbiguitySet, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Terminal distributions of every adapted strategy.

    Returns ``(dists, terminal_indices)`` with one row of ``dists`` per
    strategy, in the lexicographic order of the per-state law choices.
    """
    n_laws = len(aset.laws)
    sets = reachable_index_sets(aset, n)
    dists = np.ones((1, 1))
    for level in range(n):
        src, dst = sets[level], sets[level + 1]
        T = _transition_tensor(aset, src, dst)
        rows = np.arange(src.size)
        blocks = [
            dists @ T[np.asarray(m, dtype=np.intp), rows, :]
            for m in itertools.product(range(n_laws), repeat=src.size)
        ]
        dists = np.vstack(blocks)
    return dists, sets[-1]


def _count_text(n_laws: int, n_states: int) -> str:
    """``n_laws ** n_states`` in digits below 10^18, else a power-of-ten bound.

    ``L ** S >= 2**60 > 10**18`` once S reaches 60 with L >= 2.  The bound
    uses ``floor(S * log2 L)``, the bit length of ``L ** S`` less one, so a
    count of millions of digits is never built.
    """
    if n_laws ** min(n_states, 60) < 10**18:
        return str(n_laws**n_states)
    bits = math.floor(n_states * math.log2(n_laws))
    return f"at least 10^{int(bits * math.log10(2.0))}"


def brute_force_adapted_oracle(aset: AmbiguitySet, n: int, phi: Callable) -> float:
    """Max of ``E[phi(S_n)]`` over every adapted law-choice strategy.

    Exponential in the reachable state counts; refuses to start when the
    strategy count exceeds ``STRATEGY_CEILING``.
    """
    return brute_force_adapted_oracle_many(aset, n, [phi])[0]


def brute_force_adapted_oracle_many(
    aset: AmbiguitySet, n: int, phis: Sequence[Callable]
) -> list[float]:
    """One enumeration shared across several payoff functions.

    Raises SizeError, before it counts or enumerates, when ``_kernels``
    refuses n levels of up to n * span + 1 points with one dense tensor row
    per law at each point: measured 0.13-0.37 ns per such update on one +-1
    law at n = 100..800 (2-vCPU Xeon), so it stops past ~5 s (n ~ 1 250).
    """
    n = _check_n(n)
    n_laws = len(aset.laws)
    width = n * int(aset.indices[-1] - aset.indices[0]) + 1
    _kernels._admit("brute-force oracle", width, n, n_laws * width, "reduce n or the atom span")
    n_states = _reachable_state_count(aset, n)
    # With L >= 2 laws, L ** S exceeds the ceiling as soon as S exceeds its
    # bit length, so capping S there keeps the comparison exact and the
    # power small.
    if n_laws ** min(n_states, STRATEGY_CEILING.bit_length() + 1) > STRATEGY_CEILING:
        raise CapacityError(
            f"{_count_text(n_laws, n_states)} adapted strategies exceed the ceiling "
            f"{STRATEGY_CEILING}; the brute-force oracle refuses to enumerate"
        )
    dists, terminal = _enumerate_strategy_distributions(aset, n)
    points = terminal * aset.step
    return [float((dists @ evaluate_on(phi, points)).max()) for phi in phis]


def joint_expectation(xset: AmbiguitySet, yset: AmbiguitySet, f: Callable) -> float:
    """Upper expectation of ``f(X, Y)`` with Y independent of X.

    Computed by the iterated construction: integrate out Y at each fixed x,
    then take the upper expectation of the resulting function of x.  ``f``
    is evaluated once on the grid of ``xset.support`` by ``yset.support``
    points, so it must be pointwise.
    """
    grid = evaluate_on(f, *np.meshgrid(xset.support, yset.support, indexing="ij"))
    return _iterated_upper(xset, yset, grid)


def _iterated_upper(xset: AmbiguitySet, yset: AmbiguitySet, grid: np.ndarray) -> float:
    """``joint_expectation`` of ``grid[i, j] = f(xset.support[i], yset.support[j])``."""
    return _upper(xset, np.array([_upper(yset, row) for row in grid]))


@dataclass(frozen=True)
class IndependenceCheck:
    """Joint-vs-product capacities for a pair of marginal events."""

    joint_upper: float
    product_upper: float
    joint_lower: float
    product_lower: float

    @property
    def upper_gap(self) -> float:
        return abs(self.joint_upper - self.product_upper)

    @property
    def lower_gap(self) -> float:
        return abs(self.joint_lower - self.product_lower)

    @property
    def passed(self) -> bool:
        return self.upper_gap <= INDEPENDENCE_TOL and self.lower_gap <= INDEPENDENCE_TOL


def pairwise_independence_check(
    xset: AmbiguitySet,
    yset: AmbiguitySet,
    event_x: Callable,
    event_y: Callable,
) -> IndependenceCheck:
    """Check the product rule for both capacities on a rectangle event.

    For events D and G the upper capacity of {X in D, Y in G} must equal
    the product of the marginal upper capacities, and likewise for the
    lower capacities; the check passes within INDEPENDENCE_TOL.
    """
    ind_x = evaluate_on(indicator_of(event_x), xset.support)
    ind_y = evaluate_on(indicator_of(event_y), yset.support)
    rect = np.multiply.outer(ind_x, ind_y)
    return IndependenceCheck(
        joint_upper=_iterated_upper(xset, yset, rect),
        product_upper=_upper(xset, ind_x) * _upper(yset, ind_y),
        joint_lower=-_iterated_upper(xset, yset, -rect),
        product_lower=_lower(xset, ind_x) * _lower(yset, ind_y),
    )
