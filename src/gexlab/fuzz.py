"""Seeded random families and the randomized property suites.

The sublinear-expectation axioms are universally quantified, so they are
checked by seeded fuzzing: random ambiguity sets, random catalog function
pairs, random interval events.  All generators draw from a caller-supplied
numpy Generator, so identical seeds give identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .ambiguity import AmbiguitySet, DiscreteDistribution, _lower, _upper, evaluate_on
from .errors import ValidationError
from .pengsum import (
    STRATEGY_CEILING,
    _check_n,
    count_adapted_strategies,
    pairwise_independence_check,
)
from .phis import CATALOG, PhiSpec, make_phi

# supports stay inside [-2.5, 2.5] so quartic values stay small enough for
# the 1e-12 axiom tolerances to clear float rounding with a wide margin
_STEPS = (0.25, 0.5)
_MAX_ABS_INDEX = 5
_ORACLE_MAX_TRIES = 1000
SUITE_TOL = 1e-12
THRESHOLD_GRID = 5  # thresholds per family in independence_suite's panel
# each suite's report keys, in report order
AXIOM_CHECKS = ("monotonicity", "constantPreserving", "subAdditivity", "positiveHomogeneity", "capacityDuality")
INDEPENDENCE_CHECKS = ("upperFactorization", "lowerFactorization")
# What _kernels' admission prices one trial at, in updates, so that a suite is
# refused where a march is, at ~45 s of work: measured (2-vCPU Xeon, NumPy
# 2.4) ~0.42 ms per axiom trial and ~5.4 ms per independence pair.  A duality
# event, with the per-step cost, is priced at ~32 us and a duality set's draw
# at DUALITY_SET_EVENTS events: measured on the same kind of host ~24-37 us
# per event (0.076 of an axiom trial) and ~0.13-0.14 ms per set.
AXIOM_TRIAL_UPDATES = 180_000
INDEPENDENCE_PAIR_UPDATES = 2_400_000
DUALITY_EVENT_UPDATES = 10_000
DUALITY_SET_EVENTS = 6


def random_catalog_phi(rng: np.random.Generator) -> PhiSpec:
    """Random catalog function, including parameterized shapes."""
    name = str(rng.choice(list(CATALOG)))
    shape = CATALOG[name]
    return make_phi(name, *np.sort(rng.uniform(*shape.draw, size=shape.arity)))


def _random_probs(rng: np.random.Generator, size: int) -> np.ndarray:
    w = rng.uniform(0.05, 1.0, size=size)
    return w / w.sum()


def _random_law(
    rng: np.random.Generator, step: float, max_atoms: int, max_abs_index: int = _MAX_ABS_INDEX
) -> DiscreteDistribution:
    size = int(rng.integers(1, max_atoms + 1))
    ks = np.sort(rng.choice(np.arange(-max_abs_index, max_abs_index + 1), size=size, replace=False))
    return DiscreteDistribution(step, ks, _random_probs(rng, size))


def _random_mean_zero_law(rng: np.random.Generator, step: float, max_atoms: int) -> DiscreteDistribution:
    n_pairs = int(rng.integers(1, max(2, max_atoms // 2) + 1))
    with_zero = bool(rng.integers(0, 2))
    ks = np.sort(rng.choice(np.arange(1, _MAX_ABS_INDEX + 1), size=n_pairs, replace=False))
    w = _random_probs(rng, n_pairs + (1 if with_zero else 0))
    atoms = []
    for i, k in enumerate(ks):
        atoms.append((-int(k), w[i] / 2.0))
        atoms.append((int(k), w[i] / 2.0))
    if with_zero:
        atoms.append((0, w[-1]))
    atoms.sort()
    return DiscreteDistribution.from_atoms(step, atoms)


def random_ambiguity_set(
    rng: np.random.Generator,
    max_laws: int = 4,
    max_atoms: int = 5,
    mean_zero: bool = False,
) -> AmbiguitySet:
    """Random finite family on a common small lattice."""
    step = float(rng.choice(_STEPS))
    n_laws = int(rng.integers(1, max_laws + 1))
    make = _random_mean_zero_law if mean_zero else _random_law
    return AmbiguitySet(tuple(make(rng, step, max_atoms) for _ in range(n_laws)))


def random_oracle_set(rng: np.random.Generator, n: int = 4) -> AmbiguitySet:
    """Small random family the brute-force oracle can enumerate up to n steps.

    Atoms come from {-1, 0, 1} with at most 3 laws; draws whose adapted
    strategy count at n exceeds ``STRATEGY_CEILING`` are rejected and
    resampled.
    """
    for _ in range(_ORACLE_MAX_TRIES):
        step = float(rng.choice((0.25, 0.5, 1.0)))
        n_laws = int(rng.integers(1, 4))
        aset = AmbiguitySet(tuple(_random_law(rng, step, 3, max_abs_index=1) for _ in range(n_laws)))
        if count_adapted_strategies(aset, n) <= STRATEGY_CEILING:
            return aset
    raise ValidationError(f"no oracle-feasible family found in {_ORACLE_MAX_TRIES} draws")


def _support_range(aset: AmbiguitySet) -> tuple[float, float]:
    """The family's support range widened by one lattice step on each side."""
    return aset.support[0] - aset.step, aset.support[-1] + aset.step


def _thresholds(aset: AmbiguitySet) -> np.ndarray:
    """THRESHOLD_GRID points spanning the support range, inset by a tenth at each end."""
    lo, hi = _support_range(aset)
    inset = 0.1 * (hi - lo)
    return np.linspace(lo + inset, hi - inset, THRESHOLD_GRID)


def random_interval(rng: np.random.Generator, aset: AmbiguitySet) -> tuple[float, float]:
    """Random interval overlapping the support range of the family."""
    a, b = np.sort(rng.uniform(*_support_range(aset), size=2))
    return float(a), float(b)


def _duality_residual(aset: AmbiguitySet, a: float, b: float) -> float:
    """``|V(A) + v(complement of A) - 1|`` for the interval event ``A = [a, b]``."""
    inside = (aset.support >= a) & (aset.support <= b)
    big = _upper(aset, inside.astype(np.float64))
    small_c = _lower(aset, (~inside).astype(np.float64))
    return abs(big + small_c - 1.0)


@dataclass(frozen=True)
class SuiteReport:
    """Shared shape for the randomized suites: worst residual per check.

    A report passes when no check's worst exceeds SUITE_TOL.
    """

    kind: str
    trials: int
    seed: int
    checks: dict

    @property
    def max_violation(self) -> float:
        return max(self.checks.values()) if self.checks else 0.0

    @property
    def passed(self) -> bool:
        return self.max_violation <= SUITE_TOL

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "trials": self.trials,
            "seed": self.seed,
            "tolerance": SUITE_TOL,
            "checks": dict(self.checks),
            "maxViolation": self.max_violation,
            "pass": self.passed,
        }

    CSV_HEADER = ("check", "maxResidual")

    def csv_rows(self) -> list[tuple]:
        return list(self.checks.items())


def axiom_suite(seed: int, trials: int = 200) -> SuiteReport:
    """Fuzz the four defining axioms plus capacity duality.

    Per trial: one random family, two random catalog functions, one random
    constant, scale and interval event, drawn in that order.  Each trial's
    residuals, one per name in ``AXIOM_CHECKS`` and in its order, are
    one-sided where the axiom is an inequality; the report keeps each
    check's worst, and 0.0 when every trial's residual is negative.
    Raises SizeError, before any draw, when ``_kernels`` refuses the
    trials' priced work.
    """
    trials = _check_n(trials, what="trials")
    seed = _check_n(seed, what="seed", low=0)
    _kernels._admit("axiom suite", AXIOM_TRIAL_UPDATES, trials, 1, "reduce the trial count")
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(AXIOM_CHECKS, 0.0)
    for _ in range(trials):
        aset = random_ambiguity_set(rng)
        fx = evaluate_on(random_catalog_phi(rng), aset.support)
        gx = evaluate_on(random_catalog_phi(rng), aset.support)
        ef = _upper(aset, fx)
        eg = _upper(aset, gx)
        c = float(rng.uniform(-5.0, 5.0))
        lam = float(rng.uniform(0.0, 2.0))
        residuals = (
            _upper(aset, np.minimum(fx, gx)) - min(ef, eg),
            abs(_upper(aset, np.full(aset.support.shape, c)) - c),
            _upper(aset, fx + gx) - (ef + eg),
            abs(_upper(aset, lam * fx) - lam * ef),
            _duality_residual(aset, *random_interval(rng, aset)),
        )
        for name, residual in zip(AXIOM_CHECKS, residuals):
            worst[name] = max(worst[name], residual)
    return SuiteReport("axioms", trials, seed, worst)


def capacity_duality_suite(seed: int, n_sets: int = 20, n_events: int = 100) -> SuiteReport:
    """V(A) + v(complement of A) = 1 over random interval events.

    Raises SizeError, before any draw, when ``_kernels`` refuses the sets'
    and events' priced work.
    """
    n_sets = _check_n(n_sets, what="n_sets")
    n_events = _check_n(n_events, what="n_events")
    seed = _check_n(seed, what="seed", low=0)
    terms = n_events + DUALITY_SET_EVENTS
    _kernels._admit("capacity duality suite", DUALITY_EVENT_UPDATES, n_sets, terms, "reduce n_sets or n_events")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_sets):
        aset = random_ambiguity_set(rng)
        for _ in range(n_events):
            a, b = random_interval(rng, aset)
            worst = max(worst, _duality_residual(aset, a, b))
    return SuiteReport("capacityDuality", n_sets * n_events, seed, {"capacityDuality": worst})


def independence_suite(seed: int, n_pairs: int = 10) -> SuiteReport:
    """Product rule for both capacities over half-line threshold events.

    For each random pair of families, a THRESHOLD_GRID x THRESHOLD_GRID
    panel of thresholds produces rectangle events {X > s, Y > t}; the joint
    capacities must factor into the marginal ones.  The report keeps each
    capacity's worst gap.  Raises SizeError, before any draw, when
    ``_kernels`` refuses the pairs' priced work.
    """
    n_pairs = _check_n(n_pairs, what="n_pairs")
    seed = _check_n(seed, what="seed", low=0)
    _kernels._admit("independence suite", INDEPENDENCE_PAIR_UPDATES, n_pairs, 1, "reduce the pair count")
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(INDEPENDENCE_CHECKS, 0.0)
    for _ in range(n_pairs):
        xset = random_ambiguity_set(rng)
        yset = random_ambiguity_set(rng)
        for s in _thresholds(xset):
            for t in _thresholds(yset):
                chk = pairwise_independence_check(xset, yset, lambda x, s=s: x > s, lambda y, t=t: y > t)
                for name, gap in zip(INDEPENDENCE_CHECKS, (chk.upper_gap, chk.lower_gap)):
                    worst[name] = max(worst[name], gap)
    return SuiteReport("independence", n_pairs * THRESHOLD_GRID**2, seed, worst)
