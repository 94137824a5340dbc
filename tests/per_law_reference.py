"""Per-law reference routes: every callable is evaluated law by law.

Each law evaluates ``f`` on its own support through
``DiscreteDistribution.expectation``, and a joint expectation locates each
law's support points in the family's union with ``np.unique`` and
``np.searchsorted``.  The family route in ``gexlab`` evaluates each
function once on ``AmbiguitySet.support``; the tests require the two to
agree bit for bit.  ``upper_of_values`` and ``iterated_upper_rowwise`` keep
the family route's former array max and row-by-row joint expectation.
"""

import numpy as np

from gexlab.ambiguity import evaluate_on, indicator_of
from gexlab.fuzz import (
    THRESHOLD_GRID,
    SuiteReport,
    random_ambiguity_set,
    random_catalog_phi,
    random_interval,
)

AXIOM_CHECKS = (
    "monotonicity",
    "constantPreserving",
    "subAdditivity",
    "positiveHomogeneity",
    "capacityDuality",
)


def upper_of_values(aset, values):
    """``_upper``'s former array route: the per-law dots as an array, then its max."""
    return float(aset.expectations(values).max())


def iterated_upper_rowwise(xset, yset, grid):
    """``_iterated_upper``'s former route: Y integrated out at every row of ``grid``."""
    return upper_of_values(xset, np.array([upper_of_values(yset, row) for row in grid]))


def upper(aset, f):
    return float(np.array([law.expectation(f) for law in aset.laws]).max())


def lower(aset, f):
    return -upper(aset, lambda x: -np.asarray(f(x), dtype=np.float64))


def capacity_pair(aset, event):
    ind = indicator_of(event)
    return upper(aset, ind), lower(aset, ind)


def moment_envelope(aset):
    """``(mean_lower, mean_upper, var_lower, var_upper)``."""
    return (
        lower(aset, lambda x: x),
        upper(aset, lambda x: x),
        lower(aset, np.square),
        upper(aset, np.square),
    )


def joint(xset, yset, f):
    """Iterated upper expectation of ``f(X, Y)``, one law's positions at a time."""
    xs = np.unique(np.concatenate([law.support for law in xset.laws]))
    ys = np.unique(np.concatenate([law.support for law in yset.laws]))
    grid = evaluate_on(f, *np.meshgrid(xs, ys, indexing="ij"))
    inner = np.full(xs.size, -np.inf)
    for law in yset.laws:
        cols = np.take(grid, np.searchsorted(ys, law.support), axis=1)
        for i in range(xs.size):
            inner[i] = max(inner[i], float(law.probs @ cols[i]))
    return max(float(law.probs @ inner[np.searchsorted(xs, law.support)]) for law in xset.laws)


def _support_range(aset):
    lo = min(int(law.indices[0]) for law in aset.laws)
    hi = max(int(law.indices[-1]) for law in aset.laws)
    return lo * aset.step - aset.step, hi * aset.step + aset.step


def _duality_residual(aset, a, b):
    big = upper(aset, indicator_of(lambda x: (x >= a) & (x <= b)))
    small_c = lower(aset, indicator_of(lambda x: (x < a) | (x > b)))
    return abs(big + small_c - 1.0)


def axiom_suite(seed, trials):
    """``gexlab.fuzz.axiom_suite`` with the same draws, evaluated per law."""
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(AXIOM_CHECKS, 0.0)
    for _ in range(trials):
        aset = random_ambiguity_set(rng)
        f = random_catalog_phi(rng)
        g = random_catalog_phi(rng)
        ef = upper(aset, f)
        eg = upper(aset, g)
        e_min = upper(aset, lambda x: np.minimum(f(x), g(x)))
        worst["monotonicity"] = max(worst["monotonicity"], e_min - min(ef, eg))
        c = float(rng.uniform(-5.0, 5.0))
        e_const = upper(aset, lambda x: np.full(np.shape(x), c, dtype=np.float64))
        worst["constantPreserving"] = max(worst["constantPreserving"], abs(e_const - c))
        e_sum = upper(aset, lambda x: f(x) + g(x))
        worst["subAdditivity"] = max(worst["subAdditivity"], e_sum - (ef + eg))
        lam = float(rng.uniform(0.0, 2.0))
        e_scaled = upper(aset, lambda x: lam * f(x))
        worst["positiveHomogeneity"] = max(worst["positiveHomogeneity"], abs(e_scaled - lam * ef))
        a, b = random_interval(rng, aset)
        worst["capacityDuality"] = max(worst["capacityDuality"], _duality_residual(aset, a, b))
    worst = {k: max(v, 0.0) for k, v in worst.items()}
    return SuiteReport("axioms", trials, seed, worst)


def independence_suite(seed, n_pairs):
    """``gexlab.fuzz.independence_suite`` with the same draws, evaluated per law."""
    rng = np.random.default_rng(seed)
    worst_upper = worst_lower = 0.0
    for _ in range(n_pairs):
        xset = random_ambiguity_set(rng)
        yset = random_ambiguity_set(rng)

        def thresholds(aset):
            lo, hi = _support_range(aset)
            inset = 0.1 * (hi - lo)
            return np.linspace(lo + inset, hi - inset, THRESHOLD_GRID)

        for s in thresholds(xset):
            for t in thresholds(yset):
                ind_x = indicator_of(lambda x, s=s: x > s)
                ind_y = indicator_of(lambda y, t=t: y > t)
                joint_upper = joint(xset, yset, lambda x, y: ind_x(x) * ind_y(y))
                joint_lower = -joint(xset, yset, lambda x, y: -(ind_x(x) * ind_y(y)))
                up_x, low_x = capacity_pair(xset, lambda x, s=s: x > s)
                up_y, low_y = capacity_pair(yset, lambda y, t=t: y > t)
                worst_upper = max(worst_upper, abs(joint_upper - up_x * up_y))
                worst_lower = max(worst_lower, abs(joint_lower - low_x * low_y))
    return SuiteReport(
        "independence", n_pairs * THRESHOLD_GRID**2, seed,
        {"upperFactorization": worst_upper, "lowerFactorization": worst_lower},
    )
