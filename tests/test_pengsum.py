import math
import re
from fractions import Fraction

import numpy as np
import pytest

from gexlab import _admission, pengsum
from gexlab.ambiguity import AmbiguitySet, DiscreteDistribution, indicator_of, upper_expectation
from gexlab.errors import CapacityError, EvaluationError, SizeError, ValidationError
from gexlab.experiments import (
    clt_convergence,
    moment_scan,
    uniform_moment_check,
    variance_subadditivity_check,
)
from gexlab.fuzz import random_ambiguity_set, random_oracle_set
from gexlab.gheat import GParams, g_normal_expectation
from gexlab.pengsum import (
    brute_force_adapted_oracle,
    brute_force_adapted_oracle_many,
    count_adapted_strategies,
    joint_expectation,
    normalized_sum_expectation,
    pairwise_independence_check,
    reachable_index_sets,
    sum_expectation,
    sum_expectations,
)
from gexlab.phis import make_phi


def coin_set(step=1.0):
    return AmbiguitySet((DiscreteDistribution.from_atoms(step, [(-1, 0.5), (1, 0.5)]),))


def full_history_value(aset, n, phi):
    """Independent oracle: optimal value with full-path-dependent choices.

    Recursion over paths rather than partial sums, all scalar python
    arithmetic; must agree with the lattice DP because the sum is Markov.
    """

    def rec(path):
        if len(path) == n:
            return float(phi(sum(path) * aset.step))
        best = -np.inf
        for law in aset.laws:
            acc = 0.0
            for k, p in law.atoms:
                acc += p * rec(path + (k,))
            best = max(best, acc)
        return best

    return rec(())


class TestGrids:
    def test_points(self):
        # phi is sampled once, on the lattice block [-n*K, n*K] times the step
        seen = []

        def recording(x):
            seen.append(np.array(x))
            return np.square(x)

        sum_expectation(coin_set(0.5), 2, recording)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], [-1.0, -0.5, 0.0, 0.5, 1.0])


class TestOneStepOperator:
    def test_square_plus_variance(self):
        # for the fair +-1 coin, E[(x + X)^2] = x^2 + 1 exactly
        aset = coin_set()
        for x in range(-9, 10):
            assert sum_expectation(aset, 1, lambda s: (s + x) ** 2) == x * x + 1.0

    def test_takes_max_over_laws(self, ref_set):
        # x^2 + E[X^2]: the wide coin wins for the square, the narrow one for its negative
        for x in (-1.0, 0.0, 1.5):
            assert sum_expectation(ref_set, 1, lambda s: (s + x) ** 2) == x * x + 1.0
            assert sum_expectation(ref_set, 1, lambda s: -((s + x) ** 2)) == -(x * x + 0.25)

    def test_domain_shrinks_asymmetrically(self):
        # support {-2, +1}: one step reaches x - 2 and x + 1, two steps reach -4, -1, 2
        aset = AmbiguitySet((DiscreteDistribution.from_atoms(1.0, [(-2, 0.5), (1, 0.5)]),))
        for x in range(-5, 6):
            want = 0.5 * abs(x - 2) + 0.5 * abs(x + 1)
            assert sum_expectation(aset, 1, lambda s: np.abs(s + x)) == want
        assert sum_expectation(aset, 2, np.abs) == 0.25 * 4 + 0.5 * 1 + 0.25 * 2
        assert sum_expectation(aset, 2, lambda s: s) == -1.0


class TestSumExpectation:
    def test_validation(self, ref_set):
        with pytest.raises(ValidationError):
            sum_expectation(ref_set, 0, np.abs)

    def test_size_guard(self):
        law = DiscreteDistribution.from_atoms(1.0, [(-5, 0.5), (5, 0.5)])
        with pytest.raises(SizeError):
            sum_expectation(AmbiguitySet((law,)), 10**7, np.abs)

    def test_work_limit_refused_before_any_step(self, monkeypatch, ref_set):
        # n = 2 on the reference family has no window: 2 steps x 4 atoms x (the
        # 5 points of the cone at step 1 + the per-step cost)
        work = 2 * 4 * (5 + _admission._STEP_COST)
        monkeypatch.setattr(_admission, "MAX_WORK", work)
        assert sum_expectation(ref_set, 2, np.abs) == 1.0
        monkeypatch.setattr(_admission, "MAX_WORK", work - 1)

        def unread(x):
            raise AssertionError("phi must not be evaluated")

        with pytest.raises(SizeError, match=r"^lattice sweep would need about 32808 updates \(limit 32807\); reduce n or the atom span$"):
            sum_expectations(ref_set, [1, 2], unread)

    def test_fixed_cost_steps_refused(self, no_compute):
        # one atom at 0: a 1-point block, whose 2^30 steps only the per-step cost prices
        law = DiscreteDistribution.from_atoms(1.0, [(0, 1.0)])
        with pytest.raises(SizeError, match=r"^lattice sweep would need about 4\.4e\+12 updates"):
            sum_expectations(AmbiguitySet((law,)), [4, 8, 16, 2**30], no_compute)

    @pytest.mark.parametrize("run", [
        lambda aset, n, phi: sum_expectations(aset, [1, n], phi)[-1],
        lambda aset, n, phi: brute_force_adapted_oracle_many(aset, n, [phi])[0],
    ], ids=["lattice sweep", "brute-force oracle"])
    def test_overflowing_lattice_refused_before_phi(self, run, request):
        # S_1 reaches +-1e308; S_2 would reach +-2e308, an inf that phi would be blamed for
        aset = coin_set(step=1e308)
        assert run(aset, 1, np.abs) == 1e308

        def unread(x):
            raise AssertionError("phi must not be evaluated")

        what = request.node.callspec.id
        text = f"{what} would reach lattice index 2 at step 1e+308, whose point is not a finite float; reduce n or the step"
        with pytest.raises(SizeError, match="^" + re.escape(text) + "$"):
            run(aset, 2, unread)

    def test_hand_values_reference(self, ref_set):
        # optimal strategies on the two-coin family, checked by hand
        assert sum_expectation(ref_set, 1, np.square) == 1.0
        assert sum_expectation(ref_set, 2, np.abs) == 1.0
        assert sum_expectation(ref_set, 2, np.square) == 2.0
        assert sum_expectation(ref_set, 2, make_phi("cube")) == 1.125

    def test_single_law_classical_moments(self):
        # fair +-1 coin: E[S_n^2] = n and E[S_n^4] = 3n^2 - 2n
        aset = coin_set()
        for n in (1, 2, 3, 8):
            assert sum_expectation(aset, n, np.square) == pytest.approx(n, abs=1e-12)
            assert sum_expectation(aset, n, make_phi("quartic")) == pytest.approx(
                3 * n**2 - 2 * n, rel=1e-12
            )

    def test_normalized_scaling(self, ref_set):
        # phi positively homogeneous: dividing the sum by 2 halves the value
        direct = sum_expectation(ref_set, 4, np.abs)
        normed = normalized_sum_expectation(ref_set, 4, np.abs)
        assert normed == direct / 2.0

    def test_matches_full_history_oracle(self, rng):
        # the last family's support {-2, -1, 1} shrinks each sweep's block unevenly
        asym = DiscreteDistribution.from_atoms(1.0, [(-2, 0.5), (1, 0.5)])
        sets = [random_oracle_set(rng, n=3) for _ in range(4)]
        for aset in sets + [AmbiguitySet((asym,) + coin_set().laws)]:
            for n in (2, 3):
                for phi in (np.abs, np.square, make_phi("cube")):
                    dp = sum_expectation(aset, n, phi)
                    ora = full_history_value(aset, n, phi)
                    assert dp == pytest.approx(ora, abs=1e-12)


# Every public entry point that takes a step count, called with that count
WHOLE_N_ENTRIES = {
    "sum_expectation": lambda aset, n: sum_expectation(aset, n, np.abs),
    "sum_expectations": lambda aset, n: sum_expectations(aset, [1, n], np.abs),
    "normalized_sum_expectation": lambda aset, n: normalized_sum_expectation(aset, n, np.abs),
    "count_adapted_strategies": count_adapted_strategies,
    "brute_force_adapted_oracle_many": lambda aset, n: brute_force_adapted_oracle_many(aset, n, [np.abs]),
    "variance_subadditivity_check": variance_subadditivity_check,
    "moment_scan": lambda aset, n: moment_scan(aset, 3.0, [n, 4, 8, 16]),
    "uniform_moment_check": lambda aset, n: uniform_moment_check(aset, 1.0, [n, 4, 8, 16]),
    "clt_convergence": lambda aset, n: clt_convergence(aset, make_phi("abs"), [n, 4], dx=0.1),
}


@pytest.mark.parametrize("entry", WHOLE_N_ENTRIES.values(), ids=WHOLE_N_ENTRIES.keys())
class TestWholeN:
    def test_integral_values_accepted(self, ref_set, entry):
        want = entry(ref_set, 2)
        assert entry(ref_set, np.int64(2)) == want
        assert entry(ref_set, 2.0) == want

    # refused before any arithmetic: no 1/sqrt(0) warning, no truncation of 2.7 to 2
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [2.7, 0.5, float("nan"), float("inf"), 0, -1, "2", True])
    def test_refused(self, ref_set, entry, n):
        with pytest.raises(ValidationError):
            entry(ref_set, n)


class TestStrategyCounting:
    def test_reachable_sets_reference(self, ref_set):
        sizes = [r.size for r in reachable_index_sets(ref_set, 3)]
        assert sizes == [1, 4, 9, 13]

    def test_counts_reference(self, ref_set):
        # two laws: count = 2 ** (sum of reachable-state counts)
        assert count_adapted_strategies(ref_set, 1) == 2
        assert count_adapted_strategies(ref_set, 2) == 2**5
        assert count_adapted_strategies(ref_set, 3) == 2**14
        assert count_adapted_strategies(ref_set, 4) == 2**27

    def test_single_law_counts(self):
        assert count_adapted_strategies(coin_set(), 4) == 1

    def test_counts_match_listed_sets(self, rng):
        # gapped and wide atom sets make many runs, or sets far sparser than their span
        for _ in range(60):
            laws = []
            for _ in range(int(rng.integers(2, 4))):
                ks = np.unique(rng.choice([-40, -7, -3, -1, 0, 2, 5, 1000], size=int(rng.integers(1, 4))))
                laws.append(DiscreteDistribution(0.5, ks, np.full(ks.size, 1.0 / ks.size)))
            aset = AmbiguitySet(tuple(laws))
            n = int(rng.integers(1, 12))
            sets = reachable_index_sets(aset, n)
            for prev, level in zip(sets, sets[1:]):
                np.testing.assert_array_equal(level, np.unique(prev[:, None] + aset.indices))
            n_states = sum(r.size for r in sets[:-1])
            assert count_adapted_strategies(aset, n) == len(laws) ** n_states


class TestBruteForceOracle:
    def test_ceiling_refusal(self, ref_set):
        # 2 ** 27 strategies at n = 4
        text = "134217728 adapted strategies exceed the ceiling 1000000; the brute-force oracle refuses to enumerate"
        with pytest.raises(CapacityError, match="^" + re.escape(text) + "$"):
            brute_force_adapted_oracle(ref_set, 4, np.abs)

    def test_ceiling_is_inclusive(self):
        # ten laws, each the point mass at index 0: one state per step, so exactly 10 ** n strategies
        dirac = DiscreteDistribution.from_atoms(1.0, [(0, 1.0)])
        aset = AmbiguitySet((dirac,) * 10)
        assert count_adapted_strategies(aset, 6) == pengsum.STRATEGY_CEILING
        assert brute_force_adapted_oracle_many(aset, 6, [lambda x: x + 1.0]) == [1.0]
        with pytest.raises(CapacityError, match="^10000000 adapted strategies exceed the ceiling 1000000;"):
            brute_force_adapted_oracle_many(aset, 7, [np.abs])

    def test_refusal_builds_no_count(self, monkeypatch):
        laws = (
            DiscreteDistribution.from_atoms(1.0, [(-1, 0.5), (1, 0.5)]),
            DiscreteDistribution.from_atoms(1.0, [(-2, 0.5), (2, 0.5)]),
            DiscreteDistribution.from_atoms(1.0, [(-1, 0.25), (0, 0.5), (1, 0.25)]),
        )
        aset = AmbiguitySet(laws)
        count = count_adapted_strategies(aset, 200)
        text = f"at least 10^{int((count.bit_length() - 1) * math.log10(2.0))}"

        def refuse_to_count(aset, n):
            raise AssertionError("the refusal must not build the count")

        monkeypatch.setattr(pengsum, "count_adapted_strategies", refuse_to_count)
        with pytest.raises(CapacityError, match="^" + re.escape(text) + " adapted strategies"):
            brute_force_adapted_oracle_many(aset, 200, [np.abs])

    def test_matches_dp_on_reference(self, ref_set):
        for n in (1, 2, 3):
            for phi in (np.abs, np.square, make_phi("cube"), make_phi("quartic")):
                dp = sum_expectation(ref_set, n, phi)
                ora = brute_force_adapted_oracle(ref_set, n, phi)
                assert dp == pytest.approx(ora, abs=1e-12)

    def test_many_matches_singles(self, ref_set):
        phis = [np.abs, np.square]
        many = brute_force_adapted_oracle_many(ref_set, 2, phis)
        singles = [brute_force_adapted_oracle(ref_set, 2, p) for p in phis]
        assert many == singles

    def test_random_sets_fuzz(self, rng):
        phis = [make_phi("abs"), make_phi("square"), make_phi("clamp", -1.0, 1.0)]
        for _ in range(5):
            aset = random_oracle_set(rng)
            for n in (1, 2, 3):
                oracle_vals = brute_force_adapted_oracle_many(aset, n, phis)
                for phi, ov in zip(phis, oracle_vals):
                    assert sum_expectation(aset, n, phi) == pytest.approx(ov, abs=1e-12)


class TestClosedFormsAtScale:
    """Closed forms checked on one sweep each, far past the oracle's reach."""

    def test_half_line_capacity(self, ref_set):
        # sup P(S_n >= 0) = 2/3 + (-1)^n / (3 * 2^n): a dyadic rational, exact while
        # its numerator fits in 53 bits, and within the sweep's rounding bound after
        ns = range(1, 4097)
        got = sum_expectations(ref_set, ns, indicator_of(lambda x: x >= 0))
        atoms = sum(law.indices.size for law in ref_set.laws)
        for n, value in zip(ns, got):
            exact = Fraction(2, 3) + Fraction((-1) ** n, 3 * 2**n)
            if n <= 48:
                assert value == float(exact), n
            else:
                assert abs(Fraction(value) - exact) <= Fraction(n * atoms, 2**53), n

    def test_open_half_line_capacity(self, ref_set):
        # a stated counterexample: with x > 0 in place of x >= 0, sup P(S_n > 0) still
        # tends to 2/3, but only as n^-1/2; the boundary point carries the difference
        ns = [8, 256, 1024, 4096]
        got = sum_expectations(ref_set, ns, indicator_of(lambda x: x > 0))
        assert got[0] == 0.5859375
        gaps = [2 / 3 - value for value in got[1:]]
        for n, gap in zip(ns[1:], gaps):
            assert 0.26 <= gap * math.sqrt(n) <= 0.27, n
        slope = np.polyfit(np.log(ns[1:]), np.log(gaps), 1)[0]
        assert -0.52 <= slope <= -0.48

    def test_convex_order_top_law_convolution(self):
        # the inner law is below the top law in convex order, so for a convex phi the
        # worst case takes the top law at every step: its n-fold convolution
        a, b = 0.8, 0.6
        top = DiscreteDistribution.from_atoms(0.5, [(-2, a / 2), (0, 1 - a), (2, a / 2)])
        inner = DiscreteDistribution.from_atoms(0.5, [(-1, b / 2), (0, 1 - b), (1, b / 2)])
        ns = [256, 1024, 4096]
        got = sum_expectations(AmbiguitySet((top, inner)), ns, make_phi("abspow", 3.0))
        pmf = np.ones(1)  # of S_m on the points -m .. m
        want = {}
        for m in range(1, ns[-1] + 1):
            pmf = np.convolve(pmf, [a / 2, 1 - a, a / 2])
            if m in ns:
                want[m] = float(pmf @ np.abs(np.arange(-m, m + 1.0)) ** 3)
        for n, value in zip(ns, got):
            assert value == pytest.approx(want[n], rel=1e-12, abs=0.0), n


class TestRateToLimit:
    """The DP's distance to the G-normal limit falls as 1/n up to n = 4096."""

    @pytest.mark.parametrize("name", ["abs", "negabs", "cube"])
    def test_error_slope(self, ref_set, name):
        # the limit is the PDE value extrapolated at second order from dx = 0.02 and 0.01,
        # which lands within ~1e-10 (abs) to ~5e-9 (negabs) of the exact one
        phi, band = make_phi(name), GParams(0.5, 1.0)
        coarse, fine = (g_normal_expectation(band, phi, dx=dx) for dx in (0.02, 0.01))
        limit = (4.0 * fine - coarse) / 3.0
        ns = [2**j for j in range(4, 13)]
        errors = [abs(normalized_sum_expectation(ref_set, n, phi) - limit) for n in ns]
        slope = np.polyfit(np.log(ns), np.log(errors), 1)[0]
        assert -1.05 <= slope <= -0.95


class TestSumExpectations:
    """One sweep to the largest n against one sweep per n, compared with ==."""

    def test_entries_equal_per_n(self, rng, ref_set):
        ns = [1, 2, 3, 5, 8, 13, 32, 64]
        phis = [make_phi("abspow", 3.0), make_phi("square"), make_phi("cube"), make_phi("clamp", -1.0, 2.0)]
        sets = [ref_set] + [random_ambiguity_set(rng) for _ in range(3)]
        for aset in sets:
            for phi in phis:
                assert sum_expectations(aset, ns, phi) == [sum_expectation(aset, n, phi) for n in ns]

    def test_order_and_repeats_kept(self, ref_set):
        got = sum_expectations(ref_set, [8, 2, 8, 4], np.square)
        assert got == [sum_expectation(ref_set, n, np.square) for n in (8, 2, 8, 4)]

    def test_drivers_equal_per_n(self, ref_set):
        report = moment_scan(ref_set, 3.0, [16, 32, 64, 128])
        phi = make_phi("abspow", 3.0)
        assert [a for _, a in report.entries] == [sum_expectation(ref_set, n, phi) for n, _ in report.entries]
        rows = variance_subadditivity_check(ref_set, 40)
        assert [r.lhs for r in rows] == [sum_expectation(ref_set, r.n, np.square) for r in rows]
        uniform = uniform_moment_check(ref_set, 2.0, [16, 32, 64, 128])
        for n, b in uniform.entries:
            assert b == sum_expectation(ref_set, n, phi) / n**1.5
            assert b == pytest.approx(normalized_sum_expectation(ref_set, n, phi), rel=1e-14)

    @pytest.mark.parametrize("ns", [[], [0, 3], [-1]])
    def test_rejects_bad_n(self, ref_set, ns):
        with pytest.raises(ValidationError):
            sum_expectations(ref_set, ns, np.abs)


def joint_expectation_iterated(xset, yset, f):
    """Integrate Y out at each fixed x through upper_expectation, point by point."""

    def integrated(xs):
        xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
        out = np.empty(xs.shape)
        for i, x in enumerate(xs):
            out[i] = upper_expectation(yset, lambda y, x=x: f(x, y))
        return out

    return upper_expectation(xset, integrated)


class TestIndependence:
    def test_joint_matches_iterated_bitwise(self, rng):
        for _ in range(20):
            xset = random_ambiguity_set(rng)
            yset = random_ambiguity_set(rng)
            s, t = rng.uniform(-1.0, 1.0, size=2)
            ind_x = indicator_of(lambda x: x > s)
            ind_y = indicator_of(lambda y: y > t)
            fs = [
                lambda x, y: ind_x(x) * ind_y(y),
                lambda x, y: -(ind_x(x) * ind_y(y)),
                lambda x, y: np.sin(3.0 * x) * np.cos(y) + 0.1 * x * y,
                lambda x, y: np.abs(x + y) ** 2.5,
            ]
            for f in fs:
                assert joint_expectation(xset, yset, f) == joint_expectation_iterated(xset, yset, f)

    def test_joint_scalar_only_callable(self, ref_set):
        def f(x, y):
            return math.exp(float(x)) * float(y) ** 2

        assert joint_expectation(ref_set, ref_set, f) == joint_expectation_iterated(ref_set, ref_set, f)

    def test_joint_nonfinite_named(self, ref_set):
        with np.errstate(divide="ignore"):
            with pytest.raises(EvaluationError, match="x=-1.0, y=1.0"):
                joint_expectation(ref_set, ref_set, lambda x, y: 1.0 / (x + y))

    def test_joint_product_hand_case(self):
        # classical single-law corner: P(X=1, Y=1) = 1/4
        xset = coin_set()
        yset = coin_set()
        val = joint_expectation(
            xset, yset, lambda x, y: (x >= 1.0) * (y >= 1.0)
        )
        assert val == 0.25

    def test_nested_supremum_order_matters_data(self, ref_set):
        # the iterated construction integrates y at fixed x first
        val = joint_expectation(ref_set, ref_set, lambda x, y: np.square(x + y))
        # inner: max(x^2+1, x^2+0.25) = x^2 + 1; outer: max over X of E[(X)^2]+1 = 2
        assert val == 2.0

    def test_factorization_hand_case(self, ref_set):
        chk = pairwise_independence_check(
            ref_set, ref_set, lambda x: x >= 1.0, lambda y: y >= 1.0
        )
        assert chk.joint_upper == 0.25
        assert chk.product_upper == 0.25
        assert chk.joint_lower == 0.0
        assert chk.product_lower == 0.0
        assert chk.passed

    def test_factorization_fuzz(self, rng):
        from gexlab.fuzz import random_ambiguity_set

        for _ in range(10):
            xset = random_ambiguity_set(rng, max_laws=3, max_atoms=3)
            yset = random_ambiguity_set(rng, max_laws=3, max_atoms=3)
            s = float(rng.uniform(-1.0, 1.0))
            t = float(rng.uniform(-1.0, 1.0))
            chk = pairwise_independence_check(
                xset, yset, lambda x: x > s, lambda y: y > t
            )
            assert chk.passed, (chk.upper_gap, chk.lower_gap)
