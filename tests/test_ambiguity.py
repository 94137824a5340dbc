import math

import numpy as np
import pytest

import per_law_reference as ref
from gexlab.ambiguity import (
    AmbiguitySet,
    DiscreteDistribution,
    MomentEnvelope,
    capacity_pair,
    evaluate_on,
    indicator_of,
    lower_expectation,
    moment_envelope,
    per_law_expectations,
    upper_expectation,
)
from gexlab.errors import EvaluationError, ValidationError
from gexlab.fuzz import random_ambiguity_set, random_catalog_phi, random_interval
from gexlab.gheat import PdeGrid, PdeSolution
from gexlab.pengsum import joint_expectation
from gexlab.phis import CATALOG, make_phi


def coin(step=1.0, k=1):
    return DiscreteDistribution.from_atoms(step, [(-k, 0.5), (k, 0.5)])


class TestDiscreteDistribution:
    def test_basic_fields(self):
        law = DiscreteDistribution(0.5, [-2, 0, 2], [0.25, 0.5, 0.25])
        assert law.step == 0.5
        assert law.indices.dtype == np.int64
        np.testing.assert_array_equal(law.support, [-1.0, 0.0, 1.0])
        assert law.mean() == 0.0
        assert law.expectation(np.square) == 0.5

    @pytest.mark.parametrize("step", [0.0, -1.0, np.nan, np.inf])
    def test_bad_step(self, step):
        with pytest.raises(ValidationError):
            DiscreteDistribution(step, [0], [1.0])

    def test_empty_atoms(self):
        # both routes end in __post_init__'s one check and message
        for build in (lambda: DiscreteDistribution(1.0, [], []), lambda: DiscreteDistribution.from_atoms(1.0, [])):
            with pytest.raises(ValidationError, match="^atom list must be a non-empty 1-d sequence$"):
                build()

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution(1.0, [0, 1], [1.0])

    @pytest.mark.parametrize("ks", [[1, 1], [2, 1], [0, 5, 5]])
    def test_indices_must_increase(self, ks):
        p = np.full(len(ks), 1.0 / len(ks))
        with pytest.raises(ValidationError):
            DiscreteDistribution(1.0, ks, p)

    @pytest.mark.parametrize("k", [2**63, -(2**63), 2**53 + 1, -(2**53) - 1])
    def test_index_out_of_range(self, k):
        # past 2^53 an index no longer converts to a float exactly, and 2^63 is past int64
        ks = sorted([0, k])
        for build in (lambda: DiscreteDistribution(1.0, ks, [0.5, 0.5]),
                      lambda: DiscreteDistribution.from_atoms(1.0, [(j, 0.5) for j in ks])):
            with pytest.raises(ValidationError, match=r"^lattice indices must be integers in \[-2\^53, 2\^53\]$"):
                build()

    @pytest.mark.parametrize(
        "ks",
        [[0.5, 1.7], [1.2, 1.7], [float("nan"), 1], [0, float("inf")], np.array([np.nan, 1.0]),
         np.array([np.inf, 1.0]), np.array([2.0**70, 1.0]), np.array([0.5, 1.7])],
        ids=["fractions", "fractions-equal-parts", "nan", "inf", "nan-array", "inf-array",
             "past-int64-array", "fractions-array"],
    )
    def test_index_not_an_integer(self, ks):
        # int64 conversion cuts 1.7 to 1 (and 1.2, 1.7 to equal indices) and fails on NaN, inf
        # or 2^70; a float array must fail the same way, not with numpy's cast warning
        with pytest.raises(ValidationError, match="must be integers"):
            DiscreteDistribution(1.0, ks, [0.5, 0.5])

    def test_integral_floats_accepted(self):
        assert DiscreteDistribution(1.0, [-1.0, 2.0], [0.5, 0.5]).indices.tolist() == [-1, 2]

    def test_far_apart_indices_name_their_range(self):
        # their difference, 2^63, is past int64: the fault is the range, not the order
        with pytest.raises(ValidationError, match="must be integers in"):
            DiscreteDistribution(1.0, [-(2**62), 2**62], [0.5, 0.5])

    def test_range_ends_accepted(self):
        law = DiscreteDistribution(1.0, [-(2**53), 2**53], [0.5, 0.5])
        assert law.support.tolist() == [-(2.0**53), 2.0**53]

    def test_negative_prob(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution(1.0, [-1, 1], [1.2, -0.2])

    def test_sum_not_one_is_refused(self):
        # no silent renormalization
        with pytest.raises(ValidationError, match="renormalization is refused"):
            DiscreteDistribution(1.0, [-1, 1], [0.5, 0.4])
        with pytest.raises(ValidationError):
            DiscreteDistribution(1.0, [0], [1.0 + 2e-12])

    def test_sum_within_tolerance_accepted(self):
        DiscreteDistribution(1.0, [0], [1.0 + 5e-13])
        # thirds sum to 1 - 1 ulp
        DiscreteDistribution(1.0, [-1, 2], [2.0 / 3.0, 1.0 / 3.0])

    def test_arrays_frozen(self):
        law = coin()
        with pytest.raises(ValueError):
            law.probs[0] = 0.7
        with pytest.raises(ValueError):
            law.indices[0] = 3


class TestAmbiguitySet:
    def test_common_step_required(self):
        with pytest.raises(ValidationError, match="common step"):
            AmbiguitySet((coin(step=0.5), coin(step=0.3)))

    def test_empty_family(self):
        with pytest.raises(ValidationError):
            AmbiguitySet(())

    def test_label_count(self):
        with pytest.raises(ValidationError):
            AmbiguitySet((coin(),), labels=("a", "b"))

    def test_index_bounds(self, ref_set):
        np.testing.assert_array_equal(ref_set.indices, [-2, -1, 1, 2])
        assert ref_set.label_of(1) == "coin +-0.5"

    def test_default_labels(self):
        aset = AmbiguitySet((coin(),))
        assert aset.label_of(0) == "law 0"


class TestMomentEnvelope:
    def test_invariants(self):
        with pytest.raises(ValidationError):
            MomentEnvelope(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            MomentEnvelope(0.0, 0.0, -0.5, 1.0)
        with pytest.raises(ValidationError):
            MomentEnvelope(0.0, 0.0, 2.0, 1.0)

    def test_point_mass_pair(self):
        # point masses at -1 and +1
        left = DiscreteDistribution.from_atoms(1.0, [(-1, 1.0)])
        right = DiscreteDistribution.from_atoms(1.0, [(1, 1.0)])
        env = moment_envelope(AmbiguitySet((left, right)))
        assert env.mean_lower == -1.0
        assert env.mean_upper == 1.0
        assert env.var_lower == 1.0
        assert env.var_upper == 1.0

    def test_reference_envelope(self, ref_set):
        env = moment_envelope(ref_set)
        assert env.mean_lower == 0.0
        assert env.mean_upper == 0.0
        assert env.var_lower == 0.25
        assert env.var_upper == 1.0


class TestEvaluateOn:
    def test_scalar_only_callable(self):
        import math

        vals = evaluate_on(lambda x: math.exp(float(x)), np.array([0.0, 1.0]))
        np.testing.assert_allclose(vals, [1.0, np.e])

    def test_nonfinite_named(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(EvaluationError, match="x=0.0"):
                evaluate_on(lambda x: 1.0 / x, np.array([1.0, 0.0]))

    def test_vectorized_path(self):
        vals = evaluate_on(np.square, np.array([-2.0, 3.0]))
        np.testing.assert_array_equal(vals, [4.0, 9.0])

    def test_two_coordinate_grid(self):
        import math

        xs, ys = np.meshgrid([1.0, 2.0], [0.0, 3.0, 4.0], indexing="ij")
        vectorized = evaluate_on(lambda x, y: x * y, xs, ys)
        scalar_only = evaluate_on(lambda x, y: math.fsum([float(x) * float(y)]), xs, ys)
        np.testing.assert_array_equal(vectorized, [[0.0, 3.0, 4.0], [0.0, 6.0, 8.0]])
        np.testing.assert_array_equal(scalar_only, vectorized)


class TestExpectations:
    def test_per_law_vector(self, ref_set):
        vals = per_law_expectations(ref_set, np.square)
        np.testing.assert_array_equal(vals, [1.0, 0.25])

    def test_upper_takes_max(self, ref_set):
        assert upper_expectation(ref_set, np.square) == 1.0
        assert lower_expectation(ref_set, np.square) == 0.25

    def test_lower_is_negated_upper(self, rng):
        for _ in range(25):
            aset = random_ambiguity_set(rng)
            phi = random_catalog_phi(rng)
            lo = lower_expectation(aset, phi)
            hi = upper_expectation(aset, lambda x: -np.asarray(phi(x), dtype=np.float64))
            assert lo == -hi

    def test_capacity_pair_hand_case(self, ref_set):
        # event {x >= 1}: seen by the +-1 coin with mass 1/2, missed by +-0.5
        big, small = capacity_pair(ref_set, lambda x: x >= 1.0)
        assert big == 0.5
        assert small == 0.0

    def test_indicator_counts_truthy_values_as_one(self):
        # x % 2 is 0.5 or 1.0 on the support {0.5, 1.0}: truthy everywhere
        aset = AmbiguitySet((DiscreteDistribution(0.5, [1, 2], [0.5, 0.5]),))
        ind = indicator_of(lambda x: x % 2)
        xs = aset.laws[0].support
        np.testing.assert_array_equal(ind(xs), [ind(x) for x in xs])
        assert capacity_pair(aset, lambda x: x % 2) == (1.0, 1.0)

    def test_capacity_duality_fuzz(self, rng):
        # V(A) + v(complement) = 1
        for _ in range(50):
            aset = random_ambiguity_set(rng)
            a, b = random_interval(rng, aset)
            big, _ = capacity_pair(aset, lambda x: (x >= a) & (x <= b))
            _, small_c = capacity_pair(aset, lambda x: (x < a) | (x > b))
            assert abs(big + small_c - 1.0) <= 1e-12

    def test_monotone_and_subadditive_fuzz(self, rng):
        for _ in range(25):
            aset = random_ambiguity_set(rng)
            f = random_catalog_phi(rng)
            g = random_catalog_phi(rng)
            ef = upper_expectation(aset, f)
            eg = upper_expectation(aset, g)
            e_min = upper_expectation(aset, lambda x: np.minimum(f(x), g(x)))
            assert e_min <= min(ef, eg) + 1e-12
            e_sum = upper_expectation(aset, lambda x: f(x) + g(x))
            assert e_sum <= ef + eg + 1e-12


class TestIdentitySemantics:
    def test_equal_valued_laws_compare_by_identity(self):
        a, b = coin(), coin()
        assert a == a
        assert not a == b
        assert a != b
        assert len({a, b, a}) == 2
        assert {a: "first", b: "second"}[b] == "second"
        family, twin = AmbiguitySet((a, b)), AmbiguitySet((a, b))
        assert family == family
        assert family != twin
        assert {family: 1}[family] == 1

    def test_array_holding_results_hash_by_identity(self):
        sol = PdeSolution(PdeGrid(-1.0, 0.5, 4, 10), np.zeros(5))
        assert sol == sol
        assert sol in {sol}


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _assert_same_bits(got, want):
    np.testing.assert_array_equal(_bits(got), _bits(want))


def _random_family(rng):
    """Laws on windows up to 24 indices apart, some atoms with probability 0."""
    step = float(rng.choice((0.25, 0.5)))
    laws = []
    for _ in range(int(rng.integers(1, 5))):
        size = int(rng.integers(1, 6))
        window = np.arange(-5, 6) + int(rng.integers(-12, 13))
        ks = np.sort(rng.choice(window, size, replace=False))
        w = rng.uniform(0.0, 1.0, size) * (rng.uniform(size=size) < 0.7)
        w[rng.integers(size)] += 0.5
        laws.append(DiscreteDistribution(step, ks, w / w.sum()))
    return AmbiguitySet(tuple(laws))


def _catalog_draws(rng):
    for name, shape in CATALOG.items():
        yield make_phi(name, *np.sort(rng.uniform(*shape.draw, size=shape.arity)))


# two laws on disjoint supports, the second with a zero-probability atom
DISJOINT = AmbiguitySet(
    (
        DiscreteDistribution(0.5, [-3, -2], [0.25, 0.75]),
        DiscreteDistribution(0.5, [4, 5, 7], [0.5, 0.0, 0.5]),
    )
)


class TestFamilyRoute:
    """One evaluation on the union support gives the per-law bits."""

    def families(self, rng):
        return [DISJOINT] + [_random_family(rng) for _ in range(30)]

    def test_union_support_and_columns(self):
        np.testing.assert_array_equal(DISJOINT.support, [-1.5, -1.0, 2.0, 2.5, 3.5])
        for law, cols in zip(DISJOINT.laws, DISJOINT.columns):
            np.testing.assert_array_equal(DISJOINT.support[cols], law.support)
        with pytest.raises(ValueError):
            DISJOINT.support[0] = 0.0

    def test_expectations_match_per_law(self, rng):
        for aset in self.families(rng):
            for phi in _catalog_draws(rng):
                _assert_same_bits(
                    per_law_expectations(aset, phi), [law.expectation(phi) for law in aset.laws]
                )
                _assert_same_bits(upper_expectation(aset, phi), ref.upper(aset, phi))
                _assert_same_bits(lower_expectation(aset, phi), ref.lower(aset, phi))

    def test_capacities_and_envelope_match_per_law(self, rng):
        for aset in self.families(rng):
            env = moment_envelope(aset)
            _assert_same_bits(
                [env.mean_lower, env.mean_upper, env.var_lower, env.var_upper],
                ref.moment_envelope(aset),
            )
            for _ in range(10):
                a, b = random_interval(rng, aset)
                event = lambda x: (x >= a) & (x <= b)
                _assert_same_bits(capacity_pair(aset, event), ref.capacity_pair(aset, event))
            # no law reaches the event: both capacities are zero, and the lower
            # one must carry the sign of -max(E[-0]) as the reference does
            never = lambda x: x > 100.0
            _assert_same_bits(capacity_pair(aset, never), ref.capacity_pair(aset, never))
            assert capacity_pair(aset, never) == (0.0, 0.0)

    def test_joint_matches_per_law(self, rng):
        families = self.families(rng)
        for xset, yset in zip(families, families[1:] + families[:1]):
            s, t = rng.uniform(-2.0, 2.0, size=2)
            ind_x = indicator_of(lambda x: x > s)
            ind_y = indicator_of(lambda y: y > t)
            fs = [lambda x, y: ind_x(x) * ind_y(y), lambda x, y: -(ind_x(x) * ind_y(y))]
            fs += [lambda x, y, phi=phi: phi(x + y) - x * y for phi in _catalog_draws(rng)]
            for f in fs:
                _assert_same_bits(joint_expectation(xset, yset, f), ref.joint(xset, yset, f))

    def test_scalar_only_callables_fall_back(self, ref_set):
        f = lambda x: math.exp(float(x))
        event = lambda x: float(x) > 0.3
        for aset in (ref_set, DISJOINT):
            per_law = [law.expectation(f) for law in aset.laws]
            _assert_same_bits(per_law_expectations(aset, f), per_law)
            _assert_same_bits(lower_expectation(aset, f), ref.lower(aset, f))
            _assert_same_bits(capacity_pair(aset, event), ref.capacity_pair(aset, event))

    def test_nonfinite_names_smallest_support_point(self):
        # law 0 fails first at -0.5, law 1 at -1.5: the union's smallest point is named
        aset = AmbiguitySet((coin(0.5, 1), DiscreteDistribution(0.5, [-3], [1.0])))
        with np.errstate(invalid="ignore"):
            with pytest.raises(EvaluationError, match=r"value nan at support point x=-1\.5"):
                upper_expectation(aset, np.log)
        # a lower expectation reports f's value, not -f's
        with pytest.raises(EvaluationError, match=r"value -inf at support point x=-1\.5"):
            lower_expectation(aset, lambda x: np.where(x < 0.0, -np.inf, x))
