import math

import numpy as np
import pytest

import per_law_reference as ref
from gexlab import _kernels
from gexlab.errors import SizeError, ValidationError
from gexlab.experiments import require_mean_zero
from gexlab.fuzz import (
    AXIOM_TRIAL_UPDATES,
    INDEPENDENCE_PAIR_UPDATES,
    SuiteReport,
    axiom_suite,
    capacity_duality_suite,
    independence_suite,
    random_ambiguity_set,
    random_catalog_phi,
    random_interval,
    random_oracle_set,
)
from gexlab.pengsum import count_adapted_strategies
from gexlab.serialize import dumps_json


class TestGenerators:
    def test_random_set_shape(self, rng):
        for _ in range(20):
            aset = random_ambiguity_set(rng)
            assert aset.step in (0.25, 0.5)
            assert 1 <= len(aset.laws) <= 4
            for law in aset.laws:
                assert np.abs(law.support).max() <= 2.5 + 1e-15

    def test_mean_zero_draws(self, rng):
        for _ in range(20):
            require_mean_zero(random_ambiguity_set(rng, mean_zero=True))

    def test_catalog_phi_is_callable(self, rng):
        xs = np.linspace(-2.0, 2.0, 9)
        for _ in range(30):
            phi = random_catalog_phi(rng)
            vals = np.asarray(phi(xs), dtype=np.float64)
            assert vals.shape == xs.shape
            assert np.isfinite(vals).all()

    def test_oracle_set_respects_ceiling(self, rng):
        for _ in range(20):
            aset = random_oracle_set(rng, n=4)
            assert count_adapted_strategies(aset, 4) <= 10**6

    def test_oracle_set_long_walk_forces_single_law(self, rng):
        # two laws and 20 steps make at least 2 ** 20 > 10 ** 6 strategies
        for _ in range(5):
            assert len(random_oracle_set(rng, n=20).laws) == 1

    def test_interval_overlaps_support(self, rng):
        aset = random_ambiguity_set(rng)
        pts = np.concatenate([law.support for law in aset.laws])
        for _ in range(10):
            a, b = random_interval(rng, aset)
            assert a <= b
            assert a >= pts.min() - aset.step - 1e-12
            assert b <= pts.max() + aset.step + 1e-12


SUITES = [
    lambda seed: axiom_suite(seed, 2),
    lambda seed: capacity_duality_suite(seed, 2, 2),
    lambda seed: independence_suite(seed, 1),
]


class TestSuiteSeeds:
    @pytest.mark.parametrize("suite", SUITES)
    @pytest.mark.parametrize("seed", [-1, 2.7, float("nan"), "3", True, None])
    def test_bad_seed_refused(self, suite, seed):
        with pytest.raises(ValidationError, match="seed"):
            suite(seed)

    @pytest.mark.parametrize("suite", SUITES)
    def test_whole_seeds_accepted(self, suite):
        assert suite(3.0).to_dict() == suite(3).to_dict() == suite(np.int64(3)).to_dict()
        assert suite(0).seed == 0
        assert suite(2**80).seed == 2**80


class TestSuiteReport:
    def test_empty_checks(self):
        report = SuiteReport("empty", 0, 0, 1e-12, {})
        assert report.max_violation == 0.0
        assert report.passed

    def test_dict_and_csv_projections(self):
        report = SuiteReport("demo", 3, 7, 1e-12, {"a": 1e-15, "b": 2e-15})
        d = report.to_dict()
        assert list(d) == [
            "kind", "trials", "seed", "tolerance", "checks", "maxViolation", "pass",
        ]
        assert d["maxViolation"] == 2e-15
        assert report.csv_rows() == [("a", 1e-15), ("b", 2e-15)]


class TestSuites:
    def test_axiom_suite_passes(self):
        report = axiom_suite(9, trials=40)
        assert report.passed
        assert set(report.checks) == {
            "monotonicity",
            "constantPreserving",
            "subAdditivity",
            "positiveHomogeneity",
            "capacityDuality",
        }
        assert all(v >= 0.0 for v in report.checks.values())

    def test_axiom_suite_is_seed_deterministic(self):
        assert axiom_suite(9, trials=40).to_dict() == axiom_suite(9, trials=40).to_dict()

    def test_capacity_duality_suite_passes(self):
        report = capacity_duality_suite(11, n_sets=4, n_events=20)
        assert report.passed
        assert report.trials == 80

    def test_independence_suite_passes(self):
        report = independence_suite(3, n_pairs=2)
        assert report.passed
        assert set(report.checks) == {"upperFactorization", "lowerFactorization"}

    @pytest.mark.parametrize("bad", [0, -5, 2.7, True, math.inf, math.nan])
    @pytest.mark.parametrize(
        "name,run",
        [
            ("trials", lambda v: axiom_suite(0, v)),
            ("n_pairs", lambda v: independence_suite(0, n_pairs=v)),
            ("n_sets", lambda v: capacity_duality_suite(0, n_sets=v, n_events=3)),
            ("n_events", lambda v: capacity_duality_suite(0, n_sets=3, n_events=v)),
        ],
        ids=["trials", "n_pairs", "n_sets", "n_events"],
    )
    def test_refuses_counts_that_are_not_whole_and_positive(self, name, run, bad):
        with pytest.raises(ValidationError, match=f"need (a whole number )?{name}"):
            run(bad)


class TestSuiteAdmission:
    @pytest.mark.parametrize(
        "suite, price, what",
        [(axiom_suite, AXIOM_TRIAL_UPDATES, "axiom suite"),
         (independence_suite, INDEPENDENCE_PAIR_UPDATES, "independence suite")],
        ids=["axioms", "independence"],
    )
    def test_refused_past_the_work_limit_before_a_draw(self, no_compute, suite, price, what):
        # the most admitted count gets to its first draw; one more is refused before it
        most = _kernels.MAX_WORK // (price + _kernels._STEP_COST)
        with pytest.raises(pytest.fail.Exception, match="must not compute"):
            suite(0, most)
        for count in (most + 1, 10**9, 10**400):
            with pytest.raises(SizeError, match=f"^{what} would need about .* updates"):
                suite(0, count)


class TestSuitesMatchPerLawRoute:
    """Report bytes equal those of a route that evaluates each callable per law.

    The reference runs on the same machine, so the test holds whatever the
    CPU's pow and dot bits are.  Seed 0 with 200 and 10 trials are the CLI
    defaults.
    """

    @pytest.mark.parametrize("seed", [0, 3, 101])
    def test_axiom_suite(self, seed):
        got = dumps_json(axiom_suite(seed, 200).to_dict())
        assert got == dumps_json(ref.axiom_suite(seed, 200).to_dict())

    @pytest.mark.parametrize("seed", [0, 3, 101])
    def test_independence_suite(self, seed):
        got = dumps_json(independence_suite(seed, n_pairs=10).to_dict())
        assert got == dumps_json(ref.independence_suite(seed, 10).to_dict())
