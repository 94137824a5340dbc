import pytest

from gexlab.ambiguity import AmbiguitySet, DiscreteDistribution, moment_envelope
from gexlab.errors import ConfigurationError, HypothesisError, ValidationError
from gexlab.experiments import (
    CltReport,
    MomentScanReport,
    clt_convergence,
    moment_scan,
    reference_set,
    require_mean_zero,
    uniform_moment_check,
    variance_subadditivity_check,
)
from gexlab.phis import make_phi


def single_coin() -> AmbiguitySet:
    law = DiscreteDistribution.from_atoms(1.0, [(-1, 0.5), (1, 0.5)])
    return AmbiguitySet((law,))


def biased_set() -> AmbiguitySet:
    law = DiscreteDistribution.from_atoms(1.0, [(1, 1.0)])
    return AmbiguitySet((law,), labels=("drift",))


class TestReferenceSet:
    def test_labels_and_step(self, ref_set):
        assert ref_set.labels == ("coin +-1", "coin +-0.5")
        assert ref_set.step == 0.5

    def test_envelope(self, ref_set):
        env = moment_envelope(ref_set)
        assert (env.mean_lower, env.mean_upper) == (0.0, 0.0)
        assert (env.var_lower, env.var_upper) == (0.25, 1.0)


class TestRequireMeanZero:
    def test_reference_passes(self, ref_set):
        require_mean_zero(ref_set)

    def test_violation_names_the_law(self):
        with pytest.raises(HypothesisError, match="drift"):
            require_mean_zero(biased_set())

    def test_asymmetric_zero_mean_passes(self):
        # -1 w.p. 2/3 and +2 w.p. 1/3: the float means cancel exactly
        law = DiscreteDistribution.from_atoms(1.0, [(-1, 2.0 / 3.0), (2, 1.0 / 3.0)])
        require_mean_zero(AmbiguitySet((law,)))


class TestMomentScan:
    def test_rejects_small_r(self, ref_set):
        with pytest.raises(ValidationError, match="r > 2"):
            moment_scan(ref_set, 2.0, [4, 8, 16, 32])

    def test_rejects_non_dyadic(self, ref_set):
        with pytest.raises(ConfigurationError, match="powers of two"):
            moment_scan(ref_set, 3.0, [4, 8, 12, 16])

    def test_rejects_short_list(self, ref_set):
        with pytest.raises(ConfigurationError, match="4 entries"):
            moment_scan(ref_set, 3.0, [4, 8, 16])

    def test_rejects_biased_set(self):
        with pytest.raises(HypothesisError):
            moment_scan(biased_set(), 3.0, [4, 8, 16, 32])

    def test_degenerate_fit(self):
        flat = AmbiguitySet((DiscreteDistribution.from_atoms(1.0, [(0, 1.0)]),))
        with pytest.raises(ConfigurationError, match="degenerate fit"):
            moment_scan(flat, 3.0, [1, 2, 4, 8])

    def test_reference_passes(self, ref_set):
        report = moment_scan(ref_set, 3.0, [32, 4, 16, 8])
        assert [n for n, _ in report.entries] == [4, 8, 16, 32]
        assert report.passed
        assert report.fitted_slope <= 1.6
        assert report.fitted_k == max(a / n**1.5 for n, a in report.entries)

    def test_single_law_quartic_growth(self):
        # classical fourth moment of a +-1 walk: 3n^2 - 2n
        report = moment_scan(single_coin(), 4.0, [4, 8, 16, 32])
        for n, a in report.entries:
            assert a == pytest.approx(3.0 * n * n - 2.0 * n, rel=1e-12)
        assert report.passed

    def test_projections(self, ref_set):
        report = moment_scan(ref_set, 3.0, [4, 8, 16, 32])
        d = report.to_dict()
        assert list(d) == ["r", "entries", "fittedSlope", "fittedK", "pass"]
        assert d["entries"][0] == {"n": 4, "aN": report.entries[0][1]}
        assert MomentScanReport.CSV_HEADER == ("n", "a_n", "n_pow_r_half", "ratio")
        rows = report.csv_rows()
        assert len(rows) == 4
        n, a, growth, ratio = rows[2]
        assert growth == 16.0**1.5
        assert ratio == a / growth


class TestVarianceSubadditivity:
    def test_rejects_bad_n(self, ref_set):
        with pytest.raises(ValidationError):
            variance_subadditivity_check(ref_set, 0)

    def test_rejects_biased_set(self):
        with pytest.raises(HypothesisError):
            variance_subadditivity_check(biased_set(), 4)

    def test_reference_all_pass(self, ref_set):
        rows = variance_subadditivity_check(ref_set, 16)
        assert [row.n for row in rows] == list(range(1, 17))
        assert all(row.passed for row in rows)
        assert rows[0].lhs == rows[0].rhs == 1.0

    def test_single_law_is_additive(self):
        rows = variance_subadditivity_check(single_coin(), 12)
        for row in rows:
            assert abs(row.lhs - row.rhs) <= 1e-10

    def test_row_dict(self, ref_set):
        row = variance_subadditivity_check(ref_set, 1)[0]
        assert row.to_dict() == {"n": 1, "lhs": 1.0, "rhs": 1.0, "pass": True}


class TestCltConvergence:
    def test_rejects_biased_set(self):
        with pytest.raises(HypothesisError):
            clt_convergence(biased_set(), make_phi("abs"), [2, 4])

    def test_rejects_empty_n_list(self, ref_set):
        with pytest.raises(ValidationError, match="nList must be non-empty"):
            clt_convergence(ref_set, make_phi("abs"), [])

    def test_reference_abs_converges(self, ref_set):
        report = clt_convergence(ref_set, make_phi("abs"), [4, 16, 64])
        assert report.envelope.var_upper == 1.0
        assert [n for n, _, _ in report.entries] == [4, 16, 64]
        for n, dp, err in report.entries:
            assert err == abs(dp - report.pde_value)
        assert report.errors_decreasing
        assert report.final_error == report.entries[-1][2]
        assert report.final_error < report.entries[0][2]

    def test_square_entries_sit_on_upper_variance(self, ref_set):
        # convex quadratic data: every normalized sum already equals varUpper
        report = clt_convergence(ref_set, make_phi("square"), [2, 8, 32])
        values = [dp for _, dp, _ in report.entries]
        assert max(values) - min(values) <= 1e-12
        for v in values:
            assert abs(v - report.envelope.var_upper) <= 1e-10

    def test_projections(self, ref_set):
        report = clt_convergence(ref_set, make_phi("abs"), [4, 16])
        d = report.to_dict()
        assert list(d) == [
            "phi",
            "envelope",
            "pdeValue",
            "entries",
            "errorsDecreasing",
            "finalError",
        ]
        assert d["phi"]["name"] == "abs"
        assert d["envelope"]["varLower"] == 0.25
        assert d["entries"][0]["n"] == 4
        assert CltReport.CSV_HEADER == ("n", "dpValue", "pdeValue", "absError")
        rows = report.csv_rows()
        assert rows[0][2] == report.pde_value


class TestUniformMomentCheck:
    def test_rejects_small_p(self, ref_set):
        with pytest.raises(ValidationError, match="p >= 1"):
            uniform_moment_check(ref_set, 0.5, [2, 4, 8])

    def test_reference_bounded(self, ref_set):
        report = uniform_moment_check(ref_set, 1.0, [2, 4, 8, 16, 32, 64])
        assert report.passed
        assert report.slope <= 0.1
        # b_n = normalized second moment, pinned to the variance envelope
        assert report.max_value <= 1.0 + 1e-9

    def test_single_law_fourth_moment_formula(self):
        report = uniform_moment_check(single_coin(), 3.0, [2, 4, 8, 16])
        for n, b in report.entries:
            assert b == pytest.approx(3.0 - 2.0 / n, rel=1e-12)
        assert report.passed

    def test_dict_keys(self, ref_set):
        d = uniform_moment_check(ref_set, 1.0, [2, 4, 8]).to_dict()
        assert list(d) == ["p", "entries", "maxValue", "slope", "pass"]
        assert d["entries"][0] == {"n": 2, "bN": d["entries"][0]["bN"]}
