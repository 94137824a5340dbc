"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line with the measured
numbers and enforces both the stated tolerance and a runtime budget.
Run ``pytest tests/test_acceptance.py -s`` to see every line; the same
eleven checks are listed in the README.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from gexlab.ambiguity import AmbiguitySet, DiscreteDistribution
from gexlab.experiments import (
    clt_convergence,
    moment_scan,
    reference_set,
    uniform_moment_check,
    variance_subadditivity_check,
)
from gexlab.fuzz import (
    axiom_suite,
    capacity_duality_suite,
    independence_suite,
    random_ambiguity_set,
    random_oracle_set,
)
from gexlab.gheat import GParams, g_normal_expectation
from gexlab.pengsum import (
    brute_force_adapted_oracle,
    brute_force_adapted_oracle_many,
    sum_expectation,
)
from gexlab.phis import make_phi

DYADIC_NS = [4, 8, 16, 32, 64, 128, 256]


def single_coin() -> AmbiguitySet:
    law = DiscreteDistribution.from_atoms(1.0, [(-1, 0.5), (1, 0.5)])
    return AmbiguitySet((law,))


def verdict(num, description, ok, detail, elapsed, budget):
    ok = bool(ok)
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"[{status}] criterion {num:2d}: {description} "
        f"({detail}; {elapsed:.2f}s of {budget:.0f}s budget)"
    )
    assert ok, f"criterion {num}: {description}: {detail}"
    assert elapsed < budget, f"criterion {num} ran {elapsed:.2f}s, budget {budget:.0f}s"


def test_criterion_01_axioms():
    t0 = time.perf_counter()
    suite = axiom_suite(101, trials=200)
    axiom_keys = (
        "monotonicity",
        "constantPreserving",
        "subAdditivity",
        "positiveHomogeneity",
    )
    worst = max(suite.checks[k] for k in axiom_keys)
    verdict(
        1,
        "defining inequalities hold on 200 seeded random families within 1e-12",
        worst <= 1e-12,
        f"max residual {worst:.2e}",
        time.perf_counter() - t0,
        5.0,
    )


def test_criterion_02_capacity_duality():
    t0 = time.perf_counter()
    suite = capacity_duality_suite(202, n_sets=20, n_events=100)
    worst = suite.max_violation
    verdict(
        2,
        "V(A) + v(complement) = 1 within 1e-12 for 100 interval events on 20 sets",
        worst <= 1e-12,
        f"max residual {worst:.2e}",
        time.perf_counter() - t0,
        1.0,
    )


def test_criterion_03_independence_factorization():
    t0 = time.perf_counter()
    suite = independence_suite(303, n_pairs=10)
    worst = suite.max_violation
    verdict(
        3,
        "both capacities factor over product events on 5x5 threshold grids "
        "for 10 random set pairs within 1e-12",
        worst <= 1e-12,
        f"max gap {worst:.2e}",
        time.perf_counter() - t0,
        5.0,
    )


def test_criterion_04_dp_equals_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    phis = [
        make_phi("abs"),
        make_phi("square"),
        make_phi("cube"),
        make_phi("quartic"),
        make_phi("clamp", -1.0, 1.0),
    ]
    worst = 0.0
    for _ in range(10):
        aset = random_oracle_set(rng, n=4)
        for n in (1, 2, 3, 4):
            oracle_vals = brute_force_adapted_oracle_many(aset, n, phis)
            for phi, oracle_val in zip(phis, oracle_vals):
                worst = max(worst, abs(sum_expectation(aset, n, phi) - oracle_val))
    verdict(
        4,
        "backward recursion equals brute-force strategy enumeration within 1e-10 "
        "on 10 random families, n up to 4, 5 catalog functions",
        worst <= 1e-10,
        f"max |dp - oracle| {worst:.2e}",
        time.perf_counter() - t0,
        60.0,
    )


def test_criterion_05_variance_subadditivity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    all_pass = True
    for _ in range(10):
        rows = variance_subadditivity_check(random_ambiguity_set(rng, mean_zero=True), 64)
        all_pass = all_pass and all(row.passed for row in rows)
    eq_worst = max(
        abs(row.lhs - row.rhs) for row in variance_subadditivity_check(single_coin(), 64)
    )
    verdict(
        5,
        "n-step second moment stays within n times the one-step bound (tol 1e-9) "
        "for n = 1..64 on 10 mean-zero families, with single-law equality to 1e-10",
        all_pass and eq_worst <= 1e-10,
        f"all rows pass, single-law gap {eq_worst:.2e}",
        time.perf_counter() - t0,
        30.0,
    )


def test_criterion_06_moment_growth_law():
    t0 = time.perf_counter()
    ref = reference_set()
    ok = True
    slopes = []
    for r in (2.5, 3.0, 4.0):
        report = moment_scan(ref, r, DYADIC_NS)
        slopes.append(f"r={r}: {report.fitted_slope:.3f}<={r / 2 + 0.1:.2f}")
        ok = ok and report.passed
        ratios = [a / n ** (r / 2.0) for n, a in report.entries[-3:]]
        ok = ok and ratios[1] <= ratios[0] * 1.05 and ratios[2] <= ratios[1] * 1.05
    # single-law anchor: the fourth moment of a +-1 walk is 3n^2 - 2n on the nose,
    # with n = 1, 2 certified by brute-force strategy enumeration
    single = single_coin()
    phi4 = make_phi("abspow", 4.0)
    scan = moment_scan(single, 4.0, DYADIC_NS)
    ok = ok and all(a == float(3 * n * n - 2 * n) for n, a in scan.entries)
    for n, want in ((1, 1.0), (2, 8.0)):
        ok = ok and brute_force_adapted_oracle(single, n, phi4) == want
        ok = ok and sum_expectation(single, n, phi4) == want
    verdict(
        6,
        "upper moments grow like n^(r/2): slopes within bounds, tail ratios "
        "non-increasing within 5%, single-law anchor exact",
        ok,
        "; ".join(slopes),
        time.perf_counter() - t0,
        60.0,
    )


def test_criterion_07_pde_degenerate_refinement():
    t0 = time.perf_counter()
    params = GParams(1.0, 1.0)
    phi = make_phi("square")
    errs = {
        dx: abs(g_normal_expectation(params, phi, dx=dx) - 1.0) for dx in (0.05, 0.025)
    }
    # For quadratic data the update is exact: the centered second difference of
    # x^2 is the constant 2, so both residuals are accumulated rounding noise,
    # not discretization error.  The refinement factor is meaningless below
    # noise level, so the check accepts either a genuine 0.6x reduction or both
    # residuals sitting under a 1e-6 floor (10^4 tighter than the headline tol).
    refined = errs[0.025] <= 0.6 * errs[0.05] or (
        errs[0.05] <= 1e-6 and errs[0.025] <= 1e-6
    )
    verdict(
        7,
        "degenerate-band solver hits the classical second moment within 1e-2 "
        "and does not lose accuracy under refinement",
        errs[0.05] <= 1e-2 and refined,
        f"err(dx=0.05) {errs[0.05]:.2e}, err(dx=0.025) {errs[0.025]:.2e}",
        time.perf_counter() - t0,
        30.0,
    )


def test_criterion_08_band_moment_identities():
    t0 = time.perf_counter()
    band = GParams(0.5, 1.0)
    up = g_normal_expectation(band, make_phi("square"))
    lo = g_normal_expectation(band, make_phi("negsquare"))
    verdict(
        8,
        "volatility band [0.5, 1]: convex quadratic sees variance 1, concave "
        "quadratic sees variance 0.25, both within 2e-2",
        abs(up - 1.0) <= 2e-2 and abs(lo + 0.25) <= 2e-2,
        f"square {up:.4f}, negsquare {lo:.4f}",
        time.perf_counter() - t0,
        30.0,
    )


def test_criterion_09_clt_convergence():
    t0 = time.perf_counter()
    ref = reference_set()
    target = math.sqrt(2.0 / math.pi)
    details = []

    rep_abs = clt_convergence(ref, make_phi("abs"), [256])
    ok = rep_abs.final_error <= 0.05 and abs(rep_abs.pde_value - target) <= 2e-2
    details.append(f"abs err {rep_abs.final_error:.4f}")

    rep_neg = clt_convergence(ref, make_phi("negabs"), [256])
    neg_target = -0.5 * target
    dp_neg = rep_neg.entries[-1][1]
    ok = ok and abs(dp_neg - neg_target) <= 0.05
    ok = ok and abs(rep_neg.pde_value - neg_target) <= 2e-2
    details.append(f"negabs err {abs(dp_neg - neg_target):.4f}")

    for name, phi in (("cube", make_phi("cube")), ("abspow:2.5", make_phi("abspow", 2.5))):
        rep = clt_convergence(ref, phi, [8, 32, 128, 256])
        ok = ok and rep.final_error <= 0.1 and rep.errors_decreasing
        details.append(f"{name} err {rep.final_error:.4f} decreasing={rep.errors_decreasing}")
    verdict(
        9,
        "normalized sums approach the PDE limit: abs within 0.05 of the "
        "half-normal value, negabs mirrors it at the lower volatility, cubic "
        "and p=2.5 growth both converge",
        ok,
        ", ".join(details),
        time.perf_counter() - t0,
        300.0,
    )


def test_criterion_10_uniform_moment_bound():
    t0 = time.perf_counter()
    ref = reference_set()
    ns = [8, 16, 32, 64, 128, 256]
    slopes = {}
    ok = True
    for p in (1.0, 2.0, 3.0):
        report = uniform_moment_check(ref, p, ns)
        slopes[p] = report.slope
        ok = ok and report.passed
    verdict(
        10,
        "normalized (p+1)-th moments stay bounded for p in {1, 2, 3}: "
        "log-log slope at most 0.1 over n = 8..256",
        ok,
        ", ".join(f"p={p:g}: slope {s:.4f}" for p, s in slopes.items()),
        time.perf_counter() - t0,
        60.0,
    )


def test_criterion_11_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": {"seed": 7, "trials": 40}}), encoding="utf-8")
    blobs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "gexlab", "axioms", "--config", str(config),
             "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes())
    identical = blobs[0] == blobs[1]

    drift = tmp_path / "drift.json"
    drift.write_text(
        json.dumps({"ambiguity": [{"step": 1.0, "atoms": [{"k": 1, "p": 1.0}]}]}),
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "gexlab", "moments", "--config", str(drift)],
        capture_output=True,
        text=True,
    )
    hypothesis_exit = proc.returncode == 3
    verdict(
        11,
        "identical config and seed give byte-identical reports; "
        "mean-zero violation exits with code 3",
        identical and hypothesis_exit,
        f"identical={identical}, drift exit {proc.returncode}",
        time.perf_counter() - t0,
        5.0,
    )
