"""Tests of the benchmark itself: checkers, tracer, and tiny end-to-end runs.

Run from the repository root:  python3 -m pytest gexbench/tests
The end-to-end runs take a few minutes, because each runs at least one
whole operation cycle of its workload.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PERTURB = 1e-6


def _brute_coin(n, r):
    return sum(abs(sum(s)) ** r for s in itertools.product((-1, 1), repeat=n)) / 2**n


def test_coin_closed_form_matches_enumeration():
    for n, r in ((1, 3.0), (4, 2.5), (7, 3.7)):
        assert math.isclose(checks.coin_abs_moment(n, r), _brute_coin(n, r), rel_tol=1e-13)


def test_square_check_flags_perturbation():
    moments = [1.0, 0.25]
    assert checks.check_square(1.0, moments) is None
    assert checks.check_square(1.0 * (1 + PERTURB), moments)
    assert checks.check_square(1.0 * (1 - PERTURB), moments)


def test_coin_check_flags_perturbation():
    exact = checks.coin_abs_moment(256, 3.0)
    assert checks.check_coin(exact, 256, 3.0) is None
    assert checks.check_coin(exact * (1 + PERTURB), 256, 3.0)
    assert checks.check_coin(exact * (1 - PERTURB), 256, 3.0)


def test_law_sum_pmfs_matches_enumeration():
    ks, ps = np.array([-2, 0, 2]), np.array([0.3, 0.4, 0.3])
    pmfs = checks.law_sum_pmfs(ks, ps, (1, 3))
    for n in (1, 3):
        brute = sum(
            math.prod(ps[i] for i in idx) * abs(sum(ks[i] for i in idx) * 0.5) ** 3
            for idx in itertools.product(range(3), repeat=n)
        )
        assert math.isclose(checks.single_law_moment(pmfs[n], 0.5, 3.0), brute, rel_tol=1e-13)


def test_convolve_check_flags_perturbation():
    law_values = [2.0, 1.5]
    assert checks.check_convolve(2.0, law_values) is None
    assert checks.check_convolve(2.0 * (1 - PERTURB), law_values)
    assert checks.check_convolve(2.0 * (1 + PERTURB), law_values)


@pytest.mark.parametrize("shape,arg", [
    ("abs", 0.0), ("negabs", 0.0), ("square", 0.0), ("negsquare", 0.0),
    ("abspow", 1.7), ("abspow", 3.2), ("ramp", -0.4), ("ramp", 0.8),
])
def test_gaussian_closed_forms_match_quadrature(shape, arg):
    import gexlab

    sigma = 0.7
    phi = gexlab.make_phi(shape) if shape in ("abs", "negabs", "square", "negsquare") else gexlab.make_phi(shape, arg)
    z = np.linspace(-12.0, 12.0, 240001)
    dens = np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    quad = float(np.trapezoid(phi(sigma * z) * dens, z))
    assert math.isclose(checks.gaussian_value(shape, arg, sigma), quad, rel_tol=1e-7, abs_tol=1e-9)


@pytest.mark.parametrize("shape,arg", [("abs", 0.0), ("negabs", 0.0), ("abspow", 2.5), ("ramp", 0.3),
                                       ("square", 0.0), ("negsquare", 0.0)])
def test_pde_check_flags_perturbation(shape, arg):
    # at dx = 5e-4 the tolerance is at most 2.5e-7, so a 1e-6 shift must show
    dx, lo, hi = 5e-4, 0.5, 1.0
    ref, _ = checks.pde_reference(shape, arg, lo, hi)
    assert checks.check_pde(ref, shape, arg, lo, hi, dx) is None
    assert checks.check_pde(ref + PERTURB, shape, arg, lo, hi, dx)
    assert checks.check_pde(ref - PERTURB, shape, arg, lo, hi, dx)


def test_pde_reference_reads_the_right_volatility():
    assert checks.pde_reference("abs", 0.0, 0.5, 1.0) == (checks.SQRT_2_OVER_PI, 1.0)
    assert checks.pde_reference("negsquare", 0.0, 0.5, 1.0) == (-0.25, 0.5)


def test_cli_check_flags_changed_bytes_and_exit_code():
    first = b'{\n  "value": 0.79788456080286541\n}\n'
    assert checks.check_cli(0, 0, first, first) is None
    assert checks.check_cli(0, 0, first.replace(b"0.797884", b"0.797885"), first)
    assert checks.check_cli(1, 0, first, first)


def test_importtime_breakdown():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       inspect",
        "import time:       400 |        450 |     scipy.stats",
        "import time:        10 |        460 |   scipy",
        "import time:        40 |        800 | gexlab",
    ])
    rows = tracing.parse_importtime(stderr)
    assert tracing.rooted_import_s(rows, "gexlab") == pytest.approx(800e-6)
    assert tracing.rooted_import_s(rows, "scipy") == pytest.approx(460e-6)
    assert tracing.rooted_import_s(rows, "numpy") == pytest.approx(300e-6)


def test_tracer_spans_counters_and_uninstall():
    import gexlab
    from gexlab import experiments, pengsum

    original = pengsum.sum_expectation
    ref = experiments.reference_set()
    tr = tracing.Tracer()
    tr.install()
    try:
        assert experiments.sum_expectation is not original  # re-bound name is traced
        value = gexlab.pengsum.normalized_sum_expectation(ref, 8, np.square)
    finally:
        tr.uninstall()
    assert pengsum.sum_expectation is original and experiments.sum_expectation is original
    assert value == pytest.approx(1.0, rel=1e-12)
    agg = tr.aggregate()
    assert agg["kernels.dp_step.calls"] == 8
    assert agg["kernels.dp_step.points"] == sum(33 - 4 * j for j in range(1, 9))
    assert agg["pengsum.sum_expectation.calls"] == 1
    root = agg["pengsum.normalized_sum_expectation.s"]
    assert agg["trace.self_s_total"] == pytest.approx(root, rel=1e-9)


def _run(args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable, "gexbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_every_metric_and_no_failures(workload, trace):
    proc = _run(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["correct"] is True, proc.stdout[-2000:]
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "failed_ratio = 0.0" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "gexbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "dp-scan", "--seed", "1", "--seconds", "1"], cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
