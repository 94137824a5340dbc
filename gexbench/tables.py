"""Tables the traced run adds: PDE error against cost, kernel numbers, and
the package import broken down by dependency."""

from __future__ import annotations

import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import tracing

PDE_TABLE_DXS = (0.02, 0.01, 0.005)
PDE_TABLE_BAND = (0.5, 1.0)
IMPORTTIME_RUNS = 3

DP_KERNEL_POINTS = 16385  # the n = 4096 lattice block of dp-scan's reference family
DP_KERNEL_LAWS, DP_KERNEL_ATOMS = 3, 5
MARCH_NODES = 1201  # pde-solve's grid at dx = 0.01, sigma_hi = 1
MARCH_STEPS = 1000
# second difference 3, two clamps with a negation 3, two multiplies 2,
# subtract 1, update 1
MARCH_FLOP_PER_NODE_STEP = 10
KERNEL_REPEATS = 5


def pde_error_table(gx) -> dict[str, float]:
    """Closed-form error and seconds of one solve per (phi, dx) on the band."""
    lo, hi = PDE_TABLE_BAND
    params = gx.GParams(lo, hi)
    out = {}
    for shape in ("abs", "negabs"):
        ref, _ = checks.pde_reference(shape, 0.0, lo, hi)
        for dx in PDE_TABLE_DXS:
            t0 = perf_counter()
            value = gx.g_normal_expectation(params, gx.make_phi(shape), dx=dx)
            out[f"gheat.s.{shape}.dx{dx:g}"] = perf_counter() - t0
            out[f"gheat.err.{shape}.dx{dx:g}"] = abs(value - ref)
    return out


def _best_time(fn, args) -> float:
    best = float("inf")
    for _ in range(KERNEL_REPEATS):
        t0 = perf_counter()
        fn(*args)
        best = min(best, perf_counter() - t0)
    return best


def _dp_inputs(rng):
    half = DP_KERNEL_ATOMS // 2
    values = rng.normal(size=DP_KERNEL_POINTS + 2 * half)
    law_ptr = np.arange(0, DP_KERNEL_LAWS * DP_KERNEL_ATOMS + 1, DP_KERNEL_ATOMS, dtype=np.int64)
    law_k = np.tile(np.arange(-half, half + 1, dtype=np.int64), DP_KERNEL_LAWS)
    w = rng.uniform(0.05, 1.0, size=(DP_KERNEL_LAWS, DP_KERNEL_ATOMS))
    law_p = (w / w.sum(axis=1, keepdims=True)).ravel()
    return values, law_ptr, law_k, law_p, half, DP_KERNEL_POINTS


def _march_inputs(rng):
    xs = np.linspace(-6.0, 6.0, MARCH_NODES)
    return np.abs(xs) + 0.01 * rng.normal(size=MARCH_NODES), 0.2, 0.05, MARCH_STEPS


def kernel_numbers(kernels, seed: int) -> tuple[dict[str, float], str]:
    """Best-of-5 kernel times at fixed sizes with computed work and traffic.

    Operations and bytes are computed from the array sizes, not measured:
    dp_step does a multiply and an add per atom update plus a compare per
    law and point, and must read its input and write its output once;
    gheat_march does MARCH_FLOP_PER_NODE_STEP flops per interior node per
    step and reads and writes the whole profile once per step.  No
    roofline ratio is given.
    Returns the metrics and the numpy/numba bitwise-agreement status.
    """
    rng = np.random.default_rng(seed)
    dp_args = _dp_inputs(rng)
    march_args = _march_inputs(rng)
    out = {}
    name = f"kernels.bench.dp_step.n{DP_KERNEL_POINTS}"
    flop = 2 * DP_KERNEL_POINTS * DP_KERNEL_LAWS * DP_KERNEL_ATOMS + DP_KERNEL_POINTS * DP_KERNEL_LAWS
    nbytes = 8 * (len(dp_args[0]) + DP_KERNEL_POINTS)
    out[f"{name}.s"] = _best_time(kernels.dp_step, dp_args)
    out[f"{name}.flop_computed"] = flop
    out[f"{name}.bytes_computed"] = nbytes
    out[f"{name}.flop_per_byte_computed"] = flop / nbytes
    name = f"kernels.bench.gheat_march.n{MARCH_NODES}"
    flop = MARCH_FLOP_PER_NODE_STEP * (MARCH_NODES - 2) * MARCH_STEPS
    nbytes = 16 * MARCH_NODES * MARCH_STEPS
    out[f"{name}.s"] = _best_time(kernels.gheat_march, march_args)
    out[f"{name}.flop_computed"] = flop
    out[f"{name}.bytes_computed"] = nbytes
    out[f"{name}.flop_per_byte_computed"] = flop / nbytes
    checked = 0
    status = "skipped: numba is not importable"
    if getattr(kernels, "dp_step_numba", None) is not None:
        same_dp = np.array_equal(kernels.dp_step_numpy(*dp_args), kernels.dp_step_numba(*dp_args))
        a, b = kernels.gheat_march_numpy(*march_args), kernels.gheat_march_numba(*march_args)
        same_march = a[0] == b[0] and np.array_equal(a[1], b[1])
        checked = 2
        status = "agree" if same_dp and same_march else "DIFFER"
    out["kernels.bench.bitwise_checked"] = checked
    return out, status


def import_breakdown(root: Path, env: dict) -> dict[str, float]:
    """Median over runs of ``python -X importtime -c 'import gexlab'``."""
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gexlab"],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import gexlab failed: {proc.stderr.strip()[-400:]}")
        rows = tracing.parse_importtime(proc.stderr)
        runs.append({
            "import.gexlab_s": tracing.rooted_import_s(rows, "gexlab"),
            "import.scipy_s": tracing.rooted_import_s(rows, "scipy"),
            "import.numpy_s": tracing.rooted_import_s(rows, "numpy"),
        })
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}
