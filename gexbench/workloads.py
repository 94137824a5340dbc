"""The three workloads: seeded inputs, one operation per call, and a check
for every operation.

Each workload is a fixed cycle of operations built from ``--seed``.  The
benchmark runs whole cycles as a closed loop (one client, one thread, the
next operation starts when the previous one returns), so every run sees
the same operation mix.  Checks run after the timed loop, in the order the
operations ran.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

WHY = {
    "cli-session": (
        "how users run the lab: one fresh `python -m gexlab` per call, so import (mostly scipy) "
        "dominates; fuzz, the brute-force oracle, serialize and the config/IO paths work only here"
    ),
    "dp-scan": (
        "in-process moment scans over n = 256..4096, where `_kernels.dp_step` on 10^3-10^5-point "
        "arrays does nearly all the work; no PDE runs and import is paid only in setup"
    ),
    "pde-solve": (
        "in-process G-heat solves at dx = 0.01, sigma_hi = 1, where `_kernels.gheat_march` on "
        "~1.2k-node arrays does nearly all the work and `dp_step` none"
    ),
}

OP_TIMEOUT_S = 120.0
DP_NS = (256, 512, 1024, 2048, 4096)
PDE_DX = 0.01
PDE_SIGMA_HI = 1.0


@dataclass
class Op:
    """One benchmark operation.

    ``run(tracer)`` performs it and returns what the check needs;
    ``check(result)`` returns None or a failure message; ``work(result)``
    counts the operation's work in the workload's own unit.
    """

    label: str
    run: Callable[[object], object]
    check: Callable[[object], str | None]
    work: Callable[[object], float] = field(default=lambda result: 0.0)


def gexlab_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

CLI_DEFAULTS = ("axioms", "independence", "moments", "clt", "gheat", "oracle")


def _mean_zero_law_spec(rng, step: float) -> dict:
    """Symmetric law on {-a, 0, a} with seeded a and weight; mean exactly zero."""
    a = int(rng.integers(1, 4))
    p = float(rng.uniform(0.3, 1.0))
    atoms = [{"k": -a, "p": p / 2}, {"k": 0, "p": 1.0 - p}, {"k": a, "p": p / 2}]
    return {"step": step, "atoms": atoms}


def _drift_law_spec(rng) -> dict:
    """Law on {0, k} with k > 0, so its mean k*p is at least 0.2."""
    k = int(rng.integers(1, 4))
    p = float(rng.uniform(0.2, 0.8))
    return {"step": 1.0, "atoms": [{"k": 0, "p": 1.0 - p}, {"k": k, "p": p}], "label": "drift"}


class CliSession:
    """Operations as fresh gexlab processes; checks compare with the first call."""

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.env = gexlab_env(root)
        rng = np.random.default_rng(seed)
        good = workdir / "family.json"
        good.write_text(json.dumps({"ambiguity": [_mean_zero_law_spec(rng, 0.5) for _ in range(2)]}))
        bad = workdir / "drift.json"
        bad.write_text(json.dumps({"ambiguity": [_mean_zero_law_spec(rng, 1.0), _drift_law_spec(rng)]}))
        self.csv_out = workdir / "report.csv"
        specs = [(name, [name], 0, None) for name in CLI_DEFAULTS]
        specs.append(
            ("moments-config-csv",
             ["moments", "--config", str(good), "--format", "csv", "--out", str(self.csv_out)],
             0, self.csv_out)
        )
        specs.append(("moments-drift", ["moments", "--config", str(bad)], 3, None))
        self.first: dict[str, bytes] = {}
        self.cycle = [self._op(*spec) for spec in specs]

    def _op(self, label, argv, expected, out_path):
        def run(tracer):
            if out_path is not None and out_path.exists():
                out_path.unlink()
            if tracer is None:
                cmd = [sys.executable, "-m", "gexlab", *argv]
            else:
                spans = self.workdir / "spans.json"
                cmd = [sys.executable, str(self.root / "gexbench" / "traced_cli.py"), str(spans), "--", *argv]
            proc = subprocess.run(
                cmd, cwd=self.workdir, env=self.env, capture_output=True, timeout=OP_TIMEOUT_S
            )
            output = proc.stdout
            if out_path is not None:
                output += b"\n--- " + out_path.name.encode() + b" ---\n"
                output += out_path.read_bytes() if out_path.exists() else b"<missing>"
            if tracer is not None:
                with open(spans, encoding="utf-8") as fh:
                    tracer.merge(json.load(fh))
                spans.unlink()
            return proc.returncode, output

        def check(result):
            code, output = result
            first = self.first.setdefault(label, output)
            return checks.check_cli(code, expected, output, first)

        return Op(label, run, check)


# ---------------------------------------------------------------------------
# dp-scan
# ---------------------------------------------------------------------------


def _random_family(rng, step: float = 0.5):
    """Two mean-zero laws with atom span [-2, 2], ordered in convex order.

    The top law puts mass a/2 on each of -2, +2 and 1-a on 0; the other puts
    b/2 on each of -1, +1 and 1-b on 0.  With b <= 2a the second is a
    mean-preserving contraction of the first, so for convex payoffs the
    worst case is the top law at every step.
    """
    a = float(rng.uniform(0.55, 1.0))
    b = float(rng.uniform(0.2, 1.0))
    top = (np.array([-2, 0, 2]), np.array([a / 2, 1.0 - a, a / 2]))
    inner = (np.array([-1, 0, 1]), np.array([b / 2, 1.0 - b, b / 2]))
    return step, [top, inner]


def _dp_updates(laws, ns) -> float:
    """Sum over sweeps of output points times total atoms, for one scan."""
    k_lo = min(int(ks.min()) for ks, _ in laws)
    k_hi = max(int(ks.max()) for ks, _ in laws)
    big_k = max(-k_lo, k_hi)
    atoms = sum(len(ks) for ks, _ in laws)
    span = k_hi - k_lo
    total = 0
    for n in ns:
        total += n * (2 * n * big_k + 1) - span * n * (n + 1) // 2
    return float(total * atoms)


class DpScan:
    """Moment scans on the reference family and seeded convex-ordered families."""

    N_RANDOM = 3

    def __init__(self, seed: int, gx):
        self.gx = gx
        rng = np.random.default_rng(seed)
        ref = gx.experiments.reference_set()
        families = [("reference", ref.step, [(law.indices, law.probs) for law in ref.laws], ref)]
        for i in range(self.N_RANDOM):
            step, laws = _random_family(rng)
            aset = gx.AmbiguitySet(tuple(gx.DiscreteDistribution(step, ks, ps) for ks, ps in laws))
            families.append((f"family{i}", step, laws, aset))
        self._pmfs: dict[str, dict] = {}
        self.cycle = []
        for name, step, laws, aset in families:
            r = float(rng.uniform(2.5, 4.0))
            second = [float(ps @ (ks * step) ** 2) for ks, ps in laws]
            work = _dp_updates(laws, DP_NS)
            self.cycle.append(Op(f"scan-{name}", self._scan(aset, r), self._scan_check(name, step, laws, r),
                                 lambda result, w=work: w))
            self.cycle.append(Op(f"uniform-{name}", self._uniform(aset), self._uniform_check(second),
                                 lambda result, w=work: w))

    def _scan(self, aset, r):
        experiments = self.gx.experiments
        return lambda tracer: experiments.moment_scan(aset, r, DP_NS).entries

    def _uniform(self, aset):
        experiments = self.gx.experiments
        return lambda tracer: experiments.uniform_moment_check(aset, 1.0, DP_NS).entries

    def _scan_check(self, name, step, laws, r):
        def check(entries):
            for n, value in entries:
                if name == "reference":
                    msg = checks.check_coin(value, n, r)
                else:
                    pmfs = self._law_pmfs(name, laws)
                    msg = checks.check_convolve(value, [checks.single_law_moment(p[n], step, r) for p in pmfs])
                if msg:
                    return f"n={n}: {msg}"
            return None

        return check

    def _law_pmfs(self, name, laws):
        if name not in self._pmfs:
            self._pmfs[name] = [checks.law_sum_pmfs(ks, ps, DP_NS) for ks, ps in laws]
        return self._pmfs[name]

    @staticmethod
    def _uniform_check(second):
        def check(entries):
            for n, value in entries:
                msg = checks.check_square(value, second)
                if msg:
                    return f"n={n}: {msg}"
            return None

        return check


# ---------------------------------------------------------------------------
# pde-solve
# ---------------------------------------------------------------------------

PDE_SHAPES = ("abs", "negabs", "square", "negsquare", "abspow", "ramp")


class PdeSolve:
    """G-normal solves of closed-form catalog shapes at a fixed grid size.

    Each shape appears twice per cycle.  sigma_lo and the shape argument
    are drawn stratified, one draw from each half of their range, so every
    cycle covers both small and large sigma_lo.
    """

    def __init__(self, seed: int, gx):
        self.gx = gx
        rng = np.random.default_rng(seed)
        cases = []
        for shape in PDE_SHAPES:
            for half in (0, 1):
                u = (half + rng.uniform()) / 2.0
                sigma_lo = float((half + rng.uniform()) / 2.0)
                arg = {"abspow": 1.0 + 3.0 * u, "ramp": -1.0 + 2.0 * u}.get(shape)
                phi = gx.make_phi(shape) if arg is None else gx.make_phi(shape, arg)
                cases.append((shape, arg or 0.0, sigma_lo, phi))
        self.errors: list[tuple[float, float]] = []
        self.cycle = [self._op(*cases[i]) for i in rng.permutation(len(cases))]

    def _op(self, shape, arg, sigma_lo, phi):
        gheat = self.gx.gheat
        params = gheat.GParams(sigma_lo, PDE_SIGMA_HI)

        def run(tracer):
            sol = gheat.g_normal_solution(params, phi, dx=PDE_DX)
            return sol.value_at(0.0), sol.xs.size, sol.steps_taken

        def check(result):
            value = result[0]
            ref, sigma = checks.pde_reference(shape, arg, sigma_lo, PDE_SIGMA_HI)
            err = abs(value - ref)
            self.errors.append((err, checks.pde_error_constant(err, sigma, PDE_DX)))
            return checks.check_pde(value, shape, arg, sigma_lo, PDE_SIGMA_HI, PDE_DX)

        return Op(f"{phi.label}@{sigma_lo:.3f}", run, check, lambda result: float(result[1] * result[2]))
