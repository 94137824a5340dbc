"""Machine-speed probes.

On a shared host (measured on a 2-vCPU Intel Xeon KVM guest) the speed
drifts by 20-40% over seconds to minutes when other guests load it.  CPU
time drifts with wall time, so it is no cure, and the operations' own
median cannot cancel a drift that lasts the whole run.  The benchmark
therefore measures the host's slowness (1.0 at nominal speed) before the
first and after every operation, and divides the operation's time by the
geometric mean of the two readings.

Two probes share no code with gexlab.  ``spawn`` starts an interpreter
that does nothing (``python -c pass``); it tracks the process start-up and
import costs of fresh-process operations and of the setup imports.
``loop`` is a fixed in-process loop in three parts that resemble the
in-process workloads: interpreted Python, numpy sweeps over a 16k-point
array as in ``dp_step``, and a three-point stencil over a 1.2k-point array
as in ``gheat_march``.  In-process workloads read the geometric mean of
both, so an anomaly of one probe moves the reading by half.  On six
22-second runs of ``pde-solve`` the run-to-run spread of the median
operation time was 0.14 in wall seconds and 0.03 rescaled.
"""

from __future__ import annotations

import math
import subprocess
import sys
from time import perf_counter

import numpy as np

# Median probe times on a 2-vCPU Intel Xeon KVM guest (Python 3.11,
# numpy 2.4); rescaled times are seconds at that speed.
SPAWN_NOMINAL_S = 0.06
LOOP_NOMINAL_S = 0.0017

_SWEEP = np.linspace(0.0, 1.0, 16389)
_PROFILE = np.abs(np.linspace(-6.0, 6.0, 1201))


def _interpreter() -> None:
    acc = 0
    table = {}
    for i in range(15000):
        acc += (i * 7) % 13
        table[i & 255] = acc


def _sweeps() -> None:
    out = np.full(16385, -np.inf)
    acc = np.empty(16385)
    for _ in range(48):
        acc[:] = 0.0
        for k in (0, 2, 4):
            acc += 0.3 * _SWEEP[k : k + 16385]
        np.maximum(out, acc, out=out)


def _stencil() -> None:
    u = _PROFILE.copy()
    for _ in range(150):
        d2 = u[:-2] - 2.0 * u[1:-1] + u[2:]
        u[1:-1] += 0.2 * np.maximum(d2, 0.0) - 0.05 * np.maximum(-d2, 0.0)


def spawn(env: dict) -> float:
    """Seconds to start and stop ``python -c pass``."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, capture_output=True, check=True, timeout=60)
    return perf_counter() - t0


def loop() -> float:
    """Geometric mean of the three in-process parts' seconds."""
    logs = 0.0
    for part in (_interpreter, _sweeps, _stencil):
        t0 = perf_counter()
        part()
        logs += math.log(perf_counter() - t0)
    return math.exp(logs / 3.0)


def slowness(env: dict, in_process: bool) -> float:
    """Host slowness: 1.0 at nominal speed, 1.2 when 20% slow."""
    factor = spawn(env) / SPAWN_NOMINAL_S
    if in_process:
        factor = math.sqrt(factor * loop() / LOOP_NOMINAL_S)
    return factor


def rescale(seconds: float, before: float, after: float) -> float:
    """Seconds at nominal speed, from the slowness readings on either side."""
    return seconds / math.sqrt(before * after)
