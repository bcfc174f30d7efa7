"""Machine-speed probe, so that task times compare across runs.

On a shared machine the same fixed work can take twice as long from one
ten-second stretch to the next, because other tenants load the cores; the
process's CPU time slows just as much, so it gives no escape. The benchmark
therefore times this probe right before and right after every task and
reports the task's time scaled to the probe's reference duration:

    time at reference speed = measured time * (REF_S / probe time) ** exponent

with the factor taken as the median over the neighbouring tasks (see
run.SPEED_WINDOW).

The probe mixes the kinds of work taulattice does: numpy calls on short
and on mid-sized arrays, plain Python arithmetic and dict stores, and small
dense solves. Its result is the geometric mean of the four parts' times.
Only benchmark code runs here, so a change to taulattice cannot move it.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# The probe's geometric-mean part time on an unloaded two-core x86-64
# machine (Python 3.11, numpy 2.4, one BLAS thread); it only sets the scale.
REF_S = 4.0e-4

_A = np.linspace(0.0, 1.0, 64)
_B = np.linspace(1.0, 2.0, 64)
_M1 = np.linspace(0.0, 1.0, 4096)
_M2 = np.linspace(1.0, 2.0, 4096)
_K = np.random.default_rng(0).standard_normal((32, 32)) + 32.0 * np.eye(32)


def _short_arrays():
    y = _A.copy()
    for _ in range(300):
        y = y + 1e-3 * (y * _B - _A)
    return y


def _python():
    acc = 0.0
    d = {}
    for i in range(3000):
        acc += i * 0.5
        d[i & 15] = acc
    return acc


def _mid_arrays():
    y = _M1.copy()
    for _ in range(40):
        y = y + 1e-3 * (y * _M2 - _M1)
    return y


def _solves():
    for _ in range(30):
        x = np.linalg.solve(_K, _A[:32])
    return x


_PARTS = (_short_arrays, _python, _mid_arrays, _solves)


def probe() -> float:
    """Geometric mean of the parts' wall times, in seconds (about 2 ms in all)."""
    logs = 0.0
    for part in _PARTS:
        t0 = perf_counter()
        part()
        logs += math.log(perf_counter() - t0)
    return math.exp(logs / len(_PARTS))


def factor(before: float, after: float, exponent: float = 1.0) -> float:
    """Scale from measured time to time at reference speed.

    `exponent` is how strongly the scaled work follows the probe: 1 when it
    slows exactly as much, less when a load slows it less.
    """
    return (REF_S / (0.5 * (before + after))) ** exponent
