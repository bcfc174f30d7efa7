"""Closed-form reference values for the benchmark's correctness checks.

Nothing here imports taulattice: every value comes from a formula, so a
defect on the timed path cannot certify itself.
"""

from __future__ import annotations

import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)
LOG_PI = math.log(math.pi)


def log_nu(k: int) -> float:
    """log of the skew norm nu_k = sqrt(pi) (2k)! / 4^k."""
    return 0.5 * LOG_PI + math.lgamma(2 * k + 1) - k * math.log(4.0)


def log_tau_unitary(n: int, t2: float = 0.0) -> float:
    """log tau_n of the unitary ensemble with only t2 set.

    At t2 = 0 this is the Selberg product prod_{k<n} sqrt(2 pi) k!; the
    coupling rescales the Gaussian, multiplying by (1 - 2 t2)^(-n^2/2).
    """
    base = sum(0.5 * LOG_2PI + math.lgamma(k + 1) for k in range(n))
    return base - 0.5 * n * n * math.log(1.0 - 2.0 * t2)


def log_tau_orthogonal(size: int, t2: float = 0.0) -> float:
    """log tau_{2n} of the orthogonal ensemble with only t2 set (size = 2n).

    At t2 = 0 this is the nu-product prod_{k<n} nu_k; the coupling multiplies
    by (1 - 2 t2)^(-n(2n+1)/2).
    """
    n = size // 2
    base = sum(log_nu(k) for k in range(n))
    return base - 0.5 * n * (2 * n + 1) * math.log(1.0 - 2.0 * t2)


def goe_band_entry(k: int, n: int) -> float:
    """Zero-coupling band entry w^k_n = 2 sqrt(prod_{i=n}^{n+k-1} 2i/(2i-1)), k >= 1."""
    return 2.0 * math.sqrt(math.prod(2.0 * i / (2.0 * i - 1.0) for i in range(n, n + k)))


def kp_u(n: int) -> float:
    """u = 2 d^2/dt1^2 log tau_n at the Gaussian point: tau_n(t1) grows like
    exp(n t1^2 / 2), so u = 2n."""
    return 2.0 * n


def delta_mu(n: int) -> float:
    """log(tau_{2n} tau_{2n+4} / tau_{2n+2}^2) at zero coupling = log(nu_{n+1} / nu_n)."""
    return log_nu(n + 1) - log_nu(n)


# Two-eigenvalue orthogonal ensemble at zero coupling (matrix moments of GOE_2).
PAIR_E_SUM_SQ = 2.0   # E[(z1 + z2)^2]
PAIR_E_SQ_SUM = 3.0   # E[z1^2 + z2^2]

SKEW_NU0 = math.sqrt(math.pi)          # <Q0, Q1>
SKEW_NU1 = math.sqrt(math.pi) / 2.0    # <Q2, Q3>


def reduced_scaling(t: float, wm1_0: float = 0.5) -> float:
    """W^{-1}(t) on the pure-t2 family; W^k stay at their initial value."""
    return wm1_0 / (1.0 - 2.0 * t)


def hopf_linear(c: float, k: int, x: np.ndarray, t: float) -> np.ndarray:
    """Solution of u = u0(x + c u^k t) for u0(q) = q, k in {1, 2}."""
    x = np.asarray(x, dtype=float)
    if k == 1:
        return x / (1.0 - c * t)
    if k == 2:
        a = c * t
        return 2.0 * x / (1.0 + np.sqrt(1.0 - 4.0 * a * x))
    raise ValueError("closed form known for k = 1, 2 only")
