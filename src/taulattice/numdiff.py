"""Central finite-difference stencils with one Richardson level.

An order-p derivative uses a (p+3)-point symmetric stencil, which is the
smallest central family with O(h^4) truncation for every p.  Combining the
step-h and step-h/2 evaluations as (16 D(h/2) - D(h)) / 15 removes the h^4
term.

The library takes no finite difference: the tests' reference routes for
the tau and mKP jets (`tests/reference_kernels.py`) call this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = ["stencil", "mixed_derivative"]


@lru_cache(maxsize=32)
def stencil(p: int):
    """Integer offsets and weights for the order-p central stencil.

    Returns (offsets, weights) with sum_i w_i f(x + o_i h) = h^p f^(p) + O(h^{p+4}).
    Weights are solved exactly over rationals from the moment conditions
    sum w o^q = p! delta_{qp}, q = 0..len-1.
    """
    if p < 0:
        raise ValueError("derivative order must be non-negative")
    if p == 0:
        return (0,), np.array([1.0])
    if p % 2:
        m = (p + 3) // 2
        offsets = [o for o in range(-m, m + 1) if o != 0]
    else:
        m = (p + 2) // 2
        offsets = list(range(-m, m + 1))
    n = len(offsets)
    A = [[Fraction(o) ** q for o in offsets] for q in range(n)]
    b = [Fraction(math.factorial(p) if q == p else 0) for q in range(n)]

    # Exact Gaussian elimination; n <= 7 so cost is irrelevant.
    A = [row[:] for row in A]
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        b[col], b[piv] = b[piv], b[col]
        inv = 1 / A[col][col]
        A[col] = [x * inv for x in A[col]]
        b[col] *= inv
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
                b[r] -= f * b[col]
    return tuple(offsets), np.array([float(x) for x in b])


def mixed_derivative(f, axes: dict, steps: dict):
    """Mixed partial of f over several axes by tensor-product stencils.

    f takes a dict axis -> shift.  `axes` maps axis -> derivative order,
    `steps` maps axis -> base step.  All axis steps are halved together for
    the Richardson level, so shifts land on an exact half-step lattice and
    evaluations are shared between levels through one cache.
    """
    order = {a: int(p) for a, p in axes.items() if int(p) > 0}
    if not order:
        return np.asarray(f({}), dtype=float)
    names = sorted(order)
    cache: dict[tuple, np.ndarray] = {}

    def f_units(units):
        # units: per-axis integer multiples of steps[a] / 2.
        key = tuple(units)
        if key not in cache:
            shift = {a: u * steps[a] / 2.0 for a, u in zip(names, units) if u}
            cache[key] = np.asarray(f(shift), dtype=float)
        return cache[key]

    def level(scale):
        # scale = 2 for step h, 1 for step h/2 (in half-step units).
        combos = [((), 1.0)]
        for a in names:
            offs, wts = stencil(order[a])
            combos = [(u + (o * scale,), c * w)
                      for u, c in combos for o, w in zip(offs, wts)]
        acc = None
        for units, coef in combos:
            val = coef * f_units(units)
            acc = val if acc is None else acc + val
        denom = np.prod([(steps[a] * scale / 2.0) ** order[a] for a in names])
        return acc / denom

    return (16.0 * level(1) - level(2)) / 15.0
