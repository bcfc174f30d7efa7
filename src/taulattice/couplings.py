"""Coupling vectors, the exponential weight they define, and quadrature grids.

The weight is rho(z) = exp(-z^2/2 + sum_k t_k z^k) for a finite set of
couplings t_k.  Everything downstream (Stieltjes bases, tau values, skew
products) integrates against rho on a symmetric truncated interval, so the
grid builder has to pick a radius large enough that the discarded tail is
below tolerance for every integrand degree the caller will use.  Every
grid is built by one recipe: 24-point Gauss-Legendre panels, and a radius
and panel count held to 1e-12 relative (`_POINTS_PER_PANEL`, `_GRID_TOL`).

The radius is read off an 8193-point scan of z^d rho: it is the scan point
just past the outermost one where z^d rho is at least 1e-12 times its
peak.  The panel count then doubles until the mass and a companion high
moment settle.  The companion's integrand is taken in logs and shifted by
a power of two, fixed once at the 8-panel start, so that it stays a normal
number where (z / R)^d or rho alone would underflow.  `build_quadrature`
keeps nothing: each call builds its grid, a frozen record with read-only
arrays.

The reference Gauss-Legendre rule on each panel is computed here, once:
Golub-Welsch starting nodes (eigenvalues of the Jacobi matrix) polished by
Newton steps on the three-term recurrence.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .errors import IllConditioned, NonIntegrableWeight, ToleranceUnreachable

__all__ = [
    "CouplingVector",
    "QuadratureGrid",
    "weight_eval",
    "build_quadrature",
    "cumulative_integral",
]


@dataclass(frozen=True)
class CouplingVector:
    """Finite map k -> t_k.

    Entries are stored as a sorted tuple of (k, t_k) pairs with exact zeros
    dropped, so equal vectors compare and hash equal.  An index must be a
    positive integer (numpy's included, bool not) and a value a finite
    number (not a string or a bool); a ValueError names the entry that is
    not.
    """

    entries: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        cleaned = []
        seen = set()
        for k, v in self.entries:
            if not _is_integer(k) or k < 1:
                raise ValueError(f"coupling index must be a positive integer, got {k!r}")
            if isinstance(v, (str, bytes, bool, np.bool_)):
                raise ValueError(f"coupling t_{k} must be a number, got {v!r}")
            k, v = int(k), float(v)
            if not math.isfinite(v):
                raise ValueError(f"coupling t_{k} must be finite, got {v!r}")
            if k in seen:
                raise ValueError(f"duplicate coupling index {k}")
            seen.add(k)
            if v != 0.0:
                cleaned.append((k, v))
        cleaned.sort()
        object.__setattr__(self, "entries", tuple(cleaned))

    @classmethod
    def from_mapping(cls, m: Mapping[int, float] | None):
        return cls(tuple((m or {}).items()))

    @classmethod
    def from_object(cls, data) -> "CouplingVector":
        """Couplings from a parsed JSON value: an object of index -> number,
        bare or under "t", its indices decimal strings or integers.  Anything
        else raises a ValueError."""
        t = data.get("t", data) if isinstance(data, dict) else data
        if not isinstance(t, dict) or not all(isinstance(v, numbers.Real)
                                              and not isinstance(v, bool) for v in t.values()):
            raise ValueError(f"couplings must be a JSON object of index -> number, "
                             f"got {data!r}")
        entries = []
        for k, v in t.items():
            try:
                entries.append((int(k) if isinstance(k, str) else k, v))
            except ValueError:
                raise ValueError(f"coupling index must be a positive integer, "
                                 f"got {k!r}") from None
        return cls(tuple(entries))

    def as_dict(self) -> dict[int, float]:
        return dict(self.entries)

    def get(self, k: int) -> float:
        return dict(self.entries).get(k, 0.0)

    def max_index(self) -> int:
        """Largest index with a nonzero coupling; 0 if none."""
        return self.entries[-1][0] if self.entries else 0

    @property
    def parity_even_only(self) -> bool:
        """Whether every nonzero coupling has an even index, so the weight is
        even: read off the entries, never set."""
        return all(k % 2 == 0 for k, _ in self.entries)

    @property
    def integrable(self) -> bool:
        """Whether the weight's tail is suppressible.

        Highest nonzero index K >= 4 requires K even with t_K < 0.  K = 3 is
        admitted (tail handled by truncation; the grid builder rejects it if
        no radius brackets the target).  K <= 2 requires t_2 < 1/2.
        """
        K = self.max_index()
        if K >= 4:
            return K % 2 == 0 and self.get(K) < 0.0
        return self.get(2) < 0.5

    def exponent(self, z):
        """-z^2/2 + sum_k t_k z^k, vectorized over z; a term past the double
        range saturates to +-inf without a warning, and where saturated terms
        of both signs meet, the one of the largest log magnitude sets the sign."""
        z = np.asarray(z, dtype=float)
        out = -0.5 * z * z
        with np.errstate(over="ignore", invalid="ignore"):
            for k, v in self.entries:
                out = out + v * z**k
        lost = np.isnan(out) & ~np.isnan(z)   # inf - inf
        if lost.any():
            coeffs = {**self.as_dict(), 2: self.get(2) - 0.5}
            terms = [(k, v) for k, v in sorted(coeffs.items(), reverse=True) if v]
            zl = z[lost]   # ties (z = +-inf) go to the highest power, listed first
            logs = [math.log(abs(v)) + k * np.log(np.abs(zl)) for k, v in terms]
            signs = np.array([np.sign(v) * np.sign(zl) ** k for k, v in terms])
            out = np.array(out)
            out[lost] = signs[np.argmax(logs, axis=0), np.arange(zl.size)] * math.inf
        return out


def _own_arrays(record, *names) -> tuple:
    """Store a read-only float copy of each named array field of the frozen
    dataclass `record` in the field's place; returns the copies.  Records
    validate these, which no caller can write to, and the caller's arrays
    stay writable.  A field with a NaN or +-inf entry raises a ValueError
    naming the record, the field and its first such entry."""
    copies = tuple(np.array(getattr(record, name), dtype=float) for name in names)
    for name, arr in zip(names, copies):
        finite = np.isfinite(arr)
        if not finite.all():
            raise ValueError(f"{type(record).__name__}.{name} must be finite, "
                             f"got {arr[~finite][0]}")
        arr.setflags(write=False)
        object.__setattr__(record, name, arr)
    return copies


def _is_integer(q) -> bool:
    return isinstance(q, numbers.Integral) and not isinstance(q, bool)


def _checked_int(name: str, value, low=None) -> int:
    """`value` as an int; a ValueError naming `name` when it is not an
    integer (numpy's are), is a bool or is below `low`."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        bound = "non-negative" if low == 0 else f"at least {low}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return int(value)


def _checked_seed(seed) -> int:
    """`seed` as an int; a ValueError naming it unless it is a non-negative
    integer."""
    return _checked_int("seed", seed, 0)


def weight_eval(z, t: CouplingVector):
    """rho(z) = exp(exponent).  Overflow saturates to inf silently."""
    with np.errstate(over="ignore"):
        return np.exp(t.exponent(z))


@dataclass(frozen=True)
class QuadratureGrid:
    """Composite Gauss-Legendre rule on [-R, R] with cached weight values.

    nodes/weights are flat arrays over all panels in left-to-right order;
    the panel structure (uniform width, `_POINTS_PER_PANEL` points each) is
    kept so cumulative integrals can be done panel-spectrally.
    """

    couplings: CouplingVector
    nodes: np.ndarray
    weights: np.ndarray
    rho: np.ndarray
    radius: float
    panels: int

    def __post_init__(self):
        _own_arrays(self, "nodes", "weights", "rho")


_POINTS_PER_PANEL = 24                          # Gauss points of every grid's panels
_GRID_TOL = 1e-12                               # relative tolerance of every grid's radius and panels
_SCAN_POINTS = 8193                             # points of the radius search's scan


def _radius_for(t: CouplingVector, max_degree: int) -> float:
    """Largest |z| beyond which z^d * rho is below `_GRID_TOL` relative to its peak.

    For the decay function F(z) = exponent(z) + d*log(max(|z|,1)) the target
    is F(z*) + log(_GRID_TOL), z* the peak of an 8193-point scan of [-B, B].
    B = 10, 20, 40, ... grows until both ends of the scan read below the
    target; the radius is then the |z| of the scan point just past the
    outermost point at or above it, on whichever side lies farther out.  It
    is never inside the tail crossing and lies at most one scan spacing,
    2B/8192, beyond it.  d = 0 reduces to the bare-weight rule.
    """
    d = int(max_degree)
    bracket = 10.0
    for _ in range(40):
        zs = np.linspace(-bracket, bracket, _SCAN_POINTS)
        Fs = t.exponent(zs) + d * np.log(np.maximum(np.abs(zs), 1.0))
        target = Fs.max() + math.log(_GRID_TOL)
        if Fs[-1] < target and Fs[0] < target:
            above = np.flatnonzero(Fs >= target)
            return float(max(zs[above[-1] + 1], -zs[above[0] - 1]))
        bracket *= 2.0
    raise NonIntegrableWeight(
        f"no radius suppresses the tail of {t.as_dict()} at degree {d}")


def _legendre_table(p: int, x: np.ndarray) -> np.ndarray:
    """P_0..P_p (p >= 1) at x by the three-term recurrence, shape (p+1, len(x))."""
    P = np.empty((p + 1, len(x)))
    P[0] = 1.0
    P[1] = x
    for k in range(1, p):
        P[k + 1] = ((2 * k + 1) * x * P[k] - k * P[k - 1]) / (k + 1)
    return P


@lru_cache(maxsize=1)
def _gauss_legendre():
    """Read-only nodes and weights of the p-point Gauss-Legendre rule on [-1, 1],
    p = `_POINTS_PER_PANEL`.

    Golub-Welsch nodes (eigenvalues of the Jacobi matrix, off-diagonal
    k/sqrt(4k^2-1)) start Newton on P_p, with P_p' = p (P_{p-1} - x P_p) /
    (1 - x^2) from the recurrence.  Weights are 2 / ((1 - x^2) P_p'(x)^2).
    Both arrays are symmetrised about 0.
    """
    p = _POINTS_PER_PANEL
    k = np.arange(1.0, p)
    x = np.linalg.eigvalsh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))

    def newton_parts(x):
        P = _legendre_table(p, x)
        gap = (1.0 - x) * (1.0 + x)        # 1 - x^2 without cancellation near +-1
        return P[p], p * (P[p - 1] - x * P[p]) / gap, gap

    for _ in range(10):
        Pp, dP, _ = newton_parts(x)
        step = Pp / dP
        x = x - step
        if np.max(np.abs(step)) <= 1e-16:
            break
    _, dP, gap = newton_parts(x)
    w = 2.0 / (gap * dP * dP)
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_nodes(radius: float, panels: int):
    edges = np.linspace(-radius, radius, panels + 1)
    ref_x, ref_w = _gauss_legendre()
    half = radius / panels
    mids = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mids[:, None] + half * ref_x[None, :]).ravel()
    weights = np.tile(half * ref_w, panels)
    return nodes, weights


def build_quadrature(t: CouplingVector, *, max_degree: int = 0) -> QuadratureGrid:
    """Composite Gauss-Legendre grid whose panel count has converged.

    Doubles the panel count until int(rho) (and the max_degree moment of
    z / radius, when one was requested) moves by less than `_GRID_TOL`
    relatively.
    `max_degree` widens the radius so that high moments keep full accuracy;
    the default 0 is the bare-weight rule.
    """
    if not t.integrable:
        raise NonIntegrableWeight(f"weight for couplings {t.as_dict()} has a divergent tail")
    max_degree = _checked_int("max_degree", max_degree, 0)
    radius = _radius_for(t, max_degree)
    # even companion moment for the convergence test, in units of the radius
    # so that z^deg cannot overflow at high degree
    deg = 2 * (max_degree // 2)
    panels = 8
    *_, prev, shift = _convergence_values(t, radius, panels, deg, None)
    while panels <= 4096:
        panels *= 2
        nodes, weights, rho, cur, _ = _convergence_values(t, radius, panels, deg, shift)
        if all(abs(c - p) <= _GRID_TOL * abs(c) for c, p in zip(cur, prev)):
            return QuadratureGrid(t, nodes, weights, rho, radius, panels)
        prev = cur
    raise ToleranceUnreachable(
        f"panel doubling stalled at {panels} panels for tol {_GRID_TOL}")


def _convergence_values(t: CouplingVector, radius: float, panels: int, deg: int,
                        shift: int | None):
    """Nodes, weights and rho of the grid on `panels` panels, the values its
    panel doubling compares, and the companion's shift.

    The values are int(rho) and, for deg > 0, the companion
    2^shift * int (z / radius)^deg rho, its integrand
    exp(deg log|z / radius| + exponent(z) + shift ln 2) taken in logs so that
    it cannot underflow where rho already has.  A shift of None is fixed
    from these logs, as the s <= 1023 that brings their largest to about
    1; the panel doubling fixes it once, at its 8-panel start.  Raises
    IllConditioned when int(rho) is not finite, so no grid holds a weight
    past the double range.
    """
    nodes, weights = _panel_nodes(radius, panels)
    exponent = t.exponent(nodes)
    with np.errstate(over="ignore"):
        rho = np.exp(exponent)                      # weight_eval's rho
    vals = [float(weights @ rho)]
    if not math.isfinite(vals[0]):
        raise IllConditioned(f"weight for couplings {t.as_dict()} overflows the "
                             f"double range: its mass on {panels} panels is not finite")
    if deg > 0:
        with np.errstate(divide="ignore"):
            logs = deg * np.log(np.abs(nodes / radius)) + exponent
        if shift is None:
            shift = min(1023, max(0, -math.floor(float(np.max(logs)) / math.log(2.0))))
        vals.append(float(weights @ np.exp(logs + shift * math.log(2.0))))
    return nodes, weights, rho, vals, shift


def _regrid(grid: QuadratureGrid, radius: float, panels: int) -> QuadratureGrid:
    """The grid's couplings on [-radius, radius] in `panels` panels."""
    nodes, weights = _panel_nodes(radius, panels)
    return QuadratureGrid(grid.couplings, nodes, weights, weight_eval(nodes, grid.couplings),
                          radius, panels)


@lru_cache(maxsize=1)
def _cumulative_matrix() -> np.ndarray:
    """Matrix M with (M f)_j = int_{-1}^{xi_j} f on the reference panel's
    p = `_POINTS_PER_PANEL` Gauss points.

    Built from the Legendre expansion of f at the Gauss nodes:
    c_k = (2k+1)/2 * sum_i w_i P_k(xi_i) f_i and
    int_{-1}^{xi} P_k = (P_{k+1}(xi) - P_{k-1}(xi)) / (2k+1) for k >= 1.
    """
    p = _POINTS_PER_PANEL
    xi, w = _gauss_legendre()
    P = _legendre_table(p, xi)  # (p+1, p)
    coeff = ((2 * np.arange(p) + 1) / 2.0)[:, None] * P[:p] * w[None, :]  # (p, p): k,i
    anti = np.empty((p, p))  # k, j -> int_{-1}^{xi_j} P_k
    anti[0] = xi + 1.0
    for k in range(1, p):
        anti[k] = (P[k + 1] - P[k - 1]) / (2 * k + 1)
    return anti.T @ coeff  # (j, i)


def cumulative_integral(grid: QuadratureGrid, fvals: np.ndarray):
    """Cumulative integral int_{-R}^{x_i} f at every node, plus the total.

    f is given by its values at grid.nodes, or by a stack of such rows (then
    cum and total have one entry per row).  Within each panel the integral
    is spectral; panel totals are prefix-summed.
    """
    half = grid.radius / grid.panels
    F = np.asarray(fvals, dtype=float)
    rows = F.reshape(-1, grid.panels, _POINTS_PER_PANEL)  # (functions, panels, p)
    inner = half * rows @ _cumulative_matrix().T  # cumulative within each panel
    _, ref_w = _gauss_legendre()
    totals = half * rows @ ref_w
    offsets = np.zeros_like(totals)
    offsets[:, 1:] = np.cumsum(totals[:, :-1], axis=1)
    cum = (inner + offsets[:, :, None]).reshape(F.shape)
    total = totals.sum(axis=1)
    return cum, (total if F.ndim > 1 else float(total[0]))
