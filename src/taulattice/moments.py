"""Skew moment matrices, Pfaffians, and the two tau-sequences.

tau_n (unitary) is the Hankel determinant of the moments of rho; tau_{2n}
(orthogonal) is the Pfaffian of the skew moments
m[i][j] = (1/2) int x^i G_j(x) rho(x) dx, G_j the signed cumulative moment.
`log_tau` forms neither matrix.  A discretised Stieltjes procedure on the
quadrature grid (Gautschi 2004) gives orthonormal polynomials q_k, their
recurrence coefficients and the log norms log h_k of their monic versions;
monic basis changes are unit-triangular, so log tau_n = sum_{k<n} log h_k
for rho dz, and log tau_{2n} = log|pf F| + (1/2) sum_{k<2n} log h_k for
rho^2 dz with F the skew Gram of the q_k.  Both bases come from
`_stieltjes_basis`, the one place that knows the measure (rho or rho^2), the
grid degree and the skew product; it builds its own grid, and a caller
that needs several sizes reads leading blocks of one basis (log tau_m is
that of F[:m, :m] and log_h[:m]).  It also feeds `lax`: the tridiagonal Lax
operator is the Jacobi matrix of the rho basis, and the skew Gram-Schmidt
that maps orthogonal to skew-orthogonal polynomials runs on the rho^2
basis.  Coupling derivatives of log tau are exact jets on the same basis:
shifting t_a multiplies rho by e^{s z^a}, and z q = J q with J the Jacobi
matrix of the recurrence (Gautschi 2004; Adler & van Moerbeke 2002).

Every tau route (the skew moments, the Stieltjes bases and their jets, and
the skew bases and small-ensemble moments built on them) reads grids of
`build_quadrature`'s one recipe: 24-point panels whose radius and panel
count are held to 1e-12 relative.  No route chooses a tolerance.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .couplings import (CouplingVector, QuadratureGrid, _checked_int, _own_arrays, _regrid,
                        build_quadrature, cumulative_integral)
from .errors import IllConditioned, OddDimension

__all__ = [
    "SkewMomentMatrix",
    "skew_moment_matrix",
    "pfaffian",
    "log_tau",
    "tau_unitary",
    "tau_orthogonal",
    "tau_coupling_derivative",
]

# log|tau| outside this range has no normal double value.
_LOG_RANGE = tuple(np.log([np.finfo(float).tiny, np.finfo(float).max]))


def _skew_products(grid: QuadratureGrid, rows: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """F[i][j] = (1/2) int int f_i(x) f_j(y) sgn(y - x) rho(x) rho(y), exactly
    antisymmetric, for f_i given by its values at grid.nodes (one per row)."""
    frho = rows * rho
    cum, total = cumulative_integral(grid, frho)
    F = 0.5 * (frho * grid.weights) @ (total[:, None] - 2.0 * cum).T
    return 0.5 * (F - F.T)


@dataclass(frozen=True)
class SkewMomentMatrix:
    """Dense antisymmetric matrix of skew products of monomials."""

    m: np.ndarray
    couplings: CouplingVector

    def __post_init__(self):
        m, = _own_arrays(self, "m")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("skew moment matrix must be square")

    @property
    def size(self) -> int:
        return self.m.shape[0]


def skew_moment_matrix(t: CouplingVector, size: int) -> SkewMomentMatrix:
    """Skew products m[i][j] = <x^i, y^j> for i, j < size (size even)."""
    if size % 2 or size <= 0:
        raise ValueError(f"size must be a positive even integer, got {size}")
    grid = build_quadrature(t, max_degree=size + 2)
    powers = grid.nodes[None, :] ** np.arange(size)[:, None]
    return SkewMomentMatrix(_skew_products(grid, powers, grid.rho), t)


def _pfaffian_pivots(A: np.ndarray):
    """(sign, pivots) with pf A = sign * prod(pivots), by skew elimination with
    partial pivoting in place on antisymmetric A.  Pivots from a vanishing
    pivot column on are 0.  pf diag([[0,1],[-1,0]], ...) = +1."""
    n = A.shape[0]
    sign = 1.0
    pivots = np.zeros(n // 2)
    for k in range(0, n - 2, 2):
        kp = k + 1 + int(np.abs(A[k + 1:, k]).argmax())
        if A[kp, k] == 0.0:
            return sign, pivots
        if kp != k + 1:
            A[[k + 1, kp]] = A[[kp, k + 1]]
            A[:, [k + 1, kp]] = A[:, [kp, k + 1]]
            sign = -sign
        pivots[k // 2] = A[k, k + 1]
        tau = A[k + 2:, k] / A[k + 1, k]
        col = A[k + 2:, k + 1].copy()
        A[k + 2:, k + 2:] += np.outer(tau, col) - np.outer(col, tau)
    pivots[-1] = A[n - 2, n - 1]
    return sign, pivots


def pfaffian(m) -> float:
    """Pfaffian of an even-dimensional antisymmetric matrix.

    Skew-symmetric elimination with partial pivoting; the sign convention
    makes pf of the canonical block matrix diag([[0,1],[-1,0]], ...) equal +1.
    """
    A = np.asarray(m.m if isinstance(m, SkewMomentMatrix) else m, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("pfaffian needs a square matrix")
    n = A.shape[0]
    if n % 2:
        raise OddDimension(f"pfaffian undefined for odd dimension {n}")
    if n == 0:
        return 1.0
    if not np.isfinite(A).all():
        raise ValueError("pfaffian needs finite entries")
    scale = max(1.0, float(np.abs(A).max()))
    if float(np.abs(A + A.T).max()) > 1e-12 * scale:
        raise ValueError("matrix is not antisymmetric")
    sign, pivots = _pfaffian_pivots(0.5 * (A - A.T))
    return sign * float(np.prod(pivots))


def _stieltjes(nodes: np.ndarray, measure: np.ndarray, count: int):
    """(q, log_h, a, b) for the measure sum_i measure_i delta(x_i), k < count:
    the orthonormal q_k at the nodes, log h_k = log(beta_0 ... beta_k) (the
    monic norms), and the recurrence z q_k = b_{k+1} q_{k+1} + a_k q_k +
    b_k q_{k-1} with b_k = sqrt(beta_k), beta_0 = int dmu and
    beta_{k+1} = |(x - a_k) q_k - b_k q_{k-1}|^2."""
    q = np.empty((count, len(nodes)))
    a, b = np.empty(count), np.empty(count)
    log_beta = np.empty(count)
    r, prev = np.ones(len(nodes)), np.zeros(len(nodes))
    # where the measure underflows, q_k can grow past the double range; that
    # is reported below with its degree, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(count):
            mr2 = measure * r * r
            beta = float(mr2.sum())
            if not 0.0 < beta < math.inf:
                bad = int(np.count_nonzero(~np.isfinite(r)))
                if bad:
                    raise IllConditioned(
                        f"Stieltjes recurrence overflowed at degree {k}: the "
                        f"unnormalized q_{k} is not finite at {bad} of {len(nodes)} "
                        f"nodes (beta = {beta:.3e})")
                raise IllConditioned(
                    f"Stieltjes recurrence broke down at degree {k}: beta = {beta:.3e}")
            log_beta[k] = math.log(beta)
            b[k] = math.sqrt(beta)
            q[k] = r / b[k]
            a[k] = float(mr2 @ nodes) / beta   # <x q_k, q_k>
            r = (nodes - a[k]) * q[k] - b[k] * prev
            prev = q[k]
    return q, np.cumsum(log_beta), a, b


def _tau_grid(ensemble: str, n: int, t: CouplingVector) -> QuadratureGrid:
    """Grid on which log_tau(ensemble, m, t) is accurate for every m <= n.

    Its radius leaves a negligible tail of every q_k^2 rho: degree 4n
    (unitary) or 2n (orthogonal, n the matrix size).  It also keeps at
    least n/4 panels, five to six zeros of q_n per panel: `build_quadrature`'s
    panel doubling sees only smooth moments, and its 16 panels leave the
    oscillating integrands q_j q_k rho unresolved from size about 70
    (orthogonal log error 2.4e-9 at 80 and 5.5e-2 at 140; unitary 1.6e-7
    at 100).  Below size 66 the floor never binds.
    """
    grid = build_quadrature(t, max_degree=max(4 * n if ensemble == "unitary" else 2 * n, 2))
    return grid if grid.panels >= n / 4 else _regrid(grid, grid.radius, -(-n // 4))


def _stieltjes_basis(ensemble: str, n: int, t: CouplingVector):
    """(F, log_h, a, b): the Stieltjes basis q_k, k < n, of rho dz (unitary)
    or rho^2 dz (orthogonal), see `_stieltjes`, on `_tau_grid(ensemble, n)`.
    F is the skew Gram `_skew_products` of the q_k under rho for orthogonal
    and None for unitary."""
    grid = _tau_grid(ensemble, n, t)
    rho = grid.rho
    measure = grid.weights * rho
    if ensemble == "orthogonal":
        with np.errstate(over="ignore"):   # an overflowing weight fails in _stieltjes
            measure = measure * rho
    q, log_h, a, b = _stieltjes(grid.nodes, measure, n)
    F = _skew_products(grid, q, rho) if ensemble == "orthogonal" else None
    return F, log_h, a, b


def log_tau(ensemble: str, n: int, t: CouplingVector) -> tuple[float, float]:
    """(sign, log|tau_n|) for ensemble "unitary" or "orthogonal"; tau_0 = 1.

    n is the matrix size in both cases (even for orthogonal).  Raises
    IllConditioned when the Stieltjes recurrence breaks down or the skew
    Gram has a zero pivot.
    """
    n = _check_size(ensemble, n)
    if n == 0:
        return 1.0, 0.0
    F, log_h, _, _ = _stieltjes_basis(ensemble, n, t)
    return _log_tau_of_basis(F, log_h)


def _check_size(ensemble: str, n: int) -> int:
    """n as an int; a ValueError naming n when it is not an integer, and
    one naming the size when the ensemble has no tau of that size."""
    n = _checked_int("n", n)
    if ensemble not in ("unitary", "orthogonal") or n < 0 or (ensemble == "orthogonal" and n % 2):
        raise ValueError(f"no {ensemble!r} tau of size {n}")
    return n


def _log_tau_of_basis(F: np.ndarray | None, log_h: np.ndarray) -> tuple[float, float]:
    """(sign, log|tau|) of the size of a `_stieltjes_basis` (F, log_h): the
    Hankel product for unitary (F None), the Pfaffian of F times the
    normalizations for orthogonal.  The Pfaffian pivots overwrite F."""
    if F is None or not len(F):   # unitary, or tau_0 = 1
        return 1.0, float(log_h.sum())
    sign, pivots = _pfaffian_pivots(F)
    if not np.all(np.isfinite(pivots) & (pivots != 0.0)):
        raise IllConditioned(f"skew Gram of order {len(F)} has a zero or non-finite pivot")
    sign *= float(np.prod(np.sign(pivots)))
    return sign, float(np.log(np.abs(pivots)).sum() + 0.5 * log_h.sum())


def _log_tau_jets(ensemble: str, sizes, t: CouplingVector, axes: tuple, tops) -> dict:
    """{m: (sign, log|tau_m|, jet)} for every size m in `sizes`, from one
    Stieltjes basis.  jet maps each multi-index g at or below one of `tops`
    (orders in the couplings `axes`) to the Taylor coefficient of s^g in
    log tau_m(t + s) - log tau_m(t), s_a shifting the coupling axes[a].

    Shifting t_a multiplies rho by e^{s_a z^a}, and z q = J q for the basis q
    with Jacobi matrix J, so the weight acts as E(s) = exp(sum_a s_a J^a),
    whose coefficient of s^g is J^{sum_a a g_a} / g!.  The jet is tr log E_[m]
    (unitary) or (1/2) tr log([E F E^T]_[m] F_[m]^-1), F the skew Gram
    (orthogonal).  It is exact on m + p/2 (unitary) or m + p (orthogonal)
    basis terms, p the highest power of J read; two more are taken.
    """
    for m in sizes:
        _check_size(ensemble, m)
    monos = sorted({g for top in tops for g in itertools.product(*(range(k + 1) for k in top))},
                   key=lambda g: (sum(g), g))   # by total order, 0 first
    degree = [sum(a * k for a, k in zip(axes, g)) for g in monos]
    reach = max(degree) if ensemble == "orthogonal" else -(-max(degree) // 2)
    top = max(sizes)
    F, log_h, a, b = _stieltjes_basis(ensemble, top + reach + 2, t)
    J = np.diag(a) + np.diag(b[1:], 1) + np.diag(b[1:], -1)
    rows = np.stack([np.linalg.matrix_power(J, d)[:top] / math.prod(map(math.factorial, g))
                     for g, d in zip(monos, degree)])   # E(s)'s leading rows
    i, j, k = np.array([(i, j, monos.index(s)) for i, g in enumerate(monos) for j, h in
                        enumerate(monos) if (s := tuple(map(sum, zip(g, h)))) in monos]).T

    def product(P, Q):   # of two series: sum P_g Q_h into monomial g + h
        out = np.zeros(P.shape[:2] + Q.shape[2:])
        np.add.at(out, k, P[i] @ Q[j])
        return out

    S = rows[:, :, :top] if F is None else product(rows @ F, rows.transpose(0, 2, 1))
    out = {}
    for m in sizes:
        sign, log_abs = _log_tau_of_basis(None if F is None else F[:m, :m].copy(), log_h[:m])
        X = S[:, :m, :m] @ (np.eye(m) if F is None else np.linalg.inv(F[:m, :m]))
        X[0] = 0.0   # the identity: expand tr log(I + X)
        coeffs, power = np.zeros(len(monos)), X
        for order in range(1, sum(monos[-1]) + 1):
            coeffs += (-1) ** (order + 1) / order * np.trace(power, axis1=1, axis2=2)
            power = product(power, X)
        out[m] = sign, log_abs, dict(zip(monos, (1.0 if F is None else 0.5) * coeffs))
    return out


def _tau_value(ensemble: str, n: int, sign: float, log_abs: float) -> float:
    """sign * exp(log_abs), refusing a tau that is not positive or has no
    normal double value (tau of a positive weight is positive)."""
    if sign <= 0 or not _LOG_RANGE[0] < log_abs < _LOG_RANGE[1]:
        raise IllConditioned(
            f"{ensemble} tau_{n} has sign {sign:+g} and log|tau| = {log_abs:.6g}: "
            "no positive double holds it")
    return math.exp(log_abs)


def tau_unitary(t: CouplingVector, n: int) -> float:
    """Determinant of the n x n Hankel moment matrix; tau_0 = 1."""
    return _tau_value("unitary", n, *log_tau("unitary", n, t))


def tau_orthogonal(t: CouplingVector, two_n: int) -> float:
    """Pfaffian of the leading 2n x 2n skew moment matrix; tau_0 = 1."""
    two_n = _checked_int("two_n", two_n)
    return _tau_value("orthogonal", two_n, *log_tau("orthogonal", two_n, t))


def tau_coupling_derivative(ensemble: str, n: int, t: CouplingVector,
                            multi_index: dict) -> float:
    """Mixed coupling derivative of tau_n, exact from the jet of log tau_n.

    ensemble is "unitary" or "orthogonal" (n is the matrix size subscript in
    both cases, even for orthogonal).  multi_index maps positive integer
    coupling indices to non-negative integer orders, total order <= 4.
    With L(s) = log tau_n(t + s) - log tau_n(t) from `_log_tau_jets`, the
    derivative is tau_n(t) times that of exp(L) at s = 0.
    """
    if not all(isinstance(k, numbers.Integral) and k > 0
               and isinstance(p, numbers.Integral) and p >= 0
               for k, p in multi_index.items()):
        raise ValueError("multi_index must map positive integer coupling indices "
                         f"to non-negative integer orders, got {multi_index!r}")
    orders = {int(k): int(p) for k, p in multi_index.items() if p}
    if sum(orders.values()) > 4:
        raise ValueError("total derivative order must be <= 4")
    axes, top = tuple(sorted(orders)), tuple(p for _, p in sorted(orders.items()))
    sign, log_abs, jet = _log_tau_jets(ensemble, [n], t, axes, [top])[n]
    tau = _tau_value(ensemble, n, sign, log_abs)
    # E = exp(L) by g_i E_g = sum_a a_i L_a E_{g-a}, i the first axis of g
    exp_jet = {}
    for g in jet:   # by total order, so every E_{g-a} is known
        i = next((k for k, o in enumerate(g) if o), None)
        exp_jet[g] = 1.0 if i is None else sum(
            a[i] * jet[a] * exp_jet[tuple(x - y for x, y in zip(g, a))]
            for a in jet if a[i] and all(x <= y for x, y in zip(a, g))) / g[i]
    return tau * exp_jet[top] * math.prod(map(math.factorial, top))
