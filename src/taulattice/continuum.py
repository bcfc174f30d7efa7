"""Continuum limits of the lattice flows.

Interpolating the site index with a slow spatial variable x = eps*n turns the
Volterra flow into a Hopf-type conservation law and the banded skew-flow into
an infinite first-order quasilinear chain coupled to one scalar transport
equation.  This module hosts those limit systems: a characteristic solver, a
method-of-lines integrator for the chain window and the diagonalizability
diagnostic for the chain's coefficient matrix (Nijenhuis / Haantjes).

The monomial table `_matrix_terms` is the single encoding of the chain: the
RHS that `evolve_hydro_chain` integrates, the coefficient matrix and its
gradient all read it, compiled once per window shape, so the Haantjes scan
certifies the matrix of the chain being integrated.  The
x-independent reduction has one encoding too: `reduced_continuum_rhs`
builds its field with one linear row map and holds the chain's rates to
that map's tangent.

Each RHS evaluation makes one stencil pass over one buffer holding the
window and the two sources of the v equation, then forms the u rates from
the table compiled in column blocks (`_rhs_plan`): every monomial
multiplies one column's derivative, and the columns u^0_x, u^1_x and the
rest each hold monomials of one shape, so the rates are one product of the
stacked blocks with the buffer, one of the rest with its derivatives, and
seven row operations.  The chain's one truncation, each closure row a copy
of an edge row, is folded into the plan, the closed window's symbol.
`_hydro_kernel` binds the RHS once per march, buffers and views included,
so an evaluation is arithmetic only, in the operations and order of the
formulas on fresh arrays; `hydro_chain_rhs` binds it for one call, and
`spatial_derivative` runs the same bound stencil.

The Nijenhuis and Haantjes tensors are evaluated sparsely: once per
window, `_tensor_plan` compiles from the same table which entries of A, its
gradient and N meet in each contraction, and at each point every tensor
sum is one `np.bincount` over those products.  Each operand is a dense map
of its entry numbers, -1 where it has none, and each contraction an einsum
spec such as "pj,pik->ijk" whose products `_products` lists; each term's
output positions and the signed sums of N and H are dense slot maps of the
same kind.  The plan's index arrays are `np.intp`, numpy's own index type,
so no gather or `np.bincount` converts them.  H is formed on the guarded
block only, and there on its independent half j < k: like N it is
antisymmetric in its lower indices, so `haantjes` reads H^i_kj as -H^i_jk
and H^i_jj as 0, and the scan's max|H| is taken over that half.  The scan
draws all its points with one call, a row per point that the tensor sums
read as it is, so it makes no `TensorPoint`; it collects every point's N
and H, and takes max|H| and N's guarded entries once over all points.  It
tabulates the closed-form Nijenhuis values over all points, one call per
row on u^0 squared once; where the table lands among N's entries in the
guarded block depends on the row alone, so a map compiled once per window
(`_closed_layout`) pairs each of those entries with its tabulated value,
and N is compared with the table on those entries only (208 at window 10,
352 at window 14).

The chain march stacks u over v in one array and steps it in place with the
lattice evolvers' RK4 stepper, `flows._rk4_stepper` (`rhs(t, y, out)`).
Every state its kernel reads holds the drive's boundary strips at its
stage time and no rate is zeroed: the march writes the strips into the
start, before its bound check and first step size, at every stage and
after every step, so the kernel skips their one-sided derivatives.
The RHS only computes; the march alone holds its state finite and within
magnitude 50, at the start and after every step, and refuses a drive value
that is not finite at the call that brings it.  Overflow and invalid
operations raise DivergedField in both, through `flows._guarded`, and the
march spends at most the lattice marches' step budget `flows._MAX_STEPS`.

Sign conventions follow the lattice: the k>=0 half of the chain never reads
negative-index fields, so it can be integrated on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .couplings import _checked_int, _checked_seed, _is_integer, _own_arrays
from .errors import DivergedField, IndexOutOfWindow, PreBreakingViolated
from .flows import _MAX_STEPS, _csv_text, _guarded, _rk4_stepper
from .report import IdentityReport

__all__ = [
    "HydroChainField",
    "TensorPoint",
    "spatial_derivative",
    "hopf_solve",
    "hydro_chain_rhs",
    "evolve_hydro_chain",
    "hydro_scaling_check",
    "reduced_continuum_rhs",
    "chain_matrix",
    "nijenhuis",
    "haantjes",
    "nijenhuis_closed_form",
    "haantjes_scan",
]

_CFL, _BOUND = 0.2, 50.0       # the chain march's CFL number and bound on |field|


def _stencil(f: np.ndarray, dx: float, *, edges: bool = True):
    """The derivative stencil of `spatial_derivative` bound to the
    C-contiguous buffer f, as (g, apply): apply() writes d/dx of f's current
    values along the last axis into g, taking the same floating-point
    operations, in the same order, as the formulas written on fresh arrays.
    Every view and temporary is made here once.

    The central stencil runs over f and g flattened, one contiguous pass;
    where it reaches across the end of a row it lands on the two cells at
    each end, which the one-sided formulas then overwrite.  With
    edges=False they are not formed, and those cells of g hold no
    derivative.
    """
    n = f.shape[-1]
    g = np.zeros_like(f)
    mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
    eight, three, four = np.array(8.0), np.array(3.0), np.array(4.0)
    minus3, wide, narrow = np.array(-3.0), np.array(12.0 * dx), np.array(2.0 * dx)
    ff, gf = f.reshape(-1), g.reshape(-1)
    f04, f13, f31, f4, g22 = ff[:-4], ff[1:-3], ff[3:-1], ff[4:], gf[2:-2]
    T = np.empty(g22.shape)
    c0, c1, c2, e1, e2, e3 = (f[..., i] for i in (0, 1, 2, n - 1, n - 2, n - 3))
    g0, g1, ge2, ge1 = (g[..., i] for i in (0, 1, n - 2, n - 1))
    C = np.empty(c0.shape)

    def apply():
        mul(eight, f13, g22)
        sub(f04, g22, g22)
        mul(eight, f31, T)
        add(g22, T, g22)
        sub(g22, f4, g22)
        div(g22, wide, g22)
        if edges:
            # (-3 f0 + 4 f1 - f2) / (2 dx), (f2 - f0) / (2 dx) and their mirrors
            mul(minus3, c0, g0)
            add(g0, mul(four, c1, C), g0)
            sub(g0, c2, g0)
            div(g0, narrow, g0)
            div(sub(c2, c0, g1), narrow, g1)
            div(sub(e1, e3, ge2), narrow, ge2)
            mul(three, e1, ge1)
            sub(ge1, mul(four, e2, C), ge1)
            add(ge1, e3, ge1)
            div(ge1, narrow, ge1)

    return g, apply


def spatial_derivative(f: np.ndarray, dx: float) -> np.ndarray:
    """d/dx along the last axis: 4th-order central stencil on the interior,
    2nd-order one-sided on the two cells at each end (exact for linear data,
    which is all the boundary strips ever carry in the checks here).  A dx
    that is a bool, not finite or zero raises ValueError."""
    f = np.ascontiguousarray(f, dtype=float)
    if f.shape[-1] < 5:
        raise ValueError("need at least five grid points")
    if isinstance(dx, (bool, np.bool_)) or not (math.isfinite(dx) and dx != 0.0):
        raise ValueError(f"dx must be finite, nonzero and not a bool, got {dx!r}")
    g, apply = _stencil(f, dx)
    _guarded("spatial_derivative", apply)
    return g


def _scaling_rows(x: np.ndarray, t: float, k_neg: int, k_pos: int):
    """(u, v) of the exact pure-t2 solution of the chain at time t on the
    points x: u^{-k}=0 (k>1), u^{-1}=1/(2s), u^0=x/s, u^k=2 (k>0) and
    v=-1/(4s), with s = 1 - 2t."""
    s = 1.0 - 2.0 * t
    u = np.zeros((k_neg + k_pos + 1, len(x)))
    u[k_neg - 1] = 0.5 / s
    u[k_neg] = x / s
    u[k_neg + 1:] = 2.0
    return u, np.full(len(x), -0.25 / s)


@dataclass(frozen=True)
class HydroChainField:
    """Chain fields u^ell(x) for ell in [-k_neg, k_pos] plus the scalar v(x).

    The grid is uniform with x > 0 throughout; u^0 must stay positive since
    it divides both the reduction ansatz and the fixed source closure of the
    v equation.  Row ell of `u` lives at index ell + k_neg.  The time stamp
    is a finite number (a bool is refused).
    """

    x: np.ndarray
    u: np.ndarray
    v: np.ndarray
    k_neg: int
    time: float = 0.0

    def __post_init__(self):
        x, u, v = _own_arrays(self, "x", "u", "v")
        if x.ndim != 1 or len(x) < 5:
            raise ValueError("grid must be 1-d with at least five points")
        d = np.diff(x)
        if not np.allclose(d, d[0], rtol=1e-12, atol=0.0) or d[0] <= 0:
            raise ValueError("grid must be uniform and increasing")
        if x[0] <= 0:
            raise ValueError("grid must satisfy x > 0")
        object.__setattr__(self, "k_neg", _checked_int("k_neg", self.k_neg))
        if self.k_neg < 2 or u.ndim != 2 or u.shape[0] < self.k_neg + 3:
            raise ValueError("need rows down to -2 and up to at least +2")
        if u.shape[1] != len(x) or v.shape != x.shape:
            raise ValueError("field shapes must match the grid")
        if not np.all(u[self.k_neg] > 0):
            i = int(np.argmin(u[self.k_neg] > 0))
            raise ValueError(f"u^0 must stay positive, got u^0 = {u[self.k_neg, i]:.3g} "
                             f"at x = {x[i]:.3g}")
        if isinstance(self.time, (bool, np.bool_)) or not math.isfinite(self.time):
            raise ValueError(f"time must be a finite number, got {self.time!r}")
        object.__setattr__(self, "time", float(self.time))

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def k_pos(self) -> int:
        return self.u.shape[0] - 1 - self.k_neg

    @classmethod
    def initial(cls, x, k_neg: int = 4, k_pos: int = 6) -> "HydroChainField":
        """Lattice-derived initial data: u^{-k}=0 (k>1), u^{-1}=1/2, u^0=x,
        u^k=2 (k>0), v=-1/4: the scaling family at t = 0."""
        return cls.scaling(x, 0.0, k_neg, k_pos)

    @classmethod
    def scaling(cls, x, t: float, k_neg: int = 4, k_pos: int = 6) -> "HydroChainField":
        """The exact pure-t2 solution of the chain started from `initial`; a t
        that is not finite, or whose scale 1 - 2t is not, raises ValueError, one
        from 1/2 on PreBreakingViolated."""
        k_neg, k_pos = _checked_int("k_neg", k_neg, 2), _checked_int("k_pos", k_pos, 2)
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got {t!r}")
        if t >= 0.5:
            raise PreBreakingViolated("scaling family blows up at t = 1/2")
        if not math.isfinite(1.0 - 2.0 * float(t)):
            raise ValueError(f"t = {float(t)!r} has no finite scale 1 - 2t")
        x = np.asarray(x, dtype=float)
        return cls(x, *_scaling_rows(x, t, k_neg, k_pos), k_neg, t)

    def to_csv(self) -> str:
        heads = ["x", "v"] + [f"u[{ell}]" for ell in range(-self.k_neg, self.k_pos + 1)]
        return _csv_text(heads, np.vstack((self.x, self.v, self.u)).T)


# ---------------------------------------------------------------------------
# characteristic solver

def hopf_solve(u0, c: float, k: int, x, t: float) -> np.ndarray:
    """Solve u = u0(x + c u^k t) pointwise on the grid.

    The implicit relation is inverted through the characteristic map
    X(s) = s - c u0(s)^k t, probed on a bracket grown from the grid until its
    ends cover it: the map must be finite and strictly increasing over the
    grid's span (else the profile has started to break), and every grid
    point's root is then found by one vectorised bisection on its cell.
    u0 must accept arrays, c and t must be finite numbers (a bool is
    refused), k an integer with a double value (|k| up to about 1.8e308)
    and the grid x a non-empty, finite and strictly ascending 1-d array.
    A value of u0 that is not finite, at t = 0 or among the returned
    values, raises ValueError naming the first such grid point.
    """
    for name, q in (("t", t), ("c", c)):
        if isinstance(q, (bool, np.bool_)) or not math.isfinite(q):
            raise ValueError(f"{name} must be finite and not a bool, got {q}")
    k = _checked_int("k", k)
    try:
        float(k)                   # the power u0(s) ** k takes k as a double
    except OverflowError:
        raise ValueError(f"k has no double value: |k| = 10^{math.log10(abs(k)):.2f} "
                         f"> {np.finfo(float).max:.4g}") from None
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or not len(x) or not np.isfinite(x).all() or np.any(np.diff(x) <= 0):
        raise ValueError(f"grid x must be non-empty, finite and strictly ascending, "
                         f"got {np.array2string(x, threshold=6)}")
    if t == 0.0:
        return _profile_on(x, u0(x))

    X = np.errstate(over="ignore", divide="ignore", invalid="ignore")(   # inf is refused below
        lambda s: s - c * np.asarray(u0(s), dtype=float) ** k * t)
    span = (x[-1] - x[0] + 1.0) / 64.0
    for _ in range(64):
        ends = X(np.array([x[0] - span, x[-1] + span]))
        if ends[0] <= x[0] and ends[1] >= x[-1]:
            break
        span *= 2.0
    s = np.linspace(x[0] - span, x[-1] + span, 4097)
    Xs = X(s)
    if not np.isfinite(Xs).all():
        raise PreBreakingViolated(
            f"characteristic map s - c u0(s)^k t is not finite on the bracket (k = {k})")
    if not (Xs[0] <= x[0] and Xs[-1] >= x[-1]):
        raise PreBreakingViolated("characteristic map does not cover the grid")

    # monotonicity only matters where the map lands on the requested grid
    inside = (Xs >= x[0] - span / 4096.0) & (Xs <= x[-1] + span / 4096.0)
    idx = np.flatnonzero(inside)
    a = max(int(idx[0]) - 1, 0)
    b = min(int(idx[-1]) + 2, len(s))
    if np.any(np.diff(Xs[a:b]) <= 0):
        raise PreBreakingViolated("characteristic map folds on the grid")

    # X(lo) < x <= X(hi) on each cell; halve every cell until no midpoint
    # is a new double, at most 100 times
    j = np.clip(np.searchsorted(Xs, x), 1, len(s) - 1)
    lo, hi = s[j - 1], s[j]
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if not np.any((lo < mid) & (mid < hi)):
            break
        below = X(mid) < x
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return _profile_on(x, u0(0.5 * (lo + hi)))


def _profile_on(x: np.ndarray, values) -> np.ndarray:
    """values of the profile for the grid x, as a fresh array of x's shape;
    a ValueError names the first grid point whose value is not finite."""
    u = np.broadcast_to(np.asarray(values, dtype=float), x.shape).copy()
    bad = np.flatnonzero(~np.isfinite(u))
    if len(bad):
        raise ValueError(f"u0 must be finite, got {u[bad[0]]} at x = {float(x[bad[0]])}")
    return u


# ---------------------------------------------------------------------------
# the double chain

@lru_cache(maxsize=None)
def _rhs_plan(k_neg: int, k_pos: int):
    """(L, L_d): the monomials of rows -k_neg .. k_pos in three column
    blocks and the rest.

    Every monomial of the table multiplies one column's derivative.  The
    u^0_x column holds one field (block a) or a field times u^1 (block b),
    the u^1_x column u^0 times one field (block c, where u^0 alone reads
    the ones row), and every other column u^0 alone (L_d).  So the rates
    are

        (L_a ext + (L_b ext) u^1) u^0_x + u^0 ((L_c ext) u^1_x + L_d u_x)

    over the rows of the `ext` buffer in `_hydro_kernel` and their
    derivatives u_x.  The closure copies each edge row one row outward, so
    a column of u^{-k_neg-1} or u^{k_pos+1} adds onto its edge row's: the
    plan is the closed window's symbol.  L stacks [L_a; L_b; L_c], a (3
    rows, ext rows) matrix, and L_d is (rows, u_x rows); each entry sums
    the coefficients of its monomials.  A table term that fits no block, or
    reads a field past the closure rows, raises ValueError naming it.
    """
    R = k_neg + k_pos + 1
    L, L_d = np.zeros((3, R, R + 3)), np.zeros((R, R + 2))
    for term in _matrix_terms(max(k_neg, k_pos) + 1):
        i, j, c, f = term
        if not -k_neg <= i <= k_pos:
            continue
        # the block and the one field q it reads (None: the ones row)
        if j == 0 and len(f) == 1:
            block, q = L[0], f[0]
        elif j == 0 and len(f) == 2 and 1 in f:
            block, q = L[1], f[f.index(1) - 1]              # the other factor
        elif j == 1 and 0 in f:
            block, q = L[2], f[f.index(0) - 1] if len(f) == 2 else None
        elif f == (0,):
            block, q = L_d, j
        else:
            block, q = None, math.inf
        if not (q is None or -k_neg - 1 <= q <= k_pos + 1):
            raise ValueError(f"chain table term {term} fits no column block")
        block[i + k_neg, R + 2 if q is None else min(max(q, -k_neg), k_pos) + k_neg] += c
    return L.reshape(3 * R, R + 3), L_d


def _hydro_kernel(dx, shape, k_neg, *, edges: bool = True):
    """The chain RHS bound to states of `shape`, as rates(y, out): `y`
    stacks the window rows u over the row v, and the rates are written into
    `out`, stacked the same way, which is returned.  The band window is
    closed by copying each edge row one row outward, in `_rhs_plan`.  A call
    only computes; its caller sets the floating-point error rule.

    One buffer `ext` holds the window, the two sources of the v equation
    and the ones row; one stencil pass differentiates all but the ones row.
    The u rates are `_rhs_plan`'s column blocks: one product of the stacked
    blocks with `ext`, one of L_d with the derivatives, written into `out`,
    and seven row operations that scale the blocks by u^1, u^0_x, u^1_x and
    u^0.  The buffers, with the ones row written in once, the stencil's
    views and the blocks' buffer are made here, so a call is arithmetic
    only, in the operations and order of the formulas written on fresh
    arrays.  With edges=False the derivative's two cells at each end are
    not formed, and the rates there are not the chain's: for a caller that
    overwrites the strips they step.
    """
    R, n = shape[0] - 1, shape[1]
    L, L_d = _rhs_plan(k_neg, R - 1 - k_neg)
    ext = np.empty((R + 3, n))
    ext[R + 2] = 1.0
    ux, stencil = _stencil(ext[:-1], dx, edges=edges)
    window, u0, u1, src, closure_src = ext[:R], ext[k_neg], ext[k_neg + 1], ext[R], ext[R + 1]
    u0_x, u1_x = ux[k_neg], ux[k_neg + 1]
    um1_x, src_x, closure_x = ux[k_neg - 1], ux[R], ux[R + 1]     # um1_x: u^{-1}_x
    P = np.empty((3 * R, n))
    a, b, c = P[:R], P[R:2 * R], P[2 * R:]
    T = np.empty(n)
    one, two = np.array(1.0), np.array(2.0)
    mul, add, div, copyto, matmul = np.multiply, np.add, np.divide, np.copyto, np.matmul

    def rates(y, out):
        copyto(window, y[:R])
        mul(u0, u1, src)
        mul(src, y[R], src)
        # the closure source u0 * 1/(2 u0) is written out literally so its
        # cancellation is a property of the formula, not of this implementation
        div(one, mul(two, u0, closure_src), closure_src)
        mul(u0, closure_src, closure_src)
        stencil()
        matmul(L, ext, P)
        du = out[:R]
        matmul(L_d, ux, du)
        mul(b, u1, b)
        add(a, b, a)
        mul(a, u0_x, a)
        mul(c, u1_x, c)
        add(du, c, du)
        mul(du, u0, du)
        add(du, a, du)
        v_rate = out[R]
        add(src_x, mul(u0, um1_x, T), v_rate)
        add(v_rate, mul(u0, closure_x, T), v_rate)
        return out

    return rates


def hydro_chain_rhs(field: HydroChainField):
    """Time derivatives (du, dv) of the chain window, closed by copying each
    edge row one row outward.  Raises DivergedField when a rate overflows or
    turns invalid."""
    y = np.vstack((field.u, field.v))
    rates = _guarded("chain rates", _hydro_kernel(field.dx, y.shape, field.k_neg), y,
                     np.empty_like(y))
    return rates[:-1], rates[-1]


def evolve_hydro_chain(field: HydroChainField, t_target: float, *, edge_drive=None):
    """March the chain with RK4 under the step bound h <= 0.2*dx/max|u0 u1|,
    the band window closed as in `hydro_chain_rhs`.

    The two cells at each end are boundary strips: the start, before its
    bound check and its first step size, every state the RHS reads, and the
    state after each step hold edge_drive(x_strip, t) at their time,
    (u_rows, v_vals) of shapes (rows, 4) and (4,), or the start's strips
    with edge_drive=None.  Returns the final field and a stats dict.
    Raises DivergedField at the first overflowing or invalid operation, when
    the field is not finite or exceeds magnitude 50 at the start or after a
    step, or when `_MAX_STEPS` (200000) steps are spent before t_target.  A
    t_target that is a bool, not finite or before the field's time raises
    ValueError before the march, a drive return of another shape one naming
    the time and both shapes; a drive return that is not finite raises
    DivergedField naming the drive time.
    """
    if isinstance(t_target, (bool, np.bool_)) or not math.isfinite(t_target):
        raise ValueError(f"t_target must be finite and not a bool, got {t_target}")
    if t_target < field.time:
        raise ValueError("t_target must not precede the field's time stamp")
    x, dx, k_neg = field.x, field.dx, field.k_neg
    y = np.vstack((field.u, field.v))          # rows u^{-k_neg} .. u^{k_pos}, then v
    t = field.time
    # the drive sets every strip the kernel reads, so it skips their derivatives
    kernel = _hydro_kernel(dx, y.shape, k_neg, edges=False)
    x_strip = np.concatenate((x[:2], x[-2:]))
    strip = np.concatenate((y[:, :2], y[:, -2:]), axis=1)   # the drive's (u, v), stacked
    if edge_drive is None:
        held = strip[:-1].copy(), strip[-1].copy()
        edge_drive = lambda x_strip, ts: held
    strip_lo, strip_hi = strip[:, :2], strip[:, 2:]
    h_min, h_max, steps = math.inf, 0.0, 0
    last = [None]                              # time of the last drive call
    u0, u1, speeds = y[k_neg], y[k_neg + 1], np.empty(y.shape[1])

    def drive(s, ts):
        # a step's stages repeat t + h/2, and its last stage time t + h is
        # where the strips are set after the step and where the next begins
        if ts != last[0]:
            u_rows, v_vals = edge_drive(x_strip, ts)
            if np.shape(u_rows) != strip[:-1].shape or np.shape(v_vals) != (4,):
                raise ValueError(f"edge_drive at t={ts!r} returned shapes {np.shape(u_rows)} "
                                 f"and {np.shape(v_vals)}, need {strip[:-1].shape} and (4,)")
            strip[:-1], strip[-1] = u_rows, v_vals
            if not np.isfinite(strip).all():
                raise DivergedField(f"edge_drive at t={ts!r} returned a value that is not finite")
            last[0] = ts
        s[:, :2] = strip_lo
        s[:, -2:] = strip_hi

    def rhs(ts, s, out):
        drive(s, ts)
        kernel(s, out)

    step = _rk4_stepper(rhs, y)

    def march():
        nonlocal t, steps, h_min, h_max
        while True:
            drive(y, t)                        # the start's too, before its bound and speed
            if not (-_BOUND <= y.min() and y.max() <= _BOUND):        # NaN fails too
                what = "is not finite" if np.isnan(y).any() else f"magnitude exceeded {_BOUND}"
                raise DivergedField(f"field {what} at t={t:g} after {steps} steps")
            if not t < t_target - 1e-15:
                return
            speed = float(np.abs(np.multiply(u0, u1, speeds), speeds).max()) + 1e-30
            h = min(_CFL * dx / speed, t_target - t)
            step(t, h)
            t += h
            h_min, h_max = min(h_min, h), max(h_max, h)
            steps += 1
            if steps > _MAX_STEPS:
                raise DivergedField("step budget exhausted before t_target")

    _guarded(lambda: f"chain march at t={t:g} after {steps} steps", march)

    try:
        out = HydroChainField(x, y[:-1], y[-1], k_neg, t_target)
    except ValueError as exc:
        raise DivergedField(f"{exc} at t={t:g} after {steps} steps") from exc
    stats = {"steps": steps, "cfl": _CFL, "h_min": h_min if steps else 0.0, "h_max": h_max}
    return out, stats


def hydro_scaling_check(*, t_target: float = 0.15, n_x: int = 201,
                        tolerance: float = 1e-6) -> IdentityReport:
    """Method-of-lines chain run against the exact scaling family.

    The window holds rows -4 .. 6 on n_x cells of [0.25, 2.25], marched at
    CFL 0.2.  Boundary strips are driven with the exact solution (inflow
    data); the comparison covers interior cells only.  A t_target that is a
    bool or at most 1e-15 (reached in 0 steps) raises ValueError, and the
    exact field, built first, refuses the rest before the march.
    """
    if isinstance(t_target, (bool, np.bool_)) or t_target <= 1e-15:
        raise ValueError(f"t_target must exceed 1e-15 and not be a bool, got {t_target!r}")
    k_neg, k_pos = 4, 6
    n_x = _checked_int("n_x", n_x)
    x = np.linspace(0.25, 2.25, n_x)
    exact = HydroChainField.scaling(x, t_target, k_neg, k_pos)
    final, stats = evolve_hydro_chain(HydroChainField.initial(x, k_neg, k_pos), t_target,
                                      edge_drive=partial(_scaling_rows, k_neg=k_neg, k_pos=k_pos))
    interior = slice(2, -2)
    err_u = float(np.max(np.abs(final.u[:, interior] - exact.u[:, interior])))
    err_v = float(np.max(np.abs(final.v[interior] - exact.v[interior])))
    resid = max(err_u, err_v)
    meta = {"t_target": t_target, "steps": stats["steps"],
            "err_u": err_u, "err_v": err_v, "n_x": n_x}
    return IdentityReport.from_residual("hydro-chain-scaling", resid,
                                        tolerance, meta=meta)


def reduced_continuum_rhs(wm1: float, w):
    """Rates of the x-independent reduction, read off the full chain RHS.

    On the manifold u^{-k}=0 (k>1), u^{-1}=wm1, u^0=2x*wm1, u^k=w[k-1] the
    chain collapses to one ODE system in t alone.  The linear map rows(wm1,
    w) builds that field on 41 cells of [0.5, 1.5]; the chain's rates must
    meet its tangent rows(dwm1, dw), at their row means, to 1e-9 of their
    scale.  Returns (dwm1, dw, {"tangent_gap": gap}).  The plan's copy
    closure reads the zero row u^{-3} for u^{-4}, as pinning 0 would, and
    u^K for u^{K+1}, as the lattice reduced chain sets W^{K+1} := W^K.
    """
    wm1, w = float(wm1), np.asarray(w, dtype=float)
    x = np.linspace(0.5, 1.5, 41)
    k_neg = 3

    def rows(wm1, w):
        u = np.zeros((k_neg + len(w) + 1, len(x)))
        u[k_neg - 1] = wm1
        u[k_neg] = 2.0 * x * wm1
        u[k_neg + 1:] = w[:, None]
        return u

    du = hydro_chain_rhs(HydroChainField(x, rows(wm1, w), np.full_like(x, -wm1 / 2.0), k_neg))[0]
    dwm1 = float(np.mean(du[k_neg - 1]))
    dw = du[k_neg + 1:].mean(axis=1)
    gap = float(np.max(np.abs(du - rows(dwm1, dw))))
    if gap > 1e-9 * (float(np.max(np.abs(du))) + 1.0):
        raise DivergedField("field left the x-independent reduction manifold")
    return dwm1, dw, {"tangent_gap": gap}


# ---------------------------------------------------------------------------
# coefficient-matrix tensors

@dataclass(frozen=True)
class TensorPoint:
    """A u-window for tensor evaluation: indices -window..window.

    Queries must keep |i|,|j|,|k| <= window-3 so that every index sum stays
    strictly inside the truncation.  The window and every index are
    integers (numpy's included, bool not).
    """

    u: np.ndarray
    window: int

    def __post_init__(self):
        u, = _own_arrays(self, "u")
        _checked_int("window", self.window, 4)
        if u.shape != (2 * self.window + 1,):
            raise ValueError("u must have length 2*window + 1")

    def guard(self, *indices):
        g = self.window - 3
        for q in indices:
            if not _is_integer(q):
                raise ValueError(f"tensor index must be an integer, got {q!r}")
            if abs(q) > g:
                raise IndexOutOfWindow(f"index {q} outside guarded range |.| <= {g}")


def _matrix_terms(window: int):
    """Monomial table of the chain's coefficient matrix on the window.

    Each entry is (row, col, coeff, u-field indices); entries referencing
    fields or columns outside the window are dropped, which only affects the
    outermost rows -- the guard margin keeps queries clear of them.
    """
    W = window
    terms = []

    def add(i, j, coeff, *factors):
        if abs(j) > W or any(abs(f) > W for f in factors):
            return
        terms.append((i, j, float(coeff), factors))

    add(0, 0, 1.0, 0, 1)
    add(0, 1, 1.0, 0, 0)
    add(1, 0, 2.0, 2)
    add(1, 0, -1.0, 1, 1)
    add(1, 1, -1.0, 0, 1)
    add(1, 2, 1.0, 0)
    for k in range(2, W + 1):
        add(k, 0, k + 1.0, k + 1)
        add(k, 0, -(k - 1.0), k - 1)
        add(k, 0, -1.0, k, 1)
        add(k, 1, -1.0, 0, k)
        add(k, k + 1, 1.0, 0)
        add(k, k - 1, 1.0, 0)
    add(-1, 0, 1.0, -1, 1)
    add(-1, 0, 1.0, -2)
    add(-1, 1, 1.0, 0, -1)
    add(-1, -2, 1.0, 0)
    add(-2, 0, 1.0, -2, 1)
    add(-2, 0, 2.0, -3)
    add(-2, 1, 1.0, 0, -2)
    add(-2, -3, 1.0, 0)
    add(-2, -1, 2.0, 0)
    for k in range(3, W + 1):
        add(-k, 0, float(k), -(k + 1))
        add(-k, 0, -(k - 2.0), -(k - 1))
        add(-k, 0, 1.0, -k, 1)
        add(-k, 1, 1.0, 0, -k)
        add(-k, -(k + 1), 1.0, 0)
        add(-k, -(k - 1), 1.0, 0)
    return tuple(terms)


def _products(spec: str, left: np.ndarray, right: np.ndarray, keep) -> tuple:
    """The products of the contraction `spec`, written as for `np.einsum`
    (such as "pj,pik->ijk"), of two operands given as dense maps of their
    entry numbers, -1 where an operand has no entry.

    Lists the left operand's entries in position order and, for each, the
    right entries at the indices it shares, in position order; a product is
    kept where the boolean map `keep`, broadcast over the output, is set.
    Returns the left and right entry numbers of each kept product and its
    output position, one index array per output letter.
    """
    ins, out = spec.split("->")
    ls, rs = ins.split(",")
    shared, free = [c for c in rs if c in ls], [c for c in rs if c not in ls]
    at = dict(zip(ls, np.nonzero(left >= 0)))
    has = (right >= 0).transpose([rs.index(c) for c in shared + free])
    l, *rest = np.nonzero(has[tuple(at[c] for c in shared)])
    at = {c: at[c][l] for c in ls} | dict(zip(free, rest))
    pos = tuple(at[c] for c in out)
    ok = np.broadcast_to(keep, (len(left),) * len(out))[pos]
    return (left[tuple(at[c] for c in ls)][ok], right[tuple(at[c] for c in rs)][ok],
            tuple(p[ok] for p in pos))


@dataclass(frozen=True)
class _TensorPlan:
    """Index arrays that evaluate A, its gradient, N and the j < k half of
    the guarded block of H at any point of one window (see `_tensor_plan`)."""

    n: int
    terms: tuple          # (coef, first factor, second factor) of each monomial
    a_slot: np.ndarray
    a_code: np.ndarray    # flat (row, col) of each A entry
    d_slot: np.ndarray
    d_coef: np.ndarray
    d_other: np.ndarray
    d_code: np.ndarray    # flat (l, row, col) of each gradient entry
    n_pairs: tuple        # (A entry, gradient entry, slot) of each product
    n_size: int
    n_terms: np.ndarray   # (4, entries) slots of t1, t1', t3, t3'
    n_code: np.ndarray    # flat (i, j, k) of each N entry, sorted
    i_pairs: tuple        # products of (A, N) entries, intermediate slots
    i_size: int
    h_pairs: tuple        # products of (intermediates, A, N) entries
    h_size: int
    h_terms: np.ndarray   # (4, entries) slots of the four Haantjes terms
    h_code: np.ndarray    # flat (i, j, k) of each guarded H entry with j < k, sorted
    n_guarded: np.ndarray  # the N entries inside the guarded block
    block_code: np.ndarray  # their flat (i, j, k) in the guarded block


@lru_cache(maxsize=None)
def _tensor_plan(window: int) -> _TensorPlan:
    """Compile the Nijenhuis and Haantjes contractions of the window from
    the monomial table.

    A and dA[l, i, j] = dA^i_j / du^l are collected by position, in table
    order, from the monomials and from each monomial differentiated by
    each factor.  Every operand is a dense map of its entry numbers, which
    ascend in position order, and every term of a contraction is written as
    its einsum spec (`_products`): a product's slot is its output position,
    and a sum is one `np.bincount` over the slots.  Each term is aggregated
    by position before the signed sums, as the dense contractions are:

        N = t1 - t1' - t3 + t3'   (' swaps j and k; N[i,j,j] = 0)
        H = h1 - h2 - h3 + h4     (its terms in the order written below)

    H is kept on the guarded block |i|, |j|, |k| <= window - 3 only, and
    there on its independent half j < k; the intermediates X, M and A2 are
    kept where they feed the guarded block.  H^i_jk = -H^i_kj, as for N,
    so the half holds every value: the products an entry keeps are the
    ones it had on the whole block, summed in the same order.
    """
    W = window
    n = 2 * W + 1
    # the monomial table as arrays in table order: rows, columns, coefficients
    # and (terms, 2) factor pairs.  Indices count from -W; a one-factor
    # monomial's second factor is n = 2W + 1, a ones entry
    row, col, coef, a, b = map(np.array, zip(*[
        (i + W, j + W, c, f[0] + W, f[1] + W if len(f) == 2 else n)
        for i, j, c, f in _matrix_terms(W)]))
    factors = np.stack([a, b], axis=1)

    def numbered(pos, start=0):
        # map numbering the distinct positions `pos` in order from `start`
        hit = np.zeros((n,) * len(pos), dtype=bool)
        hit[pos] = True
        entry = np.full(hit.shape, -1, dtype=np.intp)
        entry[hit] = np.arange(start, start + np.count_nonzero(hit))
        return entry

    def contract(terms, offsets):
        # the (left, right, slot) of each product of the (spec, left, right,
        # keep) terms, its values read `offsets` on, and each term's slot map:
        # its distinct output positions, slotted term after term
        pairs, maps, size = [], [], 0
        for (spec, *operands), (lo, ro) in zip(terms, offsets):
            l, r, pos = _products(spec, *operands)
            maps.append(numbered(pos, size))
            size += int(np.count_nonzero(maps[-1] >= 0))
            pairs.append((l + lo, r + ro, maps[-1][pos]))
        return tuple(map(np.concatenate, zip(*pairs))), maps, size

    def sums(maps, size, hit):
        # each map's slot at the positions `hit` marks, the zero slot where it has none
        slots = np.stack([m[hit] for m in maps])
        slots[slots < 0] = size
        return np.flatnonzero(hit), slots

    A = numbered((row, col))
    a_slot, a_code = A[row, col], np.flatnonzero(A >= 0)
    # each monomial by each factor, in table order; the ones entry n is no field
    t = np.repeat(np.arange(len(row)), 2)
    dl, other = factors.ravel(), factors[:, ::-1].ravel()
    real = dl < n
    at = (dl[real], row[t][real], col[t][real])
    dA = numbered(at)
    d_slot, d_code = dA[at], np.flatnonzero(dA >= 0)
    g = np.abs(np.arange(n) - W) <= W - 3   # the guarded indices
    gi, gj, gk = g[:, None, None], g[:, None], g   # on the output's i, j, k

    # N on its structural nonzeros off the j == k diagonal
    n_pairs, (t1, t3), n_size = contract(
        [("pj,pik->ijk", A, dA, True), ("ip,jpk->ijk", A, dA, True)], [(0, 0)] * 2)
    hit = (t1 >= 0) | (t3 >= 0)
    hit = (hit | hit.transpose(0, 2, 1)) & ~np.eye(n, dtype=bool)
    support, n_terms = sums([t1, t1.transpose(0, 2, 1), t3, t3.transpose(0, 2, 1)],
                            n_size, hit)
    N, nA = numbered(np.nonzero(hit)), len(a_code)

    # intermediates, numbered by their slots; values are read from (A, N)
    # laid end to end
    i_pairs, (X, M, A2), i_size = contract(
        [("ipr,pj->ijr", N, A, gi & gj), ("ip,pab->iab", A, N, gi & (gj | gk)),
         ("ir,rp->ip", A, A, g[:, None])], [(nA, 0), (0, nA), (0, 0)])

    # H on j < k; values are read from (intermediates, A, N) laid end to end
    jk = gj & gk & np.triu(np.ones((n, n), dtype=bool), 1)
    h_pairs, hmaps, h_size = contract(
        [("ijr,rk->ijk", X, A, jk), ("ijr,rk->ijk", M, A, jk),
         ("irk,rj->ijk", M, A, jk), ("ip,pjk->ijk", A2, N, jk)],
        [(0, i_size)] * 3 + [(0, i_size + nA)])
    h_code, h_terms = sums(hmaps, h_size, np.any([m >= 0 for m in hmaps], axis=0))
    inside = hit & gi & gj & gk
    return _TensorPlan(
        n, (coef, factors[:, 0], factors[:, 1]), a_slot, a_code, d_slot,
        coef[t][real], other[real], d_code, n_pairs, n_size, n_terms, support,
        i_pairs, i_size, h_pairs, h_size, h_terms, h_code, N[inside],
        np.flatnonzero(inside[3:n - 3, 3:n - 3, 3:n - 3]))


def _point_row(point: TensorPoint) -> np.ndarray:
    """The point's values u^-W .. u^W with the ones entry 1 appended: the
    row `_matrix_entries` reads."""
    return np.append(point.u, 1.0)


def _matrix_entries(ue: np.ndarray, plan: _TensorPlan):
    """Values of A and its gradient on the plan's entries at the point row
    `ue` (`_point_row`), each summed over its monomials in table order."""
    coef, fa, fb = plan.terms
    A = np.bincount(plan.a_slot, coef * ue[fa] * ue[fb], len(plan.a_code))
    dA = np.bincount(plan.d_slot, plan.d_coef * ue[plan.d_other], len(plan.d_code))
    return A, dA


def _tensor_entries(ue: np.ndarray, plan: _TensorPlan):
    """N on `plan.n_code` and H on `plan.h_code` at the point row `ue`
    (`_point_row`): every query forms both."""
    A, dA = _matrix_entries(ue, plan)
    l, r, slot = plan.n_pairs
    t = np.bincount(slot, A[l] * dA[r], plan.n_size + 1)
    t1, t1s, t3, t3s = t[plan.n_terms]
    N = t1 - t1s - t3 + t3s
    V = np.concatenate((A, N))
    l, r, slot = plan.i_pairs
    V = np.concatenate((np.bincount(slot, V[l] * V[r], plan.i_size), V))
    l, r, slot = plan.h_pairs
    h = np.bincount(slot, V[l] * V[r], plan.h_size + 1)
    h1, h2, h3, h4 = h[plan.h_terms]
    return N, h1 - h2 - h3 + h4


def chain_matrix(point: TensorPoint) -> np.ndarray:
    """The quasilinear coefficient matrix A at the point, (2W+1)x(2W+1)."""
    plan = _tensor_plan(point.window)
    A = np.zeros(plan.n ** 2)
    A[plan.a_code] = _guarded("chain_matrix", _matrix_entries, _point_row(point), plan)[0]
    return A.reshape(plan.n, plan.n)


def _component(point: TensorPoint, i: int, j: int, k: int, haantjes: bool) -> float:
    point.guard(i, j, k)
    plan = _tensor_plan(point.window)
    with np.errstate(over="ignore", invalid="ignore"):
        N, H = _tensor_entries(_point_row(point), plan)
    codes, values = (plan.h_code, H) if haantjes else (plan.n_code, N)
    W, n = point.window, plan.n
    swap = haantjes and j > k          # the plan holds H on j < k; H^i_kj = -H^i_jk
    a, b = (k, j) if swap else (j, k)
    code = ((i + W) * n + a + W) * n + b + W
    pos = np.searchsorted(codes, code)
    value = float(values[pos]) if pos < len(codes) and codes[pos] == code else 0.0
    if swap:
        value = -value
    if not math.isfinite(value):
        raise DivergedField(f"{'Haantjes' if haantjes else 'Nijenhuis'} component "
                            f"({i}, {j}, {k}) is not finite: the point's "
                            f"products overflow")
    return value


def nijenhuis(i: int, j: int, k: int, point: TensorPoint) -> float:
    """One component of the Nijenhuis tensor of the chain matrix."""
    return _component(point, i, j, k, haantjes=False)


def haantjes(i: int, j: int, k: int, point: TensorPoint) -> float:
    """One component of the Haantjes obstruction tensor; its vanishing is the
    diagonalizability certificate for the chain.

    The plan computes H on j < k only: for j > k this is -H^i_kj of the
    same evaluation, and for j == k exactly 0."""
    return _component(point, i, j, k, haantjes=True)


def _u0_squares(u: np.ndarray) -> np.ndarray:
    """u^0 squared at each point of the (points, 2W+1) window array u, with
    Python's float power, whose last bit differs from u0 * u0 at some
    points; a square past the double range raises OverflowError."""
    return np.array([q ** 2 for q in u[:, u.shape[1] // 2].tolist()])


def _closed_table(u: np.ndarray, sq: np.ndarray, i: int) -> dict:
    """Nonzero Nijenhuis components of row i at each point of the
    (points, 2W+1) window array u, keyed (j, k) as tabulated, each a
    (points,) array; sq is `_u0_squares(u)`, taken once for every row.

    Near-diagonal rows |i| <= 2 carry exceptional values where the generic
    family formulas collide and add.  A product past the double range
    reads inf.
    """
    if i == 0:
        return {}
    W = u.shape[1] // 2
    u0, u1 = u[:, W], u[:, W + 1]
    if i > 2 or i < -2:
        lo, hi = u[:, W + i - 1], u[:, W + i + 1]
        c = (i - 1, i + 1) if i > 2 else (i, i + 2)
        side = u0 * u1
        return {(0, 1): u0 * (c[0] * lo - c[1] * hi), (0, i): -4.0 * u0,
                (0, i - 1): side, (0, i + 1): side, (1, i - 1): sq, (1, i + 1): sq}
    if i == 2:
        return {(0, 1): u0 * (2.0 * u1 - 3.0 * u[:, W + 3]),
                (0, 2): -4.0 * u0, (0, 3): u0 * u1, (1, 3): sq}
    if i == 1:
        return {(0, 1): -2.0 * u0 * (2.0 + u[:, W + 2]),
                (0, 2): u0 * u1, (1, 2): sq}
    if i == -1:
        return {(0, -1): -4.0 * u0, (0, -2): u0 * u1, (1, -2): sq,
                (0, 1): -u0 * u[:, W - 2]}
    # i == -2
    return {(0, -2): -4.0 * u0, (0, -3): u0 * u1, (1, -3): sq,
            (0, 1): -2.0 * u0 * u[:, W - 3], (-1, 1): -2.0 * sq,
            (0, -1): 2.0 * u0 * u1}


def nijenhuis_closed_form(i: int, j: int, k: int, point: TensorPoint) -> float:
    """Tabulated value of N^i_{jk}; 0 for components off the nonzero list.
    Raises DivergedField when the tabulated value overflows."""
    point.guard(i, j, k)
    u = point.u[None]
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            table = _closed_table(u, _u0_squares(u), i)
    except OverflowError as exc:
        raise DivergedField(f"closed-form Nijenhuis row {i} overflows: {exc}") from exc
    if (j, k) in table:
        value = float(table[(j, k)][0])
    elif (k, j) in table:
        value = -float(table[(k, j)][0])
    else:
        return 0.0
    if not math.isfinite(value):
        raise DivergedField(f"closed-form Nijenhuis component ({i}, {j}, {k}) "
                            f"is not finite")
    return value


@lru_cache(maxsize=None)
def _closed_layout(window: int) -> np.ndarray:
    """Which closed-form value each entry the scan compares must equal.

    The scan compares N on its entries inside the guarded block
    |.| <= g = window - 3 (`plan.n_guarded`, in that order), followed, in
    position order, by any position of the block that the table names and
    N has no entry at (none, on every window up to 60), which N reads as 0.
    Its signed table row lays rows -g .. g of `_closed_table` end to end in
    table order, then their negations, then one 0: entry (j, k) of row i is
    N^i_{jk}, its negation N^i_{kj}, and an entry the table leaves out
    reads the 0.  Returns the place in that row of each compared entry,
    read off one dense map of the block.  Where the table lands depends on
    the row alone.
    """
    g = window - 3
    plan = _tensor_plan(window)
    ones = np.ones((1, 2 * window + 1))
    ijk, size = [], 0
    for i in range(-g, g + 1):
        keys = list(_closed_table(ones, ones[:, 0], i))   # 1 squares to 1
        ijk += [(i + g, j + g, k + g, size + e) for e, (j, k) in enumerate(keys)
                if max(abs(j), abs(k)) <= g]
        size += len(keys)
    i, j, k, src = np.array(ijk).T
    place = np.full((2 * g + 1,) * 3, 2 * size)
    place[i, j, k], place[i, k, j] = src, src + size
    named = place < 2 * size
    named.flat[plan.block_code] = False
    return np.concatenate((place.flat[plan.block_code], place[named]))


def haantjes_scan(*, window: int = 10, n_points: int = 100, seed: int = 20260823,
                  tolerance: float = 1e-9) -> IdentityReport:
    """Certify diagonalizability of the chain matrix at random points.

    At each seeded point the Haantjes tensor must vanish on the guarded
    window (read on its independent half j < k, which holds every value),
    and every computed Nijenhuis component must match the closed-form table
    -- including the zero claimed for everything off the list -- to 1e-10.
    Each point draws u^k uniformly from [-3, 3] and then u^0 from [0.5, 2].
    """
    u_bound, (lo, hi), closed_tol = 3.0, (0.5, 2.0), 1e-10
    window, n_points = _checked_int("window", window), _checked_int("n_points", n_points, 1)
    seed = _checked_seed(seed)
    if window < 10:
        raise ValueError("window must be at least 10 for a meaningful scan")
    W = window
    # one draw call, the stream of two per point: each row's 2W+1 values on
    # the u bound, then u^0, which replaces the row's middle draw; its last
    # column then holds the ones entry of `_point_row`
    low, high = np.full(2 * W + 2, -u_bound), np.full(2 * W + 2, u_bound)
    low[-1], high[-1] = lo, hi
    ue = np.random.default_rng(seed).uniform(low, high, (n_points, 2 * W + 2))
    ue[:, W] = ue[:, -1]
    ue[:, -1] = 1.0
    u = ue[:, :-1]
    plan = _tensor_plan(W)
    at = _closed_layout(W)
    N = np.empty((n_points, len(plan.n_code)))
    H = np.empty((n_points, len(plan.h_code)))
    for p in range(n_points):
        N[p], H[p] = _tensor_entries(ue[p], plan)
    worst_h = float(np.max(np.abs(H), initial=0.0))
    # N on the compared entries at every point; positions N lacks read 0
    got = np.zeros((n_points, len(at)))
    got[:, :len(plan.n_guarded)] = N[:, plan.n_guarded]
    g, sq = W - 3, _u0_squares(u)
    table = np.stack([v for i in range(-g, g + 1)
                      for v in _closed_table(u, sq, i).values()], axis=1)
    signed = np.concatenate((table, -table, np.zeros((n_points, 1))), axis=1)
    worst_closed = float(np.max(np.abs(got - signed[:, at])))
    passed = worst_h <= tolerance and worst_closed <= closed_tol
    meta = {"window": window, "n_points": n_points, "seed": seed,
            "max_haantjes": worst_h, "max_closed_form_error": worst_closed,
            "closed_tol": closed_tol}
    return IdentityReport("chain-diagonalizability", worst_h, worst_h,
                          tolerance, passed, meta)
