"""Reference kernels: the per-band loop, the np.roll stencil, the
hand-written hydrodynamic chain and its RK4 march, the derivative stencil
on fresh arrays, the reduced chain on
concatenated rows, the site-by-site dense commutator, an RK4 step with its
stages in fresh arrays, and a 50-digit Gauss-Legendre rule.

These are the straightforward forms of the Pfaff-chain and Volterra
right-hand sides, of the continuum chain's RHS written row by row and read
from the monomial table with every buffer fresh at every call
(`table_rhs_arrays`, what `continuum._hydro_kernel` binds once per march),
of the chain march with its RK4 stages written out on the (u, v) pair, the
edge drive called at every stage and the strips' rates formed full width
(with a drive that records its call times), of
the reduced chain's RHS on a state, of the coefficient matrix and its
gradient built by a loop over the monomial table, of the classical RK4
step, and of the dense embedding and protected-position scan of the
commutator form.  The library's kernels evaluate the same arithmetic with
slices, precomputed gathers, masks, buffers written in place and one RK4
stepper whose stages live in buffers made once per segment; the tests
hold them to these references bit for bit, except
the chain RHS, whose coefficient product sums each row's terms in another
order and is held to 1e-13 relative.  The dense `einsum` contractions of
the Nijenhuis and Haantjes tensors are the reference for the sums the
library compiles from the monomial table; those add the same products in
another order, so each component is held to 8 eps of the size of the terms
it sums (`tensor_magnitudes`), and a structural zero to exactly 0.
`haantjes_scan` is the scan as it ran before it tabulated the closed form
over all points at once and drew them with one call: two draws and a
`TensorPoint` per point, a dict of Python floats per row and point
(`closed_table_row`, which `nijenhuis_closed_form` here reads), and a
dense guarded block filled once with N and once with the table, compared
entry by entry.  Its N and H come from the library's compiled sums, so
the two scans must serialise byte for byte alike.  The mpmath rule is the
accuracy reference for `couplings._gauss_legendre`.

The tau references are the monomial routes `moments.log_tau` replaced: a
Cholesky factor of the Hankel moment matrix and a Pfaffian of monomial skew
moments with one cumulative integral per row.  Their conditioning grows
like the moments, so they are references for sizes <= 12 only.  The same
Cholesky factor gave the tridiagonal Lax operator before
`lax.toda_lax_from_quadrature` read it off the Stieltjes recurrence; it is
a reference through 10 sites.  `radius_sequential` is the radius search
as it ran before `couplings._radius_for` read the radius off its scan: a
bisection of each side, one midpoint at a time, that pins the tail
crossing to 1e-12 relative.  It gives `widen_grid` a radius at any
tolerance and bounds the scan's radius, which may lie at most one scan
spacing past it.  The grid builder's panel count with the
unscaled companion moment z^deg rho is the reference for the scaled one
below degree 240.  The
60-digit quartic Hankel determinant is the reference at any size.  The
skew-basis reference is the parity-Hermite working basis that
`lax.skew_orthonormal_basis` replaced with the Stieltjes basis of
`log_tau`; its Gram loses accuracy with size, so it is a reference to
1e-10 through 10 pairs.

`ghost_closure` is the right-edge closure as the evolvers used it before
they read it as coefficients: a function of the current edge values,
evaluated at every RHS call.  It rounds differently from the coefficients,
so it is held to them at 1e-14 relative per evaluation, and
`evolve_volterra` and `evolve_pfaff` here, which run it with the shared
stepper and the reference chain loop, bound the trajectory drift.
`toda_rates` is the tridiagonal RHS as written on a validated state, with
its b clamped at 1e-300; the raw-array kernel must equal it bit for bit on
healthy trajectories.

`tau_derivative_fd` is the route `moments.tau_coupling_derivative` took
before it read exact jets of log tau off the Stieltjes basis: central
finite differences with one Richardson level (`numdiff.mixed_derivative`),
every shifted tau integrated on one grid built at the base couplings and
widened (`widen_grid`) so that the shifted tails stay negligible.  Its
noise is about 1e-8 relative at step 5e-3, so it is a reference to that
noise for small sizes.

`mkp_fields_nested` and `mkp_derivatives_fd` are the route
`identities.mkp_residuals` took before it read exact Volterra flow jets:
each (s2, s4, s6) coupling shift marches its own line through flows 2, 4
and 6 in signed RK4 segments, one call per stage to `volterra_rhs_line`,
the 1-D padding that `flows.volterra_rhs` used before it took stacks, and
central finite differences with one Richardson level
(`numdiff.mixed_derivative`) take the x (flow 2), y (flow 4) and t (flow 6)
derivatives of (B_n, B_{n-1}) from those lines.  The RK4 steps are
`rk4_step`, the step with every stage in fresh arrays that the library
took before its stages lived in buffers; only the stencil,
`flows._volterra_kernel`, is shared with the code under test.  Its
noise is about 1e-8 of the largest derivative of a kind at steps 1e-2 and
RK4 h = 1e-3, so it is a reference to that noise.
"""

import math

import numpy as np

from taulattice import continuum, flows, lax, pfaffian
from taulattice.couplings import (_GRID_TOL, _panel_nodes, _regrid, build_quadrature,
                                  cumulative_integral, weight_eval)
from taulattice.moments import (_log_tau_of_basis, _skew_products, _stieltjes, _tau_grid,
                                _tau_value)
from taulattice.numdiff import mixed_derivative
from taulattice.continuum import (TensorPoint, _matrix_terms, _point_row, _rhs_plan,
                                  _tensor_entries, _tensor_plan)
from taulattice.errors import DivergedField, NonIntegrableWeight, StructureViolation
from taulattice.report import IdentityReport
from taulattice.flows import _skew_block_projection


def volterra_potential(Bp: np.ndarray, flow: int) -> np.ndarray:
    if flow == 2:
        return Bp
    left, right = np.roll(Bp, 1), np.roll(Bp, -1)
    V4 = Bp * (left + Bp + right)
    if flow == 4:
        return V4
    if flow == 6:
        return Bp * (left * right + np.roll(V4, 1) + V4 + np.roll(V4, -1))
    raise ValueError(f"Volterra flows are 2, 4 or 6, got {flow}")


def volterra_rhs_padded(Bp: np.ndarray, flow: int) -> np.ndarray:
    """Full-length rates; valid wherever 4 neighbours each side are real."""
    V = volterra_potential(Bp, flow)
    return Bp * (np.roll(V, -1) - np.roll(V, 1))


def volterra_rhs_line(B: np.ndarray, flow: int) -> np.ndarray:
    """dB/dt_{flow} of one (sites,) line, padded as `flows.volterra_rhs` did
    before it took stacks: zeros ahead of site 0, a linear extension past
    the last site."""
    Bp = np.concatenate([np.zeros(4), B, np.zeros(4)])
    Bp[-4:] = B[-1] + (B[-1] - B[-2]) * np.arange(1, 5)
    return flows._volterra_kernel(Bp, flow)(np.empty(len(B)))


def rk4_step(f, t, y, h):
    """One classical RK4 step of dy/dt = f(t, y) from (t, y), every stage in
    fresh arrays: the step the library took before its stepper kept its
    stages in buffers (`flows._rk4_stepper`)."""
    half = 0.5 * h
    k1 = f(t, y)
    k2 = f(t + half, y + half * k1)
    k3 = f(t + half, y + half * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def mkp_fields_nested(B0: np.ndarray, shifts, h: float) -> dict:
    """B0 evolved by flow 2, then 4, then 6 to each (s2, s4, s6) in
    `shifts`, one independent chain of signed RK4 segments per shift."""
    def evolve_signed(B, flow, t_target):
        if t_target == 0.0:
            return B
        sign = 1.0 if t_target > 0 else -1.0
        span = abs(t_target)
        steps = max(1, int(math.ceil(span / h - 1e-12)))
        hs = span / steps
        rhs = lambda t, y: sign * volterra_rhs_line(y, flow)
        for i in range(steps):
            B = rk4_step(rhs, i * hs, B, hs)
        return B

    lines = {}
    for key in shifts:
        B = B0
        for flow, s in zip((2, 4, 6), key):
            B = evolve_signed(B, flow, s)
        lines[key] = B
    return lines


MKP_AXES = ({2: 1}, {2: 2}, {2: 3}, {4: 1}, {6: 1}, {2: 1, 4: 1})


def mkp_derivatives_fd(B0: np.ndarray, n: int, steps: dict, h: float) -> np.ndarray:
    """(6, 2) array: d_x, d_xx, d_xxx, d_y, d_t and d_xy of (B_n, B_{n-1})
    by finite differences over `mkp_fields_nested` lines."""
    def fields(shift: dict) -> np.ndarray:
        key = (shift.get(2, 0.0), shift.get(4, 0.0), shift.get(6, 0.0))
        B = mkp_fields_nested(B0, [key], h)[key]
        return np.array([B[n - 1], B[n - 2]])
    return np.array([mixed_derivative(fields, axes, steps) for axes in MKP_AXES])


def pfaff_core(Q: np.ndarray, k_neg: int, k_pos: int, n_sites: int) -> np.ndarray:
    """Five-branch chain RHS on a padded window, one band at a time.

    Q rows hold bands -k_neg-1 .. k_pos+1 (ghost row each side), columns
    hold sites 0 .. n_sites+pad.  Returns dQ with ghost rows/cols zero.
    """
    dQ = np.zeros_like(Q)
    off = k_neg + 1

    def s(d):
        return slice(1 + d, 1 + n_sites + d)

    W0 = Q[off]
    P = Q[off] * Q[off + 1]
    for ell in range(-k_neg, k_pos + 1):
        r = ell + off
        w = Q[r]
        if ell <= -2:
            k = -ell
            dQ[r, s(0)] = (
                0.5 * w[s(0)] * (P[s(0)] - P[s(-1)] + P[s(k - 1)] - P[s(k - 2)])
                + Q[r + 1][s(1)] * W0[s(0)] - Q[r + 1][s(0)] * W0[s(k - 2)]
                + Q[r - 1][s(0)] * W0[s(k - 1)] - Q[r - 1][s(-1)] * W0[s(-1)])
        elif ell == -1:
            wm2 = Q[r - 1]
            dQ[r, s(0)] = (
                w[s(0)] * (P[s(0)] - P[s(-1)])
                + W0[s(0)] * (W0[s(0)] + wm2[s(0)])
                - W0[s(-1)] * (W0[s(-1)] + wm2[s(-1)]))
        elif ell == 0:
            dQ[r, s(0)] = (
                0.5 * w[s(0)] * (P[s(1)] - P[s(-1)])
                + w[s(0)] * (Q[r - 1][s(1)] - Q[r - 1][s(0)]))
        elif ell == 1:
            dQ[r, s(0)] = (
                0.5 * w[s(0)] * (P[s(-1)] - P[s(1)])
                + W0[s(1)] * Q[r + 1][s(0)] - W0[s(-1)] * Q[r + 1][s(-1)])
        else:
            k = ell
            dQ[r, s(0)] = (
                0.5 * w[s(0)] * (P[s(-1)] - P[s(0)] + P[s(k - 1)] - P[s(k)])
                + Q[r + 1][s(0)] * W0[s(k)] - Q[r + 1][s(-1)] * W0[s(-1)]
                + Q[r - 1][s(1)] * W0[s(0)] - Q[r - 1][s(0)] * W0[s(k - 1)])
    return dQ


def pfaff_rates(Q: np.ndarray, k_neg: int, k_pos: int, n_sites: int) -> np.ndarray:
    """pfaff_core's rates of bands -k_neg .. k_pos on sites 1 .. n_sites."""
    return pfaff_core(Q, k_neg, k_pos, n_sites)[1:-1, 1:n_sites + 1]


def chain_kernel(Q: np.ndarray, k_neg: int, k_pos: int, n_sites: int):
    """pfaff_rates in the calling convention of flows._chain_kernel: a
    function rates(out) that writes the rates from Q's current values into
    out and returns out."""
    def rates(out):
        out[...] = pfaff_rates(Q, k_neg, k_pos, n_sites)
        return out
    return rates


def ghost_closure(i2, i1, init_ghost):
    """The right-edge closure as a map (a2, a1) -> ghost values, evaluated
    from the edge values at every call, as the evolvers used it before they
    read it as coefficients (`flows._ghost_closure`).  (i2, i1) are the
    initial edge values; edges are scalars or (rows, 1) columns.  Each
    initial ghost is rescaled by the linearly extrapolated ratio of current
    to initial edge values; rows whose initial edge is near 0 extrapolate
    the edge linearly."""
    j = np.arange(1.0, np.shape(init_ghost)[-1] + 1)

    def linear(a2, a1):
        return a1 + j * (a1 - a2)

    ok = np.minimum(np.abs(i1), np.abs(i2)) >= 1e-12 * (np.abs(i1) + np.abs(i2) + 1.0)
    if not ok.any():
        return linear

    def scaled(a2, a1):
        r1, r2 = a1 / i1, a2 / i2
        return init_ghost * (r1 + j * (r1 - r2))
    if ok.all():
        return scaled
    i1, i2 = np.where(ok, i1, 1.0), np.where(ok, i2, 1.0)     # read by scaled
    return lambda a2, a1: np.where(ok, scaled(a2, a1), linear(a2, a1))


def evolve_volterra(B0: np.ndarray, flow: int, times, h: float):
    """flows.evolve_volterra's sampled lines (n_evolve sites, then the ghost
    strip) with the edge closure of `ghost_closure`, called at every RHS
    evaluation; the stencil is flows._volterra_kernel."""
    N, pad = len(B0), 4
    n_ev = N - pad
    init_ghost = B0[n_ev:]
    line = ghost_closure(B0[n_ev - 2], B0[n_ev - 1], init_ghost)
    Bp = np.zeros(4 + n_ev + pad)
    kernel = flows._volterra_kernel(Bp, flow)

    def rhs(t, y):
        Bp[4:4 + n_ev] = y
        Bp[4 + n_ev:] = line(y[-2], y[-1])
        return kernel(np.empty(n_ev))

    ys, _ = flows.evolve(rhs, B0[:n_ev], times, h=h)
    return [np.concatenate([y, line(y[-2], y[-1])]) for y in ys]


def evolve_pfaff(state, times, h: float):
    """flows.evolve_pfaff's sampled windows with the edge closure of
    `ghost_closure`, called at every RHS evaluation, and the per-band loop
    `pfaff_rates` as the chain kernel."""
    k_neg, k_pos, N = state.k_neg, state.k_pos, state.n_sites
    K1, K2 = k_neg - 1, k_pos - 1
    pad = max(K1, K2) + 1
    n_ev, n_rows = N - pad, K1 + K2 + 1
    W0 = state.w
    init_active = W0[1:-1]
    closure = ghost_closure(init_active[:, n_ev - 2:n_ev - 1],
                            init_active[:, n_ev - 1:n_ev], init_active[:, n_ev:])
    Q = np.zeros((n_rows + 2, 1 + n_ev + pad))
    Q[0, 1:] = W0[0, :n_ev + pad]
    Q[-1, 1:] = W0[-1, :n_ev + pad]

    def rhs(t, y):
        y2d = y.reshape(n_rows, n_ev)
        Q[1:-1, 1:n_ev + 1] = y2d
        Q[1:-1, n_ev + 1:] = closure(y2d[:, -2:-1], y2d[:, -1:])[:, :pad]
        return pfaff_rates(Q, K1, K2, n_ev).ravel()

    ys, _ = flows.evolve(rhs, init_active[:, :n_ev].ravel(), times, h=h)
    out = []
    for y in ys:
        y2d = y.reshape(n_rows, n_ev)
        w = W0.copy()
        w[1:-1, :n_ev] = y2d
        w[1:-1, n_ev:] = closure(y2d[:, -2:-1], y2d[:, -1:])
        out.append(w)
    return out


def toda_rates(y: np.ndarray, n: int, flow: int) -> np.ndarray:
    """flows.toda_rhs as written on a validated state, with b clamped at
    1e-300 and the shifted diagonals built by insertion, on the flat state
    (a_1..a_n, b_1..b_{n-1})."""
    a, b = y[:n], np.maximum(y[n:], 1e-300)
    bsq = np.zeros(n + 1)
    bsq[1:n] = b * b
    ap = np.append(a, 0.0)
    if flow == 1:
        da = bsq[1:] - bsq[:-1]
        db = 0.5 * b * (a[1:] - a[:-1])
    else:
        da = (a + ap[1:]) * bsq[1:] - (np.insert(a[:-1], 0, 0.0) + a) * bsq[:-1]
        db = 0.5 * b * (bsq[2:] - bsq[:n - 1] + a[1:] ** 2 - a[:-1] ** 2)
    return np.concatenate([da, db])


def volterra_rates(Bp: np.ndarray, flow: int) -> np.ndarray:
    """volterra_rhs_padded's rates of the sites Bp[4:-4]."""
    return volterra_rhs_padded(Bp, flow)[4:-4]


def volterra_kernel(Bp: np.ndarray, flow: int):
    """volterra_rates in the calling convention of flows._volterra_kernel: a
    function rates(out) that writes the rates from Bp's current values into
    out and returns out."""
    def rates(out):
        out[...] = volterra_rates(Bp, flow)
        return out
    return rates


def spatial_derivative(f, dx):
    """continuum.spatial_derivative written on fresh arrays: the stencil the
    library binds once (`continuum._stencil`) and runs over its buffer
    flattened."""
    f = np.asarray(f, dtype=float)
    g = np.empty_like(f)
    g[..., 2:-2] = (f[..., :-4] - 8.0 * f[..., 1:-3]
                    + 8.0 * f[..., 3:-1] - f[..., 4:]) / (12.0 * dx)
    g[..., 0] = (-3.0 * f[..., 0] + 4.0 * f[..., 1] - f[..., 2]) / (2.0 * dx)
    g[..., 1] = (f[..., 2] - f[..., 0]) / (2.0 * dx)
    g[..., -2] = (f[..., -1] - f[..., -3]) / (2.0 * dx)
    g[..., -1] = (3.0 * f[..., -1] - 4.0 * f[..., -2] + f[..., -3]) / (2.0 * dx)
    return g


def _closure_row(u: np.ndarray, edge: int, spec) -> np.ndarray:
    if isinstance(spec, str):
        if spec != "copy":
            raise ValueError("closure must be 'copy' or a number")
        return u[edge]
    return np.full(u.shape[1], float(spec))


def table_rhs_arrays(dx, y, k_neg, top, bottom, out=None):
    """The chain RHS read from the monomial table (`continuum._rhs_plan`),
    every buffer fresh at every call: what `continuum._hydro_kernel` binds
    once.  `y` stacks the window rows u over the row v and the rates come
    back stacked the same way, in `out` when it is given."""
    R = y.shape[0] - 1
    u, v = y[:R], y[R]
    S, fa, fb, col = _rhs_plan(k_neg, R - 1 - k_neg)
    ext = np.empty((R + 5, y.shape[1]))
    ext[0] = _closure_row(u, 0, bottom)
    ext[1:R + 1] = u
    ext[R + 1] = _closure_row(u, -1, top)
    u0, u1 = ext[k_neg + 1], ext[k_neg + 2]
    ext[R + 2] = u0 * u1 * v
    ext[R + 3] = u0 * (1.0 / (2.0 * u0))
    ext[R + 4] = 1.0
    ux = spatial_derivative(ext[:-1], dx)
    rates = np.empty_like(y) if out is None else out
    np.matmul(S, ext[fa] * ext[fb] * ux[col], out=rates[:R])
    rates[R] = ux[R + 2] + u0 * ux[k_neg] + u0 * ux[R + 3]
    return rates


def kernel_of(rhs_arrays):
    """An allocating RHS (`table_rhs_arrays`, `chain_rhs_arrays`) in the
    calling convention of `continuum._hydro_kernel`, whose window is closed
    by copying its edge rows."""
    def bind(dx, shape, k_neg, *, edges=True):
        return lambda y, out: rhs_arrays(dx, y, k_neg, "copy", "copy", out)
    return bind


def chain_rhs_arrays(dx, y, k_neg, top, bottom, out=None):
    """Hydrodynamic chain RHS with every row written out; `top`/`bottom`
    close the band window by copying the edge row or pinning a constant.
    Same calling convention as `table_rhs_arrays`: `y` stacks u over v, and
    so do the rates, written into `out` when it is given."""
    u, v = y[:-1], y[-1]
    K = u.shape[0] - 1 - k_neg
    ext = np.vstack([_closure_row(u, 0, bottom)[None, :], u,
                     _closure_row(u, -1, top)[None, :]])
    ux = spatial_derivative(ext, dx)
    off = k_neg + 1

    def U(ell):
        return ext[ell + off]

    def Ux(ell):
        return ux[ell + off]

    u0, u1 = U(0), U(1)
    ux0, ux1 = Ux(0), Ux(1)
    du = np.empty_like(u)

    # non-negative half: closed in itself
    du[k_neg] = u0 * u1 * ux0 + u0 ** 2 * ux1
    du[k_neg + 1] = (2.0 * U(2) - u1 ** 2) * ux0 - u0 * u1 * ux1 + u0 * Ux(2)
    for k in range(2, K + 1):
        du[k_neg + k] = (((k + 1) * U(k + 1) - (k - 1) * U(k - 1) - U(k) * u1) * ux0
                         - u0 * U(k) * ux1 + u0 * (Ux(k + 1) + Ux(k - 1)))

    du[k_neg - 1] = (U(-1) * u1 + U(-2)) * ux0 + u0 * U(-1) * ux1 + u0 * Ux(-2)
    du[k_neg - 2] = ((U(-2) * u1 + 2.0 * U(-3)) * ux0 + u0 * U(-2) * ux1
                     + u0 * Ux(-3) + 2.0 * u0 * Ux(-1))
    for k in range(3, k_neg + 1):
        du[k_neg - k] = ((k * U(-k - 1) - (k - 2) * U(-k + 1) + U(-k) * u1) * ux0
                        + u0 * U(-k) * ux1 + u0 * (Ux(-k + 1) + Ux(-k - 1)))

    dv = (spatial_derivative(u0 * u1 * v, dx) + u0 * Ux(-1)
          + u0 * spatial_derivative(u0 * (1.0 / (2.0 * u0)), dx))
    if out is None:
        return np.vstack([du, dv])
    out[:-1], out[-1] = du, dv
    return out


def evolve_hydro_chain(field, t_target, *, top="copy", bottom="copy",
                       edge_drive=None, max_steps=200000):
    """continuum.evolve_hydro_chain with its RK4 stages written out on the
    (u, v) pair and the edge drive called at every stage; the RHS is
    `table_rhs_arrays`, full width, with the strip rates zeroed after.  The
    step number 0.2 and the magnitude bound 50, checked on the state before
    each step, are the march's."""
    if t_target < field.time:
        raise ValueError("t_target must not precede the field's time stamp")
    x, dx, k_neg = field.x, field.dx, field.k_neg
    u = field.u.copy()
    v = field.v.copy()
    t = field.time
    strip = np.r_[0:2, len(x) - 2:len(x)]
    h_used = []
    cfl, bound = 0.2, 50.0

    def rhs(uc, vc, ts):
        if edge_drive is not None:
            ud, vd = edge_drive(x[strip], ts)
            uc = uc.copy()
            vc = vc.copy()
            uc[:, strip] = ud
            vc[strip] = vd
        rates = table_rhs_arrays(dx, np.vstack([uc, vc]), k_neg, top, bottom)
        du, dv = rates[:-1], rates[-1]
        du[:, strip] = 0.0
        dv[strip] = 0.0
        return du, dv

    steps = 0
    while t < t_target - 1e-15:
        if max(np.max(np.abs(u)), np.max(np.abs(v))) > bound:
            raise DivergedField(f"field magnitude exceeded {bound}")
        speed = float(np.max(np.abs(u[k_neg] * u[k_neg + 1]))) + 1e-30
        h = min(cfl * dx / speed, t_target - t)
        k1 = rhs(u, v, t)
        k2 = rhs(u + 0.5 * h * k1[0], v + 0.5 * h * k1[1], t + 0.5 * h)
        k3 = rhs(u + 0.5 * h * k2[0], v + 0.5 * h * k2[1], t + 0.5 * h)
        k4 = rhs(u + h * k3[0], v + h * k3[1], t + h)
        u = u + (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        v = v + (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        t += h
        if edge_drive is not None:
            ud, vd = edge_drive(x[strip], t)
            u[:, strip] = ud
            v[strip] = vd
        h_used.append(h)
        steps += 1
        if steps > max_steps:
            raise DivergedField("step budget exhausted before t_target")

    out = continuum.HydroChainField(x, u, v, k_neg, t_target)
    stats = {"steps": steps, "cfl": cfl,
             "h_min": min(h_used) if h_used else 0.0,
             "h_max": max(h_used) if h_used else 0.0}
    return out, stats


def counted_scaling_drive(k_neg=4, k_pos=6):
    """(drive, times): the exact scaling solution as the edge drive that
    hydro_scaling_check imposes, and the list of times it is called at."""
    times = []

    def drive(xs, t):
        times.append(t)
        s = 1.0 - 2.0 * t
        rows = np.zeros((k_neg + k_pos + 1, len(xs)))
        rows[k_neg - 1] = 0.5 / s
        rows[k_neg] = xs / s
        rows[k_neg + 1:] = 2.0
        return rows, np.full(len(xs), -0.25 / s)

    return drive, times


def reduced_chain_rhs(Wm1, W):
    """flows.reduced_chain_rhs as written on a state: the ghost row
    W^{K+1} := W^K and the shifted row built by concatenation at every
    call."""
    K = len(W)
    We = np.concatenate([W, [W[-1]]])
    k = np.arange(1, K + 1, dtype=float)
    dW = 2.0 * Wm1 * ((k + 1) * We[1:] - W[0] * We[:-1]
                      - (k - 1) * np.concatenate([[0.0], W[:-1]]))
    dWm1 = 2.0 * Wm1 * Wm1 * W[0]
    return dWm1, dW


def reduced_rates(y):
    """reduced_chain_rhs on the flat state (W^{-1}, W^1..W^K), concatenated."""
    dWm1, dW = reduced_chain_rhs(float(y[0]), y[1:])
    return np.concatenate([[dWm1], dW])


def gauss_legendre_mp(p, dps=50):
    """(nodes, weights) of the p-point Gauss-Legendre rule as mpmath numbers
    at `dps` digits, ascending: Newton on the three-term recurrence from the
    asymptotic guesses cos(pi (i + 3/4) / (p + 1/2))."""
    import mpmath

    with mpmath.workdps(dps):
        def legendre(x):
            prev, cur = mpmath.mpf(1), x
            for k in range(1, p):
                prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
            return cur, p * (prev - x * cur) / (1 - x * x)

        tiny = mpmath.mpf(10) ** (5 - dps)
        nodes, weights = [], []
        for i in range(p):
            x = mpmath.cos(mpmath.pi * (i + mpmath.mpf(3) / 4) / (p + mpmath.mpf(1) / 2))
            for _ in range(100):
                P, dP = legendre(x)
                step = P / dP
                x -= step
                if abs(step) < tiny:
                    break
            _, dP = legendre(x)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dP * dP))
    return nodes[::-1], weights[::-1]


def log_tau_closed_form(ensemble, n, t2=0.0):
    """log tau_n on the t2 family: Selberg's prod_{k<n} sqrt(2 pi) k! (unitary)
    or prod_{k<n/2} nu_k with nu_k = sqrt(pi) (2k)! / 4^k (orthogonal, n the
    matrix size), times (1 - 2 t2)^(-1/2) per entry of the quadratic form."""
    log_scale = -0.5 * math.log(1.0 - 2.0 * t2)
    if ensemble == "unitary":
        base = sum(0.5 * math.log(2.0 * math.pi) + math.lgamma(k + 1) for k in range(n))
        return base + n * n * log_scale
    m = n // 2
    base = sum(0.5 * math.log(math.pi) + math.lgamma(2 * k + 1) - k * math.log(4.0)
               for k in range(m))
    return base + m * (2 * m + 1) * log_scale


def radius_sequential(t, tol, max_degree):
    """The tail radius at `tol`, bisected with one scalar evaluation per step.

    The 8193-point scan of [-B, B], B = 10, 20, 40, ..., finds the first
    bracket whose ends read below the target; each side bisects from
    max(z*, 0) or min(z*, 0) out to +-B.  A side whose scan holds a point at
    or above the target beyond the radius so found bisects again from its
    outermost such point; otherwise, where F reads at or above the target at
    +-radius, it bisects again from there."""
    d = int(max_degree)
    tgt_gap = math.log(tol)

    def F(z):
        z = np.asarray(z, dtype=float)
        return t.exponent(z) + d * np.log(np.maximum(np.abs(z), 1.0))

    bracket = 10.0
    for _ in range(40):
        zs = np.linspace(-bracket, bracket, 8193)
        Fs = F(zs)
        fmax = float(Fs.max())
        target = fmax + tgt_gap
        if float(F(bracket)) < target and float(F(-bracket)) < target:
            zstar = float(zs[int(Fs.argmax())])

            def crossing(lo, hi):
                # F(lo) >= target > F(hi); bisect for the boundary.
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if float(F(mid)) >= target:
                        lo = mid
                    else:
                        hi = mid
                    if abs(hi - lo) < 1e-12 * max(1.0, abs(hi)):
                        break
                return hi

            right = crossing(max(zstar, 0.0), bracket)
            left = crossing(min(zstar, 0.0), -bracket)
            radius = max(abs(left), abs(right))
            above = zs[Fs >= target]
            if above[-1] > radius:
                right = crossing(float(above[-1]), bracket)
            elif float(F(radius)) >= target:
                right = crossing(radius, bracket)
            if above[0] < -radius:
                left = crossing(float(above[0]), -bracket)
            elif float(F(-radius)) >= target:
                left = crossing(-radius, -bracket)
            return max(radius, abs(left), abs(right))
        bracket *= 2.0
    raise NonIntegrableWeight(f"no radius suppresses the tail of {t.as_dict()} at degree {d}")


def widen_grid(grid, radius_tol, max_degree=0):
    """Same grid geometry pushed out to a more suppressed tail radius, the
    panel count grown with the radius so that no panel gets wider."""
    radius = radius_sequential(grid.couplings, radius_tol, max_degree)
    if radius <= grid.radius:
        return grid
    return _regrid(grid, radius, int(np.ceil(grid.panels * radius / grid.radius)))


def tau_derivative_fd(ensemble, n, t, multi_index, step=5e-3):
    """Mixed coupling derivative of tau_n by central finite differences with
    one Richardson level, every shifted tau on the tau grid at t widened to
    a 1e-20 tail."""
    orders = {int(k): int(p) for k, p in multi_index.items() if int(p) != 0}
    deg = max(4 * n if ensemble == "unitary" else 2 * n, 2)
    grid = widen_grid(_tau_grid(ensemble, n, t), 1e-20, deg)

    def tau_at(shift):
        # the Stieltjes basis of the shifted weight on the shared grid
        rho = weight_eval(grid.nodes, t.shifted(shift))
        measure = grid.weights * rho
        if ensemble == "orthogonal":
            measure = measure * rho
        q, log_h, _, _ = _stieltjes(grid.nodes, measure, n)
        F = _skew_products(grid, q, rho) if ensemble == "orthogonal" else None
        return _tau_value(ensemble, n, *_log_tau_of_basis(F, log_h))
    return float(mixed_derivative(tau_at, orders, {k: step for k in orders}))


def skew_moment_rows(t, size, grid):
    """Monomial skew moments m[i][j] = <x^i, y^j>, one cumulative integral per row."""
    rho = weight_eval(grid.nodes, t)
    powers = grid.nodes[None, :] ** np.arange(size)[:, None]
    G = np.empty((size, len(grid.nodes)))
    for j in range(size):
        cum, total = cumulative_integral(grid, powers[j] * rho)
        G[j] = total - 2.0 * cum
    m = 0.5 * (powers * (grid.weights * rho)[None, :]) @ G.T
    return 0.5 * (m - m.T)


def log_tau_unitary_monomial(t, n):
    """log det of the n x n monomial Hankel matrix, by Cholesky."""
    grid = build_quadrature(t, max_degree=2 * (n - 1))
    powers = grid.nodes[None, :] ** np.arange(2 * n - 1)[:, None]
    mu = powers @ (grid.weights * weight_eval(grid.nodes, t))
    idx = np.arange(n)
    L = np.linalg.cholesky(mu[idx[:, None] + idx[None, :]])
    return 2.0 * float(np.log(np.diag(L)).sum())


def log_tau_orthogonal_monomial(t, size):
    """log pf of the size x size monomial skew moment matrix."""
    grid = build_quadrature(t, max_degree=size + 2)
    return math.log(pfaffian(skew_moment_rows(t, size, grid)))


def toda_lax_hankel(t, n_sites):
    """(a, b) of the tridiagonal Lax operator from the Cholesky factor of the
    monomial Hankel matrix of order n_sites + 1, the read-off that
    `lax.toda_lax_from_quadrature` replaced.  With H = L L^T,
    b_{n+1} = L[n+1,n+1]/L[n,n] and a_{n+1} = L[n+1,n]/L[n,n] - L[n,n-1]/L[n-1,n-1]."""
    grid = build_quadrature(t, max_degree=2 * n_sites)
    powers = grid.nodes[None, :] ** np.arange(2 * n_sites + 1)[:, None]
    mu = powers @ (grid.weights * weight_eval(grid.nodes, t))
    idx = np.arange(n_sites + 1)
    L = np.linalg.cholesky(mu[idx[:, None] + idx[None, :]])
    d, sub = np.diag(L), np.diag(L, -1)
    ratios = sub / d[:-1]
    a = np.empty(n_sites)
    a[0] = ratios[0]
    a[1:] = ratios[1:n_sites] - ratios[:n_sites - 1]
    return a, d[1:n_sites] / d[:n_sites - 1]


def plain_moment_panels(grid, max_degree):
    """Panel count of `couplings.build_quadrature` with the plain companion
    moment z^deg rho in its convergence test instead of (z / radius)^deg rho,
    for the couplings and radius of `grid`.  z^deg overflows near degree
    240, so this is a reference below that."""
    t, radius = grid.couplings, grid.radius
    deg = 2 * (int(max_degree) // 2)

    def values(panels):
        nodes, weights = _panel_nodes(radius, panels)
        rho = weight_eval(nodes, t)
        vals = [float(weights @ rho)]
        if deg > 0:
            vals.append(float(weights @ (nodes**deg * rho)))
        return vals

    panels, prev = 8, values(8)
    while panels <= 4096:
        panels *= 2
        cur = values(panels)
        if all(abs(c - p) <= _GRID_TOL * abs(c) for c, p in zip(cur, prev)):
            return panels
        prev = cur
    return None


def parity_hermite_window(t, n_pairs, n_sites, k_band):
    """(h, w) from the skew Gram-Schmidt in the nu-scaled parity-Hermite
    basis f_k = P_k / sqrt(nu_{k//2}) that `lax.skew_orthonormal_basis` ran
    before it moved onto the Stieltjes basis.  h are the monic pair products
    and w[l + k_band, n - 1] the window entries w^l_n, |l| <= k_band, read off
    L = W Z W^{-1} with Z multiplication by z on the f_k.  Q_{2n+1} carries
    no z^{2n} term.  At {1: 0.05, 4: -0.03} its last pair product is off by
    3.6e-9 relative at 11 pairs, against 3.3e-11 at 10."""
    dim = 2 * n_pairs
    grid = build_quadrature(t, max_degree=dim + 2)
    root_nu = np.repeat(np.sqrt(lax.nu_values(n_pairs + 1)), 2)
    Cs = lax._parity_hermite_coeffs(dim) / root_nu[:dim, None]
    F = _skew_products(grid, Cs @ grid.nodes ** np.arange(dim)[:, None],
                       weight_eval(grid.nodes, t))
    W = np.zeros((dim, dim))
    h = np.empty(n_pairs)
    for n in range(n_pairs):
        for i in (2 * n, 2 * n + 1):
            q = np.zeros(dim)
            q[i] = root_nu[i]
            for p in range(n):
                prods = F @ q
                alpha = W[2 * p] @ prods / h[p]
                beta = W[2 * p + 1] @ prods / h[p]
                q = q + beta * W[2 * p] - alpha * W[2 * p + 1]
            W[i] = q
        # P_{2n+1} has no z^{2n} term, so only the f_{2n} mode carries one
        W[2 * n + 1] -= W[2 * n + 1, 2 * n] / W[2 * n, 2 * n] * W[2 * n]
        h[n] = W[2 * n] @ F @ W[2 * n + 1]
    Z = np.zeros((dim, dim + 1))
    for k in range(dim):
        Z[k, k + 1] = root_nu[k + 1] / root_nu[k]
        if k >= 1:
            Z[k, k - 1] = 0.5 * k * root_nu[k - 1] / root_nu[k]
    Wn = W / np.repeat(np.sqrt(h), 2)[:, None]
    L = Wn @ Z[:, :dim] @ np.linalg.inv(Wn)
    w = np.zeros((2 * k_band + 1, n_sites))
    for n in range(1, n_sites + 1):
        w[k_band, n - 1] = L[2 * n - 1, 2 * n]
        for k in range(1, k_band + 1):
            w[k_band + k, n - 1] = L[2 * (n + k) - 2, 2 * n - 1]
            w[k_band - k, n - 1] = L[2 * n + 2 * k - 3, 2 * n - 2]
    return h, w


def log_tau_quartic_mp(n, t2, t4, dps=60):
    """log tau_n of the unitary ensemble for rho = exp(-(1/2 - t2) z^2 + t4 z^4),
    t4 < 0, as an mpmath number at `dps` digits.

    mu_0 and mu_2 come from quadrature; integrating (z^(2k+1) rho)' = 0 gives
    (2k+1) mu_2k = 2a mu_(2k+2) + 4b mu_(2k+4) with a = 1/2 - t2, b = -t4,
    which fixes the higher even moments (odd ones vanish).
    """
    import mpmath

    with mpmath.workdps(dps):
        a, b = mpmath.mpf(0.5) - mpmath.mpf(t2), -mpmath.mpf(t4)
        even = [2 * mpmath.quad(lambda z: z ** k * mpmath.exp(-a * z * z - b * z ** 4),
                                [0, 2, 5, 10, mpmath.inf]) for k in (0, 2)]
        for k in range(n - 2):
            even.append(((2 * k + 1) * even[k] - 2 * a * even[k + 1]) / (4 * b))
        H = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(i % 2, n, 2):
                H[i, j] = even[(i + j) // 2]
        return mpmath.log(mpmath.det(H))


def hydro_scaling_run(rhs=None, march=None, **kwargs):
    """(final field, stats) of the march inside
    `continuum.hydro_scaling_check(**kwargs)`, with the allocating `rhs`
    (`table_rhs_arrays`, `chain_rhs_arrays`) standing in for
    `continuum._hydro_kernel` and `march` for
    `continuum.evolve_hydro_chain` where given."""
    runs = []
    evolve, kernel = continuum.evolve_hydro_chain, continuum._hydro_kernel
    march = march or evolve

    def record(*args, **kw):
        runs.append(march(*args, **kw))
        return runs[-1]

    continuum.evolve_hydro_chain = record
    if rhs is not None:
        continuum._hydro_kernel = kernel_of(rhs)
    try:
        continuum.hydro_scaling_check(**kwargs)
    finally:
        continuum.evolve_hydro_chain, continuum._hydro_kernel = evolve, kernel
    return runs[0]


def chain_matrix(point) -> np.ndarray:
    """The coefficient matrix, one monomial of the table at a time."""
    W = point.window
    n = 2 * W + 1
    A = np.zeros((n, n))
    u = point.u
    for i, j, c, f in _matrix_terms(W):
        val = c
        for idx in f:
            val *= u[idx + W]
        A[i + W, j + W] += val
    return A


def matrix_gradient(point) -> np.ndarray:
    """dA[l, i, j] = dA^i_j / du^l, one monomial of the table at a time."""
    W = point.window
    n = 2 * W + 1
    dA = np.zeros((n, n, n))
    u = point.u
    for i, j, c, f in _matrix_terms(W):
        if len(f) == 1:
            dA[f[0] + W, i + W, j + W] += c
        else:
            a, b = f
            dA[a + W, i + W, j + W] += c * u[b + W]
            dA[b + W, i + W, j + W] += c * u[a + W]
    return dA


# the contractions of the Nijenhuis and Haantjes tensors; A is (n, n), the
# gradient and N are (n, n, n)
NIJENHUIS_SUMS = ("pj,pik->ijk", "ip,jpk->ijk")
HAANTJES_SUMS = ("ipr,pj,rk->ijk", "pjr,ip,rk->ijk", "prk,ip,rj->ijk",
                 "pjk,ir,rp->ijk")


def nijenhuis_tensor(A: np.ndarray, dA: np.ndarray, signs=(1, -1, -1, 1)) -> np.ndarray:
    """N^i_{jk} = A^p_j d_p A^i_k - A^p_k d_p A^i_j - A^i_p (d_j A^p_k - d_k A^p_j),
    as dense contractions; `signs` weigh t1, t1', t3, t3' (' swaps j, k)."""
    t1, t3 = (np.einsum(e, A, dA, optimize=True) for e in NIJENHUIS_SUMS)
    s1, s1t, s3, s3t = signs
    return s1 * t1 + s1t * t1.transpose(0, 2, 1) + s3 * t3 + s3t * t3.transpose(0, 2, 1)


def haantjes_tensor(N: np.ndarray, A: np.ndarray, signs=(1, -1, -1, 1)) -> np.ndarray:
    """H^i_{jk} = N^i_{pr} A^p_j A^r_k - N^p_{jr} A^i_p A^r_k
    - N^p_{rk} A^i_p A^r_j + N^p_{jk} A^i_r A^r_p, as dense contractions."""
    terms = [np.einsum(e, N, A, A, optimize=True) for e in HAANTJES_SUMS]
    return sum(s * t for s, t in zip(signs, terms))


def tensor_magnitudes(A: np.ndarray, dA: np.ndarray):
    """(|N|, |H|): the two sums on |A| and |dA| with every sign +, so each
    entry is the size of the terms its component sums, the scale its
    rounding error is relative to."""
    A, dA = np.abs(A), np.abs(dA)
    N = nijenhuis_tensor(A, dA, signs=(1, 1, 1, 1))
    return N, haantjes_tensor(N, A, signs=(1, 1, 1, 1))


def closed_table_row(point, i: int) -> dict:
    """Nonzero Nijenhuis components of row i at one point, keyed (j, k),
    as Python floats; u0 ** 2 raises OverflowError past the double range."""
    u = point.value
    u0 = u(0)
    if i == 0:
        return {}
    if i > 2:
        return {(0, 1): u0 * ((i - 1) * u(i - 1) - (i + 1) * u(i + 1)),
                (0, i): -4.0 * u0,
                (0, i - 1): u0 * u(1), (0, i + 1): u0 * u(1),
                (1, i - 1): u0 ** 2, (1, i + 1): u0 ** 2}
    if i < -2:
        return {(0, 1): u0 * (i * u(i - 1) - (i + 2) * u(i + 1)),
                (0, i): -4.0 * u0,
                (0, i - 1): u0 * u(1), (0, i + 1): u0 * u(1),
                (1, i - 1): u0 ** 2, (1, i + 1): u0 ** 2}
    if i == 2:
        return {(0, 1): u0 * (2.0 * u(1) - 3.0 * u(3)),
                (0, 2): -4.0 * u0, (0, 3): u0 * u(1), (1, 3): u0 ** 2}
    if i == 1:
        return {(0, 1): -2.0 * u0 * (2.0 + u(2)),
                (0, 2): u0 * u(1), (1, 2): u0 ** 2}
    if i == -1:
        return {(0, -1): -4.0 * u0, (0, -2): u0 * u(1), (1, -2): u0 ** 2,
                (0, 1): -u0 * u(-2)}
    return {(0, -2): -4.0 * u0, (0, -3): u0 * u(1), (1, -3): u0 ** 2,
            (0, 1): -2.0 * u0 * u(-3), (-1, 1): -2.0 * u0 ** 2,
            (0, -1): 2.0 * u0 * u(1)}


def nijenhuis_closed_form(i: int, j: int, k: int, point) -> float:
    """The closed-form component read off `closed_table_row`."""
    point.guard(i, j, k)
    try:
        table = closed_table_row(point, i)
    except OverflowError as exc:
        raise DivergedField(f"closed-form Nijenhuis row {i} overflows: {exc}") from exc
    if (j, k) in table:
        value = float(table[(j, k)])
    elif (k, j) in table:
        value = -float(table[(k, j)])
    else:
        return 0.0
    if not math.isfinite(value):
        raise DivergedField(f"closed-form Nijenhuis component ({i}, {j}, {k}) "
                            f"is not finite")
    return value


def haantjes_scan(*, window: int = 10, n_points: int = 100, seed: int = 20260823,
                  tolerance: float = 1e-9) -> IdentityReport:
    """The Haantjes scan point by point, each point's closed form as dicts
    and its comparison on the dense guarded block of side 2(window-3)+1."""
    rng = np.random.default_rng(seed)
    W, g = window, window - 3
    m = 2 * g + 1
    plan = _tensor_plan(W)
    keep, at, offset = [], [], 0
    ones = TensorPoint(np.ones(2 * W + 1), W)
    for i in range(-g, g + 1):
        keys = list(closed_table_row(ones, i))
        for e, (j, k) in enumerate(keys):
            if max(abs(j), abs(k)) <= g:
                keep.append(offset + e)
                at += [((i + g) * m + j + g) * m + k + g,
                       ((i + g) * m + k + g) * m + j + g]
        offset += len(keys)
    signed = np.empty(len(at))
    worst_h = worst_closed = 0.0
    for _ in range(n_points):
        u = rng.uniform(-3.0, 3.0, 2 * W + 1)
        u[W] = rng.uniform(0.5, 2.0)
        pt = TensorPoint(u, W)
        N, H = _tensor_entries(_point_row(pt), plan)
        got = np.zeros(m ** 3)
        got[plan.block_code] = N[plan.n_guarded]
        vals = np.array([v for i in range(-g, g + 1)
                         for v in closed_table_row(pt, i).values()])[keep]
        signed[0::2] = vals
        np.negative(vals, signed[1::2])
        expect = np.zeros(m ** 3)
        expect[at] = signed
        worst_h = max(worst_h, float(np.max(np.abs(H), initial=0.0)))
        worst_closed = max(worst_closed, float(np.max(np.abs(got - expect))))
    meta = {"window": window, "n_points": n_points, "seed": seed,
            "max_haantjes": worst_h, "max_closed_form_error": worst_closed,
            "closed_tol": 1e-10}
    return IdentityReport("chain-diagonalizability", worst_h, worst_h, tolerance,
                          worst_h <= tolerance and worst_closed <= 1e-10, meta)


def dense_embedding(state) -> np.ndarray:
    """The 2n x 2n embedding of a banded window, one site at a time."""
    n = state.n_sites
    dim = 2 * n
    L = np.zeros((dim, dim))
    for j in range(1, n + 1):
        L[2 * j - 2, 2 * j - 1] = 1.0
        if 2 * j < dim:
            L[2 * j - 1, 2 * j] = state.get(0, j)
        for k in range(1, state.k_pos + 1):
            if j + k <= n:
                L[2 * (j + k) - 2, 2 * j - 1] = state.get(k, j)
        for k in range(1, state.k_neg + 1):
            if 2 * j + 2 * k - 3 < dim:
                L[2 * j + 2 * k - 3, 2 * j - 2] = state.get(-k, j)
    return L


def pfaff_commutator_rhs(state, *, check_tol: float = 1e-10) -> np.ndarray:
    """flows.pfaff_commutator_rhs with the embedding, the protected-position
    scan and the read-out written as loops over sites and positions."""
    L = dense_embedding(state)
    Pi = _skew_block_projection(L @ L)
    D = L @ Pi - Pi @ L
    n, k_neg, k_pos = state.n_sites, state.k_neg, state.k_pos
    dim = 2 * n
    kmax = max(k_neg, k_pos)
    scale = max(1.0, float(np.abs(state.w).max()))
    thresh = check_tol * scale ** 3
    guard = 2 * (n - (kmax + 2))
    for i in range(min(guard, dim)):
        for j in range(min(guard, dim)):
            if (i + j) % 2 == 0 or j > i + 1:
                if abs(D[i, j]) > thresh:
                    raise StructureViolation(
                        f"derivative {D[i, j]:.3e} at protected position ({i}, {j})")
            elif j == i + 1 and i % 2 == 0 and abs(D[i, j]) > thresh:
                raise StructureViolation(
                    f"unit superdiagonal drifts by {D[i, j]:.3e} at row {i}")
    out = np.full((k_neg + k_pos + 1, n), np.nan)
    for j in range(1, n + 1):
        if 2 * j < dim:
            out[k_neg, j - 1] = D[2 * j - 1, 2 * j]
        for k in range(1, k_pos + 1):
            if j + k <= n:
                out[k_neg + k, j - 1] = D[2 * (j + k) - 2, 2 * j - 1]
        for k in range(1, k_neg + 1):
            if 2 * j + 2 * k - 3 < dim:
                out[k_neg - k, j - 1] = D[2 * j + 2 * k - 3, 2 * j - 2]
    return out
