#!/usr/bin/env python3
"""Compare the library's lattice and continuum kernels with the reference
kernels and print the largest difference.

The chain kernel (`flows._chain_kernel`, views of its buffer bound once,
with the two band families read through strided windows) and the Volterra
kernel (`flows._volterra_kernel`, slices of a padded line), both writing
into a buffer they are given, repeat the arithmetic of the per-band loop
and the np.roll stencil kept in tests/reference_kernels.py, so every
difference printed should be exactly 0.  Shapes cover the benchmark's
ranges: N 32-1024 sites, 2-9 bands each side, Volterra flows 2, 4 and 6.
The RK4 stepper on stage buffers (`flows._rk4_segment`) must equal the
fresh-array step `rk4_step` bit for bit, at the same stage times, on random
linear and quadratic systems (scalar, line and stacked states, h 1e-3 to
0.1), over equal steps and through one stepper whose h changes between
steps, since it keeps h/2, h and h/6 as 0-d arrays renewed when h changes;
and `goe_lax_init`'s running products must equal the site-by-site
`sqrt_ratio_product` loop bit for bit over the benchmark's window shapes.

The evolvers' one right-edge closure (initial ghosts rescaled by the
extrapolated edge ratio, rows with a zero initial edge extrapolated
linearly) is read as coefficients (`flows._ghost_closure`: ghosts =
c2 a2 + c1 a1), which rounds differently from the closure evaluated from
the edge values at every call (`ghost_closure` in the reference kernels).
Their gap, on random edges with a zero-edge row, is held to 1e-14 relative
to the sum of the terms' magnitudes; evolve_pfaff at N = 256 (9 + 7 bands,
t = 0.1) on the two closures is held to 1e-11 relative.  evolve_volterra is
held to the reference evolver (`evolve_volterra` there), relative to the
largest site: C12's flow-2 and flow-4 legs (N 28-36, h = 1e-5) to 1e-11,
and the benchmark's flow-2 ramps (N 32-1024, t <= 0.2, h = 1e-3, inside its
stability bound) to 1e-11 on the sites below `influence_index`.  Past that
index the closure's rounding gap grows with the edge speed h 2B_N (up to
3): the whole line reads up to 2.3e-11, the size of the run's own error
against the exact scaling family there, and is held to 1e-10.

The hydrodynamic chain's RHS, coefficient matrix and gradient are read from
one monomial table (`continuum._chain_table`), the window closed by copying
its edge rows.  The RHS bound once per march (`continuum._hydro_kernel`)
must equal the allocating table RHS (`table_rhs_arrays`, given the same
closure) bit for bit, on two random states in turn through the
same buffers, at 2-9 bands each side and 5-241 cells: full width, and
inside the strips for the march's kernel, which skips their derivatives.  The matrix and the gradient
entries that `continuum._tensor_plan` collects must equal the per-monomial
loops exactly, and the RHS's v rate must equal the hand-written chain's.
The compiled Nijenhuis tensor, and the Haantjes tensor on its guarded block
|i|, |j|, |k| <= W - 3, sum the products of the dense einsum contractions
in the reference kernels in another order; at random points of windows
10-14 each component is held to 8 eps of the size of the terms it sums
(the sums on |A| and |dA| with every sign +), and a structural zero must be
exactly 0.  Its u rates come from one product with the
coefficient matrix, which sums each row's monomials in another order, so
they are held to 1e-13 relative to the largest rate.  The march inside
`hydro_scaling_check` is run on both RHS kernels: the step counts must be
equal and the final fields within 1e-12.  The same march is run on the
library's RK4 step and on the stages written out on the (u, v) pair: the
stats and the final fields must be equal.  Shapes are the benchmark's:
161-241 cells, 4 bands below and 6 above, windows 10-14, marches to
t = 0.1 and 0.2.  A march whose edge drive is counted must call it once
per distinct time (2 per step plus the start) and equal the reference loop,
which calls it at every stage, bit for bit.

The reduced chain's array kernel, closed by W^{K+1} := W^K, must equal its
form on a state (concatenated rows) bit for bit, per call on K = 2-12 and along evolve_reduced
trajectories.  The radius search of every quadrature grid
(`couplings._radius_for`, its bisections replayed in vectorised rounds) must
equal the same bisections run one midpoint at a time
(`radius_sequential`) exactly, on 10 x --samples random keys.  The
Gauss-Legendre rule behind every quadrature grid is held
to a 50-digit mpmath rule for 8-48 points: nodes to 2e-16 absolute, weights
to 5e-14 relative.  `log_tau` is held to the closed forms on the t2 family
(t2 = -0.15, 0, 0.15; unitary n and orthogonal size up to 40) and to a
60-digit Hankel determinant at t2 = 0.1, t4 = -0.05 (n = 10-40), both to
1e-10 in log.  The skew basis's pair products h (relative) and banded
window are held to the parity-Hermite working basis it replaced, at 6-10
pairs for couplings {}, {2: 0.1}, {1: 0.1} and {1: 0.05, 4: -0.03}, to
1e-10; the zero-coupling window at 27 pairs (`verify_init_goe` with N = 16,
K = 10) is held to its closed form to 1e-12.  The tridiagonal Lax operator
read off the Stieltjes recurrence of rho is held to the Cholesky factor of
the monomial Hankel matrix it replaced, for 1-10 sites at {2: 0.1},
{1: 0.05, 4: -0.03} and {4: -0.05}, to 1e-11.  The mKP check's exact
Volterra flow jets (`identities._mkp_jets`) are held to the nested RK4
evolutions and Richardson finite differences they replaced
(`mkp_derivatives_fd`, steps 1e-2, RK4 h = 1e-3) on C06's bump at sites
2-20, to 2e-8 of the larger of 1 and the largest derivative: the
reference's own noise, which reads up to 7.6e-9.  The coupling
derivatives of tau read off exact jets of log tau
(`tau_coupling_derivative`) are held to the central finite differences
they replaced (`tau_derivative_fd`, step 5e-3 on a widened grid) at
{1: 0.05, 4: -0.03} and {2: 0.1, 3: 0.02, 4: -0.05}, for unitary sizes 1-3
and orthogonal 2 and 4, first and second orders in t1, t2 and t3, to 1e-7
relative to the larger of the derivative and tau: the reference's own
noise.  Exits 1 if any difference exceeds its limit.

    PYTHONPATH=src python3 scripts/kernel_equiv.py --samples 40 --seed 1
"""

import argparse
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))
import reference_kernels as ref  # noqa: E402
from taulattice import (CouplingVector, HydroChainField,  # noqa: E402
                        ReducedChainState, TensorPoint, VolterraState,
                        chain_matrix, continuum, couplings, evolve_hydro_chain,
                        evolve_pfaff, evolve_reduced, evolve_volterra, flows,
                        goe_lax_init, hydro_chain_rhs, identities, log_tau,
                        pfaff_lax_from_basis, reduced_chain_rhs,
                        skew_moment_matrix, skew_orthonormal_basis,
                        sqrt_ratio_product, tau_coupling_derivative,
                        toda_lax_from_quadrature)
from taulattice.identities import mkp_bump_state, verify_init_goe  # noqa: E402


def chain_gap(Q, k_neg, k_pos, n):
    out = np.empty((k_neg + k_pos + 1, n))
    return float(np.abs(flows._chain_kernel(Q, k_neg, k_pos, n)(out)
                        - ref.pfaff_rates(Q, k_neg, k_pos, n)).max())


def closure_gap(rng, rows, width):
    """Largest gap of the coefficient closure from the reference closure,
    relative to the sum of the terms' magnitudes; row 0 has a zero edge."""
    i2, i1 = rng.uniform(0.5, 3.0, (rows, 1)), rng.uniform(0.5, 3.0, (rows, 1))
    i2[0] = i1[0] = 0.0
    init_ghost = rng.uniform(-3.0, 3.0, (rows, width))
    a2, a1 = rng.uniform(-3.0, 3.0, (rows, 1)), rng.uniform(-3.0, 3.0, (rows, 1))
    c2, c1 = flows._ghost_closure(i2, i1, init_ghost)
    want = ref.ghost_closure(i2, i1, init_ghost)(a2, a1)
    scale = np.abs(c2 * a2) + np.abs(c1 * a1)
    return float((np.abs(c2 * a2 + c1 * a1 - want) / scale).max())


def closure_drift():
    """Relative gap of evolve_pfaff on the coefficient closure from the same
    run on the reference closure."""
    state, times = goe_lax_init(256, 9, 7), [0.05, 0.1]
    res = evolve_pfaff(state, times, h=1e-3)
    return max(float(np.abs(g.w - w).max() / np.abs(w).max())
               for g, w in zip(res.states, ref.evolve_pfaff(state, times, 1e-3)))


def _volterra_drifts(B0, flow, times, h):
    """(whole-line drift, drift below the influence index, last state) of
    evolve_volterra from the reference evolver, relative to the largest
    site."""
    whole = clean = 0.0
    res = evolve_volterra(VolterraState(B0), flow, times, h=h)
    m = res.stats["influence_index"]
    for got, want in zip(res.states, ref.evolve_volterra(B0, flow, times, h)):
        scale = float(np.abs(want).max())
        whole = max(whole, float(np.abs(got.B - want).max()) / scale)
        clean = max(clean, float(np.abs(got.B[:m] - want[:m]).max()) / scale)
    return whole, clean, res.states[-1].B


def volterra_drift(rng, samples):
    """(ramp drift on the whole line, ramp drift below the influence index,
    C12 leg drift) of evolve_volterra from `ref.evolve_volterra`, the same
    run with the closure evaluated from the edge at every call.

    Ramps are the benchmark's: flow 2 on 1..N to t_end at 4 samples, h =
    1e-3, t_end 0.05-0.2 and N 32-1024 inside its declared stability bound
    2e-3 N / (1 - 2 t_end) < 3.2.  C12's legs start from 1..N, N 28-36,
    flow 2 to t2 in 0.02-0.025 and flow 4 to t4 in 5e-5-1.5e-4 at h = 1e-5,
    each leg also from the other's end state."""
    ramp = clean = legs = 0.0
    for _ in range(max(1, samples // 4)):
        t_end = float(rng.uniform(0.05, 0.2))
        n_max = min(1024, math.ceil(1600.0 * (1.0 - 2.0 * t_end)) - 1)
        N = int(rng.integers(32, n_max + 1))
        whole, below, _ = _volterra_drifts(np.arange(1.0, N + 1.0), 2,
                                           t_end * np.arange(1, 5) / 4, 1e-3)
        ramp, clean = max(ramp, whole), max(clean, below)
    for _ in range(max(1, samples // 20)):
        B0 = np.arange(1.0, int(rng.integers(28, 37)) + 1.0)
        t2, t4 = float(rng.uniform(0.02, 0.025)), float(rng.uniform(5e-5, 1.5e-4))
        for flow, horizon, other, other_horizon in ((2, t2, 4, t4), (4, t4, 2, t2)):
            whole, _, last = _volterra_drifts(B0, flow, [horizon], 1e-5)
            res = evolve_volterra(VolterraState(last), other, [other_horizon], h=1e-5)
            want = ref.evolve_volterra(last, other, [other_horizon], 1e-5)[0]
            legs = max(legs, whole, float(np.abs(res.states[0].B - want).max()
                                          / np.abs(want).max()))
    return ramp, clean, legs


def volterra_gap(Bp, flow):
    out = np.empty(len(Bp) - 8)
    return float(np.abs(flows._volterra_kernel(Bp, flow)(out)
                        - ref.volterra_rates(Bp, flow)).max())


def stepper_gap(rng, samples):
    """Largest difference of `flows._rk4_segment`, the stepper on stage
    buffers, from the fresh-array RK4 step on random linear and quadratic
    systems with a time-dependent source, on scalar, line and stacked
    states, over a segment of equal steps and through one stepper whose step
    size changes; infinite if the two call their right-hand sides at
    different times."""
    worst = 0.0
    for i in range(samples):
        shape = [(), (9,), (6, 4)][i % 3]
        n = shape[0] if shape else 1
        A = rng.normal(0.0, 1.0 / n, (n, n))
        c = rng.normal(0.0, 0.1, shape)
        lin = (lambda y: A @ y) if shape else (lambda y: A[0, 0] * y)
        if i % 2:
            f = lambda t, y: 0.5 * y * lin(y) - 0.25 * y * y + t * c
        else:
            f = lambda t, y: lin(y) + np.cos(t) * c
        y0 = rng.uniform(-0.5, 0.5, shape)
        t0, t1, h = float(rng.uniform(0.0, 0.5)), 1.0, float(rng.choice([1e-3, 0.01, 0.1]))
        steps, hs = flows._segment_steps(t1 - t0, h)
        seen, want = [], []

        def rhs(t, y, out):
            seen.append(t)
            out[...] = f(t, y)

        def direct(t, y):
            want.append(t)
            return f(t, y)
        y = np.array(y0)
        flows._rk4_segment(rhs, y, t0, t1, h)
        expect = np.array(y0)
        for k in range(steps):
            expect = ref.rk4_step(direct, t0 + k * hs, expect, hs)
        # one stepper through steps of changing size, as the chain march takes
        sizes = rng.choice([1e-3, 0.01, 0.1 / 3.0], int(rng.integers(2, 12)))
        y2, expect2, t = np.array(y0), np.array(y0), t0
        step = flows._rk4_stepper(rhs, y2)
        for size in sizes:
            step(t, float(size))
            expect2 = ref.rk4_step(direct, t, expect2, float(size))
            t += float(size)
        gap = (max(float(np.abs(y - expect).max()), float(np.abs(y2 - expect2).max()))
               if seen == want else math.inf)
        worst = max(worst, gap)
    return worst


def goe_init_gap(rng, samples):
    """Largest difference of `goe_lax_init`'s upper bands from the
    site-by-site `sqrt_ratio_product` loop they were built with before."""
    worst = 0.0
    for _ in range(samples):
        N = int(rng.integers(32, 1025))
        k_pos, k_neg = (int(k) for k in rng.integers(2, 10, 2))
        w = goe_lax_init(N, k_pos, k_neg).w
        for k in range(1, k_pos + 1):
            loop = [2.0 * sqrt_ratio_product(n, k) for n in range(1, N + 1)]
            worst = max(worst, float(np.abs(w[k_neg + k] - loop).max()))
    return worst


def hydro_gaps(rng, n_x):
    """(relative u-rate gap, absolute v-rate gap) on a random chain field."""
    k_neg, k_pos = 4, 6
    x = np.linspace(0.25, 2.25, n_x)
    u = rng.uniform(-2.0, 2.0, (k_neg + k_pos + 1, n_x))
    u[k_neg] = rng.uniform(0.5, 2.0, n_x)
    field = HydroChainField(x, u, rng.uniform(-1.0, 1.0, n_x), k_neg)
    du, dv = hydro_chain_rhs(field)
    ref_rates = ref.chain_rhs_arrays(field.dx, np.vstack([field.u, field.v]), k_neg,
                                     "copy", "copy", 50.0)
    ref_du, ref_dv = ref_rates[:-1], ref_rates[-1]
    return (float(np.abs(du - ref_du).max() / np.abs(ref_du).max()),
            float(np.abs(dv - ref_dv).max()))


def hydro_kernel_gap(rng, k_neg, k_pos, n_x):
    """Largest difference of `continuum._hydro_kernel`, bound once, from the
    allocating table RHS on two random states in turn: full width, and
    inside the strips for the march's kernel, which skips their
    derivatives."""
    dx = 2.0 / (n_x - 1)
    shape = (k_neg + k_pos + 2, n_x)
    full = continuum._hydro_kernel(dx, shape, k_neg, 50.0)
    inner = continuum._hydro_kernel(dx, shape, k_neg, 50.0, edges=False)
    out, out_inner = np.empty(shape), np.empty(shape)
    worst = 0.0
    for _ in range(2):
        y = rng.uniform(-2.0, 2.0, shape)
        y[k_neg] = rng.uniform(0.5, 2.0, n_x)
        want = ref.table_rhs_arrays(dx, y, k_neg, "copy", "copy", 50.0)
        inner(y, out_inner)
        worst = max(worst, float(np.abs(full(y, out) - want).max()),
                    float(np.abs(out_inner[:, 2:-2] - want[:, 2:-2]).max()))
    return worst


def _dense(plan, codes, values):
    out = np.zeros(plan.n ** 3)
    out[codes] = values
    return out.reshape((plan.n,) * 3)


def matrix_gaps(rng, window):
    pt = TensorPoint(rng.uniform(-3.0, 3.0, 2 * window + 1), window)
    plan = continuum._tensor_plan(window)
    dA = _dense(plan, plan.d_code, continuum._matrix_entries(pt, plan)[1])
    return (float(np.abs(chain_matrix(pt) - ref.chain_matrix(pt)).max()),
            float(np.abs(dA - ref.matrix_gradient(pt)).max()))


def tensor_gap(rng, window):
    """Largest gap of the compiled N, and of the compiled H on the guarded
    block, from the dense contractions, relative to the size of the terms
    each component sums; a structural zero that is not exactly 0 reads inf."""
    u = rng.uniform(-3.0, 3.0, 2 * window + 1)
    u[window] = rng.uniform(0.5, 2.0)
    pt = TensorPoint(u, window)
    plan = continuum._tensor_plan(window)
    A, dA = ref.chain_matrix(pt), ref.matrix_gradient(pt)
    N_ref = ref.nijenhuis_tensor(A, dA)
    N_mag, H_mag = ref.tensor_magnitudes(A, dA)
    N, H = continuum._tensor_entries(pt, plan)
    H_gap = np.abs(_dense(plan, plan.h_code, H) - ref.haantjes_tensor(N_ref, A))
    g = slice(3, plan.n - 3)
    gaps = [(np.abs(_dense(plan, plan.n_code, N) - N_ref), N_mag),
            (H_gap[g, g, g], H_mag[g, g, g])]
    return max(float(np.max(np.divide(gap, mag, out=np.where(gap > 0, np.inf, 0.0),
                                      where=mag > 0)))
               for gap, mag in gaps)


def trajectory_gap(run, field, name, reference):
    """Largest difference between a trajectory and its rerun on `reference`."""
    new = run()
    saved = getattr(flows, name)
    setattr(flows, name, reference)
    try:
        old = run()
    finally:
        setattr(flows, name, saved)
    return max(float(np.abs(getattr(a, field) - getattr(b, field)).max())
               for a, b in zip(new.states, old.states))


def hydro_march_gap(n_x, t_target):
    """(step counts equal, final-field gap) of the scaling march on the
    table and on the written rows."""
    table, t_stats = ref.hydro_scaling_run(n_x=n_x, t_target=t_target)
    rows, r_stats = ref.hydro_scaling_run(ref.chain_rhs_arrays,
                                          n_x=n_x, t_target=t_target)
    return (t_stats["steps"] == r_stats["steps"],
            max(float(np.abs(table.u - rows.u).max()),
                float(np.abs(table.v - rows.v).max())))


def hydro_stepper_gap(n_x, t_target):
    """(stats equal, final-field gap) of the scaling march on the shared RK4
    stepper and on the written-out stages."""
    lib, l_stats = ref.hydro_scaling_run(n_x=n_x, t_target=t_target)
    loop, r_stats = ref.hydro_scaling_run(march=ref.evolve_hydro_chain,
                                          n_x=n_x, t_target=t_target)
    return (l_stats == r_stats,
            max(float(np.abs(lib.u - loop.u).max()),
                float(np.abs(lib.v - loop.v).max())))


def hydro_drive_gap(n_x, t_target):
    """(one drive call per distinct time, stats equal, final-field gap) of a
    driven march on the library and on the reference loop."""
    drive, calls = ref.counted_scaling_drive()
    start = HydroChainField.initial(np.linspace(0.25, 2.25, n_x), 4, 6)
    lib, l_stats = evolve_hydro_chain(start, t_target, edge_drive=drive)
    once = len(calls) == 2 * l_stats["steps"] + 1 == len(set(calls))
    loop, r_stats = ref.evolve_hydro_chain(start, t_target, edge_drive=drive)
    return (once, l_stats == r_stats,
            max(float(np.abs(lib.u - loop.u).max()),
                float(np.abs(lib.v - loop.v).max())))


def reduced_gap(rng, K):
    """Largest difference of the reduced array kernel from the state form,
    on one random state and along a trajectory from it."""
    wm1, W = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 3.0, K)
    dWm1, dW = reduced_chain_rhs(ReducedChainState(wm1, W))
    ref_dWm1, ref_dW = ref.reduced_chain_rhs(wm1, W)
    gap = max(abs(dWm1 - ref_dWm1), float(np.abs(dW - ref_dW).max()))
    start = ReducedChainState(0.5, 2.0 + 0.1 * rng.standard_normal(K))
    res = evolve_reduced(start, [0.05, 0.1])
    ys, _ = flows.evolve(lambda t, y: ref.reduced_rates(y),
                         np.concatenate([[start.Wm1], start.W]), [0.05, 0.1])
    return max([gap] + [max(abs(s.Wm1 - y[0]), float(np.abs(s.W - y[1:]).max()))
                        for s, y in zip(res.states, ys)])


def legendre_gaps(points):
    """(node gap, relative weight gap) of the library's Gauss-Legendre rules
    against the mpmath rule."""
    node = weight = 0.0
    for p in points:
        x, w = couplings._gauss_legendre(p)
        ref_x, ref_w = ref.gauss_legendre_mp(p)
        node = max([node] + [float(abs(a - b)) for a, b in zip(x, ref_x)])
        weight = max([weight] + [float(abs(a / b - 1)) for a, b in zip(w, ref_w)])
    return node, weight


def log_tau_closed_gap():
    """Largest log gap of log_tau from the closed forms on the t2 family
    (infinite if a sign comes out wrong)."""
    worst = 0.0
    for t2 in (-0.15, 0.0, 0.15):
        t = CouplingVector.from_mapping({2: t2})
        for ensemble, sizes in (("unitary", range(1, 41)),
                                ("orthogonal", range(2, 41, 2))):
            for n in sizes:
                sign, log_abs = log_tau(ensemble, n, t)
                gap = abs(log_abs - ref.log_tau_closed_form(ensemble, n, t2))
                worst = max(worst, gap if sign == 1.0 else math.inf)
    return worst


def log_tau_quartic_gap():
    """Largest log gap of the unitary log_tau from the 60-digit Hankel
    determinant at t2 = 0.1, t4 = -0.05."""
    t = CouplingVector.from_mapping({2: 0.1, 4: -0.05})
    return max(abs(log_tau("unitary", n, t)[1]
                   - float(ref.log_tau_quartic_mp(n, 0.1, -0.05)))
               for n in (10, 20, 30, 40))


def skew_window_gap():
    """Largest gap of the skew basis's h (relative) and window from the
    parity-Hermite reference."""
    worst = 0.0
    for mapping in ({}, {2: 0.1}, {1: 0.1}, {1: 0.05, 4: -0.03}):
        t = CouplingVector.from_mapping(mapping)
        for n_pairs, n_sites, k_band in ((6, 3, 2), (8, 5, 3), (10, 6, 3)):
            basis = skew_orthonormal_basis(skew_moment_matrix(t, 2 * n_pairs), n_pairs)
            w = pfaff_lax_from_basis(basis, n_sites, k_band, k_band).w
            ref_h, ref_w = ref.parity_hermite_window(t, n_pairs, n_sites, k_band)
            worst = max(worst, float(np.abs(basis.h / ref_h - 1.0).max()),
                        float(np.abs(w - ref_w).max()))
    return worst


def toda_read_off_gap():
    worst = 0.0
    for mapping in ({2: 0.1}, {1: 0.05, 4: -0.03}, {4: -0.05}):
        t = CouplingVector.from_mapping(mapping)
        for n in range(1, 11):
            lax = toda_lax_from_quadrature(t, n)
            a, b = ref.toda_lax_hankel(t, n)
            worst = max(worst, float(np.abs(lax.a - a).max()),
                        float(np.abs(lax.b - b).max(initial=0.0)))
    return worst


def mkp_jets_gap():
    """Largest gap of the mKP check's Volterra flow jets from the nested
    finite differences they replaced, over C06's bump at sites 2-20,
    relative to the larger of 1 and the site's largest derivative."""
    B0 = mkp_bump_state(64).B
    jets = identities._mkp_jets(B0)
    worst = 0.0
    for n in (2, 5, 8, 10, 11, 14, 20):
        fd = ref.mkp_derivatives_fd(B0, n, {2: 1e-2, 4: 1e-2, 6: 1e-2}, 1e-3)
        got = np.array([[d[n - 1], d[n - 2]] for d in jets])
        worst = max(worst, float(np.abs(got - fd).max()) / max(1.0, float(np.abs(fd).max())))
    return worst


def tau_jets_gap():
    """Largest gap of the jet-built tau derivatives from the finite-difference
    reference, relative to the larger of the reference and tau."""
    worst = 0.0
    for mapping in ({1: 0.05, 4: -0.03}, {2: 0.1, 3: 0.02, 4: -0.05}):
        t = CouplingVector.from_mapping(mapping)
        for ensemble, n in (("unitary", 1), ("unitary", 2), ("unitary", 3),
                            ("orthogonal", 2), ("orthogonal", 4)):
            tau = math.exp(log_tau(ensemble, n, t)[1])
            for orders in ({1: 1}, {1: 2}, {2: 1}, {3: 1}, {1: 1, 2: 1}, {2: 2}):
                fd = ref.tau_derivative_fd(ensemble, n, t, orders)
                jet = tau_coupling_derivative(ensemble, n, t, orders)
                worst = max(worst, abs(jet - fd) / max(abs(fd), tau))
    return worst


def radius_gap(rng, samples):
    """Largest |replayed - sequential| radius search over random keys: t2 in
    (-0.3, 0.45), a quartic t4 < 0 on half of them, t6 <= 0 and odd t1, t3
    beside it, tol 1e-14 to 1e-6 and degree 0-1200."""
    gap = 0.0
    for i in range(samples):
        mapping = {2: rng.uniform(-0.3, 0.45)}
        if i % 2:
            mapping.update({4: -rng.uniform(1e-3, 0.1), 6: -rng.uniform(0.0, 0.01)})
            if i % 4 == 3:
                mapping.update({1: rng.uniform(-0.3, 0.3), 3: rng.uniform(-0.05, 0.05)})
        t = CouplingVector.from_mapping(mapping)
        tol, degree = 10.0 ** rng.uniform(-14.0, -6.0), int(rng.integers(0, 1201))
        gap = max(gap, abs(couplings._radius_for(t, tol, degree)
                           - ref.radius_sequential(t, tol, degree)))
    return gap


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=40, help="random shapes per kernel")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)

    chain = volterra = closure = 0.0
    for _ in range(args.samples):
        N = int(rng.integers(32, 1025))
        k_neg, k_pos = (int(k) for k in rng.integers(2, 10, 2))
        pad = max(k_neg, k_pos) + 1
        Q = rng.uniform(-2.0, 2.0, (k_neg + k_pos + 3, 1 + N + pad))
        chain = max(chain, chain_gap(Q, k_neg, k_pos, N))
        # the closed-form window itself, zero-padded as pfaff_chain_rhs does
        Q = np.zeros_like(Q)
        Q[1:-1, 1:N + 1] = goe_lax_init(N, k_pos, k_neg).w
        chain = max(chain, chain_gap(Q, k_neg, k_pos, N))
        Bp = rng.uniform(0.1, 3.0, N + 8)
        for flow in (2, 4, 6):
            volterra = max(volterra, volterra_gap(Bp, flow))
        closure = max(closure, closure_gap(rng, k_neg + k_pos - 1, N % 9 + 1))

    traj_pfaff = trajectory_gap(
        lambda: evolve_pfaff(goe_lax_init(256, 9, 7), [0.05, 0.1], h=1e-3),
        "w", "_chain_kernel", ref.chain_kernel)
    traj_volterra = trajectory_gap(
        lambda: evolve_volterra(VolterraState(np.arange(1.0, 33.0)), 4, [1e-4], h=1e-5),
        "B", "_volterra_kernel", ref.volterra_kernel)

    hydro_du = hydro_dv = hydro_kernel = matrix = gradient = tensors = 0.0
    for _ in range(args.samples):
        gu, gv = hydro_gaps(rng, int(rng.integers(161, 242)))
        hydro_du, hydro_dv = max(hydro_du, gu), max(hydro_dv, gv)
        k_neg, k_pos = (int(k) for k in rng.integers(2, 10, 2))
        hydro_kernel = max(hydro_kernel, hydro_kernel_gap(
            rng, k_neg, k_pos, int(rng.integers(5, 242))))
        ga, gd = matrix_gaps(rng, int(rng.integers(10, 15)))
        matrix, gradient = max(matrix, ga), max(gradient, gd)
        tensors = max(tensors, tensor_gap(rng, int(rng.integers(10, 15))))

    marches = [hydro_march_gap(n_x, t) for n_x in (161, 241) for t in (0.1, 0.2)]
    same_steps = all(same for same, _ in marches)
    march = max(gap for _, gap in marches) if same_steps else math.inf
    steppers = [hydro_stepper_gap(n_x, t) for n_x in (161, 241) for t in (0.1, 0.2)]
    same_stats = all(same for same, _ in steppers)
    stepper = max(gap for _, gap in steppers) if same_stats else math.inf

    drives = [hydro_drive_gap(n_x, t)
              for n_x, t in ((161, 0.1), (241, 0.2), (201, 0.05), (101, 0.1))]
    drive_once = all(once and same for once, same, _ in drives)
    drive = max(gap for _, _, gap in drives) if drive_once else math.inf
    reduced = max(reduced_gap(rng, int(rng.integers(2, 13)))
                  for _ in range(max(2, args.samples // 4)))
    node, weight = legendre_gaps((8, 16, 24, 32, 48))
    ramp_drift, clean_drift, leg_drift = volterra_drift(rng, args.samples)

    # (label, largest difference, limit)
    rows = [("chain kernel, %d windows x2" % args.samples, chain, 0.0),
            ("Volterra kernel, %d lines x3 flows" % args.samples, volterra, 0.0),
            ("evolve_pfaff N=256 9+7 bands, t=0.1", traj_pfaff, 0.0),
            ("ghost closure, %d windows (relative)" % args.samples, closure, 1e-14),
            ("evolve_pfaff N=256 vs reference closure", closure_drift(), 1e-11),
            ("evolve_volterra N=32 flow 4, C12 leg", traj_volterra, 0.0),
            ("Volterra closure drift, C12 legs", leg_drift, 1e-11),
            ("Volterra closure drift, ramps, clean", clean_drift, 1e-11),
            ("Volterra closure drift, ramps, whole", ramp_drift, 1e-10),
            ("stepper vs reference RK4, %d systems" % args.samples,
             stepper_gap(rng, args.samples), 0.0),
            ("goe_lax_init vs sqrt_ratio_product loop",
             goe_init_gap(rng, max(1, args.samples // 4)), 0.0),
            ("hydro du, %d fields (relative)" % args.samples, hydro_du, 1e-13),
            ("hydro dv, %d fields" % args.samples, hydro_dv, 0.0),
            ("hydro kernel, bound vs allocating", hydro_kernel, 0.0),
            ("hydro march x4, steps %s" % ("equal" if same_steps else "differ"),
             march, 1e-12),
            ("hydro RK4 step x4, stats %s" % ("equal" if same_stats else "differ"),
             stepper, 0.0),
            ("hydro drive x4, %s" % ("once per time" if drive_once else "calls differ"),
             drive, 0.0),
            ("reduced kernel + trajectories", reduced, 0.0),
            ("radius search, replay vs sequential bisection",
             radius_gap(rng, 10 * args.samples), 0.0),
            ("Gauss-Legendre nodes, 8-48 points", node, 2e-16),
            ("Gauss-Legendre weights (relative)", weight, 5e-14),
            ("log_tau vs closed forms, sizes <= 40", log_tau_closed_gap(), 1e-10),
            ("log_tau vs 60-digit quartic Hankel", log_tau_quartic_gap(), 1e-10),
            ("skew basis vs parity-Hermite, 6-10 pairs", skew_window_gap(), 1e-10),
            ("init-goe residual, 27 pairs", verify_init_goe(16, 10).residual_abs, 1e-12),
            ("Toda read-off vs Hankel, 1-10 sites", toda_read_off_gap(), 1e-11),
            ("mkp jets vs nested finite differences", mkp_jets_gap(), 2e-8),
            ("tau jets vs finite diffs (relative)", tau_jets_gap(), 1e-7),
            ("chain_matrix, %d points" % args.samples, matrix, 0.0),
            ("gradient entries, %d points" % args.samples, gradient, 0.0),
            ("Nijenhuis/Haantjes compiled vs dense, windows 10-14",
             tensors, 8.0 * np.finfo(float).eps)]
    for label, gap, limit in rows:
        print(f"{label:<40} max |new - reference| = {gap:.3g}  (limit {limit:g})")
    return 0 if all(gap <= limit for _, gap, limit in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
