"""Cross-checks tying the lattice flows to their continuum PDE limits
(`continuum_convergence`) and to ensemble statistics.

Everything here is deliberately indirect: coupling derivatives are exact
Taylor jets, of log tau or of the coded Volterra right-hand side along its
own flows, never the algebraic identity under test, so a bug in the flow
module cannot certify itself.  The mKP check's jets read only that
right-hand side, as evolving the lattice would, and never the mKP algebra;
C03's scaling family and C12's flow commutation test the right-hand side
along other routes.  Likewise the
observables check holds a log-tau increment (Pfaffian pivots of the skew
Gram) against a skew-window entry (skew Gram-Schmidt of the same Gram),
so an error in the pivot elimination or in the Gram-Schmidt shows; one in
the grid or the skew Gram, which both sides share, does not.
"""

from __future__ import annotations

import math

import numpy as np

# the two continuum checks are SUITES entries, looked up here by name
from .continuum import haantjes_scan, hopf_solve, hydro_scaling_check  # noqa: F401
from .couplings import (CouplingVector, _checked_int, _checked_seed, build_quadrature,
                        cumulative_integral)
from .errors import PreBreakingViolated, UnsupportedKind
from .flows import (EvolutionResult, ReducedChainState, VolterraState,
                    _sample_times, _volterra_jet, evolve_pfaff, evolve_reduced,
                    evolve_volterra, pfaff_chain_rhs, pfaff_commutator_rhs,
                    reduced_chain_rhs)
from .lax import (PfaffLax, TodaLax, _manifold_window, _skew_basis, _skew_gram_schmidt,
                  goe_lax_init, pfaff_entries_from_tau, pfaff_lax_from_basis,
                  skew_hermite_map_check, sqrt_ratio_product)
from .moments import _log_tau_jets, _log_tau_of_basis, _stieltjes_basis
from .report import IdentityReport

__all__ = [
    "mkp_residuals",
    "kp_residual",
    "observables_check",
    "reduction_invariants",
    "exact_oracles",
    "continuum_convergence",
    "sample_gaussian_ensemble",
    "verify_init_gue", "verify_init_goe", "verify_scaling", "verify_commute",
    "verify_reduction", "verify_tau_cross", "verify_mkp", "mkp_bump_state", "SUITES",
]

_T0 = CouplingVector.from_mapping({})
_GUE_SHIFT = CouplingVector.from_mapping({1: 0.25})


# ---------------------------------------------------------------------------
# mKP residuals from exact Volterra flow jets

def _mkp_jets(B: np.ndarray) -> tuple:
    """d_x, d_xx, d_xxx, d_y, d_t and d_xy of every site of the line B, for
    x, y, t the couplings of flows 2, 4 and 6.

    The flow-2 orbit B(x) = sum_k c_k x^k has c_{k+1} = [X_2(B(x))]_k / (k + 1),
    so d^k/dx^k is k! c_k; d/dy and d/dt are X_4(B) and X_6(B); and d^2/dxdy
    is [X_4(c_0 + c_1 x)]_1.
    """
    series = B[None, :]
    for k in range(3):
        series = np.vstack([series, _volterra_jet(series, 2, k) / (k + 1)])
    return (series[1], 2.0 * series[2], 6.0 * series[3], _volterra_jet(series, 4, 0),
            _volterra_jet(series, 6, 0), _volterra_jet(series, 4, 1))


def mkp_residuals(n: int, state: VolterraState, *,
                  tolerance: float = 1e-3) -> IdentityReport:
    """Residuals of the two conservation-law systems, their potential form,
    and both printed coefficient variants of the scalar equation, at the
    base couplings, for phi = B_n and psi = B_{n-1}.

    Every coupling derivative (x = second, y = fourth, t = sixth flow) is
    read off exact Taylor jets of the coded Volterra right-hand side at
    `state` (`_mkp_jets`).  The report carries one relative and one
    absolute residual per identity in meta; the headline residual is the
    worst relative one with the printed-variant block reduced to its best
    candidate.  Raises DivergedField when a jet is not finite.
    """
    n = _checked_int("n", n)
    if n < 2:
        raise ValueError("need n >= 2 so that psi = B_{n-1} exists")
    if state.n_sites < n + 8:
        raise ValueError("site too close to the window edge")
    (phx, psx), (phxx, psxx), (phxxx, psxxx), (phy, psy), (pht, pst), (phxy, _) = (
        (float(d[n - 1]), float(d[n - 2])) for d in _mkp_jets(state.B))
    phi, psi = float(state.B[n - 1]), float(state.B[n - 2])

    def rel(residual, terms):
        """(relative, absolute) residual; the scale is the largest term."""
        scale = max(abs(t) for t in terms)
        return abs(residual) / max(scale, 1e-300), abs(residual)

    def worst(*pairs):
        return tuple(map(max, zip(*pairs)))

    # first conservation system: phi_y = (phi^2 + 2 phi psi + phi_x)_x
    flux_a_phi_x = 2 * phi * phx + 2 * (phx * psi + phi * psx) + phxx
    flux_a_psi_x = 2 * psi * psx + 2 * (phx * psi + phi * psx) - psxx
    cons_a, cons_a_abs = worst(rel(phy - flux_a_phi_x, [phy, 2 * phi * phx, phxx]),
                               rel(psy - flux_a_psi_x, [psy, 2 * psi * psx, psxx]))

    # second system: phi_t = (phi^3 + 3(psi+2phi)phi psi + 3(phi+psi)phi_x + phi_xx)_x
    cross = phx * psi + phi * psx
    flux_b_phi_x = (3 * phi ** 2 * phx
                    + 3 * ((psx + 2 * phx) * phi * psi + (psi + 2 * phi) * cross)
                    + 3 * ((phx + psx) * phx + (phi + psi) * phxx) + phxxx)
    flux_b_psi_x = (3 * psi ** 2 * psx
                    + 3 * ((phx + 2 * psx) * phi * psi + (phi + 2 * psi) * cross)
                    - 3 * ((phx + psx) * psx + (phi + psi) * psxx) + psxxx)
    cons_b, cons_b_abs = worst(rel(pht - flux_b_phi_x, [pht, 3 * phi ** 2 * phx, phxxx]),
                               rel(pst - flux_b_psi_x, [pst, 3 * psi ** 2 * psx, psxxx]))

    # potential identity: 3 xi_y - 4 phi_t = -6 xi phi_x + 6 phi^2 phi_x - phi_xxx
    xi = phi ** 2 + 2 * phi * psi + phx
    xiy = 2 * phi * phy + 2 * (phy * psi + phi * psy) + phxy
    pot_res = (3 * xiy - 4 * pht) - (-6 * xi * phx + 6 * phi ** 2 * phx - phxxx)
    pot, pot_abs = rel(pot_res, [3 * xiy, 4 * pht, 6 * xi * phx, phxxx])

    # printed-variant adjudication: 4 phi_t = 6 phi_x (xi - C phi^2) + phi_xxx + 3 xi_y
    variants, variants_abs = {}, {}
    for C, name in ((1, "xi-phi2"), (6, "xi-6phi2")):
        res = 4 * pht - 6 * phx * (xi - C * phi ** 2) - phxxx - 3 * xiy
        variants[name], variants_abs[name] = rel(res, [4 * pht, 6 * phx * xi,
                                                       phxxx, 3 * xiy])
    best = min(variants, key=variants.get)
    residual = max(cons_a, cons_b, pot, variants[best])
    meta = {"site": n,
            "conservation_a": cons_a, "conservation_b": cons_b,
            "potential": pot, "variants": variants, "variant_passing": best,
            "conservation_a_abs": cons_a_abs, "conservation_b_abs": cons_b_abs,
            "potential_abs": pot_abs, "variants_abs": variants_abs}
    return IdentityReport.from_residual("mkp-residuals", residual, tolerance, meta=meta)


# ---------------------------------------------------------------------------
# KP residual from re-quadratured determinants

def kp_residual(n: int = 2, t: CouplingVector = _T0, *,
                tolerance: float = 1e-3) -> IdentityReport:
    """KP residual for u = 2 d^2/dt1^2 log tau_n at the given couplings.

    Evaluates d/dt1(d^3 u + 6 u u' - 4 du/dt3) + 3 d^2u/dt2^2, with u and
    every derivative read off one exact jet of log tau_n in (t1, t2, t3)
    (`moments._log_tau_jets`).  tau_n never sees the flow modules.
    """
    n = _checked_int("n", n)
    if n < 1 or n > 32:
        raise ValueError("determinant size n must be 1..32")
    jet = _log_tau_jets("unitary", [n], t, (1, 2, 3), [(6, 0, 0), (3, 0, 1), (2, 2, 0)])[n][2]

    d = lambda *g: 2.0 * math.prod(map(math.factorial, g)) * jet[g]   # 2 d^g log tau
    u0, ux, uxx, uxxxx = d(2, 0, 0), d(3, 0, 0), d(4, 0, 0), d(6, 0, 0)
    uxt3, uyy = d(3, 0, 1), d(2, 2, 0)
    residual = uxxxx + 6.0 * (ux * ux + u0 * uxx) - 4.0 * uxt3 + 3.0 * uyy
    scale = max(abs(uxxxx), abs(6 * ux * ux), abs(6 * u0 * uxx),
                abs(4 * uxt3), abs(3 * uyy))
    return IdentityReport.from_residual(
        "kp-residual", residual, tolerance, scale=scale,
        meta={"n": n, "u": u0, "terms": {"uxxxx": uxxxx, "ux^2": ux * ux,
                                         "u*uxx": u0 * uxx, "uxt3": uxt3,
                                         "uyy": uyy}})


# ---------------------------------------------------------------------------
# small-ensemble observables

def _triangle_moments(t: CouplingVector, max_degree: int):
    """T[i, j] = int_{x<y} x^i y^j rho(x) rho(y) dx dy, spectrally accurate."""
    grid = build_quadrature(t, max_degree=2 * max_degree + 2)
    powers = grid.nodes[None, :] ** np.arange(max_degree + 1)[:, None]
    cums, _ = cumulative_integral(grid, powers * grid.rho)
    return cums @ (powers * (grid.weights * grid.rho)).T


def _pair_expectation(poly: dict, T: np.ndarray) -> float:
    """E over the ordered pair z1 < z2 of a symmetric polynomial, given as
    {(i, j): coeff} for z1^i z2^j, under the density (z2 - z1) rho rho."""
    num = 0.0
    for (i, j), cf in poly.items():
        num += cf * (T[i, j + 1] - T[i + 1, j])
    Z = T[0, 1] - T[1, 0]
    return num / Z


def observables_check(n: int = 1, t: CouplingVector = _T0, *,
                      tolerance: float = 1e-8) -> IdentityReport:
    """Orthogonal-ensemble observable identities at coupling t.

    (i) the chemical-potential increment log tau_{2n} + log tau_{2n+4} -
    2 log tau_{2n+2} equals 2 log w0_{n+1}, with w0_{n+1} read off the
    skew window that `pfaff_lax_from_basis` builds on n + 2 pairs, a route
    that takes no Pfaffian (checked to 1e-12).  Both sides read one
    Stieltjes basis of size 2n + 4: the three log tau are Pfaffians of
    leading blocks of its skew Gram, so (i) tests the Pfaffian pivots
    against the skew Gram-Schmidt, not the quadrature.  For n = 1,
    (ii) E[(z1+z2)^2] = w0_1 w1_1 and (iii) E[z1^2+z2^2] = 2 w^-1_1 +
    w0_1 w1_1 against direct two-eigenvalue quadrature, with the entries
    of pair 1 from Pfaffian tau-ratios.
    """
    n = _checked_int("n", n, 1)
    stieltjes = _stieltjes_basis("orthogonal", 2 * n + 4, t)
    F, log_h = stieltjes[:2]
    # the pivots overwrite F, so each size eliminates a copy of its block
    lo, mid, hi = (_log_tau_of_basis(F[:m, :m].copy(), log_h[:m])[1]
                   for m in (2 * n, 2 * n + 2, 2 * n + 4))
    dmu = lo + hi - 2.0 * mid
    window = pfaff_lax_from_basis(_skew_gram_schmidt(stieltjes, t), n + 1, 1, 1)
    w0_next = float(window.w[1, n])
    log_w0 = math.log(w0_next) if w0_next > 0.0 else math.inf   # w0 <= 0 fails
    res_mu = abs(dmu - 2.0 * log_w0) / max(abs(dmu), 1.0)
    meta = {"n": n, "delta_mu": dmu, "w0_next": w0_next, "mu_residual": res_mu}
    residual = res_mu * (tolerance / 1e-12)  # budget-normalized: (i) is held to 1e-12
    if n == 1:
        entries = pfaff_entries_from_tau(t, 1)
        T = _triangle_moments(t, 4)
        e_sum_sq = _pair_expectation({(0, 0): 0.0, (2, 0): 1.0, (0, 2): 1.0,
                                      (1, 1): 2.0}, T)
        e_sq_sum = _pair_expectation({(2, 0): 1.0, (0, 2): 1.0}, T)
        w0, w1 = entries[(0, 1)], entries[(1, 1)]
        wm1 = entries[(-1, 1)]
        res2 = abs(e_sum_sq - w0 * w1) / max(abs(e_sum_sq), 1.0)
        res3 = abs(e_sq_sum - (2 * wm1 + w0 * w1)) / max(abs(e_sq_sum), 1.0)
        meta.update(E_sum_sq=e_sum_sq, E_sq_sum=e_sq_sum, w0w1=w0 * w1,
                    rhs_variance=2 * wm1 + w0 * w1,
                    pair_residuals=(res2, res3))
        residual = max(residual, res2, res3)
    return IdentityReport.from_residual("observables", residual, tolerance, meta=meta)


# ---------------------------------------------------------------------------
# reduction structure along a chain trajectory

def _reduced_coordinates(lax: PfaffLax, n_max: int, k_max: int) -> tuple:
    """(W^{-1}, W, dW^{-1}, dW) read off a band window: W^{-1} is the mean of
    w^{-1}_n over the sites n <= n_max, W^k = w^k_1 / F_k for k <= k_max with
    F_k = sqrt_ratio_product(1, k), and the rates are the same extractions
    of the chain's rates at the window."""
    Fk = np.array([sqrt_ratio_product(1, k) for k in range(1, k_max + 1)])
    rows = slice(lax.k_neg + 1, lax.k_neg + k_max + 1)
    rates = pfaff_chain_rhs(lax)
    return (lax.w[lax.k_neg - 1, :n_max].mean(), lax.w[rows, 0] / Fk,
            rates[lax.k_neg - 1, :n_max].mean(), rates[rows, 0] / Fk)


def reduction_invariants(trajectory: EvolutionResult, *,
                         tolerance: float = 1e-8) -> IdentityReport:
    """Verify the orthogonal scaling-manifold structure along a trajectory.

    Per sample: w^{-1}_n is n-independent; w^{-2}_n = -w0_n; the deep
    bands, w0 and w^k match the manifold window (`lax._manifold_window`) of
    the sample's own extracted (W^{-1}, W^k); w0_n w1_n grows linearly in n;
    and the extracted (W^{-1}, W^k) satisfy the reduced chain ODE (rates
    read from the full chain RHS, no time FD).

    The checks read the sites n <= n_max = max(4, min(influence index,
    N - 8)) and the bands -2..k_max with k_max = min(6, k_pos - 2).  The
    window must hold k_neg >= 2 and k_pos >= 4 (ValueError), since the
    reduced chain needs W^1 and W^2, and at least 4 sites (IndexError).
    """
    states = trajectory.states
    if not isinstance(states[0], PfaffLax):
        raise TypeError("expected a banded-window trajectory")
    lax0 = states[0]
    if lax0.k_neg < 2 or lax0.k_pos < 4:
        raise ValueError(f"the window must hold k_neg >= 2 and k_pos >= 4 (the "
                         f"checks read w^-2, W^1 and W^2), got k_neg {lax0.k_neg} "
                         f"and k_pos {lax0.k_pos}")
    influence = trajectory.stats.get("influence_index", lax0.n_sites - 8)
    n_max = max(4, min(influence, lax0.n_sites - 8))
    k_max = min(6, lax0.k_pos - 2)
    if n_max > lax0.n_sites:
        raise IndexError(f"the checks read {n_max} sites, past the window's "
                         f"{lax0.n_sites}")
    idx = np.arange(1, n_max + 1)
    worst = {"deep": 0.0, "wm1_spread": 0.0, "w0": 0.0, "wm2": 0.0,
             "wk": 0.0, "pn_linear": 0.0, "ode": 0.0}
    for lax in states:
        w, k_neg = lax.w[:, :n_max], lax.k_neg
        wm1_bar, W, dWm1_chain, dW = _reduced_coordinates(lax, n_max, k_max)
        ref = _manifold_window(wm1_bar, W, n_max, k_neg).w     # bands -k_neg..k_max
        wm1, w0, w1 = w[k_neg - 1], w[k_neg], w[k_neg + 1]
        scale = max(1.0, abs(ref[k_neg, -1]))
        for row in range(k_neg - 2):
            worst["deep"] = max(worst["deep"], np.abs(w[row] - ref[row]).max() / scale)
        worst["wm1_spread"] = max(worst["wm1_spread"],
                                  (wm1.max() - wm1.min()) / max(abs(wm1_bar), 1e-300))
        worst["w0"] = max(worst["w0"], np.abs(w0 - ref[k_neg]).max() / scale)
        worst["wm2"] = max(worst["wm2"], np.abs(w[k_neg - 2] + w0).max() / scale)
        wk, wk_ref = w[k_neg + 1:k_neg + k_max + 1], ref[k_neg + 1:]
        worst["wk"] = max(worst["wk"], (np.abs(wk - wk_ref).max(axis=1)
                                        / np.maximum(np.abs(wk_ref).max(axis=1), 1.0)).max())
        P = w0 * w1
        worst["pn_linear"] = max(worst["pn_linear"],
                                 np.abs(P - idx * P[0]).max() / max(abs(P[-1]), 1.0))
        # reduced-ODE consistency of the extracted (W^-1, W^k)
        red = ReducedChainState(wm1_bar, W)
        dWm1_red, dW_red = reduced_chain_rhs(red)
        ode_scale = max(1.0, np.abs(dW_red).max(), abs(dWm1_red))
        # the last extracted rate leans on W^{k_max+1}: compare the rest
        worst["ode"] = max(worst["ode"],
                           abs(dWm1_chain - dWm1_red) / ode_scale,
                           np.abs(dW[:-1] - dW_red[:-1]).max() / ode_scale)
    residual = max(worst.values())
    meta = {"n_max": n_max, "k_max": k_max, "samples": len(states), **worst}
    return IdentityReport.from_residual("reduction-invariants", residual,
                                        tolerance, meta=meta)


# ---------------------------------------------------------------------------
# closed-form reference trajectories

_ORACLE_KEYWORDS = {"t1-translation": {"times", "n_sites"},
                    "t2-scaling": {"times", "n_sites", "ensemble", "k_pos", "k_neg"}}


def exact_oracles(kind: str, **params) -> EvolutionResult:
    """Reference trajectories for the two single-coupling exact families.

    kind "t1-translation": unitary first flow, a_n(t) = t, b_n = sqrt(n).
    kind "t2-scaling": second flow; ensemble "volterra" gives
    B_n = n/(1-2t); ensemble "orthogonal" the manifold window at
    W^{-1} = 1/(2(1-2t)) and W^k = 2.  Both
    blow up at t = 1/2, so later times raise PreBreakingViolated.  Keywords:
    times, n_sites, and for t2-scaling ensemble, k_pos and k_neg; any other
    keyword, any size that is not an integer and any time that is not
    finite, or whose t2 scale 1 - 2t is not, raise a ValueError.
    """
    if kind not in _ORACLE_KEYWORDS:
        raise UnsupportedKind(f"unknown oracle kind {kind!r}")
    unread = sorted(set(params) - _ORACLE_KEYWORDS[kind])
    if unread:
        raise ValueError(f"oracle kind {kind!r} reads no keyword {unread[0]!r}")
    times = np.asarray(params.get("times", [0.0]), dtype=float)
    if not np.all(np.isfinite(times)):
        raise ValueError(f"oracle times must be finite, got {times}")
    n_sites = _checked_int("n_sites", params.get("n_sites", 16), 1)
    k_pos, k_neg = (_checked_int(name, params.get(name, 6), low)
                    for name, low in (("k_pos", 0), ("k_neg", 2)))
    if kind == "t1-translation":
        b = np.sqrt(np.arange(1.0, n_sites))
        states = [TodaLax(np.full(n_sites, t), b) for t in times]
        return EvolutionResult(times, states, {"kind": kind})
    if np.any(times >= 0.5):
        raise PreBreakingViolated("scaling family blows up at t = 1/2")
    if np.any(times < -np.finfo(float).max / 2):        # 2t, so 1 - 2t, overflows
        raise ValueError(f"oracle time {float(times.min())!r} has no finite scale 1 - 2t")
    ensemble = params.get("ensemble", "volterra")
    if ensemble == "volterra":
        base = np.arange(1.0, n_sites + 1)
        states = [VolterraState(base / (1.0 - 2.0 * t)) for t in times]
        return EvolutionResult(times, states, {"kind": kind})
    if ensemble == "orthogonal":
        W = np.full(k_pos, 2.0)
        states = [_manifold_window(0.5 / (1.0 - 2.0 * t), W, n_sites, k_neg) for t in times]
        return EvolutionResult(times, states, {"kind": kind})
    raise UnsupportedKind(f"no t2-scaling ensemble {ensemble!r}")


# ---------------------------------------------------------------------------
# lattice-to-continuum convergence

def continuum_convergence(*, t2: float = 0.1, tolerance: float = 1e-6) -> IdentityReport:
    """Compare evolved lattices against their continuum solutions.

    The lattices span x = eps*n in (0, 2] for eps = 1/32, 1/64 and 1/128,
    and take RK4 steps of 1e-3.
    Leg 1: Volterra sites B_n(0) = n - 1/4 (genuine O(eps) offset from the
    linear profile) against the characteristic solution; errors must halve
    with eps, each ratio in [1.7, 2.3].  Leg 2: the banded skew lattice at
    the finest eps against band 0 of the orthogonal t2-scaling window of
    `exact_oracles`, c_n/(2(1-2t)), scaled by eps, to `tolerance`.
    """
    x_hi, h, ratio_window = 2.0, 1e-3, (1.7, 2.3)
    epsilons = (1.0 / 32, 1.0 / 64, 1.0 / 128)
    xs = x_hi * np.array([0.25, 0.375, 0.5, 0.625, 0.75])
    exact = hopf_solve(lambda q: q, 2.0, 1, xs, t2)

    errs = []
    for eps in epsilons:
        N = int(round(x_hi / eps))
        B0 = np.arange(1.0, N + 1) - 0.25
        B = evolve_volterra(VolterraState(B0), 2, [t2], h=h).states[-1].B
        sites = np.rint(xs / eps).astype(int)
        errs.append(float(np.max(np.abs(eps * B[sites - 1] - exact))))
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    ratio_ok = all(ratio_window[0] <= r <= ratio_window[1] for r in ratios)

    eps = epsilons[-1]
    N = int(round(x_hi / eps))
    w0 = evolve_pfaff(goe_lax_init(N, k_pos=4, k_neg=4), [t2], h=h).states[-1].w[4]
    w0_exact = exact_oracles("t2-scaling", ensemble="orthogonal", times=[t2], n_sites=N,
                             k_pos=4, k_neg=4).states[0].w[4]
    lo, hi = 8, N - 16
    pf_err = float(np.max(np.abs(eps * (w0[lo:hi] - w0_exact[lo:hi]))))

    passed = ratio_ok and pf_err <= tolerance
    meta = {"epsilons": list(epsilons), "volterra_errors": errs,
            "volterra_ratios": ratios, "ratio_window": list(ratio_window),
            "pfaff_error_scaled": pf_err, "pfaff_tol": tolerance, "t2": t2}
    return IdentityReport("continuum-convergence", pf_err, pf_err,
                          tolerance, passed, meta)


# ---------------------------------------------------------------------------
# Monte-Carlo ensemble sampling

def sample_gaussian_ensemble(beta: int, n: int, count: int, seed: int) -> dict:
    """Trace moments of n x n Gaussian ensembles by direct sampling.

    beta=1: real symmetric, diagonal N(0,1), off-diagonal N(0,1/2).
    beta=2: complex Hermitian, off-diagonal (a+ib)/sqrt(2).  Uses a
    counter-based generator so results are bit-reproducible for a seed;
    returns {"trace": (mean, stderr), ...} computed in one pass.  Each
    argument must be an integer, and n at least 1.
    """
    beta, n = _checked_int("beta", beta), _checked_int("n", n, 1)
    if beta not in (1, 2):
        raise ValueError(f"beta must be 1 or 2, got {beta}")
    count = _checked_int("count", count)
    if count < 2 or count > 10_000_000:
        raise ValueError(f"count out of supported range, got {count}")
    seed = _checked_seed(seed)
    rng = np.random.Generator(np.random.Philox(seed))
    pairs = n * (n - 1) // 2
    sums = np.zeros(3)
    sumsq = np.zeros(3)
    left = count
    while left:
        m = min(left, 250_000)
        diag = rng.standard_normal((m, n))
        tr = diag.sum(axis=1)
        off_sq = np.zeros(m)
        if pairs:
            if beta == 1:
                off = rng.standard_normal((m, pairs)) * math.sqrt(0.5)
                off_sq = (off ** 2).sum(axis=1)
            else:
                re = rng.standard_normal((m, pairs)) * math.sqrt(0.5)
                im = rng.standard_normal((m, pairs)) * math.sqrt(0.5)
                off_sq = (re ** 2 + im ** 2).sum(axis=1)
        tr2 = (diag ** 2).sum(axis=1) + 2.0 * off_sq
        batch = np.stack([tr, tr ** 2, tr2])
        sums += batch.sum(axis=1)
        sumsq += (batch ** 2).sum(axis=1)
        left -= m
    mean = sums / count
    var = np.maximum(sumsq / count - mean ** 2, 0.0)
    se = np.sqrt(var / count)
    names = ("trace", "trace_squared", "trace_of_square")
    out = {nm: (float(mu), float(s)) for nm, mu, s in zip(names, mean, se)}
    out["count"] = count
    out["seed"] = seed
    out["beta"] = beta
    out["n"] = n
    return out


# ---------------------------------------------------------------------------
# verification suites

def verify_init_gue(n_max: int = 10, tolerance: float = 1e-8) -> IdentityReport:
    """Quadrature-built tridiagonal data against the closed forms a=0, b=sqrt(n),
    plus the translation law log tau_m(t1) - log tau_m(0) = m t1^2/2 at
    t1 = 1/4 for every m <= n_max.

    Each side of the law is a sum of monic log norms of a Stieltjes basis on
    its own grid; the basis at zero couplings also gives the Jacobi data.
    """
    n_max = _checked_int("n_max", n_max, 2)
    _, log_h, a, b = _stieltjes_basis("unitary", n_max, _T0)
    _, log_h_shifted, _, _ = _stieltjes_basis("unitary", n_max, _GUE_SHIFT)
    m = np.arange(1.0, n_max + 1)
    err_a = float(np.max(np.abs(a)))
    err_b = float(np.max(np.abs(b[1:] / np.sqrt(m[:-1]) - 1.0)))
    err_shift = float(np.max(np.abs(np.cumsum(log_h_shifted) - np.cumsum(log_h)
                                    - m * _GUE_SHIFT.get(1) ** 2 / 2.0)))
    resid = max(err_a, err_b, err_shift)
    meta = {"n_max": n_max, "err_a": err_a, "err_b_rel": err_b,
            "t1_translation_err": err_shift}
    return IdentityReport.from_residual("gue-initial-data", resid, tolerance, meta=meta)


def verify_init_goe(n_sites: int = 8, k_band: int = 6,
                    tolerance: float = 1e-9) -> IdentityReport:
    """Closed-form band entries against the skew Gram-Schmidt oracle, which
    orthogonalizes the Stieltjes basis of rho^2 on N + K + 1 pairs, built
    from the couplings alone."""
    n_sites, k_band = _checked_int("n_sites", n_sites, 1), _checked_int("k_band", k_band)
    n_pairs = n_sites + k_band + 1
    oracle = pfaff_lax_from_basis(_skew_basis(_T0, n_pairs), n_sites, k_band, k_band)
    closed = goe_lax_init(n_sites, k_band, k_band)
    resid = float(np.max(np.abs(oracle.w - closed.w)))
    meta = {"n_sites": n_sites, "k_band": k_band,
            "w[1][2]": float(oracle.w[k_band + 1, 1]) if n_sites >= 2 else math.nan,
            "w[2][1]": float(oracle.w[k_band + 2, 0]) if k_band >= 2 else math.nan}
    return IdentityReport.from_residual("goe-initial-data", resid, tolerance, meta=meta)


def verify_scaling(n_sites: int = 64, tolerance: float = 1e-8) -> IdentityReport:
    """Integrated pure-t2 trajectories against the exact scaling family, at
    four times up to the horizon 0.2, off the last 8 sites."""
    horizon, margin = 0.2, 8
    n_sites = _checked_int("n_sites", n_sites)
    if n_sites <= margin:
        raise ValueError(f"n_sites must exceed the margin {margin}, got {n_sites}")
    times = _sample_times(horizon, 4)
    state = VolterraState(np.arange(1.0, n_sites + 1))
    res = evolve_volterra(state, 2, times, h=1e-3)
    exact = exact_oracles("t2-scaling", times=res.times, n_sites=n_sites)
    worst = 0.0
    for s, e in zip(res.states, exact.states):
        worst = max(worst, float(np.max(np.abs(s.B[:n_sites - margin]
                                               - e.B[:n_sites - margin]))))
    red = evolve_reduced(ReducedChainState(0.5, np.full(6, 2.0)), times)
    for t, s in zip(red.times, red.states):
        worst = max(worst, abs(s.Wm1 - 0.5 / (1.0 - 2.0 * t)),
                    float(np.max(np.abs(s.W - 2.0))))
    meta = {"n_sites": n_sites, "horizon": horizon, "margin": margin}
    return IdentityReport.from_residual("t2-scaling", worst, tolerance, meta=meta)


def verify_commute(seed: int = 811, tolerance: float = 1e-12) -> IdentityReport:
    """Banded chain right-hand side against the projected dense commutator at
    20 random structurally valid states of 20 sites and 6 bands each side;
    interior columns only, the 12 that keep clear of the 8 edge columns."""
    n_states, n_sites, k_band = 20, 20, 6
    interior = n_sites - 8
    seed = _checked_seed(seed)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_states):
        w = rng.uniform(0.3, 2.0, (2 * k_band + 1, n_sites))
        w[:k_band - 2] *= 1e-2
        state = PfaffLax(w, k_neg=k_band, k_pos=k_band)
        chain = pfaff_chain_rhs(state)
        comm = pfaff_commutator_rhs(state)
        worst = max(worst, float(np.max(np.abs(chain[:, :interior]
                                               - comm[:, :interior]))))
    meta = {"n_states": n_states, "seed": seed, "n_sites": n_sites,
            "k_band": k_band, "interior_cols": interior}
    return IdentityReport.from_residual("chain-commutator", worst, tolerance, meta=meta)


def verify_reduction(n_sites: int = 48, tolerance: float = 1e-8) -> IdentityReport:
    """`reduction_invariants` along a banded GOE trajectory to t = 0.15."""
    traj = evolve_pfaff(goe_lax_init(n_sites, 9, 7), _sample_times(0.15, 3), h=1e-3)
    return reduction_invariants(traj, tolerance=tolerance)


def verify_tau_cross(n_pairs: int = 4, tolerance: float = 1e-6) -> IdentityReport:
    """Band entries recovered from tau-ratio derivatives against closed forms."""
    n_pairs = _checked_int("n_pairs", n_pairs)
    entries = pfaff_entries_from_tau(_T0, n_pairs)
    closed = goe_lax_init(n_pairs, 1, 2)
    per = {f"w[{ell}][{n}]": abs(val - closed.get(ell, n)) for (ell, n), val in entries.items()}
    worst = max(per.values())
    meta = {"n_pairs": n_pairs, "per_entry": per}
    return IdentityReport.from_residual("tau-lax-cross", worst, tolerance, meta=meta)


def mkp_bump_state(n_sites: int) -> VolterraState:
    """The mKP suite's state: a Gaussian bump at site 10 on a flat line."""
    n = np.arange(1.0, n_sites + 1)
    return VolterraState(0.5 + 0.25 * np.exp(-(((n - 10.0) / 4.0) ** 2)))


def verify_mkp(n: int = 8, n_sites: int = 64, tolerance: float = 1e-3) -> IdentityReport:
    """`mkp_residuals(n, mkp_bump_state(n_sites), tolerance=tolerance)`."""
    return mkp_residuals(n, mkp_bump_state(_checked_int("n_sites", n_sites)),
                         tolerance=tolerance)


# suite -> (its check, named so that a wrapper bound over the name in this
# module, a tracer's span, sees the call; {flag: keyword} for each verify flag
# the check reads besides --tolerance).  The check at its defaults is the
# suite's default run.
SUITES = {
    "init-gue": ("verify_init_gue", {"N": "n_max"}),
    "init-goe": ("verify_init_goe", {"N": "n_sites", "K": "k_band"}),
    "scaling": ("verify_scaling", {"N": "n_sites"}),
    "mkp": ("verify_mkp", {"n": "n", "N": "n_sites"}),
    "kp": ("kp_residual", {"n": "n"}),
    "commute": ("verify_commute", {"seed": "seed"}),
    "reduction": ("verify_reduction", {"N": "n_sites"}),
    "observables": ("observables_check", {"n": "n"}),
    "tau-cross": ("verify_tau_cross", {"n": "n_pairs"}),
    "skew-map": ("skew_hermite_map_check", {"n": "n_pairs"}),
    "hydro-chain": ("hydro_scaling_check", {"N": "n_x"}),
    "continuum": ("continuum_convergence", {}),
    "haantjes": ("haantjes_scan", {"window": "window", "points": "n_points", "seed": "seed"}),
}
