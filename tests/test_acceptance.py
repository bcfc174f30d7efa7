"""Acceptance gate: twelve end-to-end criteria, one verdict line each.

Every tolerance here is pinned; sizes and margins were chosen so each check
has at least a factor-3 headroom over its measured residual while staying
inside the regimes where the closures are trustworthy (see the per-test
comments for the sizing constraints).
"""

import time

import numpy as np

from taulattice import (CouplingVector, VolterraState, evolve_pfaff,
                        evolve_volterra, exact_oracles, goe_lax_init,
                        haantjes_scan, kp_residual, mkp_residuals,
                        observables_check, pfaff_lax_from_basis,
                        reduced_continuum_rhs, sample_gaussian_ensemble,
                        skew_moment_matrix, skew_orthonormal_basis,
                        continuum_convergence, hydro_scaling_check)
from taulattice.identities import (_reduced_coordinates, mkp_bump_state, verify_commute,
                                   verify_init_goe, verify_init_gue, verify_reduction,
                                   verify_scaling)

SCALING_TIMES = [0.05, 0.1, 0.15, 0.2]


def test_c01_banded_window_initial_data(acceptance):
    start = time.time()
    report = verify_init_goe(n_sites=8, k_band=6, tolerance=1e-9)
    elapsed = time.time() - start
    # the verdict on the two disputed fringe entries rides along in meta
    w12, w21 = report.meta["w[1][2]"], report.meta["w[2][1]"]
    ok = (report.passed and elapsed < 10.0
          and abs(w12 - 4.0 / np.sqrt(3.0)) < 1e-9
          and abs(w21 - 8.0 / np.sqrt(6.0)) < 1e-9)
    acceptance("C01", "banded-window initial data", ok,
               f"max diff {report.residual_abs:.2e} <= 1e-09, "
               f"verdict w[1][2]={w12:.9f} w[2][1]={w21:.9f}")


def test_c02_tridiagonal_initial_data(acceptance):
    report = verify_init_gue(n_max=10, tolerance=1e-8)
    acceptance("C02", "tridiagonal initial data", report.passed,
               f"rel err {report.residual_rel:.2e} <= 1e-08 "
               f"(recurrence and t1 translation law)")


def test_c03_exact_scaling_trajectories(acceptance):
    # volterra + reduced chain legs, N=64, margin 8
    report = verify_scaling(n_sites=64, tolerance=1e-8)
    worst = report.residual_abs

    # banded window leg against the closed family, same interior margin
    traj = evolve_pfaff(goe_lax_init(64, 6, 6), SCALING_TIMES, h=1e-3)
    oracle = exact_oracles("t2-scaling", ensemble="orthogonal",
                           times=SCALING_TIMES, n_sites=64, k_pos=6, k_neg=6)
    band = max(float(np.abs(g.w[:, :56] - w.w[:, :56]).max())
               for g, w in zip(traj.states, oracle.states))
    worst = max(worst, band)

    # doubling the lattice must not move the shared interior
    res64 = evolve_volterra(VolterraState(np.arange(1.0, 65.0)), 2,
                            SCALING_TIMES, h=1e-3)
    res128 = evolve_volterra(VolterraState(np.arange(1.0, 129.0)), 2,
                             SCALING_TIMES, h=1e-3)
    stab = max(float(np.abs(a.B[:56] - b.B[:56]).max())
               for a, b in zip(res64.states, res128.states))

    ok = report.passed and band <= 1e-8 and stab <= 1e-9
    acceptance("C03", "exact scaling trajectories", ok,
               f"interior err {worst:.2e} <= 1e-08, N-doubling {stab:.2e} <= 1e-09")


def test_c04_reduction_theorems(acceptance):
    report = verify_reduction(n_sites=48, tolerance=1e-8)

    # the extracted W variables must satisfy the same ODE system the
    # continuum reduction produces, rates read from both sides independently
    lax = evolve_pfaff(goe_lax_init(48, 9, 7), [0.1], h=1e-3).states[-1]
    wm1, W, dWm1_lat, dW_lat = _reduced_coordinates(lax, n_max=16, k_max=6)
    dWm1_cont, dW_cont, _ = reduced_continuum_rhs(wm1, W)
    cross = max(abs(dWm1_lat - dWm1_cont),
                float(np.abs(dW_lat[:-1] - dW_cont[:-1]).max()))

    ok = report.passed and cross <= 1e-8
    acceptance("C04", "reduction along the banded trajectory", ok,
               f"invariants {report.residual_rel:.2e} <= 1e-08, "
               f"lattice/continuum rate cross-check {cross:.2e} <= 1e-08")


def test_c05_chain_versus_dense_commutator(acceptance):
    report = verify_commute(seed=811, tolerance=1e-12)
    acceptance("C05", "chain vs dense commutator", report.passed,
               f"max diff {report.residual_abs:.2e} <= 1e-12 "
               f"(20 random states, 40x40 embedding, interior)")


def test_c06_conservation_law_suite(acceptance):
    report = mkp_residuals(8, mkp_bump_state(64), tolerance=1e-3)
    meta = report.meta
    variants = meta["variants"]
    winners = [k for k, v in variants.items() if v <= 1e-3]
    ok = (meta["conservation_a"] <= 1e-4 and meta["conservation_b"] <= 1e-4
          and meta["potential"] <= 1e-3 and len(winners) == 1)
    acceptance("C06", "conservation-law suite", ok,
               f"systems {max(meta['conservation_a'], meta['conservation_b']):.2e}"
               f" <= 1e-04, potential {meta['potential']:.2e} <= 1e-03, "
               f"coefficient variant passing: {winners[0] if winners else 'none'}")


def test_c07_determinant_flow_residual(acceptance):
    worst = 0.0
    for n in (1, 2, 3):
        worst = max(worst, kp_residual(n, tolerance=1e-3).residual_rel)
    acceptance("C07", "determinant-flow residual", worst <= 1e-3,
               f"worst rel residual over n=1..3: {worst:.2e} <= 1e-03")


def test_c08_diagonalizability_scan(acceptance):
    report = haantjes_scan(window=10, n_points=100, seed=20260823,
                           tolerance=1e-9)
    meta = report.meta
    acceptance("C08", "diagonalizability scan", report.passed,
               f"max obstruction {meta['max_haantjes']:.2e} <= 1e-09, "
               f"closed-form mismatch {meta['max_closed_form_error']:.2e} <= 1e-10")


def test_c09_two_eigenvalue_observables(acceptance):
    report = observables_check(1, tolerance=1e-8)
    quad_ok = (report.passed
               and abs(report.meta["E_sum_sq"] - 2.0) < 1e-8
               and abs(report.meta["E_sq_sum"] - 3.0) < 1e-8)
    mc = sample_gaussian_ensemble(1, 2, 1_000_000, seed=20260823)
    sigmas = []
    for key, expect in (("trace", 0.0), ("trace_squared", 2.0),
                        ("trace_of_square", 3.0)):
        mean, se = mc[key]
        sigmas.append(abs(mean - expect) / se)
    mc_ok = max(sigmas) <= 3.0
    acceptance("C09", "two-eigenvalue observables", quad_ok and mc_ok,
               f"quadrature {report.residual_rel:.2e} <= 1e-08, "
               f"monte-carlo worst {max(sigmas):.2f} sigma <= 3")


def test_c10_continuum_convergence(acceptance):
    conv = continuum_convergence()
    ratios = conv.meta["volterra_ratios"]
    hydro = hydro_scaling_check(t_target=0.15, tolerance=1e-6)
    ok = (conv.passed and hydro.passed
          and all(1.7 <= r <= 2.3 for r in ratios))
    acceptance("C10", "lattice-to-continuum convergence", ok,
               f"halving ratios {[round(r, 3) for r in ratios]} in [1.7, 2.3], "
               f"chain-vs-exact {hydro.residual_abs:.2e} <= 1e-06")


def _quadrature_window(mapping, n_pairs, n_sites, k_band):
    t = CouplingVector.from_mapping(mapping)
    basis = skew_orthonormal_basis(skew_moment_matrix(t, 2 * n_pairs), n_pairs)
    return pfaff_lax_from_basis(basis, n_sites, k_band, k_band)


def test_c11_off_family_loop_closure(acceptance):
    # Evolve the quadrature-built window under the second-coupling chain and
    # land on a window rebuilt from quadrature at the shifted couplings.
    # Sizing: 14 basis pairs carry the 10-site, 4-band start window; both
    # builds pass the default structure check, and windows from 14 and 22
    # pairs agree to 1e-12 at these couplings, so the basis size does not
    # reach the compared block.  Targets come from an 11-pair basis.
    # Horizons stay at 0.025 where the quartic coupling is on, since the
    # pinned outer band rows drift and that drift cascades inward two bands
    # over longer spans.
    legs = (("gauss->t2", {}, {2: 0.05}, 0.05),
            ("quartic-on", {4: -0.05}, {2: 0.025, 4: -0.05}, 0.025),
            ("quartic-back", {2: -0.025, 4: -0.05}, {4: -0.05}, 0.025))
    worst = {}
    for name, start, end, span in legs:
        base = _quadrature_window(start, 14, 10, 4)
        final = evolve_pfaff(base, [span], h=1e-3).states[-1]
        target = _quadrature_window(end, 11, 4, 2)
        worst[name] = max(abs(final.get(k, n) - target.get(k, n))
                          for k in range(-2, 3) for n in range(1, 5))
    top = max(worst.values())
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    acceptance("C11", "off-family loop closure", top <= 1e-5,
               f"{detail}; all <= 1e-05")


def test_c12_flow_commutation(acceptance):
    # Quartic-flow rates grow like 12 n^2, so the horizon and step are small
    # and the comparison stops 12 sites short of the edge: the boundary
    # closure defect is h-independent and needs that much standoff.
    B0 = VolterraState(np.arange(1.0, 33.0))

    def leg(state, flow, horizon):
        out = evolve_volterra(state, flow, [horizon], h=1e-5)
        return VolterraState(out.states[-1].B)

    ab = leg(leg(B0, 2, 0.05), 4, 1e-4)
    ba = leg(leg(B0, 4, 1e-4), 2, 0.05)
    defect = float(np.abs(ab.B[:20] - ba.B[:20]).max())
    acceptance("C12", "flow commutation", defect <= 1e-6,
               f"interior order-swap defect {defect:.2e} <= 1e-06")
