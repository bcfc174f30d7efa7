import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

import reference_kernels as ref
from taulattice import (CouplingVector, PfaffLax, TodaLax, c_coeff, couplings,
                        goe_lax_init, gue_lax_init,
                        hermite_map_coeffs, nu_values, pfaff_entries_from_tau,
                        pfaff_lax_from_basis, skew_hermite_map_check,
                        skew_moment_matrix, skew_orthonormal_basis,
                        sqrt_ratio_product, toda_lax_from_quadrature)
from taulattice.errors import IllConditioned, SingularMinor, StructureViolation
from taulattice.identities import verify_init_goe, verify_init_gue, verify_tau_cross
from taulattice.lax import SkewOrthoBasis, _skew_basis, _skew_gram_schmidt
from taulattice.moments import _stieltjes_basis

SQRT_PI = math.sqrt(math.pi)


def test_c_coeff_values():
    assert abs(c_coeff(1) - math.sqrt(2.0)) < 1e-15
    assert abs(c_coeff(2) - math.sqrt(12.0)) < 1e-15
    arr = c_coeff(np.array([1, 2, 3]))
    assert np.allclose(arr**2, [2.0, 12.0, 30.0], rtol=1e-15)


@pytest.mark.parametrize("sites", [0, -1, 0.5, math.nan, [1, 2, 0], [3, math.nan]])
def test_c_coeff_refuses_sites_below_one(sites):
    # c_coeff(0) once read -0.0 and c_coeff(-1) 2.449
    with pytest.raises(ValueError, match="sites"):
        c_coeff(np.array(sites))


def test_nu_values_closed_form():
    nu = nu_values(6)
    for n in range(6):
        expect = SQRT_PI * math.factorial(2 * n) / 4**n
        assert abs(nu[n] - expect) < 1e-12 * expect
    assert nu_values(0).shape == (0,)


def test_sqrt_ratio_product():
    assert sqrt_ratio_product(3, 0) == 1.0
    assert sqrt_ratio_product(3, -2) == 1.0
    expect = math.sqrt((6.0 / 5.0) * (8.0 / 7.0))
    assert abs(sqrt_ratio_product(3, 2) - expect) < 1e-15
    # F_k = 2^k k!/sqrt((2k)!) in a stable product form
    for k in (1, 2, 5, 10):
        direct = 2.0**k * math.factorial(k) / math.sqrt(math.factorial(2 * k))
        assert abs(sqrt_ratio_product(1, k) - direct) < 1e-13 * direct


@pytest.mark.parametrize("start,count", [(0, 2), (-1, 3), (0, 0)])
def test_sqrt_ratio_product_refuses_start_below_one(start, count):
    # (0, 2) once read -0.0
    with pytest.raises(ValueError, match="start"):
        sqrt_ratio_product(start, count)


def test_gue_init_and_moment_route(t0):
    lax = toda_lax_from_quadrature(t0, 10)
    assert np.max(np.abs(lax.a)) < 1e-10
    expect = np.sqrt(np.arange(1.0, 10.0))
    assert np.max(np.abs(lax.b / expect - 1.0)) < 1e-10
    closed = gue_lax_init(10)
    assert np.allclose(closed.b, expect, rtol=0, atol=0)
    assert np.allclose(closed.matrix(), closed.matrix().T)


@pytest.mark.parametrize("mapping", [{2: 0.1}, {1: 0.05, 4: -0.03}, {4: -0.05}])
def test_toda_read_off_matches_hankel_reference(mapping):
    t = CouplingVector.from_mapping(mapping)
    for n in range(1, 11):
        lax = toda_lax_from_quadrature(t, n)
        a, b = ref.toda_lax_hankel(t, n)
        assert np.max(np.abs(lax.a - a)) < 1e-11, n
        assert np.max(np.abs(lax.b - b), initial=0.0) < 1e-11, n


@pytest.mark.parametrize("t4", [-0.01, -0.05, -0.2])
def test_toda_read_off_meets_freud_equation(t4):
    # rho = exp(-z^2/2 + t4 z^4), so V' = z - 4 t4 z^3, and n = b_n (V'(J))_{n,n-1}
    # becomes Freud's n = R_n (1 - 4 t4 (R_{n-1} + R_n + R_{n+1})), R_n = b_n^2,
    # R_0 = 0; the even weight gives a = 0.  Readings <= 9.4e-15 and 1.5e-15.
    lax = toda_lax_from_quadrature(CouplingVector.from_mapping({4: t4}), 122)
    R = np.concatenate([[0.0], lax.b ** 2])
    n = np.arange(1, 121)
    freud = R[n] * (1.0 - 4.0 * t4 * (R[n - 1] + R[n] + R[n + 1]))
    assert np.abs(freud / n - 1.0).max() <= 1e-12
    assert np.abs(lax.a).max() <= 1e-12 * lax.b.max()


def test_init_gue_past_the_moment_table_cap():
    # 24 sites: a Hankel read-off would need moments through degree 48
    report = verify_init_gue(n_max=24)
    assert report.passed
    assert report.meta["err_a"] <= 1e-14 and report.meta["err_b_rel"] <= 1e-14


@pytest.mark.parametrize("n_max", [2, 14, 24])
def test_init_gue_solves_for_three_radii(n_max, monkeypatch, fresh_grids):
    # one grid at zero couplings for the Jacobi data and log tau_m, one at
    # t1 = 1/4 for the other side of the translation law
    calls = []
    solve = couplings._radius_for

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(couplings, "_radius_for", counted)
    report = verify_init_gue(n_max=n_max)
    assert report.passed, report.residual_abs
    assert len(calls) <= 2, len(calls)


def test_goe_init_window_values():
    lax = goe_lax_init(4, 3, 3)
    c = c_coeff(np.arange(1.0, 5.0))
    assert np.allclose(lax.w[3], 0.5 * c, rtol=1e-15)         # band 0
    assert np.allclose(lax.w[2], 0.5, rtol=0)                 # band -1
    assert np.allclose(lax.w[1], -0.5 * c, rtol=1e-15)        # band -2
    assert np.all(lax.w[0] == 0.0)                            # band -3
    assert abs(lax.get(1, 1) - 2.0 * math.sqrt(2.0)) < 1e-14
    assert abs(lax.get(1, 2) - 4.0 / math.sqrt(3.0)) < 1e-14
    assert abs(lax.get(2, 1) - 8.0 / math.sqrt(6.0)) < 1e-14


def test_goe_band_factorial_form():
    # w^k_n = 2^{k+1} (k+n-1)!/(n-1)! sqrt((2n-2)!/(2k+2n-2)!)
    lax = goe_lax_init(6, 6, 2)
    for n in range(1, 7):
        for k in range(1, 7):
            expect = (2.0 ** (k + 1) * math.factorial(k + n - 1)
                      / math.factorial(n - 1)
                      * math.sqrt(math.factorial(2 * n - 2)
                                  / math.factorial(2 * k + 2 * n - 2)))
            assert abs(lax.get(k, n) - expect) < 1e-12 * expect, (k, n)


def test_goe_band_site_recursion():
    # w^k_n = n sqrt(nu_{n-1}/nu_n) w^{k-1}_{n+1}, within the k >= 1 family
    lax = goe_lax_init(8, 6, 2)
    nu = nu_values(9)
    for n in range(1, 7):
        factor = n * math.sqrt(nu[n - 1] / nu[n])
        for k in range(2, 7):
            lhs = lax.get(k, n)
            rhs = factor * lax.get(k - 1, n + 1)
            assert abs(lhs - rhs) < 1e-12 * abs(lhs), (k, n)


def test_goe_band_product_rule():
    # multiplying a band entry by the diagonal run beneath it telescopes
    lax = goe_lax_init(6, 5, 2)
    for n in range(1, 5):
        for k in range(1, 6):
            run = np.prod([lax.get(0, i) for i in range(n, n + k)
                           if i <= lax.n_sites]) if n + k - 1 <= lax.n_sites else None
            if run is None:
                continue
            expect = 2.0 * math.factorial(k + n - 1) / math.factorial(n - 1)
            assert abs(lax.get(k, n) * run - expect) < 1e-10 * expect, (k, n)


def test_goe_reduced_normalization():
    # the running products repeat the site-by-site loop at every site, bit for bit
    for N, k_pos, k_neg in ((4, 8, 2), (40, 9, 9), (33, 2, 9), (64, 9, 4)):
        w = goe_lax_init(N, k_pos, k_neg).w
        for k in range(1, k_pos + 1):
            loop = [2.0 * sqrt_ratio_product(n, k) for n in range(1, N + 1)]
            assert w[k_neg + k].tolist() == loop, (N, k_pos, k_neg, k)


def test_goe_requires_two_lower_bands():
    with pytest.raises(ValueError):
        goe_lax_init(4, 3, 1)


@pytest.mark.parametrize("n_sites", [0, -2])
def test_goe_requires_a_site(n_sites):
    # goe_lax_init(0, 3, 3) once returned an empty (7, 0) window
    with pytest.raises(ValueError, match="n_sites"):
        goe_lax_init(n_sites, 3, 3)


def test_goe_refuses_a_negative_upper_band_count():
    # k_pos = -1 raised IndexError from the band loop
    with pytest.raises(ValueError, match="k_pos must be non-negative, got -1"):
        goe_lax_init(4, -1, 3)


@pytest.mark.parametrize("args, name", [((2.5, 3, 3), "n_sites"), ((True, 3, 3), "n_sites"),
                                        ((4, 2.5, 3), "k_pos"), ((4, 3, 3.0), "k_neg")])
def test_goe_refuses_a_size_that_is_not_an_integer(args, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        goe_lax_init(*args)


@pytest.mark.parametrize("n_sites, message", [(0, "at least 1, got 0"),
                                              (-2, "at least 1, got -2"),
                                              (2.5, "an integer, got 2.5"),
                                              (True, "an integer, got True")])
def test_gue_refuses_a_size_below_one_or_not_an_integer(n_sites, message):
    # 0 blamed len(b), -2 raised numpy's negative dimensions, 2.5 a TypeError
    with pytest.raises(ValueError, match=f"n_sites must be {message}"):
        gue_lax_init(n_sites)


def test_lax_inits_take_numpy_integers():
    assert np.array_equal(gue_lax_init(np.int64(5)).b, gue_lax_init(5).b)
    assert goe_lax_init(np.int32(4), np.int64(3)).to_json() == goe_lax_init(4, 3).to_json()


def test_pfaff_lax_json_round_trip():
    lax = goe_lax_init(3, 2, 2)
    back = PfaffLax.from_json(lax.to_json())
    assert back.k_neg == 2 and back.k_pos == 2
    assert np.allclose(back.w, lax.w, rtol=0, atol=0)


@pytest.mark.parametrize("n_sites,k_pos,k_neg", [(1, 0, 0), (3, 2, 2), (7, 6, 4)])
def test_pfaff_lax_json_round_trip_is_byte_identical(n_sites, k_pos, k_neg):
    rng = np.random.default_rng(n_sites)
    lax = PfaffLax(rng.uniform(-1.0, 1.0, (k_neg + k_pos + 1, n_sites)), k_neg, k_pos)
    text = lax.to_json()
    back = PfaffLax.from_json(text)
    assert (back.k_neg, back.k_pos) == (k_neg, k_pos)
    assert back.w.tobytes() == lax.w.tobytes() and back.to_json() == text


@pytest.mark.parametrize("fields,message", [
    ({"w": {"0,0": 7.0}}, "key '0,0' is not"),             # wrapped to the last site
    ({"w": {"0,5": 7.0}}, "key '0,5' is not"),             # raised a bare IndexError
    ({"w": {"1,1": 7.0}}, "key '1,1' is not"),             # raised a bare IndexError
    ({"w": {"0,-1": 7.0}}, "key '0,-1' is not"),
    ({"w": {"0,1,2": 7.0}}, "key '0,1,2' is not"),
    ({"w": {"0, 1": 7.0}}, "key '0, 1' is not"),
    ({"w": {"a,1": 7.0}}, "key 'a,1' is not"),
    ({"N": 2.7}, "N must be an integer, got 2.7"),         # read 2 sites
    ({"N": True}, "N must be an integer, got True"),
    ({"N": 0, "w": {}}, "N must be at least 1"),
    ({"Kpos": -1}, "Kpos must be non-negative"),
    ({"Kpos": False}, "Kpos must be an integer, got False"),
    ({"Kpos": 1.0}, "Kpos must be an integer, got 1.0"),
])
def test_pfaff_lax_from_json_refuses_what_to_json_cannot_write(fields, message):
    data = {"N": 2, "Kpos": 0, "w": {"0,1": 1.0, "0,2": 2.0}} | fields
    with pytest.raises(ValueError, match=re.escape(message)):
        PfaffLax.from_json(json.dumps(data))


def test_pfaff_lax_get_guards():
    lax = goe_lax_init(3, 2, 2)
    with pytest.raises(IndexError):
        lax.get(3, 1)
    with pytest.raises(IndexError):
        lax.get(0, 4)


def test_hermite_map_coefficients():
    Q = hermite_map_coeffs(2)
    # Q_2 = z^2 - 1/2, Q_3 = z^3 - (5/2) z
    assert np.allclose(Q[2], [-0.5, 0.0, 1.0, 0.0], rtol=0, atol=1e-15)
    assert np.allclose(Q[3], [0.0, -2.5, 0.0, 1.0], rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="n_pairs"):
        hermite_map_coeffs(0)


def test_skew_map_check_report(t0):
    report = skew_hermite_map_check(4)
    assert report.passed
    assert report.residual_abs < 1e-11
    assert abs(report.meta["<Q0,Q1>"] - SQRT_PI) < 1e-12
    assert abs(report.meta["<Q2,Q1>"]) < 1e-12
    assert abs(report.meta["<Q2,Q3>"] - 0.5 * SQRT_PI) < 1e-11


def _monic_h(basis):
    """The pair products of `basis` in the monic scale: h_n r_{2n}^2, with
    r_k^2 = exp(log_h[k]) the monic norms of the same Stieltjes basis."""
    _, log_h, _, _ = _stieltjes_basis("orthogonal", 2 * basis.n_pairs, basis.couplings)
    return basis.h * np.exp(log_h[::2])


def test_basis_extraction_matches_closed_form(t0):
    n_pairs, n_sites, k = 8, 4, 4
    basis = skew_orthonormal_basis(skew_moment_matrix(t0, 2 * n_pairs), n_pairs)
    pair_products = nu_values(n_pairs)
    assert np.max(np.abs(_monic_h(basis) / pair_products - 1.0)) < 1e-10
    oracle = pfaff_lax_from_basis(basis, n_sites, k, k)
    closed = goe_lax_init(n_sites, k, k)
    assert np.max(np.abs(oracle.w - closed.w)) < 1e-10


def test_basis_larger_than_the_skew_matrix_refused(t0):
    with pytest.raises(ValueError, match="skew matrix of size 6 cannot support 4 pairs"):
        skew_orthonormal_basis(skew_moment_matrix(t0, 6), 4)


def _window(mapping, n_pairs, n_sites, k_band):
    t = CouplingVector.from_mapping(mapping)
    basis = skew_orthonormal_basis(skew_moment_matrix(t, 2 * n_pairs), n_pairs)
    return basis, pfaff_lax_from_basis(basis, n_sites, k_band, k_band)


@pytest.mark.parametrize("mapping", [{}, {2: 0.1}, {1: 0.1}, {1: 0.05, 4: -0.03}])
@pytest.mark.parametrize("n_pairs,n_sites,k_band", [(6, 3, 2), (10, 6, 3)])
def test_basis_matches_parity_hermite_reference(mapping, n_pairs, n_sites, k_band):
    # odd couplings give a_k != 0 and so pin the general gauge of Q_{2n+1};
    # at 11 pairs and {1: 0.05, 4: -0.03} the reference's own h drifts 3.6e-9
    basis, window = _window(mapping, n_pairs, n_sites, k_band)
    h, w = ref.parity_hermite_window(CouplingVector.from_mapping(mapping),
                                     n_pairs, n_sites, k_band)
    assert np.max(np.abs(_monic_h(basis) / h - 1.0)) < 1e-10
    assert np.max(np.abs(window.w - w)) < 1e-10


@pytest.mark.parametrize("n_sites,k_band", [(12, 6), (12, 8), (16, 10)])
def test_init_goe_holds_past_eighteen_pairs(n_sites, k_band):
    # 19, 21 and 27 pairs; each reads at most 2.6e-14
    report = verify_init_goe(n_sites, k_band, tolerance=1e-12)
    assert report.passed, report.residual_abs


@pytest.mark.parametrize("mapping", [{4: -0.05}, {2: 0.025, 4: -0.05}])
def test_window_independent_of_basis_size(mapping):
    _, small = _window(mapping, 14, 10, 4)
    _, large = _window(mapping, 22, 10, 4)
    assert np.max(np.abs(small.w - large.w)) < 1e-12


def test_skew_basis_reaches_past_the_monic_range(t0):
    # 180 sites and 6 bands take 187 pairs; pairs built in the monic scale
    # left the double range at pair 99.  At zero coupling every pair
    # product is 1.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_init_goe(180, 6, tolerance=1e-12)
        basis = _skew_basis(t0, 96)
    assert report.passed, report.residual_abs
    assert np.isfinite(basis.coeffs).all()
    assert np.abs(basis.h - 1.0).max() < 1e-10


def test_skew_basis_refuses_the_broken_rho2_basis(t0):
    # past about 200 pairs the rho^2 Stieltjes recurrence breaks down at the
    # Gaussian point; at 217 pairs the window read 0.76 off goe_lax_init with
    # no structure check failing.  The pair products now cancel terms some
    # 1e4 times larger, which is refused with the first such pair.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllConditioned, match=r"^pair product h_(19\d|20\d|21\d) = .* "
                                                 r"cancels terms of total size .* passes 1e-12 of it$"):
            _skew_basis(t0, 217)


def test_init_goe_on_224_pairs_names_the_broken_pair():
    # from 224 pairs max|F| passed 1e12, and a floor scaled by it refused
    # pair 0, h_0 = 1, as SingularMinor; the cause is pair 202's cancellation
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllConditioned, match=r"^pair product h_202 = .* cancels terms"):
            verify_init_goe(217, 6)


def test_basis_too_small_rejected(t0):
    basis = skew_orthonormal_basis(skew_moment_matrix(t0, 12), 6)
    with pytest.raises(ValueError):
        pfaff_lax_from_basis(basis, 4, 4, 4)


@pytest.mark.parametrize("a,b,match", [
    (np.zeros(3), np.ones(3), "len"),
    (np.zeros((2, 2)), np.ones(1), "len"),
    (np.zeros(3), np.array([1.0, 0.0]), "positive"),
    (np.zeros(3), np.array([1.0, -2.0]), "positive"),
    (np.array([np.nan, 0.0]), np.ones(1), "finite"),
    (np.zeros(3), np.array([1.0, np.inf]), "finite"),
    (np.zeros(3), np.array([np.nan, 1.0]), "finite"),
])
def test_toda_lax_refuses_bad_shapes_and_signs(a, b, match):
    with pytest.raises(ValueError, match=match):
        TodaLax(a, b)


@pytest.mark.parametrize("w", [np.zeros((4, 3)), np.zeros(5), np.zeros((5, 3, 1))])
def test_pfaff_lax_refuses_a_window_of_the_wrong_shape(w):
    with pytest.raises(ValueError, match="5 rows"):
        PfaffLax(w, 2, 2)


@pytest.mark.parametrize("k_neg, k_pos, message", [
    (2.5, 1.5, "k_neg must be an integer, got 2.5"), (2, True, "k_pos must be an integer, got True"),
    (-1, 4, "k_neg must be non-negative, got -1"), (4, -1, "k_pos must be non-negative, got -1")])
def test_pfaff_lax_refuses_a_band_count_that_is_not_a_non_negative_integer(k_neg, k_pos, message):
    # (2.5, 1.5) built a window
    with pytest.raises(ValueError, match=message):
        PfaffLax(np.ones((5, 3)), k_neg, k_pos)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_pfaff_lax_refuses_entries_that_are_not_finite(value):
    # a NaN window gave NaN chain rates
    w = np.ones((5, 6))
    w[2, 3] = value
    with pytest.raises(ValueError, match="window entries must be finite"):
        PfaffLax(w, 2, 2)


def test_pfaff_lax_stores_numpy_band_counts_as_ints():
    lax = PfaffLax(np.ones((5, 3)), np.int64(2), np.int32(2))
    assert type(lax.k_neg) is int and type(lax.k_pos) is int
    assert lax.to_json() == PfaffLax(np.ones((5, 3)), 2, 2).to_json()


@pytest.mark.parametrize("call, message", [
    (lambda: nu_values(2.5), "count must be an integer, got 2.5"),
    (lambda: nu_values(-1), "count must be non-negative, got -1"),
    (lambda: nu_values(True), "count must be an integer, got True"),
    (lambda: sqrt_ratio_product(1.5, 2), "start must be an integer, got 1.5"),
    (lambda: sqrt_ratio_product(1, 2.5), "count must be an integer, got 2.5"),
    (lambda: hermite_map_coeffs(True), "n_pairs must be an integer, got True"),
    (lambda: hermite_map_coeffs(2.5), "n_pairs must be an integer, got 2.5")])
def test_closed_forms_refuse_sizes_by_name(call, message):
    # nu_values and sqrt_ratio_product raised numpy's or range's messages,
    # and hermite_map_coeffs(True) returned a one-pair basis
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda t, m, b: skew_moment_matrix(t, 4.0), "size must be an integer, got 4.0"),
    (lambda t, m, b: skew_moment_matrix(t, True), "size must be an integer, got True"),
    (lambda t, m, b: skew_orthonormal_basis(m, 2.5), "n_pairs must be an integer, got 2.5"),
    (lambda t, m, b: skew_orthonormal_basis(m, True), "n_pairs must be an integer, got True"),
    (lambda t, m, b: skew_orthonormal_basis(m, 0), "n_pairs must be at least 1, got 0"),
    (lambda t, m, b: skew_orthonormal_basis(m, -1), "n_pairs must be at least 1, got -1"),
    (lambda t, m, b: pfaff_lax_from_basis(b, 2.5, 2, 2), "n_sites must be an integer, got 2.5"),
    (lambda t, m, b: pfaff_lax_from_basis(b, 0, 2, 2), "n_sites must be at least 1, got 0"),
    (lambda t, m, b: pfaff_lax_from_basis(b, 2, 2.5, 2), "k_pos must be an integer, got 2.5"),
    (lambda t, m, b: pfaff_lax_from_basis(b, 2, 2, 2, check_tol=math.nan),
     "check_tol must be finite and positive, got nan"),
    (lambda t, m, b: pfaff_lax_from_basis(b, 2, 2, 2, check_tol=0.0),
     "check_tol must be finite and positive, got 0.0"),
    (lambda t, m, b: pfaff_lax_from_basis(b, 2, 2, 2, check_tol=math.inf),
     "check_tol must be finite and positive, got inf")])
def test_skew_route_refuses_sizes_by_name(t0, call, message):
    # these blamed max_degree, raised numpy's or a bare IndexError, or (n_sites=0)
    # returned an empty window; check_tol = nan passed every structure check
    m = skew_moment_matrix(t0, 16)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(t0, m, skew_orthonormal_basis(m, 8))


@pytest.mark.parametrize("h", [[1.0, 0.0], [1.0, -1.0]])
def test_skew_basis_refuses_pair_products_that_are_not_positive(t0, h):
    with pytest.raises(ValueError, match="positive"):
        SkewOrthoBasis(np.eye(4), np.array(h), gue_lax_init(4), t0)


def test_skew_gram_schmidt_refuses_a_reversed_gram(t0):
    # the skew Gram of the opposite orientation gives h_0 = -1
    F, log_h, a, b = _stieltjes_basis("orthogonal", 4, t0)
    with pytest.raises(SingularMinor, match=r"h_0 = -1\.000e\+00 is not finite and above"):
        _skew_gram_schmidt((-F, log_h, a, b), t0)


@pytest.mark.parametrize("scale, corner, message", [
    (1e-13, 1e-13, "h_0 = 1.000e-13 is not finite and above the floor 1e-12")])
def test_skew_gram_schmidt_names_the_floor_it_missed(t0, scale, corner, message):
    # a positive pair product at or below the floor read "is not positive";
    # the scaled Gaussian Gram has its last pair product at `corner`
    F, log_h, a, b = _stieltjes_basis("orthogonal", 4, t0)
    F = scale * F
    F[2, 3], F[3, 2] = corner, -corner
    with pytest.raises(SingularMinor, match=f"^pair product {re.escape(message)}$"):
        _skew_gram_schmidt((F, log_h, a, b), t0)


def test_skew_gram_schmidt_floor_ignores_the_largest_gram_entry(t0):
    # the floor scaled with max|F| and refused h_0 = 1 beside an entry 1e13,
    # as the Gaussian Gram from 224 pairs did
    F, log_h, a, b = _stieltjes_basis("orthogonal", 4, t0)
    F[2, 3], F[3, 2] = 1e13, -1e13
    h = _skew_gram_schmidt((F, log_h, a, b), t0).h
    assert h[0] == pytest.approx(1.0, rel=1e-15)
    assert h[1] == pytest.approx(1e13 * b[3], rel=1e-15)


def _unit_basis(t, coeffs, b_value=1.0):
    """Four pairs with coefficients `coeffs`, unit pair products and the
    Jacobi matrix of constant off-diagonal b_value."""
    return SkewOrthoBasis(coeffs, np.ones(4), TodaLax(np.zeros(8), np.full(7, b_value)), t)


def test_operator_with_weight_beyond_the_superdiagonal_is_refused(t0):
    # an upper-triangular coefficient moves row 0 of the operator to
    # columns 4 and 6; the unit basis itself passes
    pfaff_lax_from_basis(_unit_basis(t0, np.eye(8)), 2, 1, 1)
    coeffs = np.eye(8)
    coeffs[0, 5] = 1e-3
    with pytest.raises(StructureViolation, match="row 0 has weight beyond"):
        pfaff_lax_from_basis(_unit_basis(t0, coeffs), 2, 1, 1)


def test_operator_without_unit_superdiagonal_is_refused(t0):
    # with unit coefficients the operator is the Jacobi matrix: b = 2 puts 2
    # where the skew form has its unit entries
    with pytest.raises(StructureViolation, match="pair 1 reads 2.000000"):
        pfaff_lax_from_basis(_unit_basis(t0, np.eye(8), 2.0), 2, 1, 1)


def _shifted_diagonal(basis, shift):
    """The basis with its Jacobi diagonal moved by `shift`, which adds
    shift times the identity to the operator read off it."""
    jacobi = dataclasses.replace(basis.jacobi, a=basis.jacobi.a + shift)
    return dataclasses.replace(basis, jacobi=jacobi)


@pytest.mark.parametrize("mapping", [{}, {4: -0.05}])
def test_parity_check_runs_for_even_weights(mapping):
    # an even weight forbids same-parity entries such as the diagonal, so a
    # shifted diagonal must be refused; the unshifted operator passes
    basis = _skew_basis(CouplingVector.from_mapping(mapping), 10)
    pfaff_lax_from_basis(basis, 4, 3, 3)
    with pytest.raises(StructureViolation, match="parity-forbidden"):
        pfaff_lax_from_basis(_shifted_diagonal(basis, 1e-3), 4, 3, 3)


def test_parity_check_skips_odd_weights():
    # an odd coupling lets the operator connect same-parity modes; the
    # shifted diagonal is not read into the window
    basis = _skew_basis(CouplingVector.from_mapping({1: 0.05}), 10)
    window = pfaff_lax_from_basis(basis, 4, 3, 3)
    shifted = pfaff_lax_from_basis(_shifted_diagonal(basis, 1e-3), 4, 3, 3)
    assert np.max(np.abs(shifted.w - window.w)) < 1e-12


def test_entries_from_tau_ratios(t0):
    entries = pfaff_entries_from_tau(t0, 3)
    for n in (1, 2, 3):
        c = c_coeff(n)
        assert abs(entries[(0, n)] - 0.5 * c) < 1e-8
        assert abs(entries[(-1, n)] - 0.5) < 1e-6
        assert abs(entries[(1, n)] - 2.0 * sqrt_ratio_product(n, 1)) < 1e-6


@pytest.mark.parametrize("n_pairs,bound", [(5, 1e-6), (12, 1e-12)])
def test_tau_cross_from_exact_jets(n_pairs, bound):
    report = verify_tau_cross(n_pairs)
    assert report.passed
    assert report.residual_abs <= bound
