import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as ref
from taulattice import (CouplingVector, build_quadrature, couplings,
                        log_tau, moments, skew_moment_matrix,
                        tau_coupling_derivative, tau_orthogonal, tau_unitary)
from taulattice.errors import IllConditioned
from taulattice.lax import pfaff_entries_from_tau, toda_lax_from_quadrature

SQRT_PI = math.sqrt(math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)


class TestSymmetricMoments:
    def test_gaussian_values(self, t0):
        grid = build_quadrature(t0, max_degree=24)
        mu = np.array([grid.weights @ (grid.nodes**k * grid.rho) for k in range(25)])
        # mu_{2k} = (2k-1)!! sqrt(2 pi); odd moments vanish
        assert abs(mu[0] - SQRT_2PI) < 1e-12 * SQRT_2PI
        assert abs(mu[2] - SQRT_2PI) < 1e-12 * SQRT_2PI
        assert abs(mu[4] - 3.0 * SQRT_2PI) < 1e-11 * SQRT_2PI
        assert abs(mu[6] - 15.0 * SQRT_2PI) < 1e-10 * SQRT_2PI
        # symmetric grid: odd moments cancel to roundoff of the even neighbours
        assert np.max(np.abs(mu[1:9:2])) < 1e-10
        assert np.all(np.abs(mu[1::2]) <= 1e-14 * mu[2::2])


class TestTauUnitary:
    def test_closed_forms_at_zero(self, t0):
        # tau_n = (2 pi)^{n/2} prod_{j<n} j!
        expect = {1: SQRT_2PI, 2: 2.0 * math.pi,
                  3: 2.0 * (2.0 * math.pi) ** 1.5,
                  4: 12.0 * (2.0 * math.pi) ** 2}
        for n, val in expect.items():
            assert abs(tau_unitary(t0, n) - val) < 1e-10 * val

    def test_tau_zero_is_one(self, t0):
        assert tau_unitary(t0, 0) == 1.0

    def test_quadratic_coupling_scaling(self, t0):
        # rho = exp(-(1-2 t2) z^2/2): tau_n picks up (1-2 t2)^{-n^2/2}
        t = CouplingVector.from_mapping({2: -0.15})
        s = 1.3
        for n in (1, 2, 3):
            expect = tau_unitary(t0, n) * s ** (-n * n / 2.0)
            assert abs(tau_unitary(t, n) - expect) < 1e-10 * expect


class TestSkewMoments:
    def test_gaussian_block_values(self, t0):
        m = skew_moment_matrix(t0, 4).m
        expect = {(0, 1): SQRT_PI, (0, 3): 2.5 * SQRT_PI,
                  (1, 2): -0.5 * SQRT_PI, (2, 3): 1.75 * SQRT_PI,
                  (0, 2): 0.0, (1, 3): 0.0}
        for (i, j), val in expect.items():
            assert abs(m[i, j] - val) < 2e-12, (i, j)
        assert np.max(np.abs(m + m.T)) == 0.0

    def test_size_must_be_even(self, t0):
        with pytest.raises(ValueError):
            skew_moment_matrix(t0, 5)

    def test_matches_per_row_kernel(self):
        # the skew Gram's view against skew products of monomials at the
        # nodes of the grid that route read at size 12
        t = CouplingVector.from_mapping({1: 0.2, 4: -0.05})
        m = skew_moment_matrix(t, 12).m
        grid = build_quadrature(t, max_degree=14)
        expect = ref.skew_moment_rows(t, 12, grid)
        assert np.abs(m - expect).max() <= 1e-14 * np.abs(expect).max()

    def test_gaussian_moments_match_the_closed_form(self, t0):
        # the monomial route at the nodes read 3.3e-15 at size 8 and 1.6e-14
        # at 40; the skew Gram's view reads at most 1.3e-15 (size 34), most
        # of it the rounding of F and the recurrence, not of X F X^T
        exact = ref.gaussian_skew_moments(40)
        for size in range(8, 41, 2):
            m, want = skew_moment_matrix(t0, size).m, exact[:size, :size]
            assert np.abs(m - want).max() <= 2e-15 * np.abs(want).max(), size

    def test_size_past_the_double_range_is_refused(self):
        # the moments of degree near 600 pass 1e308; numpy's overflow
        # warning escaped and the record refused an inf it did not explain
        t = CouplingVector.from_mapping({4: -0.05})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(skew_moment_matrix(t, 240).m).all()
            with pytest.raises(ValueError, match="skew moments of size 300 pass the double range"):
                skew_moment_matrix(t, 300)


def pf(A):
    """sign * prod(pivots) of `moments._pfaffian_pivots`, the one elimination:
    the Pfaffian of A, eliminated in a copy."""
    sign, pivots = moments._pfaffian_pivots(np.array(A, dtype=float))
    return sign * float(np.prod(pivots))


class TestPfaffian:
    def test_canonical_block(self):
        J = np.zeros((6, 6))
        for i in range(3):
            J[2 * i, 2 * i + 1] = 1.0
            J[2 * i + 1, 2 * i] = -1.0
        assert abs(pf(J) - 1.0) < 1e-14

    def test_squares_to_determinant(self, rng):
        for dim in (2, 4, 6, 8):
            A = rng.standard_normal((dim, dim))
            S = A - A.T
            det = np.linalg.det(S)
            assert abs(pf(S) ** 2 - det) < 1e-9 * max(abs(det), 1.0)

    def test_empty_matrix_is_one(self):
        # tau_0 = 1: the empty skew Gram takes no elimination
        assert moments._log_tau_of_basis(np.zeros((0, 0)), np.zeros(0)) == (1.0, 0.0)

    @pytest.mark.parametrize("shape", [(2, 3), (4,)])
    def test_skew_moment_matrix_that_is_not_square_rejected(self, t0, shape):
        with pytest.raises(ValueError, match="skew moment matrix must be square"):
            moments.SkewMomentMatrix(np.zeros(shape), t0)

    def test_non_finite_rejected(self):
        # a NaN or infinite pivot is refused by the route log_tau reads
        nan_pair = np.zeros((4, 4))
        nan_pair[0, 1] = nan_pair[1, 0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for A in (nan_pair, np.array([[0.0, np.inf], [-np.inf, 0.0]])):
                with pytest.raises(IllConditioned, match="zero or non-finite pivot"):
                    moments._log_tau_of_basis(A, np.zeros(len(A)))

    def test_singular_matrix(self):
        S = np.zeros((4, 4))
        S[0, 1], S[1, 0] = 1.0, -1.0
        assert pf(S) == 0.0

    def test_product_in_range_is_kept_exact(self):
        # in-range pivots multiply as they are (pf of 2 * the canonical block
        # is 8.0, not 7.999999999999998); pivots whose partial product
        # underflows (1e-320) sum in logs without a warning
        assert pf(np.kron(np.eye(3), [[0.0, 2.0], [-2.0, 0.0]])) == 8.0
        A = np.kron(np.diag([1e-160, 1e-160, 1e200]), [[0.0, 1.0], [-1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sign, log_abs = moments._log_tau_of_basis(A, np.zeros(6))
        assert sign == 1.0 and abs(log_abs / math.log(1e-120) - 1.0) < 1e-13

    @pytest.mark.parametrize("entry, log_abs", [(1e40, "921.034"), (1e-40, "-921.034")])
    def test_product_past_the_double_range_is_refused(self, entry, log_abs):
        # pf = 1e400 and pf = 1e-400 have no double: log tau reads them, tau
        # refuses them
        A = np.kron(np.eye(10), [[0.0, entry], [-entry, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sign, got = moments._log_tau_of_basis(A.copy(), np.zeros(20))
            assert sign == 1.0 and f"{got:.6g}" == log_abs
            with pytest.raises(IllConditioned, match=f"orthogonal tau_20 has sign \\+1 and "
                                                     f"log\\|tau\\| = {log_abs}: no positive"):
                moments._tau_value("orthogonal", 20, sign, got)
        assert abs(pf(A[:14, :14]) / entry ** 7 - 1.0) < 1e-13


class TestTauOrthogonal:
    def test_closed_forms_at_zero(self, t0):
        assert abs(tau_orthogonal(t0, 2) - SQRT_PI) < 1e-12
        assert abs(tau_orthogonal(t0, 4) - math.pi / 2.0) < 1e-12
        assert abs(tau_orthogonal(t0, 6) - 0.75 * math.pi ** 1.5) < 1e-11

    def test_quadratic_coupling_scaling(self):
        # two_n = 2: tau scales as (1-2 t2)^{-3/2}
        t = CouplingVector.from_mapping({2: -0.2})
        expect = SQRT_PI * 1.4 ** -1.5
        assert abs(tau_orthogonal(t, 2) - expect) < 1e-11 * expect

    def test_odd_size_rejected(self, t0):
        with pytest.raises(ValueError):
            tau_orthogonal(t0, 3)


class TestCouplingDerivatives:
    def test_first_order_translation_vanishes(self, t0):
        for n in (1, 2, 3):
            d = tau_coupling_derivative("unitary", n, t0, {1: 1})
            assert abs(d) < 1e-9 * tau_unitary(t0, n)

    def test_second_t1_derivative_unitary(self, t0):
        # d^2/dt1^2 tau_n = n tau_n at zero couplings
        for n in (1, 2, 3):
            tau_n = tau_unitary(t0, n)
            d = tau_coupling_derivative("unitary", n, t0, {1: 2})
            assert abs(d - n * tau_n) < 1e-7 * tau_n

    def test_second_t1_derivative_orthogonal(self, t0):
        d = tau_coupling_derivative("orthogonal", 2, t0, {1: 2})
        assert abs(d - 2.0 * SQRT_PI) < 1e-7

    def test_t2_derivative_orthogonal(self, t0):
        # tau_2(t2) = sqrt(pi) (1-2 t2)^{-3/2}: slope 3 sqrt(pi) at zero
        d = tau_coupling_derivative("orthogonal", 2, t0, {2: 1})
        assert abs(d - 3.0 * SQRT_PI) < 1e-8

    def test_order_cap(self, t0):
        with pytest.raises(ValueError):
            tau_coupling_derivative("unitary", 2, t0, {1: 3, 2: 2})

    def test_unknown_ensemble(self, t0):
        with pytest.raises(ValueError):
            tau_coupling_derivative("symplectic", 2, t0, {1: 1})

    @pytest.mark.parametrize("multi_index", [{-2: 1}, {0: 1}, {1.5: 1}, {1: 1.7}, {1: -1},
                                             {True: 1}, {1: True}])
    def test_bad_index_or_order_rejected(self, t0, multi_index):
        # {-2: 1} read J^-2 through matrix_power; 1.7 and 1.5 were truncated
        with pytest.raises(ValueError, match="multi_index"):
            tau_coupling_derivative("orthogonal", 2, t0, multi_index)

    @pytest.mark.parametrize("mapping", [{1: 0.05, 4: -0.03}, {2: 0.1, 3: 0.02, 4: -0.05}])
    @pytest.mark.parametrize("ensemble,n", [("unitary", 1), ("unitary", 2), ("unitary", 3),
                                            ("orthogonal", 2), ("orthogonal", 4)])
    def test_jets_against_finite_differences(self, mapping, ensemble, n):
        # off the Gaussian family: the finite-difference reference at step
        # 5e-3 is good to about 1e-8 in these directions and orders
        t = CouplingVector.from_mapping(mapping)
        tau = math.exp(log_tau(ensemble, n, t)[1])
        for orders in ({1: 1}, {1: 2}, {2: 1}, {3: 1}, {1: 1, 2: 1}, {1: 2, 2: 1}, {2: 2}):
            fd = ref.tau_derivative_fd(ensemble, n, t, orders)
            jet = tau_coupling_derivative(ensemble, n, t, orders)
            assert abs(jet - fd) <= 1e-7 * max(abs(fd), tau), orders


def _gaussian_log_tau_coefficient(ensemble, n, t1, t2, g):
    """Taylor coefficient of s1^g[0] s2^g[1] in log tau_n(t1 + s1, t2 + s2)
    - log tau_n(t1, t2) on the Gaussian family, where log tau_n = const +
    n t1^2 / (2 alpha) - e_n log alpha with alpha = 1 - 2 t2, e_n = n^2/2
    (unitary) or n(n+1)/4 (orthogonal)."""
    j, k = g
    alpha = 1.0 - 2.0 * t2
    square = {0: t1 * t1, 1: 2.0 * t1, 2: 1.0}.get(j, 0.0)   # of (t1 + s1)^2
    coeff = 0.5 * n * square * 2.0 ** k / alpha ** (k + 1)
    if j == 0 and k > 0:
        e_n = n * n / 2.0 if ensemble == "unitary" else n * (n + 1) / 4.0
        coeff += e_n * 2.0 ** k / (k * alpha ** k)
    return coeff if j or k else 0.0


@given(st.sampled_from(["unitary", "orthogonal"]), st.integers(1, 24),
       st.floats(-0.2, 0.2), st.floats(-0.2, 0.2))
@settings(max_examples=40, deadline=None)
def test_jets_meet_the_gaussian_closed_form(ensemble, size, t1, t2):
    # every (t1, t2) derivative of log tau through total order 4, each
    # order's derivatives relative to the largest of them (several vanish)
    n = size + size % 2 if ensemble == "orthogonal" else size
    t = CouplingVector.from_mapping({1: t1, 2: t2})
    tops = ((4, 0), (3, 1), (2, 2), (1, 3), (0, 4))
    sign, log_abs, jet = moments._log_tau_jets(ensemble, (n,), t, (1, 2), tops)[n]
    assert sign == 1.0
    assert abs(log_abs - log_tau(ensemble, n, t)[1]) <= 1e-12 * max(abs(log_abs), 1.0)
    for order in range(1, 5):
        got, want = [], []
        for g in (g for g in jet if sum(g) == order):
            factorial = math.factorial(g[0]) * math.factorial(g[1])
            got.append(factorial * jet[g])
            want.append(factorial * _gaussian_log_tau_coefficient(ensemble, n, t1, t2, g))
        gap = np.max(np.abs(np.subtract(got, want)))
        assert gap <= 1e-10 * max(np.max(np.abs(want)), 1.0), (order, gap)


def test_jet_sizes_share_one_basis(t0, monkeypatch, fresh_grids):
    calls = []
    build = moments._stieltjes_basis

    def counted(ensemble, n, *args, **kwargs):
        calls.append(n)
        return build(ensemble, n, *args, **kwargs)

    monkeypatch.setattr(moments, "_stieltjes_basis", counted)
    jets = moments._log_tau_jets("orthogonal", (0, 2, 4, 6), t0, (1, 2), ((2, 0), (0, 1)))
    # highest power J^2: the orthogonal basis reaches 6 + 2 + 2
    assert calls == [10]
    assert jets[0] == (1.0, 0.0, dict.fromkeys([(0, 0), (0, 1), (1, 0), (2, 0)], 0.0))
    for size in (2, 4, 6):
        assert abs(jets[size][1] - log_tau("orthogonal", size, t0)[1]) < 1e-12
        # d log tau_n / dt2 = 2 e_n = n (n + 1) / 2 at zero couplings
        assert abs(jets[size][2][0, 1] - size * (size + 1) / 2.0) < 1e-12 * size ** 2


class TestLogTau:
    @pytest.mark.parametrize("t2", [-0.15, 0.0, 0.15])
    def test_closed_forms_to_size_40(self, t2):
        t = CouplingVector.from_mapping({2: t2})
        for ensemble, sizes in (("unitary", range(1, 41)),
                                ("orthogonal", range(2, 41, 2))):
            for n in sizes:
                sign, log_abs = log_tau(ensemble, n, t)
                expect = ref.log_tau_closed_form(ensemble, n, t2)
                assert sign == 1.0 and abs(log_abs - expect) < 1e-10, (ensemble, n)

    def test_quartic_against_60_digit_hankel(self):
        pytest.importorskip("mpmath")
        t = CouplingVector.from_mapping({2: 0.1, 4: -0.05})
        for n in (10, 20, 30, 40):
            expect = float(ref.log_tau_quartic_mp(n, 0.1, -0.05))
            assert abs(log_tau("unitary", n, t)[1] - expect) < 1e-10, n

    @pytest.mark.parametrize("mapping", [{4: -0.05}, {1: 0.2, 3: 0.05, 4: -0.1}])
    def test_small_sizes_match_monomial_routes(self, mapping):
        t = CouplingVector.from_mapping(mapping)
        for n in range(1, 13):
            expect = ref.log_tau_unitary_monomial(t, n)
            assert abs(log_tau("unitary", n, t)[1] - expect) < 1e-10, n
        for size in range(2, 13, 2):
            expect = ref.log_tau_orthogonal_monomial(t, size)
            assert abs(log_tau("orthogonal", size, t)[1] - expect) < 1e-10, size

    def test_tau_values_are_exp_of_log_tau(self):
        t = CouplingVector.from_mapping({2: 0.1, 4: -0.05})
        assert tau_unitary(t, 7) == math.exp(log_tau("unitary", 7, t)[1])
        assert tau_orthogonal(t, 8) == math.exp(log_tau("orthogonal", 8, t)[1])
        assert log_tau("orthogonal", 0, t) == (1.0, 0.0)

    def test_size_validation(self, t0):
        with pytest.raises(ValueError):
            log_tau("orthogonal", 5, t0)
        with pytest.raises(ValueError):
            log_tau("unitary", -1, t0)
        with pytest.raises(ValueError):
            log_tau("symplectic", 2, t0)


class TestTauReach:
    def test_unitary_beyond_the_moment_table_cap(self, t0):
        # a Hankel route would need moments through degree 48
        expect = ref.log_tau_closed_form("unitary", 25, 0.0)
        assert abs(math.log(tau_unitary(t0, 25)) - expect) < 1e-10

    @pytest.mark.parametrize("n", [60, 80])
    def test_unitary_past_degree_240(self, n):
        # grid degree 4n >= 240, where the plain moment z^deg rho overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t2 in (-0.15, 0.0, 0.15):
                t = CouplingVector.from_mapping({2: t2})
                expect = ref.log_tau_closed_form("unitary", n, t2)
                assert abs(log_tau("unitary", n, t)[1] - expect) < 1e-10, t2

    @pytest.mark.parametrize("mapping", [{2: -0.15}, {}, {2: 0.15}, {4: -0.05},
                                         {1: 0.05, 3: 0.01, 4: -0.03},
                                         {2: 0.1, 4: -0.03, 6: -0.002}])
    def test_scaled_companion_moment_keeps_the_grid(self, mapping):
        t = CouplingVector.from_mapping(mapping)
        for deg in range(201):
            grid = build_quadrature(t, max_degree=deg)
            assert grid.panels == ref.plain_moment_panels(grid, deg), deg

    @pytest.mark.parametrize("mapping", [{}, {2: -0.15}, {2: 0.15}, {4: -0.05}])
    def test_grids_unchanged_through_size_64(self, mapping):
        # the panel floor leaves every grid it did not need to refine as
        # panel doubling built it
        t = CouplingVector.from_mapping(mapping)
        for ensemble, degree in (("orthogonal", 2), ("unitary", 4)):
            for size in range(2, 65, 2):
                grid = moments._tau_grid(ensemble, size, t)
                plain = build_quadrature(t, max_degree=degree * size)
                assert (grid.panels, grid.radius) == (plain.panels, plain.radius), size
                assert np.array_equal(grid.nodes, plain.nodes), size

    @pytest.mark.parametrize("t2", [-0.1, 0.0, 0.1])
    def test_sizes_70_to_140(self, t2):
        # 16 panels lose 2.4e-9 in log at orthogonal size 80, 5.5e-2 at
        # 140, and 1.6e-7 at unitary size 100
        t = CouplingVector.from_mapping({2: t2})
        for ensemble in ("orthogonal", "unitary"):
            for size in range(70, 141, 2):
                grid = moments._tau_grid(ensemble, size, t)
                assert grid.panels >= size / 4, size
                expect = ref.log_tau_closed_form(ensemble, size, t2)
                assert abs(log_tau(ensemble, size, t)[1] - expect) <= 1e-10, (ensemble, size)

    def test_orthogonal_size_32_positive(self, t0):
        value = tau_orthogonal(t0, 32)
        expect = ref.log_tau_closed_form("orthogonal", 32, 0.0)
        assert value > 0.0 and abs(math.log(value) - expect) < 1e-10

    def test_stieltjes_breakdown_raises(self):
        # one node carries only the constant polynomial: beta_1 = 0
        nodes, measure = np.array([0.0]), np.array([1.0])
        assert moments._stieltjes(nodes, measure, 1)[1].tolist() == [0.0]
        with pytest.raises(IllConditioned, match="broke down at degree 1"):
            moments._stieltjes(nodes, measure, 2)

    def test_overflowing_weight_raises(self):
        # rho peaks at e^450 near z = 30, so the orthogonal measure rho^2
        # overflows
        with pytest.raises(IllConditioned, match="broke down at degree 0"):
            log_tau("orthogonal", 2, CouplingVector.from_mapping({1: 30}))

    def test_weight_past_the_double_range_raises(self):
        # rho peaks at e^722 near z = 38, past the double range: the grid
        # build refuses it, where it raised ToleranceUnreachable
        with pytest.raises(IllConditioned, match="overflows the double range"):
            log_tau("unitary", 2, CouplingVector.from_mapping({1: 38}))

    @pytest.mark.parametrize("n, bound", [(280, 1e-10), (300, 1e-10), (340, 1e-7)])
    def test_unitary_past_the_companion_underflow(self, t0, n, bound):
        # unshifted, the companion moment read the subnormal 5.5e-316 at
        # degree 1120, whose relative change never fell below 1e-12, and
        # exactly 0 from degree 1200, where rho itself underflows under it.
        # log tau_340 is 2.5e5, read to 9e-14 relatively
        expect = ref.log_tau_closed_form("unitary", n, 0.0)
        assert abs(log_tau("unitary", n, t0)[1] - expect) < bound

    @pytest.mark.parametrize("mapping", [{}, {2: 0.1}, {2: -0.1}, {4: -0.05}])
    def test_companion_moment_stays_normal(self, mapping):
        t = CouplingVector.from_mapping(mapping)
        for deg in (2, 240, 600, 1000, 1120, 1200, 1416, 1500, 1600, 1800, 2000, 2048):
            radius = couplings._radius_for(t, deg)
            *_, start, shift = couplings._convergence_values(t, radius, 8, deg, None)
            doubled = couplings._convergence_values(t, radius, 16, deg, shift)[3]
            for value in (start[1], doubled[1]):
                assert sys.float_info.min <= value < math.inf, deg

    @pytest.mark.parametrize("size, degree", [(600, 530), (800, 459)])
    def test_orthogonal_stieltjes_overflow_is_typed(self, t0, size, degree):
        # past the grid's reach q_k overflows at nodes where rho^2 has
        # underflowed; no numpy warning escapes, and the error names the
        # overflow and its degree
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IllConditioned,
                               match=f"overflowed at degree {degree}"):
                log_tau("orthogonal", size, t0)

    def test_zero_pfaffian_pivot_raises(self, t0, monkeypatch, fresh_grids):
        monkeypatch.setattr(moments, "_skew_products",
                            lambda grid, rows, rho: np.zeros((len(rows), len(rows))))
        with pytest.raises(IllConditioned):
            log_tau("orthogonal", 4, t0)

    def test_negative_tau_raises(self, t0, monkeypatch, fresh_grids):
        # a skew Gram with pf = -1: log_tau reports the sign, tau refuses it
        F = np.zeros((4, 4))
        F[0, 1], F[2, 3] = 1.0, -1.0
        monkeypatch.setattr(moments, "_skew_products", lambda grid, rows, rho: F - F.T)
        assert log_tau("orthogonal", 4, t0)[0] == -1.0
        with pytest.raises(IllConditioned):
            tau_orthogonal(t0, 4)


def test_tau_unitary_ill_conditioned_raises():
    # log tau_30 is about 1071 at t2 = 0.15: no double holds tau itself
    t = CouplingVector.from_mapping({2: 0.15})
    expect = ref.log_tau_closed_form("unitary", 30, 0.15)
    assert abs(log_tau("unitary", 30, t)[1] - expect) < 1e-10
    with pytest.raises(IllConditioned):
        tau_unitary(t, 30)
    with pytest.raises(IllConditioned):
        tau_coupling_derivative("unitary", 30, t, {2: 1})


@pytest.mark.parametrize("size", [2.5, 2.0, True])
@pytest.mark.parametrize("call, name", [
    (lambda t, n: log_tau("unitary", n, t), "n"),
    (lambda t, n: log_tau("orthogonal", n, t), "n"),
    (lambda t, n: tau_unitary(t, n), "n"),
    (lambda t, n: tau_orthogonal(t, n), "two_n"),
    (lambda t, n: tau_coupling_derivative("unitary", n, t, {1: 1}), "n"),
    (lambda t, n: tau_coupling_derivative("orthogonal", n, t, {2: 1}), "n"),
    (lambda t, n: toda_lax_from_quadrature(t, n), "n_sites"),
    (lambda t, n: pfaff_entries_from_tau(t, n), "n_pairs"),
], ids=["log_tau-unitary", "log_tau-orthogonal", "tau_unitary", "tau_orthogonal",
        "derivative-unitary", "derivative-orthogonal", "toda_lax", "pfaff_entries"])
def test_size_that_is_not_an_integer_is_refused_by_name(t0, call, name, size):
    # 2.5 blamed max_degree, which no caller passed; True raised a bare TypeError
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(t0, size)
