import json
import math

import numpy as np
import pytest

import reference_kernels as ref
from taulattice import CouplingVector, build_quadrature
from taulattice.couplings import (_cumulative_matrix, _gauss_legendre,
                                  cumulative_integral, weight_eval)
from taulattice.errors import NonIntegrableWeight

SQRT_2PI = math.sqrt(2.0 * math.pi)


def test_zero_entries_dropped_and_equal():
    a = CouplingVector.from_mapping({2: 0.0, 4: -0.1})
    b = CouplingVector.from_mapping({4: -0.1})
    assert a == b
    assert hash(a) == hash(b)
    assert a.as_dict() == {4: -0.1}


def test_json_round_trip():
    t = CouplingVector.from_mapping({1: 0.2, 3: -0.05})
    back = CouplingVector.from_json(t.to_json())
    assert back == t
    parsed = json.loads(t.to_json())
    assert parsed == {"t": {"1": 0.2, "3": -0.05}}


def test_bad_indices_rejected():
    with pytest.raises(ValueError):
        CouplingVector.from_mapping({0: 1.0})
    with pytest.raises(ValueError):
        CouplingVector(((2, 0.1), (2, 0.2)))


@pytest.mark.parametrize("mapping, even", [
    ({}, True), ({2: 0.1}, True), ({4: -0.03, 6: -0.002}, True), ({3: 0.1}, False)])
def test_parity_read_off_entries(mapping, even):
    t = CouplingVector.from_mapping(mapping)
    assert t.parity_even_only is even
    # an odd shift breaks an even weight; cancelling it restores the parity
    assert t.shifted({1: 0.1}).parity_even_only is False
    assert t.shifted({1: 0.1}).shifted({1: -0.1}).parity_even_only is even
    assert CouplingVector.from_json(t.to_json()).parity_even_only is even


def test_integrable_classification():
    ok = [{}, {2: 0.4}, {2: -3.0}, {4: -0.01}, {3: 0.2}, {6: -1.0, 5: 2.0}]
    bad = [{2: 0.5}, {2: 0.7}, {4: 0.01}, {5: 0.1}, {6: 1e-8}]
    for m in ok:
        assert CouplingVector.from_mapping(m).integrable, m
    for m in bad:
        assert not CouplingVector.from_mapping(m).integrable, m


def test_exponent_and_shift():
    t = CouplingVector.from_mapping({1: 0.3, 2: -0.1})
    z = np.array([-1.0, 0.0, 2.0])
    expect = -0.5 * z**2 + 0.3 * z - 0.1 * z**2
    assert np.allclose(t.exponent(z), expect, atol=0, rtol=1e-15)
    shifted = t.shifted({1: -0.3})
    assert shifted.as_dict() == {2: -0.1}


def test_quadrature_gaussian_mass(t0):
    grid = build_quadrature(t0, 1e-12)
    mass = grid.integrate_weighted(np.ones_like(grid.nodes))
    assert abs(mass - SQRT_2PI) < 1e-12 * SQRT_2PI


def test_quadrature_high_moment(t0):
    # degree-12 Gaussian moment is 11!! = 10395 times the mass
    grid = build_quadrature(t0, 1e-12, max_degree=12)
    m12 = grid.integrate_weighted(grid.nodes**12)
    assert abs(m12 / SQRT_2PI - 10395.0) < 1e-9 * 10395.0


def test_quadrature_rejects_divergent_weight():
    with pytest.raises(NonIntegrableWeight):
        build_quadrature(CouplingVector.from_mapping({4: 0.1}))


def test_widen_grid_preserves_values(t0):
    grid = build_quadrature(t0, 1e-12, max_degree=8)
    wide = ref.widen_grid(grid, 1e-20, 8)
    assert wide.radius > grid.radius
    a = grid.integrate_weighted(grid.nodes**8)
    b = wide.integrate_weighted(wide.nodes**8)
    assert abs(a - b) < 1e-11 * abs(a)


def test_cumulative_integral_matches_error_function(t0):
    grid = build_quadrature(t0, 1e-12)
    f = weight_eval(grid.nodes, t0)
    cum, total = cumulative_integral(grid, f)
    assert abs(total - SQRT_2PI) < 1e-12 * SQRT_2PI
    for i in (len(cum) // 3, len(cum) // 2, 4 * len(cum) // 5):
        x = grid.nodes[i]
        exact = SQRT_2PI * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
        assert abs(cum[i] - exact) < 1e-10 * SQRT_2PI
    assert np.all(np.diff(cum) >= -1e-13)


def test_cumulative_integral_on_a_stack_of_rows():
    t = CouplingVector.from_mapping({2: 0.1, 4: -0.05})
    grid = build_quadrature(t, 1e-12, max_degree=20)
    rows = grid.nodes[None, :] ** np.arange(12)[:, None] * grid.rho
    cum, totals = cumulative_integral(grid, rows)
    assert cum.shape == rows.shape and totals.shape == (12,)
    for row, c, total in zip(rows, cum, totals):
        one_cum, one_total = cumulative_integral(grid, row)
        assert np.array_equal(c, one_cum) and total == one_total


@pytest.mark.parametrize("p", [8, 16, 24, 32, 48])
def test_gauss_legendre_against_mpmath(p):
    mpmath = pytest.importorskip("mpmath")
    x, w = _gauss_legendre(p)
    ref_x, ref_w = ref.gauss_legendre_mp(p)
    node_gap = max(abs(mpmath.mpf(float(a)) - b) for a, b in zip(x, ref_x))
    weight_gap = max(abs(mpmath.mpf(float(a)) / b - 1) for a, b in zip(w, ref_w))
    assert node_gap <= 2e-16
    assert weight_gap <= 5e-14


def test_gauss_legendre_cached_symmetric_read_only():
    x, w = _gauss_legendre(7)
    assert _gauss_legendre(7)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    assert np.array_equal(x, -x[::-1]) and x[3] == 0.0
    assert np.array_equal(w, w[::-1])
    assert np.all(np.diff(x) > 0)
    assert _gauss_legendre(1)[0].tolist() == [0.0] and _gauss_legendre(1)[1].tolist() == [2.0]
    with pytest.raises(ValueError):
        _gauss_legendre(0)


def test_cumulative_matrix_exact_on_monomials():
    p = 24
    xi, _ = _gauss_legendre(p)
    M = _cumulative_matrix(p)
    for k in range(p):
        exact = (xi ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        assert np.max(np.abs(M @ xi**k - exact)) <= 1e-14, k
