import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_kernels as ref
from taulattice import CouplingVector, build_quadrature, couplings, log_tau
from taulattice.couplings import (_cumulative_matrix, _gauss_legendre, _radius_for,
                                  cumulative_integral, weight_eval)
from taulattice.errors import IllConditioned, NonIntegrableWeight, ToleranceUnreachable

SQRT_2PI = math.sqrt(2.0 * math.pi)


def test_zero_entries_dropped_and_equal():
    a = CouplingVector.from_mapping({2: 0.0, 4: -0.1})
    b = CouplingVector.from_mapping({4: -0.1})
    assert a == b
    assert hash(a) == hash(b)
    assert a.as_dict() == {4: -0.1}


def _text(t: CouplingVector) -> str:
    # couplings as the --couplings flag and a config's "couplings" spell them
    return json.dumps({"t": {str(k): v for k, v in t.as_dict().items()}})


def _read(text: str) -> CouplingVector:
    # the CLI's one reader of couplings text
    return CouplingVector.from_object(json.loads(text))


def test_json_round_trip():
    t = CouplingVector.from_mapping({1: 0.2, 3: -0.05})
    back = _read(_text(t))
    assert back == t
    parsed = json.loads(_text(t))
    assert parsed == {"t": {"1": 0.2, "3": -0.05}}


def test_bad_indices_rejected():
    with pytest.raises(ValueError):
        CouplingVector.from_mapping({0: 1.0})
    with pytest.raises(ValueError):
        CouplingVector(((2, 0.1), (2, 0.2)))


@pytest.mark.parametrize("text", ['{"2": 0.1, "4": -0.05}', '{"t": {"2": 0.1, "4": -0.05}}'])
def test_from_json_reads_a_bare_object_or_one_under_t(text):
    # a bare object was read as no couplings at all
    assert _read(text).as_dict() == {2: 0.1, 4: -0.05}


@pytest.mark.parametrize("text", ['[1]', '3', 'null', '"2"', '{"t": [1]}', '{"t": 3}',
                                  '{"2": "0.1"}', '{"2": true}', '{"t": {"2": null}}',
                                  '{"2.5": 0.1}', '{"two": 0.1}', '{"0": 0.1}',
                                  '{"2": NaN}', '{"t": {"4": -Infinity}}', 'not json'])
def test_from_json_refuses_what_is_not_an_object_of_numbers(text):
    # '[1]', '3' and '{"t": [1]}' raised AttributeError, '{"2": true}' read t_2 = 1
    with pytest.raises(ValueError):
        _read(text)


@pytest.mark.parametrize("index", [2.5, 2.0, True, np.float64(2.0), "2", -1, 0])
def test_coupling_index_must_be_a_positive_integer(index):
    # 2.5 was read as 2 and True as 1
    with pytest.raises(ValueError, match="^coupling index must be (an integer|at least 1), got "):
        CouplingVector.from_mapping({index: 0.1})
    with pytest.raises(ValueError, match="coupling index"):
        CouplingVector(((index, 0.1),))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("index, value", [(2, math.nan), (2, math.inf), (4, -math.inf),
                                          (1, np.float64(np.nan))])
def test_coupling_value_must_be_finite(index, value):
    # {2: inf} surfaced as a "divergent tail", {4: -inf} after RuntimeWarnings
    with pytest.raises(ValueError, match=f"coupling t_{index} must be finite"):
        CouplingVector.from_mapping({index: value})


@pytest.mark.parametrize("value", ["0.1", b"0.1", True, False, np.bool_(True)])
def test_coupling_value_must_be_a_number(value):
    # "0.1" was read as 0.1 and True as 1.0
    with pytest.raises(ValueError, match="coupling t_2 must be finite and not a bool"):
        CouplingVector.from_mapping({2: value})


def test_numpy_indices_and_values_are_taken():
    t = CouplingVector.from_mapping({np.int64(2): np.float64(0.1), np.int32(4): -0.05})
    assert t == CouplingVector.from_mapping({2: 0.1, 4: -0.05})
    assert all(type(k) is int and type(v) is float for k, v in t.entries)
    shifted = CouplingVector.from_mapping({np.int64(2): t.get(2) + 0.1, 4: t.get(4)})
    assert shifted.as_dict() == {2: 0.2, 4: -0.05}


@pytest.mark.parametrize("mapping, even", [
    ({}, True), ({2: 0.1}, True), ({4: -0.03, 6: -0.002}, True), ({3: 0.1}, False)])
def test_parity_read_off_entries(mapping, even):
    t = CouplingVector.from_mapping(mapping)
    assert t.parity_even_only is even
    # an odd shift breaks an even weight; cancelling it restores the parity
    odd = CouplingVector.from_mapping({**mapping, 1: 0.1})
    assert odd.parity_even_only is False
    back = CouplingVector.from_mapping({**odd.as_dict(), 1: odd.get(1) - 0.1})
    assert back.parity_even_only is even
    assert _read(_text(t)).parity_even_only is even


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
    shifted = CouplingVector.from_mapping({**t.as_dict(), 1: t.get(1) - 0.3})
    assert shifted.as_dict() == {2: -0.1}


def test_quadrature_gaussian_mass(t0):
    grid = build_quadrature(t0)
    mass = grid.weights @ (np.ones_like(grid.nodes) * grid.rho)
    assert abs(mass - SQRT_2PI) < 1e-12 * SQRT_2PI


def test_quadrature_high_moment(t0):
    # degree-12 Gaussian moment is 11!! = 10395 times the mass
    grid = build_quadrature(t0, max_degree=12)
    m12 = grid.weights @ (grid.nodes**12 * grid.rho)
    assert abs(m12 / SQRT_2PI - 10395.0) < 1e-9 * 10395.0


def test_quadrature_rejects_divergent_weight():
    with pytest.raises(NonIntegrableWeight):
        build_quadrature(CouplingVector.from_mapping({4: 0.1}))


def test_widen_grid_preserves_values(t0):
    grid = build_quadrature(t0, max_degree=8)
    wide = ref.widen_grid(grid, 1e-20, 8)
    assert wide.radius > grid.radius
    a = grid.weights @ (grid.nodes**8 * grid.rho)
    b = wide.weights @ (wide.nodes**8 * wide.rho)
    assert abs(a - b) < 1e-11 * abs(a)


def test_cumulative_integral_matches_error_function(t0):
    grid = build_quadrature(t0)
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
    grid = build_quadrature(t, max_degree=20)
    rows = grid.nodes[None, :] ** np.arange(12)[:, None] * grid.rho
    cum, totals = cumulative_integral(grid, rows)
    assert cum.shape == rows.shape and totals.shape == (12,)
    for row, c, total in zip(rows, cum, totals):
        one_cum, one_total = cumulative_integral(grid, row)
        assert np.array_equal(c, one_cum) and total == one_total


@pytest.mark.parametrize("p", [couplings._POINTS_PER_PANEL])
def test_gauss_legendre_against_mpmath(p):
    mpmath = pytest.importorskip("mpmath")
    x, w = _gauss_legendre()
    ref_x, ref_w = ref.gauss_legendre_mp(p)
    assert len(x) == len(ref_x) == p
    node_gap = max(abs(mpmath.mpf(float(a)) - b) for a, b in zip(x, ref_x))
    weight_gap = max(abs(mpmath.mpf(float(a)) / b - 1) for a, b in zip(w, ref_w))
    assert node_gap <= 2e-16
    assert weight_gap <= 5e-14


def test_gauss_legendre_cached_symmetric_read_only():
    x, w = _gauss_legendre()
    assert _gauss_legendre()[0] is x and len(x) == len(w) == couplings._POINTS_PER_PANEL
    assert not x.flags.writeable and not w.flags.writeable
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])
    assert np.all(np.diff(x) > 0)


def test_cumulative_matrix_exact_on_monomials():
    p = couplings._POINTS_PER_PANEL
    xi, _ = _gauss_legendre()
    M = _cumulative_matrix()
    for k in range(p):
        exact = (xi ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        assert np.max(np.abs(M @ xi**k - exact)) <= 1e-14, k


# the radius search

# t2 in (-0.3, 0.45), t4 < 0 or 0, t6 <= 0 beside a t4 < 0, and small odd
# t1, t3 beside a t4 < 0
@st.composite
def radius_couplings(draw):
    quartic = draw(st.booleans())
    t4 = draw(st.floats(-0.1, 0.0, exclude_max=True)) if quartic else 0.0
    mapping = {2: draw(st.floats(-0.3, 0.45, exclude_min=True, exclude_max=True)), 4: t4,
               6: draw(st.floats(-0.01, 0.0)) if quartic else 0.0}
    if quartic and draw(st.booleans()):
        mapping[1] = draw(st.floats(-0.3, 0.3))
        mapping[3] = draw(st.floats(-0.05, 0.05))
    return CouplingVector.from_mapping(mapping)


def decay(t, degree, z):
    return t.exponent(z) + degree * np.log(np.maximum(np.abs(z), 1.0))


def search_scan(t, degree):
    """The radius search's scan of [-B, B] and its target, for the first
    B = 10, 20, 40, ... whose ends read below the target."""
    bracket = 10.0
    for _ in range(40):
        zs = np.linspace(-bracket, bracket, 8193)
        F = decay(t, degree, zs)
        target = F.max() + math.log(1e-12)
        if F[0] < target and F[-1] < target:
            return zs, target
        bracket *= 2.0
    return None, None


@given(radius_couplings(), st.integers(0, 1200))
@settings(max_examples=60, deadline=None)
def test_radius_is_a_scan_point_within_one_spacing_past_the_bisection(t, degree):
    # a vanishing t4 beside t3 leaves no bracket below 10 * 2^40: both refuse
    def outcome(search, *tol):
        try:
            return search(t, *tol, degree)
        except NonIntegrableWeight as err:
            return str(err)

    radius, sequential = outcome(_radius_for), outcome(ref.radius_sequential, 1e-12)
    zs, target = search_scan(t, degree)
    if zs is None:
        assert radius == sequential and isinstance(radius, str)
        return
    assert radius in np.abs(zs)
    assert np.all(decay(t, degree, np.array([-radius, radius])) < target)
    spacing = 2.0 * zs[-1] / 8192
    assert sequential - 1e-12 * sequential <= radius <= sequential + spacing


# the side without the global peak started below the target: a bisection
# from the peak collapsed toward 0, and the radius lies on the other side
STOPPED_SHORT = {1: -0.24386249867809406, 3: 0.005120315345446803, 4: -0.025490217959271713}


def test_radius_covers_the_side_without_the_peak():
    t = CouplingVector.from_mapping(STOPPED_SHORT)
    radius = build_quadrature(t, max_degree=266).radius
    assert radius == _radius_for(t, 266)
    assert 8.405 < radius < 8.406        # a bisection from the peak alone: 8.3528
    zs = np.linspace(-10.0, 10.0, 8193)
    peak = decay(t, 266, zs).max()
    assert np.all(decay(t, 266, np.array([-radius, radius])) - peak < math.log(1e-12))


# the crossing on the side without the peak lies within one scan spacing
# past the other side's, with no scan point at or above the target beyond it
JUST_PAST = {1: 0.29944717531013026, 3: -0.0051554511554822505, 4: -0.08678586745731506}


@given(st.floats(-0.3, 0.3), st.floats(-0.05, 0.05), st.floats(-0.1, -0.005),
       st.integers(0, 800))
@example(STOPPED_SHORT[1], STOPPED_SHORT[3], STOPPED_SHORT[4], 266)
@example(JUST_PAST[1], JUST_PAST[3], JUST_PAST[4], 772)
# and their mirror images z -> -z
@example(-STOPPED_SHORT[1], -STOPPED_SHORT[3], STOPPED_SHORT[4], 266)
@example(-JUST_PAST[1], -JUST_PAST[3], JUST_PAST[4], 772)
@settings(max_examples=40, deadline=None)
def test_radius_covers_a_dense_scan(t1, t3, t4, degree):
    # on a scan eight times denser than the search's, over its bracket
    # [-B, B], every eighth point being the search's own scan, every point
    # at or above the search's target lies inside the radius
    t = CouplingVector.from_mapping({1: t1, 3: t3, 4: t4})
    radius = _radius_for(t, degree)
    bracket = 10.0 * 2.0 ** max(0, math.ceil(math.log2(radius / 10.0)))
    zs = np.linspace(-bracket, bracket, 65537)
    F = decay(t, degree, zs)
    target = F[::8].max() + math.log(1e-12)
    assert F[0] < target and F[-1] < target
    assert np.all(np.abs(zs[::8][F[::8] >= target]) <= radius)
    assert np.all(np.abs(zs[F >= target]) <= radius)


# the grid memo

def stalled(convergence_values):
    # a panel doubling whose mass never settles
    def values(t, radius, panels, deg, shift):
        nodes, weights, rho, vals, shift = convergence_values(t, radius, panels, deg, shift)
        return nodes, weights, rho, [vals[0] * (1.0 + 1e-9 * panels)] + vals[1:], shift
    return values


@pytest.mark.parametrize("mapping, error", [
    ({3: 0.2}, NonIntegrableWeight),                # no radius brackets the tail
    ({2: 0.1}, ToleranceUnreachable),               # the panel doubling stalls
])
def test_failed_builds_are_not_kept(fresh_grids, counted_radii, monkeypatch, mapping, error):
    monkeypatch.setattr(couplings, "_convergence_values",
                        stalled(couplings._convergence_values))
    t = CouplingVector.from_mapping(mapping)
    for _ in range(2):
        with pytest.raises(error):
            build_quadrature(t)
    assert len(counted_radii) == 2


def test_weight_past_the_double_range_refused_before_doubling(fresh_grids, monkeypatch):
    # rho(38) = e^722 reads inf: the panel doubling ran to 8192 panels and
    # raised ToleranceUnreachable, which blamed the tolerance
    panels, values = [], couplings._convergence_values

    def counted(t, radius, n_panels, deg, shift):
        panels.append(n_panels)
        return values(t, radius, n_panels, deg, shift)
    monkeypatch.setattr(couplings, "_convergence_values", counted)
    with pytest.raises(IllConditioned, match=r"\{1: 38.0\} overflows the double range"):
        build_quadrature(CouplingVector.from_mapping({1: 38}))
    assert panels == [8]


@pytest.mark.parametrize("ensemble,mapping,want", [
    ("unitary", {400: -1.0}, (1.0, -5.512615829665184)),
    ("orthogonal", {400: -1.0}, (1.0, -5.465346821145294)),
    ("unitary", {10**8: -1.0}, (1.0, -5.492806963013038)),
    ("orthogonal", {10**8: -1.0}, (1.0, -5.453524347863329)),
], ids=["unitary-400", "orthogonal-400", "unitary-1e8", "orthogonal-1e8"])
def test_exponent_past_the_double_range_saturates_without_a_warning(fresh_grids, ensemble,
                                                                   mapping, want):
    # z^400 past the double range warned "overflow encountered in power";
    # the values are those read with the warning suppressed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_tau(ensemble, 4, CouplingVector.from_mapping(mapping)) == want
        with pytest.raises(NonIntegrableWeight):
            log_tau(ensemble, 4, CouplingVector.from_mapping({1: 1e300}))


@pytest.mark.parametrize("ensemble, size", [("unitary", 1), ("orthogonal", 2)])
def test_saturated_terms_of_both_signs_take_the_sign_of_the_largest(fresh_grids, ensemble,
                                                                    size):
    # far out t_398 z^398 reads +inf and t_400 z^400 -inf: the sum read NaN
    # with "invalid value encountered in add", and without the warning the
    # weight, which decays past |z| = 1, was refused as NonIntegrableWeight
    mapping = {400: -1.0, 398: 1.0}
    t = CouplingVector.from_mapping(mapping)
    want = ref.log_tau_even_mp(ensemble, mapping,
                               [0, 0.5, 0.9, 0.97, 1, 1.005, 1.01, 1.02, 1.04])
    z = np.linspace(-8.0, 8.0, 161)   # z^398 overflows past |z| = 5.95
    with np.errstate(over="ignore", invalid="ignore"):
        plain = -0.5 * z * z + z**398 - z**400
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sign, got = log_tau(ensemble, size, t)
        saturated = np.isnan(plain)
        assert saturated.any() and (t.exponent(z)[saturated] == -math.inf).all()
        assert np.array_equal(t.exponent(z)[~saturated], plain[~saturated])
    assert sign == 1.0 and abs(got - want) < 1e-14, (got, want)


def test_weight_just_inside_the_double_range_builds(fresh_grids):
    # rho peaks at e^703.125; its mass is sqrt(2 pi) e^703.125
    grid = build_quadrature(CouplingVector.from_mapping({1: 37.5}))
    assert grid.panels == 16
    assert np.isfinite(grid.rho).all()
    mass = float(grid.weights @ grid.rho)
    assert abs(mass / (SQRT_2PI * math.exp(703.125)) - 1.0) < 1e-12


@pytest.mark.parametrize("max_degree", [-5, 2.5, True, False, np.float64(4.0), "4", None])
def test_nonsense_degrees_refused(fresh_grids, t0, max_degree):
    with pytest.raises(ValueError, match="max_degree"):
        build_quadrature(t0, max_degree=max_degree)
