"""Randomized invariants; anything numpy-heavy draws a seed from hypothesis
and generates the arrays with default_rng so shrinking stays cheap."""

import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_kernels as ref
from taulattice import (CouplingVector, HydroChainField, IdentityReport, PfaffLax,
                        ReducedChainState, TauLatticeError, TensorPoint, VolterraState,
                        build_quadrature, continuum_convergence, evolve_hydro_chain,
                        evolve_pfaff, evolve_reduced, evolve_toda, evolve_volterra,
                        goe_lax_init, gue_lax_init, haantjes_scan, hopf_solve,
                        hydro_chain_rhs, hydro_scaling_check, kp_residual, mkp_residuals,
                        nijenhuis, nijenhuis_closed_form, observables_check,
                        pfaff_chain_rhs, pfaff_commutator_rhs, pfaff_lax_from_basis,
                        reduced_continuum_rhs, sample_gaussian_ensemble, spatial_derivative,
                        tau_coupling_derivative, toda_rhs, volterra_rhs)
from taulattice import flows, identities, lax, moments
from taulattice.identities import SUITES, mkp_bump_state, verify_scaling

couplings = st.dictionaries(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
    max_size=4)


@given(couplings)
def test_coupling_vector_json_round_trip(mapping):
    cv = CouplingVector.from_mapping(mapping)
    text = json.dumps({"t": {str(k): v for k, v in cv.as_dict().items()}})
    assert CouplingVector.from_object(json.loads(text)) == cv
    assert all(v != 0.0 for _, v in cv.entries)


@given(st.integers(min_value=1, max_value=4), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_pfaffian_squares_to_determinant(half_dim, seed):
    rng = np.random.default_rng(seed)
    n = 2 * half_dim
    a = rng.normal(size=(n, n))
    m = a - a.T
    sign, pivots = moments._pfaffian_pivots(m.copy())   # the one elimination
    pf = sign * float(np.prod(pivots))
    assert abs(pf * pf - np.linalg.det(m)) < 1e-9 * max(abs(pf * pf), 1.0)


@given(st.floats(-0.2, 0.2), st.floats(-0.08, -0.005), st.booleans(),
       st.floats(-0.1, 0.1), st.floats(-0.02, 0.02), st.sampled_from([2, 4, 6, 8]))
@settings(max_examples=25, deadline=None)
def test_pair_moments_of_the_skew_gram_match_the_monomial_route(t2, t4, odd, t1, t3, size):
    # C09's pair moments X F X^T, with x^i written in the q_k of the Stieltjes
    # basis, against skew products of monomials at the nodes of a grid
    t = CouplingVector.from_mapping({1: t1 * odd, 2: t2, 3: t3 * odd, 4: t4})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stieltjes = moments._stieltjes_basis("orthogonal", size, t)
        jacobi = lax._skew_gram_schmidt(stieltjes, t).jacobi.matrix()
        got = moments._monomial_skew_moments(stieltjes[0], stieltjes[3][0], jacobi, size)
        want = ref.skew_moment_rows(t, size, build_quadrature(t, max_degree=size + 2))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@given(st.floats(min_value=-0.2, max_value=0.2),
       st.floats(min_value=-0.1, max_value=0.0))
@settings(max_examples=15, deadline=None)
def test_even_weight_has_no_odd_moments(t2, t4):
    t = CouplingVector.from_mapping({2: t2, 4: t4})
    grid = build_quadrature(t, max_degree=10)
    mu = np.array([grid.weights @ (grid.nodes**k * grid.rho) for k in range(11)])
    assert np.max(np.abs(mu[1::2])) < 1e-10 * np.max(mu[::2])


@given(st.floats(min_value=-0.3, max_value=0.2))
@settings(max_examples=15, deadline=None)
def test_moment_mass_matches_the_closed_form(t2):
    # int exp(-(1 - 2 t2) z^2 / 2) dz = sqrt(2 pi / (1 - 2 t2))
    grid = build_quadrature(CouplingVector.from_mapping({2: t2}))
    exact = math.sqrt(2.0 * math.pi / (1.0 - 2.0 * t2))
    assert abs(grid.weights @ grid.rho - exact) <= 1e-12 * exact


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_nijenhuis_antisymmetric_and_tabulated(seed):
    rng = np.random.default_rng(seed)
    W = 9
    u = rng.uniform(-2.0, 2.0, 2 * W + 1)
    u[W] = rng.uniform(0.5, 2.0)
    pt = TensorPoint(u, W)
    i, j, k = rng.integers(-5, 6, size=3)
    a = nijenhuis(int(i), int(j), int(k), pt)
    assert abs(a + nijenhuis(int(i), int(k), int(j), pt)) < 1e-13
    assert abs(a - nijenhuis_closed_form(int(i), int(j), int(k), pt)) < 1e-11


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_banded_chain_agrees_with_commutator(seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.3, 2.0, (9, 14))
    w[:2] *= 1e-2
    state = PfaffLax(w, k_neg=4, k_pos=4)
    chain = pfaff_chain_rhs(state)[:, :8]
    comm = pfaff_commutator_rhs(state)[:, :8]
    assert np.max(np.abs(chain - comm)) < 1e-11 * np.max(np.abs(chain))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_nonnegative_rows_ignore_the_negative_half(seed):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.25, 2.25, 41)
    base = HydroChainField.initial(x, 4, 5)
    du_base, _ = hydro_chain_rhs(base)
    u = base.u.copy()
    u[:base.k_neg] = rng.uniform(-1.5, 1.5, (base.k_neg, len(x)))
    du_pert, _ = hydro_chain_rhs(HydroChainField(x, u, base.v, base.k_neg))
    assert np.array_equal(du_pert[base.k_neg:], du_base[base.k_neg:])
    assert not np.array_equal(du_pert[base.k_neg - 1], du_base[base.k_neg - 1])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_v_equation_closure_source_cancels(seed):
    # the literal source u0 d/dx(u0/(2 u0)) differentiates a constant
    rng = np.random.default_rng(seed)
    x = np.linspace(0.5, 1.5, 41)
    dx = x[1] - x[0]
    u0 = rng.uniform(0.2, 3.0, len(x))
    term = u0 * spatial_derivative(u0 * (1.0 / (2.0 * u0)), dx)
    assert np.max(np.abs(term)) < 1e-11


# The entry-point contract, scoped to flow indices, step sizes, a field's
# time stamp, every real argument, every integer lower bound and derivative
# order, and every suite's tolerance: what an argument cannot mean is
# refused with a ValueError or a TauLatticeError, never a bare OverflowError,
# AttributeError or TypeError, a RuntimeWarning or a return, and a suite
# refuses its tolerance before its work.

def _refused(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((ValueError, TauLatticeError)):
            call()


@given(st.one_of(st.booleans(), st.floats(), st.integers(max_value=0)),
       st.sampled_from(["toda_rhs", "volterra_rhs", "evolve_toda", "evolve_volterra"]))
@settings(max_examples=60, deadline=None)
def test_flow_index_that_names_no_flow_is_refused(flow, call):
    # every float, NaN, +-inf, 0.0, negatives and subnormals included, is no flow
    _refused({"toda_rhs": lambda: toda_rhs(gue_lax_init(4), flow),
              "volterra_rhs": lambda: volterra_rhs(np.ones(6), flow),
              "evolve_toda": lambda: evolve_toda(gue_lax_init(4), flow, [0.1]),
              "evolve_volterra": lambda: evolve_volterra(VolterraState(np.ones(8)), flow,
                                                         [0.1])}[call])


@given(st.one_of(st.booleans(), st.floats(max_value=0.0), st.just(math.nan), st.just(math.inf),
                 st.floats(min_value=5e-324, max_value=2.2250738585072014e-308,
                           exclude_max=True),
                 st.floats(min_value=5e-324, max_value=10.0 / flows._MAX_STEPS,
                           exclude_max=True)),
       st.sampled_from(["volterra", "toda", "pfaff", "reduced"]))
@settings(max_examples=60, deadline=None)
def test_step_that_names_no_march_is_refused(h, march):
    # over [0, 10] no subnormal h has a finite step count, and no h below
    # 10 / _MAX_STEPS a count within the step budget
    times = [10.0]
    _refused({"volterra": lambda: evolve_volterra(VolterraState(np.ones(8)), 2, times, h=h),
              "toda": lambda: evolve_toda(gue_lax_init(4), 1, times, h=h),
              "pfaff": lambda: evolve_pfaff(goe_lax_init(12, 4, 4), times, h=h),
              "reduced": lambda: evolve_reduced(ReducedChainState(0.5, np.full(4, 2.0)), times,
                                                h=h)}[march])


@given(st.one_of(st.booleans(), st.floats()))
@settings(max_examples=60, deadline=None)
def test_field_time_is_a_finite_number_or_refused(time):
    # 0, negative and subnormal times are times: the field keeps them and
    # marches from them; bool, NaN and +-inf are refused
    start = HydroChainField.initial(np.linspace(0.5, 1.5, 11))
    if isinstance(time, bool) or not math.isfinite(time):
        _refused(lambda: evolve_hydro_chain(replace(start, time=time), 0.1))
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field = replace(start, time=time)
        out, _ = evolve_hydro_chain(field, time + 1e-3)
    assert field.time == time and out.time == time + 1e-3


_X = np.linspace(0.5, 1.5, 11)
# id -> (the name its refusal gives, whether it must be positive, a call
# with the value); each argument passes `couplings._checked_real`
_REAL_ARGUMENTS = {
    "h": ("h", True, lambda q: evolve_volterra(VolterraState(np.ones(8)), 2, [0.1], h=q)),
    "Wm1": ("ReducedChainState.Wm1", False, lambda q: ReducedChainState(q, np.full(4, 2.0))),
    "dx": ("dx", False, lambda q: spatial_derivative(np.ones(8), q)),
    "time": ("time", False, lambda q: replace(HydroChainField.initial(_X), time=q)),
    "scaling-t": ("t", False, lambda q: HydroChainField.scaling(_X, q)),
    "hopf-t": ("t", False, lambda q: hopf_solve(lambda s: s, 2.0, 1, _X, q)),
    "hopf-c": ("c", False, lambda q: hopf_solve(lambda s: s, q, 1, _X, 0.1)),
    "march-t_target": ("t_target", False,
                       lambda q: evolve_hydro_chain(HydroChainField.initial(_X), q)),
    "check-t_target": ("t_target", False, lambda q: hydro_scaling_check(t_target=q, n_x=41)),
    "wm1": ("wm1", False, lambda q: reduced_continuum_rhs(q, np.full(4, 2.0))),
    "check_tol": ("check_tol", True, lambda q: pfaff_lax_from_basis(
        lax._skew_basis(CouplingVector(), 8), 2, 2, 2, check_tol=q)),
    "report-tolerance": ("tolerance", True, lambda q: IdentityReport("x", 0.0, 0.0, q, True)),
    "residual-tolerance": ("tolerance", True,
                           lambda q: IdentityReport.from_residual("x", 0.0, q)),
    "coupling": ("coupling t_2", False, lambda q: CouplingVector.from_mapping({2: q})),
    "t2": ("t2", False, lambda q: continuum_convergence(t2=q)),
    # the suites that read their tolerance before they build a report
    "convergence-tolerance": ("tolerance", True, lambda q: continuum_convergence(tolerance=q)),
    "haantjes-tolerance": ("tolerance", True, lambda q: haantjes_scan(tolerance=q)),
    "observables-tolerance": ("tolerance", True, lambda q: observables_check(tolerance=q)),
}
_NOT_REAL = [True, False, np.True_, np.False_, "0.5", None, math.nan, math.inf, -math.inf]
_NOT_POSITIVE = [0.0, -0.0, -1.0, -5e-324]


@pytest.mark.parametrize("argument, value", [
    pytest.param(argument, value, id=f"{argument}-{value!r}")
    for argument, (_, positive, _) in _REAL_ARGUMENTS.items()
    for value in _NOT_REAL + _NOT_POSITIVE * positive])
def test_real_argument_that_is_no_finite_number_is_refused_by_name(argument, value):
    # pfaff_lax_from_basis(check_tol=True) returned a window,
    # ReducedChainState(True or "0.5", W) and reduced_continuum_rhs("0.5", w)
    # returned, and a string step, tolerance, target, dx or Hopf time raised
    # a bare TypeError; each is refused before the call's work
    name, positive, call = _REAL_ARGUMENTS[argument]
    wording = "positive" if positive else "not a bool"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be finite and {wording}, "
                                             f"got "):
            call(value)


# id -> (the name its refusal gives, its lower bound, a call with the
# value); each argument passes `couplings._checked_int` with that bound
_INTEGER_ARGUMENTS = {
    "mkp-n": ("n", 2, lambda q: mkp_residuals(q, mkp_bump_state(32))),
    "kp-n": ("n", 1, kp_residual),
    "scaling-n_sites": ("n_sites", 9, lambda q: verify_scaling(n_sites=q)),
    "haantjes-window": ("window", 10, lambda q: haantjes_scan(window=q)),
    "k_neg": ("k_neg", 2, lambda q: replace(HydroChainField.initial(_X), k_neg=q)),
    "count": ("count", 2, lambda q: sample_gaussian_ensemble(1, 2, q, 1)),
    "coupling-index": ("coupling index", 1, lambda q: CouplingVector(((q, 0.1),))),
    "multi_index-key": ("multi_index key", 1, lambda q: tau_coupling_derivative(
        "unitary", 2, CouplingVector(), {q: 1})),
    "multi_index-order": ("multi_index order", 0, lambda q: tau_coupling_derivative(
        "unitary", 2, CouplingVector(), {2: q})),
}
_NOT_INTEGER = [True, np.True_, 2.5, "2", None]


@pytest.mark.parametrize("argument, value", [
    pytest.param(argument, value, id=f"{argument}-{value!r}")
    for argument, (_, low, _) in _INTEGER_ARGUMENTS.items()
    for value in _NOT_INTEGER + [low - 1]])
def test_integer_argument_outside_its_bound_is_refused_by_name(argument, value):
    # each bound is the gate's, not a second check after it
    name, low, call = _INTEGER_ARGUMENTS[argument]
    if type(value) is int:                      # low - 1
        wording = f"{'non-negative' if low == 0 else f'at least {low}'}, got {value}$"
    else:
        wording = "an integer, got "
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be {wording}"):
            call(value)


@pytest.mark.parametrize("multi_index", [[(2, 1)], None], ids=["list", "None"])
def test_multi_index_that_is_no_mapping_is_refused_by_name(multi_index):
    # both raised a bare AttributeError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^multi_index must be a mapping"):
            tau_coupling_derivative("unitary", 2, CouplingVector(), multi_index)


@pytest.mark.parametrize("check", [check for check, _ in SUITES.values()])
@pytest.mark.parametrize("tolerance", [math.nan, 0.0, True, "0.5"], ids=repr)
def test_every_suite_refuses_its_tolerance_before_its_work(monkeypatch, check, tolerance):
    # ten of the thirteen checks reached their report, after the whole
    # check, before the tolerance was refused
    def reached(*args, **kwargs):
        raise AssertionError(f"{check} reached its report")

    monkeypatch.setattr(IdentityReport, "from_residual", reached)
    monkeypatch.setattr(IdentityReport, "__post_init__", reached)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^tolerance must be finite and positive, got "):
            getattr(identities, check)(tolerance=tolerance)


@given(st.integers(0, 2**32 - 1))
@example(1982)
@settings(max_examples=40, deadline=None)
def test_chain_march_returns_a_field_within_its_bound_or_raises(seed):
    # 41 cells, u^0 and u^1 drawn: seed 1982 returned a field of size
    # 2.66e13, grown past the bound 50 in the march's last step
    x = np.linspace(0.25, 2.25, 41)
    f = HydroChainField.initial(x, 4, 6)
    rng = np.random.default_rng(seed)
    u = f.u.copy()
    u[4] = rng.uniform(0.001, 2.0, 41)
    u[5] = rng.uniform(-3.0, 3.0, 41)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out, _ = evolve_hydro_chain(HydroChainField(x, u, f.v, 4), 0.02)
        except TauLatticeError:
            return
    assert max(np.abs(out.u).max(), np.abs(out.v).max()) <= 50.0
