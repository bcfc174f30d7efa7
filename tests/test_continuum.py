import itertools
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as ref
from taulattice import (DivergedField, HydroChainField, IndexOutOfWindow,
                        PreBreakingViolated, ReducedChainState, TensorPoint,
                        chain_matrix, continuum_convergence,
                        evolve_hydro_chain, haantjes,
                        haantjes_scan, hopf_solve, hydro_chain_rhs,
                        hydro_scaling_check, nijenhuis, nijenhuis_closed_form,
                        reduced_chain_rhs, reduced_continuum_rhs,
                        spatial_derivative)
from taulattice import continuum
from taulattice.continuum import (_closed_layout, _closed_table, _matrix_entries,
                                  _point_row, _tensor_entries, _tensor_plan, _u0_squares)


def _dense(plan, codes, values, dims):
    out = np.zeros(plan.n ** dims)
    out[codes] = values
    return out.reshape((plan.n,) * dims)


def _upper(plan):
    """The positions (j, k) with j < k, where the plan computes H."""
    return np.triu(np.ones((plan.n, plan.n), dtype=bool), 1)


class TestSpatialDerivative:
    def test_exact_on_cubic_interior(self):
        x = np.linspace(0.0, 2.0, 41)
        g = spatial_derivative(x**3, x[1] - x[0])
        assert np.max(np.abs(g[2:-2] - 3.0 * x[2:-2] ** 2)) < 1e-11

    def test_exact_on_quadratic_everywhere(self):
        x = np.linspace(0.0, 1.0, 21)
        g = spatial_derivative(x**2, x[1] - x[0])
        assert np.max(np.abs(g - 2.0 * x)) < 1e-12

    def test_needs_five_points(self):
        with pytest.raises(ValueError):
            spatial_derivative(np.ones(4), 0.1)

    @pytest.mark.parametrize("dx", [0.0, np.nan, np.inf, -np.inf])
    def test_bad_spacing_refused(self, dx):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="dx"):
                spatial_derivative(np.arange(6.0), dx)

    @given(st.sampled_from([(5,), (9,), (201,), (3, 7), (15, 201), (2, 3, 11)]),
           st.booleans(), st.floats(1e-3, 1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bound_stencil_matches_fresh_arrays(self, shape, strided, dx, seed):
        # the stencil runs over its buffer flattened; the cells where it
        # crosses a row end are overwritten by the one-sided formulas
        f = np.random.default_rng(seed).uniform(-3.0, 3.0, shape[:-1] + (2 * shape[-1],))
        f = f[..., ::2] if strided else f[..., :shape[-1]]
        assert spatial_derivative(f, dx).tobytes() == ref.spatial_derivative(f, dx).tobytes()


class TestHopf:
    def test_time_zero_is_initial_data(self):
        x = np.linspace(0.5, 1.5, 11)
        assert np.allclose(hopf_solve(np.sin, 2.0, 1, x, 0.0), np.sin(x),
                           rtol=0, atol=0)

    def test_constant_profile_is_static(self):
        x = np.linspace(0.5, 1.5, 11)
        u = hopf_solve(lambda s: 0.0 * s + 0.7, 3.0, 2, x, 0.4)
        assert np.max(np.abs(u - 0.7)) < 1e-13

    def test_linear_profile_closed_form(self):
        # u0 = id, c = 2, k = 1 gives u = x/(1-2t)
        x = np.linspace(0.25, 2.0, 15)
        u = hopf_solve(lambda s: s, 2.0, 1, x, 0.15)
        assert np.max(np.abs(u - x / 0.7)) < 1e-13

    @pytest.mark.parametrize("c,k,t", [(2.0, 1, 0.15), (-1.5, 1, 0.3),
                                       (1.0, 2, 0.1), (-1.5, 2, 0.05)])
    def test_linear_profile_closed_forms(self, c, k, t):
        # u0 = id: u = x + c t u^k, so u = x/(1-ct) for k = 1 and
        # u = 2x/(1 + sqrt(1 - 4ctx)) for k = 2
        x = np.linspace(0.25, 2.0, 501)
        u = hopf_solve(lambda s: s, c, k, x, t)
        exact = x / (1.0 - c * t) if k == 1 else 2.0 * x / (1.0 + np.sqrt(1.0 - 4.0 * c * t * x))
        assert np.max(np.abs(u / exact - 1.0)) <= 1e-13

    def test_folding_detected(self):
        x = np.linspace(0.25, 2.0, 15)
        with pytest.raises(PreBreakingViolated):
            hopf_solve(lambda s: 2.0 * s, 2.0, 1, x, 0.3)

    def test_fold_inside_the_grid_refused(self):
        # a bump steep enough that the map covers the grid but turns back on it
        u0 = lambda s: s + 0.6 * s * np.exp(-(s - 1.0) ** 2 / 0.05)
        x = np.linspace(0.25, 1.5, 11)
        with pytest.raises(PreBreakingViolated, match="folds on the grid"):
            hopf_solve(u0, 2.0, 1, x, 0.2)
        u = hopf_solve(u0, 2.0, 1, x, 0.05)
        assert np.max(np.abs(u - u0(x + 2.0 * u * 0.05))) <= 1e-12 * np.max(np.abs(u))

    @pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
    def test_non_finite_speed_refused(self, c):
        # c = inf let "invalid value encountered in multiply" escape
        with pytest.raises(ValueError, match="c must be finite"):
            hopf_solve(lambda s: s, c, 1, np.linspace(0.5, 2.0, 11), 0.1)

    @pytest.mark.parametrize("k", [0.5, 1.0, True])
    def test_power_that_is_not_an_integer_refused(self, k):
        # k = 0.5 on a profile that goes negative let "invalid value
        # encountered in sqrt" escape, and k = True ran as k = 1
        with pytest.raises(ValueError, match=f"k must be an integer, got {k}"):
            hopf_solve(lambda s: s - 1.0, 0.5, k, np.linspace(0.5, 2.0, 11), 0.1)

    @pytest.mark.parametrize("k", [10, 400, 1000])
    def test_large_power_solves_before_the_map_folds(self, k):
        # on [0.5, 0.9] u stays below 1, so c t u^k is tiny; the bracket
        # sized by (max|u0| + 1)^k left the double range (k = 400 warned,
        # k = 1000 raised a bare OverflowError) or missed the grid (k = 10)
        x = np.linspace(0.5, 0.9, 11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = hopf_solve(lambda s: s, 0.5, k, x, 0.1)
        assert np.max(np.abs(u - (x + 0.05 * u ** k))) <= 1e-15

    @pytest.mark.parametrize("k", [400, 1000])
    def test_large_power_past_the_fold_is_refused(self, k):
        # on [0.5, 2] the map s - 0.05 s^k peaks below 1, so no solution
        # exists; u0^k overflows while the bracket grows, and that is typed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreBreakingViolated, match=rf"not finite on the bracket \(k = {k}\)"):
                hopf_solve(lambda s: s, 0.5, k, np.linspace(0.5, 2.0, 11), 0.1)

    @pytest.mark.parametrize("k,exponent", [(10**400, "400.00"), (-10**400, "400.00"),
                                            (2**1024, "308.25")],
                             ids=["1e400", "-1e400", "2^1024"])
    def test_power_without_a_double_value_refused(self, k, exponent):
        # u0(s) ** k raised numpy's bare OverflowError ("int too large to
        # convert to float"); it is refused before u0 is called
        def u0(s):
            raise AssertionError("u0 evaluated")

        with pytest.raises(ValueError, match=rf"k has no double value: \|k\| = 10\^{exponent}"):
            hopf_solve(u0, 0.5, k, np.linspace(0.5, 2.0, 11), 0.1)

    def test_largest_double_power_still_solves_or_is_refused_as_past_the_fold(self):
        k = int(sys.float_info.max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = np.linspace(0.5, 0.9, 11)
            assert np.max(np.abs(hopf_solve(lambda s: s, 0.5, k, x, 0.1) - x)) <= 1e-15
            with pytest.raises(PreBreakingViolated, match="not finite on the bracket"):
                hopf_solve(lambda s: s, 0.5, k, np.linspace(0.5, 2.0, 11), 0.1)
            with pytest.raises(PreBreakingViolated, match="not finite on the bracket"):
                hopf_solve(lambda s: s, 0.5, -k, x, 0.1)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_refused(self, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="t must be finite"):
                hopf_solve(lambda s: s, 2.0, 1, np.linspace(0.5, 2.0, 11), t)


    @pytest.mark.parametrize("x", [np.array([]), np.array([0.5, np.nan, 1.5]),
                                   np.array([0.5, np.inf]), np.linspace(2.0, 1.0, 11),
                                   np.array([0.5, 1.0, 1.0, 1.5])])
    @pytest.mark.parametrize("t", [0.0, 0.1])
    def test_grid_that_is_empty_non_finite_or_not_ascending_refused(self, x, t):
        # a descending grid once escaped as an IndexError, an empty one as
        # numpy's zero-size message and a NaN point as PreBreakingViolated
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="grid"):
                hopf_solve(lambda s: s, 2.0, 1, x, t)

class TestHydroField:
    def test_validation(self):
        x = np.linspace(0.5, 1.5, 11)
        good = HydroChainField.initial(x)
        with pytest.raises(ValueError):
            HydroChainField(x - 1.0, good.u, good.v, good.k_neg)   # x <= 0
        with pytest.raises(ValueError):
            HydroChainField(x**2, good.u, good.v, good.k_neg)      # non-uniform
        bad = good.u.copy()
        bad[good.k_neg, 3] = 0.0
        with pytest.raises(ValueError):
            HydroChainField(x, bad, good.v, good.k_neg)            # u^0 > 0
        with pytest.raises(ValueError):
            HydroChainField(x, good.u[:4], good.v, 4)

    def test_field_shapes_off_the_grid_refused(self):
        x = np.linspace(0.5, 1.5, 11)
        good = HydroChainField.initial(x)
        for u, v in ((good.u[:, :-1], good.v), (good.u, good.v[:-1])):
            with pytest.raises(ValueError, match="field shapes must match the grid"):
                HydroChainField(x, u, v, good.k_neg)

    @pytest.mark.parametrize("build, name", [
        (lambda x, f: HydroChainField(x, f.u, f.v, 4.0), "k_neg"),
        (lambda x, f: HydroChainField(x, f.u, f.v, True), "k_neg"),
        (lambda x, f: HydroChainField.initial(x, 4.0, 6), "k_neg"),
        (lambda x, f: HydroChainField.initial(x, 4, True), "k_pos"),
        (lambda x, f: HydroChainField.scaling(x, 0.1, True, 6), "k_neg"),
        (lambda x, f: HydroChainField.scaling(x, 0.1, 4, 6.0), "k_pos"),
        (lambda x, f: HydroChainField.initial(x, 4, -1), "k_pos")])
    def test_band_count_that_is_not_an_integer_refused(self, build, name):
        # 4.0 raised a bare IndexError (field) or TypeError (initial, scaling),
        # as did k_pos = -1
        x = np.linspace(0.5, 1.5, 11)
        with pytest.raises(ValueError, match=f"^{name} must be (an integer|at least 2)"):
            build(x, HydroChainField.initial(x))

    def test_numpy_band_count_is_stored_as_an_int(self):
        x = np.linspace(0.5, 1.5, 11)
        f = HydroChainField.initial(x, np.int64(4), np.int32(6))
        assert type(f.k_neg) is int and f.to_csv() == HydroChainField.initial(x).to_csv()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, value):
        x = np.linspace(0.5, 1.5, 11)
        good = HydroChainField.initial(x)
        for row in (good.k_neg, good.k_neg + 2):
            u = good.u.copy()
            u[row, 4] = value
            with pytest.raises(ValueError, match="finite"):
                HydroChainField(x, u, good.v, good.k_neg)
        v = good.v.copy()
        v[-1] = value
        with pytest.raises(ValueError, match="finite"):
            HydroChainField(x, good.u, v, good.k_neg)
        xs = x.copy()
        xs[-1] = value
        with pytest.raises(ValueError):
            HydroChainField(xs, good.u, good.v, good.k_neg)

    def test_initial_rows(self):
        x = np.linspace(0.5, 1.5, 11)
        f = HydroChainField.initial(x, 3, 5)
        assert np.all(f.u_at(-3) == 0.0) and np.all(f.u_at(-2) == 0.0)
        assert np.all(f.u_at(-1) == 0.5)
        assert np.allclose(f.u_at(0), x, rtol=0)
        assert np.all(f.u_at(5) == 2.0)
        assert np.all(f.v == -0.25)
        with pytest.raises(IndexOutOfWindow):
            f.u_at(6)

    def test_scaling_family_limits(self):
        x = np.linspace(0.5, 1.5, 11)
        f = HydroChainField.scaling(x, 0.25)
        assert np.allclose(f.u_at(0), 2.0 * x, rtol=1e-15)
        with pytest.raises(PreBreakingViolated):
            HydroChainField.scaling(x, 0.5)

    @pytest.mark.parametrize("t", [float("nan"), -float("inf")])
    def test_scaling_family_refuses_a_time_that_is_not_finite(self, t):
        # NaN failed later as "grid and fields must be finite", -inf as
        # "u^0 must stay positive"
        with pytest.raises(ValueError, match=f"t must be finite, got {t!r}"):
            HydroChainField.scaling(np.linspace(0.5, 1.5, 11), t)

    def test_csv_header(self):
        x = np.linspace(0.5, 1.5, 11)
        head = HydroChainField.initial(x, 2, 2).to_csv().splitlines()[0]
        assert head == "x,v,u[-2],u[-1],u[0],u[1],u[2]"


class TestHydroChain:
    def test_rates_at_start(self):
        x = np.linspace(0.25, 2.25, 101)
        f = HydroChainField.initial(x)
        du, dv = hydro_chain_rhs(f)
        assert np.max(np.abs(du[f.k_neg - 1] - 1.0)) < 1e-12
        assert np.max(np.abs(du[f.k_neg] - 2.0 * x)) < 1e-12
        assert np.max(np.abs(dv + 0.5)) < 1e-12
        assert np.max(np.abs(du[f.k_neg + 1:])) < 1e-12
        assert np.max(np.abs(du[:f.k_neg - 1])) == 0.0

    def test_march_against_scaling_family(self):
        report = hydro_scaling_check(t_target=0.1, n_x=101)
        assert report.passed
        assert report.residual_abs < 1e-7

    # u^0 must stay positive, so it is pushed past the bound upwards only
    @pytest.mark.parametrize("row,sign", [("u^-3", 1.0), ("u^-3", -1.0), ("u^0", 1.0),
                                          ("u^2", 1.0), ("u^2", -1.0),
                                          ("v", 1.0), ("v", -1.0)])
    def test_bound_guard(self, monkeypatch, row, sign):
        # the march holds its state to the bound 50 before each step: 50
        # marches, and the next double past it raises before any kernel
        # call; the RHS evaluates both fields
        x = np.linspace(0.25, 2.25, 41)
        f = HydroChainField.initial(x)

        def no_rates(*args, **kwargs):
            def rates(y, out):
                raise AssertionError("the kernel ran before the guard")
            return rates

        for value, fires in ((sign * 50.0, False),
                             (sign * np.nextafter(50.0, np.inf), True)):
            u, v = f.u.copy(), f.v.copy()
            if row == "v":
                v[7] = value
            else:
                u[f.k_neg + int(row[2:]), 7] = value
            field = HydroChainField(x, u, v, f.k_neg)
            hydro_chain_rhs(field)
            if fires:
                with monkeypatch.context() as m:
                    m.setattr(continuum, "_hydro_kernel", no_rates)
                    with pytest.raises(DivergedField, match="exceeded 50.0 at t=0 after 0"):
                        evolve_hydro_chain(field, 1e-6)
            else:
                assert evolve_hydro_chain(field, 1e-6)[1]["steps"] == 1

    def test_overflow_raises_typed_error(self, monkeypatch):
        # without the magnitude bound, CFL 5 overflows within a few steps;
        # the march stops at the first overflow, with no RuntimeWarning
        monkeypatch.setattr(continuum, "_CFL", 5.0)
        monkeypatch.setattr(continuum, "_BOUND", np.inf)
        field = HydroChainField.initial(np.linspace(0.25, 2.25, 81))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergedField, match="chain march overflowed"):
                evolve_hydro_chain(field, 0.3)

    def test_rhs_evaluates_past_the_march_bound(self):
        # u^0 reaches 112 at t = 0.49; the RHS used to refuse any field past 50
        x = np.linspace(0.25, 2.25, 81)
        field = HydroChainField.scaling(x, 0.49)
        assert np.max(field.u) > 100.0
        du, dv = hydro_chain_rhs(field)
        want = ref.chain_rhs_arrays(field.dx, np.vstack([field.u, field.v]),
                                    field.k_neg, "copy", "copy")
        assert np.max(np.abs(du - want[:-1])) <= 1e-13 * np.max(np.abs(want[:-1]))
        assert np.array_equal(dv, want[-1])

    def test_rhs_overflow_raises_typed_error(self):
        # u^0, u^1 and so u^0_x near 1e110 put u^1 u^1 u^0_x past the double range
        x = np.linspace(0.25, 2.25, 41)
        f = HydroChainField.initial(x)
        u = f.u.copy()
        u[f.k_neg:f.k_neg + 2] = 1e110 * (1.0 + x)
        field = HydroChainField(x, u, f.v, f.k_neg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergedField, match="chain rates overflowed"):
                hydro_chain_rhs(field)

    @pytest.mark.parametrize("t_target", [np.nan, np.inf])
    def test_non_finite_target_refused(self, t_target):
        # a NaN target used to return the start field, stamped NaN, after 0 steps
        field = HydroChainField.initial(np.linspace(0.25, 2.25, 21))
        with pytest.raises(ValueError, match="t_target must be finite"):
            evolve_hydro_chain(field, t_target)

    def test_target_before_the_time_stamp_refused(self):
        field = HydroChainField.scaling(np.linspace(0.25, 2.25, 21), 0.1)
        with pytest.raises(ValueError, match="must not precede the field's time stamp"):
            evolve_hydro_chain(field, 0.05)

    @pytest.mark.parametrize("t_target", [0.5, 0.6])
    def test_scaling_check_refuses_blow_up_before_the_march(self, monkeypatch, t_target):
        # each marched about 0.1 s, then raised "field magnitude exceeded 50.0"
        def no_march(*args, **kwargs):
            raise AssertionError("marched past the blow-up")

        monkeypatch.setattr(continuum, "evolve_hydro_chain", no_march)
        with pytest.raises(PreBreakingViolated, match="1/2"):
            hydro_scaling_check(t_target=t_target, n_x=41)

    def test_scaling_check_refuses_a_target_that_is_not_finite_before_the_march(
            self, monkeypatch):
        # NaN reached the march, which refused it as "t_target must be finite"
        def no_march(*args, **kwargs):
            raise AssertionError("marched to a target that is not finite")

        monkeypatch.setattr(continuum, "evolve_hydro_chain", no_march)
        with pytest.raises(ValueError, match="t must be finite, got nan"):
            hydro_scaling_check(t_target=float("nan"), n_x=41)


class TestHydroStepper:
    """The march on the shared RK4 step equals the stages written out on the
    (u, v) pair, bit for bit."""

    def test_driven_strips(self):
        lib, l_stats = ref.hydro_scaling_run()
        loop, r_stats = ref.hydro_scaling_run(march=ref.evolve_hydro_chain)
        assert l_stats == r_stats
        assert np.array_equal(lib.u, loop.u) and np.array_equal(lib.v, loop.v)
        assert lib.time == loop.time

    def test_one_drive_call_per_distinct_time(self):
        x = np.linspace(0.25, 2.25, 101)
        drive, times = ref.counted_scaling_drive()
        _, stats = evolve_hydro_chain(HydroChainField.initial(x, 4, 6), 0.05,
                                      edge_drive=drive)
        # the start, then t + h/2 and t + h of every step; the stage at t
        # reuses the values set at the end of the step before
        assert stats["steps"] > 1
        assert len(times) == 2 * stats["steps"] + 1
        assert len(set(times)) == len(times) and times == sorted(times)

    def test_frozen_strips(self):
        field = HydroChainField.initial(np.linspace(0.25, 2.25, 201), 4, 6)
        lib, l_stats = evolve_hydro_chain(field, 0.05)
        loop, r_stats = ref.evolve_hydro_chain(field, 0.05)
        assert l_stats == r_stats and l_stats["steps"] > 1
        assert np.array_equal(lib.u, loop.u) and np.array_equal(lib.v, loop.v)


def _chain_state(rng, k_neg, k_pos, n_x):
    y = rng.uniform(-2.0, 2.0, (k_neg + k_pos + 2, n_x))
    y[k_neg] = rng.uniform(0.5, 2.0, n_x)
    y[-1] = rng.uniform(-1.0, 1.0, n_x)
    return y


class TestHydroKernel:
    """The RHS bound once per march repeats the allocating table RHS bit for
    bit, call after call."""

    @given(st.integers(2, 9), st.integers(2, 9), st.integers(5, 241),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bound_kernel_matches_allocating(self, k_neg, k_pos, n_x, seed):
        rng = np.random.default_rng(seed)
        states = [_chain_state(rng, k_neg, k_pos, n_x) for _ in range(2)]
        dx = 2.0 / (n_x - 1)
        args = (dx, states[0].shape, k_neg)
        full = continuum._hydro_kernel(*args)
        inner = continuum._hydro_kernel(*args, edges=False)
        out, out_inner = np.full_like(states[0], np.nan), np.full_like(states[0], np.nan)
        # two states through the same kernel and buffers, each against a fresh call
        for y in states:
            want = ref.table_rhs_arrays(dx, y, k_neg, "copy", "copy")
            assert full(y, out) is out
            assert out.tobytes() == want.tobytes()
            # the march's kernel leaves the strips' rates, which it zeroes
            inner(y, out_inner)
            assert out_inner[:, 2:-2].tobytes() == want[:, 2:-2].tobytes()
        # the public RHS binds the same kernel for one call
        field = HydroChainField(np.linspace(0.25, 2.25, n_x), states[1][:-1].copy(),
                                states[1][-1].copy(), k_neg)
        du, dv = hydro_chain_rhs(field)
        want = ref.table_rhs_arrays(field.dx, np.vstack([field.u, field.v]), k_neg,
                                    "copy", "copy")
        assert du.tobytes() == want[:-1].tobytes() and dv.tobytes() == want[-1].tobytes()

    @pytest.mark.parametrize("k_neg,k_pos,n_x,driven", [
        (4, 6, 201, True), (3, 4, 57, True), (2, 2, 9, False), (9, 9, 241, False)])
    def test_skipped_strip_march_bitwise(self, k_neg, k_pos, n_x, driven):
        # the march skips the strips' derivatives, whose rates it zeroes; the
        # reference loop forms them full width at every stage
        x = np.linspace(0.25, 2.25, n_x)
        start = HydroChainField.initial(x, k_neg, k_pos)
        u = start.u + 0.01 * np.random.default_rng(n_x).standard_normal(start.u.shape)
        field = HydroChainField(x, u, start.v, k_neg)
        drive = ref.counted_scaling_drive(k_neg, k_pos)[0] if driven else None
        lib, l_stats = evolve_hydro_chain(field, 0.04, edge_drive=drive)
        loop, r_stats = ref.evolve_hydro_chain(field, 0.04, edge_drive=drive)
        assert l_stats == r_stats and l_stats["steps"] > 1
        assert lib.u.tobytes() == loop.u.tobytes() and lib.v.tobytes() == loop.v.tobytes()


class TestChainTable:
    """The RHS, matrix and gradient read from one monomial table agree with
    the hand-written rows and the per-monomial loops."""

    @given(st.integers(2, 9), st.integers(2, 9), st.integers(5, 241),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rhs_matches_written_rows(self, k_neg, k_pos, n_x, seed):
        rng = np.random.default_rng(seed)
        x = np.linspace(0.25, 2.25, n_x)
        u = rng.uniform(-2.0, 2.0, (k_neg + k_pos + 1, n_x))
        u[k_neg] = rng.uniform(0.5, 2.0, n_x)
        v = rng.uniform(-1.0, 1.0, n_x)
        field = HydroChainField(x, u, v, k_neg)
        du, dv = hydro_chain_rhs(field)
        ref_rates = ref.chain_rhs_arrays(field.dx, np.vstack([field.u, field.v]),
                                         k_neg, "copy", "copy")
        ref_du, ref_dv = ref_rates[:-1], ref_rates[-1]
        # the table sums each row's monomials in its own order
        assert np.max(np.abs(du - ref_du)) <= 1e-13 * np.max(np.abs(ref_du))
        assert np.array_equal(dv, ref_dv)

    def test_march_matches_written_rows(self):
        table, t_stats = ref.hydro_scaling_run(t_target=0.1, n_x=101)
        rows, r_stats = ref.hydro_scaling_run(ref.chain_rhs_arrays,
                                              t_target=0.1, n_x=101)
        assert t_stats == r_stats
        assert np.max(np.abs(table.u - rows.u)) <= 1e-12
        assert np.max(np.abs(table.v - rows.v)) <= 1e-12

    @given(st.integers(4, 14), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matrix_and_gradient_match_term_loop(self, window, seed):
        u = np.random.default_rng(seed).uniform(-3.0, 3.0, 2 * window + 1)
        pt = TensorPoint(u, window)
        plan = _tensor_plan(window)
        dA = _matrix_entries(_point_row(pt), plan)[1]
        assert np.array_equal(chain_matrix(pt), ref.chain_matrix(pt))
        assert np.array_equal(_dense(plan, plan.d_code, dA, 3), ref.matrix_gradient(pt))


class TestReducedContinuum:
    def test_gaussian_point(self):
        dwm1, dw, meta = reduced_continuum_rhs(0.5, [2.0, 2.0, 2.0, 2.0])
        assert abs(dwm1 - 1.0) < 1e-12
        assert np.max(np.abs(dw)) < 1e-12
        assert meta["x_independence"] < 1e-12

    def test_matches_lattice_reduction_off_point(self):
        dwm1, dw, _ = reduced_continuum_rhs(0.7, [1.5, 2.5, 2.0])
        l_dwm1, l_dw = reduced_chain_rhs(
            ReducedChainState(0.7, np.array([1.5, 2.5, 2.0])))
        assert abs(dwm1 - l_dwm1) < 1e-12
        assert np.max(np.abs(dw[:-1] - l_dw[:-1])) < 1e-12

    def test_matches_lattice_reduction_past_the_march_bound(self):
        # W^1 = 60 lies past the march's bound, which the RHS no longer reads
        dwm1, dw, _ = reduced_continuum_rhs(0.5, [60.0, 2.0, 2.0, 2.0])
        l_dwm1, l_dw = reduced_chain_rhs(
            ReducedChainState(0.5, np.array([60.0, 2.0, 2.0, 2.0])))
        scale = max(abs(l_dwm1), np.max(np.abs(l_dw)))
        assert abs(dwm1 - l_dwm1) <= 1e-14 * scale
        assert np.max(np.abs(dw[:-1] - l_dw[:-1])) <= 1e-14 * scale

    @given(st.integers(2, 12), st.floats(0.1, 3.0, exclude_min=True, exclude_max=True),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_copied_bottom_row_is_the_zero_row(self, K, wm1, seed):
        # on the x-independent manifold the window's bottom row is zero, so
        # copying it closes the window as pinning 0 does, bit for bit
        w = np.random.default_rng(seed).uniform(-3.0, 3.0, K)
        x = np.linspace(0.5, 1.5, 41)
        k_neg = 3
        rows = np.zeros((k_neg + K + 1, len(x)))
        rows[k_neg - 1] = wm1
        rows[k_neg] = 2.0 * x * wm1
        rows[k_neg + 1:] = w[:, None]
        field = HydroChainField(x, rows, np.full_like(x, -wm1 / 2.0), k_neg)
        du, dv = hydro_chain_rhs(field)
        want = ref.table_rhs_arrays(field.dx, np.vstack([field.u, field.v]), k_neg,
                                    "copy", 0.0)
        assert du.tobytes() == want[:-1].tobytes() and dv.tobytes() == want[-1].tobytes()


class TestTensors:
    def test_point_guards(self):
        with pytest.raises(ValueError):
            TensorPoint(np.ones(7), 3)
        with pytest.raises(ValueError):
            TensorPoint(np.ones(7), 4)
        pt = TensorPoint(np.ones(9), 4)
        with pytest.raises(IndexOutOfWindow):
            pt.guard(2)
        with pytest.raises(IndexOutOfWindow):
            nijenhuis(0, 0, 2, pt)

    def test_spot_values(self):
        W = 9
        ones = TensorPoint(np.ones(2 * W + 1), W)
        u = np.ones(2 * W + 1)
        u[W] = 0.5
        half = TensorPoint(u, W)
        assert abs(nijenhuis(5, 0, 5, ones) + 4.0) < 1e-12
        assert abs(nijenhuis(5, 0, 5, half) + 2.0) < 1e-12
        assert abs(nijenhuis(1, 0, 1, ones) + 6.0) < 1e-12
        assert abs(nijenhuis(-2, -1, 1, ones) + 2.0) < 1e-12
        assert abs(nijenhuis(-2, 0, -1, ones) - 2.0) < 1e-12

    def test_antisymmetry_and_closed_form(self, rng):
        W = 9
        u = rng.uniform(-2.0, 2.0, 2 * W + 1)
        u[W] = 1.3
        pt = TensorPoint(u, W)
        for i, j, k in ((2, 1, -1), (0, 3, 2), (-1, 0, 1), (4, -2, 3)):
            a = nijenhuis(i, j, k, pt)
            assert abs(a + nijenhuis(i, k, j, pt)) < 1e-13
            assert abs(a - nijenhuis_closed_form(i, j, k, pt)) < 1e-12

    def test_closed_form_reads_the_mirrored_entry(self, rng):
        # the table holds N^3_{04}; N^3_{40} is its mirror
        W = 9
        u = rng.uniform(-2.0, 2.0, 2 * W + 1)
        u[W] = 1.3
        pt = TensorPoint(u, W)
        value = nijenhuis_closed_form(3, 4, 0, pt)
        assert value != 0.0
        assert value == -nijenhuis_closed_form(3, 0, 4, pt)
        assert abs(value - nijenhuis(3, 4, 0, pt)) < 1e-12 * abs(value)

    def test_haantjes_vanishes(self, rng):
        W = 10
        u = rng.uniform(-2.5, 2.5, 2 * W + 1)
        u[W] = 0.8
        pt = TensorPoint(u, W)
        for i, j, k in ((2, 0, 1), (0, 1, -1), (5, -3, 4)):
            assert abs(haantjes(i, j, k, pt)) < 1e-10

    @given(st.integers(4, 14), st.integers(0, 2**32 - 1),
           st.sampled_from([1e-2, 1.0, 3.0, 1e2]))
    @settings(max_examples=60, deadline=None)
    def test_compiled_tensors_match_dense(self, window, seed, scale):
        # The compiled sums add the same products as the dense contractions,
        # aggregated by position and signed the same way, but in their own
        # order.  Each component may differ by a few roundings of the size
        # of the terms it sums (read off the sums on |A|, |dA| with every
        # sign +); 8 eps of that size bounds it (at most 1.01 eps is seen
        # over windows 4-14).  Structural zeros must come out exactly 0.
        rng = np.random.default_rng(seed)
        u = scale * rng.uniform(-1.0, 1.0, 2 * window + 1)
        u[window] = rng.uniform(0.5, 2.0)
        pt = TensorPoint(u, window)
        plan = _tensor_plan(window)
        A, dA = ref.chain_matrix(pt), ref.matrix_gradient(pt)
        N_ref = ref.nijenhuis_tensor(A, dA)
        H_ref = ref.haantjes_tensor(N_ref, A)
        N_mag, H_mag = ref.tensor_magnitudes(A, dA)
        N, H = _tensor_entries(_point_row(pt), plan)
        N, H = _dense(plan, plan.n_code, N, 3), _dense(plan, plan.h_code, H, 3)
        rel = 8.0 * np.finfo(float).eps
        assert np.all(np.abs(N - N_ref) <= rel * N_mag)
        g = slice(3, plan.n - 3)
        half = _upper(plan)[g, g]
        assert np.all((np.abs(H - H_ref)[g, g, g] <= rel * H_mag[g, g, g])[:, half])
        # the compiled H holds the j < k half of the guarded block only, and
        # the queries read it and its mirror
        inside = _dense(plan, plan.h_code, 1.0, 3)[g, g, g]
        assert len(plan.h_code) == np.count_nonzero(inside[:, half])
        H = H - H.transpose(0, 2, 1)
        i, j, k = rng.integers(3 - window, window - 2, 3)
        assert nijenhuis(i, j, k, pt) == N[i + window, j + window, k + window]
        assert haantjes(i, j, k, pt) == H[i + window, j + window, k + window]

    @pytest.mark.parametrize("W", [4, 10, 14])
    def test_planned_paths_match_einsum(self, rng, W):
        # the window's planned sums against einsum's own dense contractions,
        # to the same 8 eps of the term sizes as the test above
        pt = TensorPoint(rng.uniform(-3.0, 3.0, 2 * W + 1), W)
        plan = _tensor_plan(W)
        A, dA = ref.chain_matrix(pt), ref.matrix_gradient(pt)
        t1 = np.einsum("pj,pik->ijk", A, dA, optimize=True)
        t3 = np.einsum("ip,jpk->ijk", A, dA, optimize=True)
        N_ref = t1 - t1.transpose(0, 2, 1) - t3 + t3.transpose(0, 2, 1)
        H_ref = (np.einsum("ipr,pj,rk->ijk", N_ref, A, A, optimize=True)
                 - np.einsum("pjr,ip,rk->ijk", N_ref, A, A, optimize=True)
                 - np.einsum("prk,ip,rj->ijk", N_ref, A, A, optimize=True)
                 + np.einsum("pjk,ir,rp->ijk", N_ref, A, A, optimize=True))
        N_mag, H_mag = ref.tensor_magnitudes(A, dA)
        N, H = _tensor_entries(_point_row(pt), plan)
        N, H = _dense(plan, plan.n_code, N, 3), _dense(plan, plan.h_code, H, 3)
        rel = 8.0 * np.finfo(float).eps
        assert np.all(np.abs(N - N_ref) <= rel * N_mag)
        g = slice(3, plan.n - 3)
        half = _upper(plan)[g, g]
        assert np.all((np.abs(H - H_ref)[g, g, g] <= rel * H_mag[g, g, g])[:, half])

    @pytest.mark.parametrize("W", range(4, 15))
    def test_h_is_compiled_on_its_guarded_half(self, rng, W):
        # H^i_jk = -H^i_kj, so the plan computes j < k only: its entries are
        # the guarded positions with j < k where some product lands, which
        # the sums on |A|, |dA| read as nonzero at a generic point
        pt = TensorPoint(rng.uniform(0.5, 2.0, 2 * W + 1), W)
        plan = _tensor_plan(W)
        H_mag = ref.tensor_magnitudes(ref.chain_matrix(pt), ref.matrix_gradient(pt))[1]
        g = np.abs(np.arange(plan.n) - W) <= W - 3
        keep = (H_mag != 0) & g[:, None, None] & g[:, None] & g & _upper(plan)
        assert plan.h_code.tolist() == np.flatnonzero(keep).tolist()

    @pytest.mark.parametrize("W", [5, 6])
    def test_haantjes_queries_are_antisymmetric_bit_for_bit(self, rng, W):
        # the mirrored half is read off the computed one, so the two agree
        # to the bit, and the diagonal j == k is exactly 0
        u = rng.uniform(-3.0, 3.0, 2 * W + 1)
        u[W] = rng.uniform(0.5, 2.0)
        pt, g = TensorPoint(u, W), W - 3
        for i, j, k in itertools.product(range(-g, g + 1), repeat=3):
            if j < k:
                assert haantjes(i, j, k, pt) == -haantjes(i, k, j, pt)
            elif j == k:
                assert haantjes(i, j, k, pt) == 0.0

    def test_point_refuses_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            TensorPoint(np.full(21, np.nan), 10)
        u = np.ones(21)
        u[4] = np.inf
        with pytest.raises(ValueError, match="finite"):
            TensorPoint(u, 10)

    def test_overflowing_component_raises(self):
        u = np.full(21, 1e120)
        with pytest.raises(DivergedField, match="not finite"):
            haantjes(1, 2, 3, TensorPoint(u, 10))

    def test_scan(self):
        report = haantjes_scan(window=10, n_points=5, seed=99)
        assert report.passed
        with pytest.raises(ValueError):
            haantjes_scan(window=8)

    @given(st.integers(10, 14), st.integers(1, 60), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_scan_equals_the_point_by_point_reference(self, window, n_points, seed):
        report = haantjes_scan(window=window, n_points=n_points, seed=seed)
        want = ref.haantjes_scan(window=window, n_points=n_points, seed=seed)
        assert report.to_json() == want.to_json()

    def test_default_scan_equals_the_point_by_point_reference(self):
        assert haantjes_scan().to_json() == ref.haantjes_scan().to_json()

    @given(st.integers(4, 14), st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_closed_table_equals_the_scalar_rows(self, window, n_points, seed):
        # u0 = 1.8903560604397107 squares to another last bit as u0 * u0
        # than as Python's u0 ** 2; the table squares as the scalar rows do
        rng = np.random.default_rng(seed)
        u = rng.uniform(-3.0, 3.0, (n_points, 2 * window + 1))
        u[:, window] = rng.uniform(0.5, 2.0, n_points)
        u[0, window] = 1.8903560604397107
        g, sq = window - 3, _u0_squares(u)
        for i in range(-g, g + 1):
            table = _closed_table(u, sq, i)
            for p in range(n_points):
                row = ref.closed_table_row(TensorPoint(u[p], window), i)
                assert list(table) == list(row)
                assert all(table[key][p] == value for key, value in row.items())

    @pytest.mark.parametrize("W", range(10, 15))
    def test_closed_form_lands_on_guarded_n_entries(self, W):
        # every tabulated position is one of N's guarded entries, once each,
        # so the scan compares on those entries alone
        plan, at, g = _tensor_plan(W), _closed_layout(W), W - 3
        kept = sum(max(abs(j), abs(k)) <= g for i in range(-g, g + 1)
                   for j, k in _closed_table(np.ones((1, 2 * W + 1)), np.ones(1), i))
        assert len(at) == len(plan.n_guarded)
        assert np.count_nonzero(at < at.max()) == 2 * kept

    def test_compiling_and_scanning_leave_numpy_ma_out(self):
        # a plain np.unique imports numpy.ma, about 1 MB of memory
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(continuum.__file__)))
        code = ("import sys, taulattice\n"
                "from taulattice.continuum import _closed_layout, _tensor_plan, haantjes_scan\n"
                "for W in range(10, 15):\n"
                "    _tensor_plan(W), _closed_layout(W)\n"
                "haantjes_scan(window=10, n_points=3)\n"
                "print('numpy.ma' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("W", range(10, 15))
    def test_plan_indices_are_intp(self, W):
        plan = _tensor_plan(W)
        coef, first, second = plan.terms
        arrays = [first, second, plan.a_slot, plan.a_code, plan.d_slot, plan.d_other,
                  plan.d_code, *plan.n_pairs, plan.n_terms, plan.n_code, *plan.i_pairs,
                  *plan.h_pairs, plan.h_terms, plan.h_code, plan.n_guarded,
                  plan.block_code]
        assert [a.dtype for a in arrays] == [np.dtype(np.intp)] * len(arrays)

    @pytest.mark.parametrize("kwargs,name", [({"window": 10.5, "n_points": 1}, "window"),
                                             ({"window": True}, "window"),
                                             ({"n_points": 2.5}, "n_points"),
                                             ({"n_points": 2.0}, "n_points"),
                                             ({"n_points": True}, "n_points")])
    def test_scan_refuses_a_size_that_is_not_an_integer(self, kwargs, name):
        # 10.5 and 2.5 failed inside with a bare TypeError, and n_points=True
        # ran one point
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            haantjes_scan(**kwargs)

    def test_scan_takes_numpy_integers(self):
        report = haantjes_scan(window=np.int64(11), n_points=np.int32(3), seed=5)
        assert report.to_json() == haantjes_scan(window=11, n_points=3, seed=5).to_json()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ijk,u0,u1", [((1, 1, 2), 1e200, 1.0), ((3, 0, 4), 1e160, 1.0),
                                           ((3, 0, 2), 1e150, 1e200)])
    def test_closed_form_overflow_refused_as_the_scalar_rows(self, ijk, u0, u1):
        u = np.ones(21)
        u[10], u[11] = u0, u1
        pt = TensorPoint(u, 10)
        with pytest.raises(DivergedField) as want:
            ref.nijenhuis_closed_form(*ijk, pt)
        with pytest.raises(DivergedField) as got:
            nijenhuis_closed_form(*ijk, pt)
        assert str(got.value) == str(want.value)
        assert type(got.value.__cause__) is type(want.value.__cause__)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ijk,u0,u1", [((1, 1, 2), 1e200, 1.0), ((3, 0, 4), 1e160, 1.0),
                                           ((3, 0, 2), 1e150, 1e200)])
    def test_closed_form_overflow_is_typed(self, ijk, u0, u1):
        # u0 ** 2 on Python floats raised a bare OverflowError; u0 * u1 gave inf
        u = np.ones(21)
        u[10], u[11] = u0, u1
        with pytest.raises(DivergedField, match="closed-form"):
            nijenhuis_closed_form(*ijk, TensorPoint(u, 10))

    @pytest.mark.parametrize("window,n_u", [(10.5, 22), (10.0, 21), (np.float64(10.0), 21),
                                            (True, 3), ("10", 21)],
                             ids=["10.5", "float", "float64", "bool", "str"])
    def test_point_refuses_a_window_that_is_not_an_integer(self, window, n_u):
        # 10.5 with 22 values was accepted, and later queries failed with a
        # bare TypeError or IndexError
        with pytest.raises(ValueError, match="window must be an integer"):
            TensorPoint(np.ones(n_u), window)

    def test_point_takes_numpy_integers(self):
        pt = TensorPoint(np.ones(21), np.int64(10))
        assert nijenhuis(np.int64(1), np.int32(0), np.int64(1), pt) == -6.0

    @pytest.mark.parametrize("query", [nijenhuis, nijenhuis_closed_form, haantjes])
    @pytest.mark.parametrize("ijk", [(1.7, 0, 2), (0, 2.0, 1), (True, 0, 1),
                                     (1, 0, np.bool_(True)), (np.nan, 0, 1)],
                             ids=["1.7", "2.0", "True", "bool_", "nan"])
    def test_index_that_is_not_an_integer_refused(self, query, ijk):
        # int() truncated 1.7 to 1 (a component of 0.0), read True as 1
        # (N^1_{01} = -6 at u = 1) and raised numpy's message on NaN
        bad = next(q for q in ijk if not isinstance(q, int) or isinstance(q, bool))
        with pytest.raises(ValueError, match=f"tensor index must be an integer, "
                                             f"got {re.escape(repr(bad))}"):
            query(*ijk, TensorPoint(np.ones(21), 10))


def test_lattice_continuum_convergence():
    report = continuum_convergence()
    assert report.passed
    for r in report.meta["volterra_ratios"]:
        assert 1.9 < r < 2.1
    assert report.meta["pfaff_error_scaled"] < 1e-9
