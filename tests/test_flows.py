import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_kernels as ref
from taulattice import (DivergedField, EvolutionResult, PfaffLax,
                        PreBreakingViolated, ReducedChainState, StructureViolation,
                        TauLatticeError, TodaLax,
                        UnsupportedKind, VolterraState, c_coeff, evolve_pfaff,
                        evolve_reduced, evolve_toda, evolve_volterra,
                        exact_oracles, goe_lax_init, gue_lax_init,
                        pfaff_chain_rhs, pfaff_commutator_rhs,
                        reduced_chain_rhs, toda_rhs, volterra_rhs)
from taulattice import cli, flows
from taulattice.flows import evolve


class TestTridiagonal:
    def test_first_flow_gue_rates(self):
        da, db = toda_rhs(gue_lax_init(10), flow=1)
        assert np.allclose(da[:-1], 1.0, rtol=0, atol=1e-14)
        assert abs(da[-1] + 9.0) < 1e-14         # finite-matrix closure
        assert np.all(db == 0.0)

    def test_second_flow_is_volterra_in_b_squared(self, rng):
        b = rng.uniform(0.5, 2.0, 11)
        state = TodaLax(np.zeros(12), b)
        da, db = toda_rhs(state, flow=2)
        assert np.max(np.abs(da)) < 1e-14        # parity of the even flow
        dB = 2.0 * b * db
        ref = volterra_rhs(b * b, flow=2)
        assert np.max(np.abs(dB[:-2] - ref[:-2])) < 1e-12

    def test_bad_flow(self):
        with pytest.raises(ValueError):
            toda_rhs(gue_lax_init(4), flow=3)

    @pytest.mark.parametrize("times, h, match", [
        ([3.0], 0.8, "segment"),            # the step overflows
        ([1.2], 1.2, "off-diagonal"),       # a finite sample has b <= 0
    ])
    def test_non_positive_b_raises_typed_error(self, times, h, match):
        with pytest.raises(DivergedField, match=match):
            evolve_toda(gue_lax_init(16), 1, times, h=h)

    def test_evolve_toda_first_flow_translation(self):
        res = evolve_toda(gue_lax_init(24), 1, [0.1, 0.3], h=1e-2)
        oracle = exact_oracles("t1-translation", times=[0.1, 0.3], n_sites=24)
        for got, want in zip(res.states, oracle.states):
            assert np.max(np.abs(got.a[:16] - want.a[:16])) < 1e-10
            assert np.max(np.abs(got.b[:16] - want.b[:16])) < 1e-10


class TestVolterra:
    def test_rates_on_linear_profile(self):
        n = np.arange(1.0, 21.0)
        assert np.allclose(volterra_rhs(n, 2), 2.0 * n, rtol=1e-13)
        assert np.allclose(volterra_rhs(n, 4), 12.0 * n**2, rtol=1e-13)
        assert np.allclose(volterra_rhs(n, 6), 30.0 * n * (2.0 * n**2 + 1.0),
                           rtol=1e-13)

    def test_bad_flow(self):
        with pytest.raises(ValueError):
            volterra_rhs(np.ones(6), flow=3)

    @pytest.mark.parametrize("B", [np.ones(1), np.ones(0), np.ones((1, 3)), np.array(1.0)],
                             ids=["one", "empty", "one-batch", "scalar"])
    def test_fewer_than_two_sites_refused(self, B):
        # the linear extension reads the last two sites: one site or none
        # raised a bare IndexError
        with pytest.raises(ValueError, match="at least two sites"):
            volterra_rhs(B)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            VolterraState(np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            VolterraState(np.array([]))
        with pytest.raises(ValueError):
            VolterraState(np.array([1.0, np.nan, 2.0]))

    def test_past_blow_up_raises(self):
        # B_n = n/(1-2t) blows up at t = 1/2
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergedField):
                evolve_volterra(VolterraState(np.arange(1.0, 65.0)), 2, [0.6],
                                h=1e-3)

    def test_site_that_turns_non_positive_is_named(self):
        # a closure site extrapolated below 0 ended in VolterraState's bare
        # "B must stay positive"
        B = np.random.default_rng(1).uniform(0.5, 1.5, 40)
        with pytest.raises(DivergedField, match=r"site B_40 \(closure\) = -0\.0429 <= 0 "
                                                r"at t=0\.3 after RK4 steps of h=0\.001"):
            evolve_volterra(VolterraState(B), 4, [0.1, 0.2, 0.3], h=1e-3)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4]),
           st.lists(st.floats(1e-3, 0.3), min_size=1, max_size=3, unique=True).map(sorted))
    @example(1, 4, [0.1, 0.2, 0.3])
    @settings(max_examples=20, deadline=None)
    def test_rough_lines_stay_positive_or_are_refused(self, seed, flow, times):
        B = np.random.default_rng(seed).uniform(0.5, 1.5, 40)
        try:
            res = evolve_volterra(VolterraState(B), flow, times, h=1e-3)
        except TauLatticeError:
            return
        assert all(np.all(state.B > 0) for state in res.states)

    def test_ghost_policies_on_scaling_family(self):
        # the right-edge closure is exact on B_n = n/(1-2t)
        B0 = np.arange(1.0, 25.0)
        res = evolve_volterra(VolterraState(B0), 2, [0.1], h=1e-3)
        n_ev = res.stats["n_evolve"]
        assert np.abs(res.states[-1].B[:n_ev] - B0[:n_ev] / 0.8).max() < 1e-10

    def test_bad_ghost(self):
        # one right-edge closure: neither evolver nor the CLI takes a choice
        with pytest.raises(TypeError):
            evolve_volterra(VolterraState(np.arange(1.0, 9.0)), 2, [0.1], ghost="scaled")
        with pytest.raises(TypeError):
            evolve_pfaff(goe_lax_init(12, 4, 4), [0.1], ghost="scaled")
        assert cli.main(["evolve", "volterra", "--t2", "0.1", "--ghost", "pin"]) == 2

    def test_influence_front_shrinks(self):
        res = evolve_volterra(VolterraState(np.arange(1.0, 33.0)), 2,
                              [0.05, 0.1], h=1e-3)
        assert res.stats["influence_index"] < res.stats["n_evolve"]

    @given(st.integers(8, 256), st.floats(1e-6, 0.2))
    @settings(max_examples=20, deadline=None)
    def test_influence_front_counts_from_zero(self, N, horizon):
        # the interval [0, first sample] moves the front too: one sample at
        # a positive horizon leaves it below n_evolve (N = 256 to t = 0.2
        # read 252 = n_evolve when that interval was skipped)
        res = evolve_volterra(VolterraState(np.arange(1.0, N + 1.0)), 2, [horizon],
                              h=1e-3)
        assert res.stats["influence_index"] < res.stats["n_evolve"]

    def test_influence_front_one_sample_other_evolvers(self):
        pfaff = evolve_pfaff(goe_lax_init(64, 6, 6), [0.2], h=1e-3)
        assert pfaff.stats["influence_index"] < pfaff.stats["n_evolve"]
        red = evolve_reduced(ReducedChainState(0.5, np.full(6, 2.0)), [0.2])
        assert red.stats["influence_index"] < 6
        toda = evolve_toda(gue_lax_init(64), 1, [0.2])
        assert toda.stats["influence_index"] < 64


_EVERY_MARCH = pytest.mark.parametrize("march", [
    lambda times, h=1e-3: evolve_volterra(VolterraState(np.arange(1.0, 9.0)), 2, times, h=h),
    lambda times, h=1e-3: evolve_toda(gue_lax_init(6), 1, times, h=h),
    lambda times, h=1e-3: evolve_pfaff(goe_lax_init(12, 4, 4), times, h=h),
    lambda times, h=1e-3: evolve_reduced(ReducedChainState(0.5, np.full(4, 2.0)), times, h=h),
    lambda times, h=1e-3: evolve(lambda t, y: y, np.ones(2), times, h=h),
], ids=["volterra", "toda", "pfaff", "reduced", "evolve"])


def _refused_before_the_march(monkeypatch, match, march, *args):
    def no_march(*args):
        raise AssertionError("marched before the arguments were checked")

    monkeypatch.setattr(flows, "_rk4_segment", no_march)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            march(*args)


@pytest.mark.parametrize("times", [[np.inf], [np.nan], [0.1, np.inf]])
@_EVERY_MARCH
def test_non_finite_times_refused_before_the_march(monkeypatch, march, times):
    _refused_before_the_march(monkeypatch, "times must be finite", march, times)


@pytest.mark.parametrize("h", [np.inf, np.nan, 0.0, -1.0])
@_EVERY_MARCH
def test_bad_step_refused_before_the_march(monkeypatch, march, h):
    # h = inf used to take one step per sample interval, h = nan to end in
    # a bare float-to-integer conversion error
    _refused_before_the_march(monkeypatch, "h must be finite and positive", march, [0.1], h)


def _orbit(B, flow, order):
    """Taylor coefficients c_0..c_order of the flow's orbit through B."""
    series = B[None, :]
    for k in range(order):
        series = np.vstack([series, flows._volterra_jet(series, flow, k) / (k + 1)])
    return series


class TestVolterraJets:
    @given(st.sampled_from([2, 4, 6]), st.integers(2, 60), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_order_zero_is_the_rhs(self, flow, n_sites, seed):
        B = np.random.default_rng(seed).uniform(0.1, 3.0, n_sites)
        assert np.array_equal(flows._volterra_jet(B[None, :], flow, 0),
                              volterra_rhs(B, flow))

    def test_scaling_family(self):
        # B_n(x) = n / (1 - 2x) on the whole line, ghosts included: c_k = 2^k n,
        # and X_4, X_6 are homogeneous of degree 3 and 4 in B
        # (rounding grows with the order read: 1.7e-14 at c_3, 1.1e-13 at c_4)
        n = np.arange(1.0, 41.0)
        series = _orbit(n, 2, 3)
        for k in range(4):
            exact = 2.0 ** k * n
            assert np.abs(series[k] - exact).max() <= 1e-13 * exact.max(), k
        assert np.allclose(flows._volterra_jet(series, 4, 1), 72.0 * n ** 2,
                           rtol=1e-14, atol=0)
        assert np.allclose(flows._volterra_jet(series, 6, 1),
                           240.0 * n * (2.0 * n ** 2 + 1.0), rtol=1e-14, atol=0)

    @given(st.integers(16, 48), st.floats(0.05, 2.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_flows_commute_along_the_jets(self, n_sites, spread, seed):
        # d_x d_y B both ways: X_4 along the flow-2 series, X_2 along the
        # flow-4 series.  The linear ghosts do not commute, and the last two
        # sites read them; elsewhere 2000 random lines read <= 1.3e-15
        B = 0.3 + np.random.default_rng(seed).uniform(0.0, spread, n_sites)
        xy = flows._volterra_jet(_orbit(B, 2, 1), 4, 1)[:-2]
        yx = flows._volterra_jet(_orbit(B, 4, 1), 2, 1)[:-2]
        assert np.abs(xy - yx).max() <= 1e-13 * np.abs(xy).max()

    def test_overflow_is_diverged_field(self):
        B = np.full((1, 12), 1e120)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(flows._volterra_jet(B, 2, 0)).all()
            with pytest.raises(DivergedField, match="flow-4 jet coefficient 0"):
                flows._volterra_jet(B, 4, 0)


def _stepper_system(kind, shape, seed):
    """f(t, y) of a random linear or quadratic system with a time-dependent
    source, on a state of `shape`: () for a scalar, (n,) for a line and
    (n, m) for a stack of m columns."""
    rng = np.random.default_rng(seed)
    n = shape[0] if shape else 1
    A = rng.normal(0.0, 1.0 / n, (n, n))       # tame: no blow-up before t = 2
    c = rng.normal(0.0, 0.1, shape)

    def lin(y):
        return A @ y if shape else A[0, 0] * y

    if kind == "linear":
        return lambda t, y: lin(y) + np.cos(t) * c
    if kind == "quadratic":
        return lambda t, y: 0.5 * y * lin(y) - 0.25 * y * y + t * c
    return lambda t, y: y * y + 1.0        # blows up at t = pi/2 - arctan(y0)


def _counted(f):
    """(rhs(t, y, out), reference f(t, y), calls): both evaluate f and
    append to calls."""
    calls = []

    def rhs(t, y, out):
        calls.append(t)
        out[...] = f(t, y)

    def direct(t, y):
        calls.append(t)
        return f(t, y)
    return rhs, direct, calls


class TestStepper:
    @given(st.sampled_from(["linear", "quadratic"]),
           st.sampled_from([(), (1,), (7,), (5, 3)]),
           st.sampled_from([4e-3, 0.02, 0.05, 0.2]),
           st.sampled_from([0.0, 0.3]), st.sampled_from([0.01, 0.25, 1.0]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_stepper_equals_reference_rk4(self, kind, shape, h, t0, span, seed):
        # the stage buffers repeat the fresh-array RK4 step bit for bit,
        # with each stage at its time
        f = _stepper_system(kind, shape, seed)
        y0 = np.random.default_rng(seed + 1).uniform(-0.5, 0.5, shape)
        t1 = t0 + span
        steps, hs = flows._segment_steps(t1 - t0, h)
        rhs, direct, calls = _counted(f)
        expect = np.array(y0)
        with np.errstate(over="raise", invalid="raise"):
            for i in range(steps):
                expect = ref.rk4_step(direct, t0 + i * hs, expect, hs)
        ref_calls = calls[:]
        calls.clear()
        y = np.array(y0)
        assert flows._rk4_segment(rhs, y, t0, t1, h) == steps
        assert y.tobytes() == np.asarray(expect).tobytes()
        assert calls == ref_calls
        # the public contract, rhs(t, y) -> array, samples the same states
        times = t0 + span * np.array([0.5, 1.0])
        states, stats = evolve(f, y0, times, h=h)
        expect = np.array(y0)
        t_prev = 0.0
        for t, got in zip(times, states):
            steps, hs = flows._segment_steps(t - t_prev, h)
            for i in range(steps):
                expect = ref.rk4_step(f, t_prev + i * hs, expect, hs)
            assert got.tobytes() == np.asarray(expect).tobytes()
            t_prev = t
        assert stats["steps"] == sum(flows._segment_steps(d, h)[0]
                                     for d in np.diff(np.r_[0.0, times]))

    @given(st.sampled_from(["linear", "quadratic"]), st.sampled_from([(), (7,), (5, 3)]),
           st.lists(st.sampled_from([4e-3, 0.01, 0.01 / 3.0, 0.05]), min_size=1,
                    max_size=12),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_step_sizes_may_change_between_steps(self, kind, shape, sizes, seed):
        # the stepper keeps h/2, h and h/6 between steps and must renew them
        # whenever h changes, as the chain march's CFL steps do
        f = _stepper_system(kind, shape, seed)
        y0 = np.random.default_rng(seed + 1).uniform(-0.5, 0.5, shape)
        rhs, direct, calls = _counted(f)
        expect, t = np.array(y0), 0.1
        for h in sizes:
            expect = ref.rk4_step(direct, t, expect, h)
            t += h
        ref_calls = calls[:]
        calls.clear()
        y, t = np.array(y0), 0.1
        step = flows._rk4_stepper(rhs, y)
        for h in sizes:
            step(t, h)
            t += h
        assert y.tobytes() == np.asarray(expect).tobytes()
        assert calls == ref_calls

    @given(st.sampled_from([(), (4,), (3, 2)]), st.sampled_from([0.05, 0.2]),
           st.floats(0.5, 20.0))
    @settings(max_examples=30, deadline=None)
    def test_divergence_at_the_reference_step(self, shape, h, y_start):
        # y' = y^2 + 1 overflows; both steppers stop at the same RHS call
        f = _stepper_system("blowup", shape, 0)
        y0 = np.full(shape, y_start)
        rhs, direct, calls = _counted(f)
        expect = np.array(y0)
        with pytest.raises(FloatingPointError):
            with np.errstate(over="raise", invalid="raise"):
                for i in range(10**6):
                    expect = ref.rk4_step(direct, i * h, expect, h)
        ref_calls = calls[:]
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergedField, match="segment"):
                flows._rk4_segment(rhs, np.array(y0), 0.0, 10**6 * h, h)
        assert calls == ref_calls

    def test_rk4_fourth_order(self):
        rhs = lambda t, y: y * y                 # blows up at t=1, exact 1/(1-t)
        e = [abs(evolve(rhs, np.array([1.0]), [0.5], h=h)[0][0][0] - 2.0)
             for h in (0.05, 0.025)]
        assert 14.0 < e[0] / e[1] < 18.0

    def test_stages_see_their_times(self):
        # dy/dt = 3t^2 is integrated exactly only if each stage gets its time
        ys, stats = evolve(lambda t, y: 3.0 * t * t + 0.0 * y, np.zeros(1),
                           [0.5, 1.0], h=0.1)
        assert np.allclose([y[0] for y in ys], [0.125, 1.0], rtol=0, atol=1e-15)
        assert stats == {"stepper": "rk4", "h": 0.1, "steps": 10}

    def test_non_finite_sample_raises(self):
        rhs = lambda t, y: y * y                 # 1/(1-t) blows up at t=1
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergedField):
                evolve(rhs, np.array([1.0]), [0.5, 2.0], h=0.05)
        # NaN input raises no floating-point error; the sample check catches it
        with pytest.raises(DivergedField, match="not finite"):
            evolve(lambda t, y: y, np.array([np.nan]), [0.1])

    def test_input_validation(self):
        rhs = lambda t, y: y
        with pytest.raises(ValueError):
            evolve(rhs, np.ones(1), [0.2, 0.1])
        with pytest.raises(ValueError):
            evolve(rhs, np.ones(1), [-0.1, 0.2])
        with pytest.raises(ValueError):
            evolve(rhs, np.ones(1), [0.1], h=0.0)


class TestBandedChain:
    def test_rates_at_gaussian_point(self):
        lax = goe_lax_init(8, 4, 4)
        rates = pfaff_chain_rhs(lax)
        cn = c_coeff(np.arange(1.0, 9.0))
        expect = np.zeros_like(rates)
        expect[lax.k_neg - 2] = -cn
        expect[lax.k_neg - 1] = 1.0
        expect[lax.k_neg] = cn
        # outermost positive band leans on the absent band above it; edge
        # columns lean on sites beyond the window
        err = np.abs(rates[:-1, :6] - expect[:-1, :6])
        assert err.max() < 1e-13

    def test_chain_matches_dense_commutator(self, rng):
        w = rng.uniform(0.3, 2.0, (9, 14))
        w[:2] *= 1e-2
        state = PfaffLax(w, k_neg=4, k_pos=4)
        chain = pfaff_chain_rhs(state)
        comm = pfaff_commutator_rhs(state)
        scale = np.abs(chain[:, :8]).max()
        assert np.abs(chain[:, :8] - comm[:, :8]).max() < 1e-12 * scale

    def test_evolution_tracks_scaling_family(self):
        res = evolve_pfaff(goe_lax_init(16, 4, 4), [0.02], h=1e-3)
        oracle = exact_oracles("t2-scaling", ensemble="orthogonal",
                               times=[0.02], n_sites=16, k_pos=4, k_neg=4)
        err = np.abs(res.states[0].w[:, :8] - oracle.states[0].w[:, :8])
        assert err.max() < 1e-11

    def test_unstable_step_raises_typed_error(self):
        # h = 1e-3 is past the edge's stability limit at this size
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergedField):
                evolve_pfaff(goe_lax_init(768, 5, 7), [0.2], h=1e-3)

    def test_overflow_stops_the_segment(self):
        # the first overflow ends the run: no RuntimeWarning, no further steps
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergedField, match="segment"):
                evolve_pfaff(goe_lax_init(768, 5, 7), [0.2], h=1e-3)

    def test_evolution_preserves_container(self):
        res = evolve_pfaff(goe_lax_init(12, 3, 3), [0.01], h=1e-3)
        state = res.states[-1]
        assert isinstance(state, PfaffLax)
        assert state.k_neg == 3 and state.k_pos == 3
        assert state.n_sites == 12


_RAMP64 = np.arange(1.0, 65.0)
_BUMP64 = 0.5 + 0.25 * np.exp(-(((_RAMP64 - 10.0) / 4.0) ** 2))   # C06's profile


def _padded_window(seed, k_neg, k_pos, n_sites):
    pad = max(k_neg, k_pos) + 1
    rng = np.random.default_rng(seed)
    return rng.uniform(-2.0, 2.0, (k_neg + k_pos + 3, 1 + n_sites + pad))


class TestKernelEquivalence:
    """The bound chain kernel and the slice kernels repeat the reference
    arithmetic exactly."""

    @given(st.integers(0, 9), st.integers(0, 9), st.integers(3, 300),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_chain_kernel_matches_band_loop(self, k_neg, k_pos, n_sites, seed):
        Q = _padded_window(seed, k_neg, k_pos, n_sites)
        kernel = flows._chain_kernel(Q, k_neg, k_pos, n_sites)
        out = np.full((k_neg + k_pos + 1, n_sites), np.nan)
        assert kernel(out) is out
        assert np.array_equal(out, ref.pfaff_rates(Q, k_neg, k_pos, n_sites))
        # the kernel reads the buffer it was bound to at every call, and
        # fills every entry of the buffer it is given
        Q[...] = _padded_window(seed + 1, k_neg, k_pos, n_sites)
        out[...] = np.nan
        assert np.array_equal(kernel(out), ref.pfaff_rates(Q, k_neg, k_pos, n_sites))

    @pytest.mark.parametrize("k_neg, k_pos", [(2, 2), (9, 2), (2, 9)])
    def test_single_band_families(self, k_neg, k_pos):
        # a side with k = 2 has one band in its uniform family
        Q = _padded_window(k_neg + k_pos, k_neg, k_pos, 3)
        out = np.empty((k_neg + k_pos + 1, 3))
        assert np.array_equal(flows._chain_kernel(Q, k_neg, k_pos, 3)(out),
                              ref.pfaff_rates(Q, k_neg, k_pos, 3))

    @given(st.sampled_from([2, 4, 6]), st.integers(1, 300),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_volterra_kernel_matches_roll_stencil(self, flow, n_sites, seed):
        rng = np.random.default_rng(seed)
        Bp = rng.uniform(0.1, 3.0, n_sites + 8)
        kernel, out = flows._volterra_kernel(Bp, flow), np.full(n_sites, np.nan)
        assert kernel(out) is out
        assert np.array_equal(out, ref.volterra_rates(Bp, flow))
        # the kernel reads the line it was bound to at every call
        Bp[...] = rng.uniform(0.1, 3.0, n_sites + 8)
        assert np.array_equal(kernel(out), ref.volterra_rates(Bp, flow))

    @given(st.sampled_from([2, 4, 6]), st.integers(2, 80), st.integers(1, 40),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_volterra_stack_matches_lines(self, flow, n_sites, batch, seed):
        stack = np.random.default_rng(seed).uniform(0.1, 3.0, (n_sites, batch))
        rates = volterra_rhs(stack, flow)
        assert rates.shape == stack.shape
        for j in range(batch):
            assert np.array_equal(rates[:, j], volterra_rhs(stack[:, j], flow))
            assert np.array_equal(rates[:, j], ref.volterra_rhs_line(stack[:, j], flow))

    @pytest.mark.parametrize("shape", [(64, 6, 6), (48, 9, 7)])
    def test_pfaff_trajectory_bitwise(self, monkeypatch, shape):
        # C03 / C04 shapes: the scaling window and the asymmetric band window
        state = goe_lax_init(*shape)
        times = [0.05, 0.1]
        new = evolve_pfaff(state, times, h=1e-3)
        monkeypatch.setattr(flows, "_chain_kernel", ref.chain_kernel)
        old = evolve_pfaff(state, times, h=1e-3)
        for a, b in zip(new.states, old.states):
            assert np.array_equal(a.w, b.w)
        assert new.stats == old.stats

    @pytest.mark.parametrize("flow, B0, times, h", [
        (2, _RAMP64, [0.05, 0.1, 0.15, 0.2], 1e-3),
        (2, _RAMP64[:32], [0.002, 0.005], 1e-5),
        (4, _RAMP64[:32], [1e-4], 1e-5),
        (6, _BUMP64, [0.02, 0.05], 1e-3),
    ], ids=["C03", "C12-flow2", "C12-flow4", "C06-flow6"])
    def test_volterra_trajectory_bitwise(self, monkeypatch, flow, B0, times, h):
        state = VolterraState(B0)
        new = evolve_volterra(state, flow, times, h=h)
        monkeypatch.setattr(flows, "_volterra_kernel", ref.volterra_kernel)
        old = evolve_volterra(state, flow, times, h=h)
        for a, b in zip(new.states, old.states):
            assert np.array_equal(a.B, b.B)
        assert new.stats == old.stats

    @pytest.mark.parametrize("flow", [1, 2])
    def test_toda_trajectory_bitwise(self, flow, rng):
        # the kernel on raw arrays against the rates of a validated state
        state = TodaLax(rng.uniform(-1.0, 1.0, 24), rng.uniform(0.5, 2.0, 23))
        times = [0.05, 0.1]
        res = evolve_toda(state, flow, times, h=1e-3)
        N = state.n_sites
        ys, _ = evolve(lambda t, y: ref.toda_rates(y, N, flow),
                       np.concatenate([state.a, state.b]), times, h=1e-3)
        for got, y in zip(res.states, ys):
            assert np.array_equal(got.a, y[:N]) and np.array_equal(got.b, y[N:])


class TestGhostClosure:
    """The coefficient closure against the closure evaluated from the edge
    values at every call.  Both round differently, so they are held to 1e-14
    relative to the sum of the magnitudes of the terms, c2 a2 and c1 a1.
    Rows whose initial edge is 0 take the linear fallback: none of them
    ("scaled"), each with probability 1/2 ("mixed"), or all ("linear")."""

    @pytest.mark.parametrize("zero_share", [0.0, 0.5, 1.0], ids=["scaled", "mixed", "linear"])
    @given(st.integers(1, 6), st.integers(1, 9), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_reference(self, zero_share, rows, width, seed):
        rng = np.random.default_rng(seed)
        i2, i1 = rng.uniform(0.5, 3.0, (rows, 1)), rng.uniform(0.5, 3.0, (rows, 1))
        zero_edge = rng.random(rows) < zero_share
        i2[zero_edge] = i1[zero_edge] = 0.0
        init_ghost = rng.uniform(-3.0, 3.0, (rows, width))
        a2, a1 = rng.uniform(-3.0, 3.0, (rows, 1)), rng.uniform(-3.0, 3.0, (rows, 1))
        c2, c1 = flows._ghost_closure(i2, i1, init_ghost)
        want = ref.ghost_closure(i2, i1, init_ghost)(a2, a1)
        scale = np.abs(c2 * a2) + np.abs(c1 * a1)
        assert np.all(np.abs(c2 * a2 + c1 * a1 - want) <= 1e-14 * scale)

    @pytest.mark.parametrize("i2, i1", [(3.0, 4.0), (0.0, 0.0)], ids=["scaled", "linear"])
    def test_scalar_edges(self, i2, i1):
        # a lattice line: scalar edge values, one row of ghosts
        init_ghost = np.array([5.0, 6.0, 7.0, 8.0])
        c2, c1 = flows._ghost_closure(i2, i1, init_ghost)
        want = ref.ghost_closure(i2, i1, init_ghost)(3.3, 4.4)
        assert c2.shape == c1.shape == init_ghost.shape
        assert np.allclose(c2 * 3.3 + c1 * 4.4, want, rtol=1e-14, atol=0)


def _rel_drift(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


class TestClosureDrift:
    """Trajectories on the coefficient closure stay within 1e-11 relative of
    the same runs on the reference closure, at the C03, C04 and C12 shapes.
    The closures differ by a few ulp at the edge, and the edge grows them
    along the run: the C03 doubling run (N = 128 to t = 0.2) drifts 1.3e-12,
    the other runs at most 1.4e-13."""

    @pytest.mark.parametrize("shape, times", [
        ((64, 6, 6), [0.05, 0.1, 0.15, 0.2]),
        ((48, 9, 7), [0.05, 0.1, 0.15]),
    ], ids=["C03", "C04"])
    def test_pfaff(self, shape, times):
        state = goe_lax_init(*shape)
        res = evolve_pfaff(state, times, h=1e-3)
        for got, want in zip(res.states, ref.evolve_pfaff(state, times, 1e-3)):
            assert _rel_drift(got.w, want) <= 1e-11

    @pytest.mark.parametrize("flow, B0, times, h", [
        (2, _RAMP64, [0.05, 0.1, 0.15, 0.2], 1e-3),
        (2, np.arange(1.0, 129.0), [0.05, 0.1, 0.15, 0.2], 1e-3),
        (2, _RAMP64[:32], [0.05], 1e-5),
        (4, _RAMP64[:32], [1e-4], 1e-5),
    ], ids=["C03", "C03-doubled", "C12-flow2", "C12-flow4"])
    def test_volterra(self, flow, B0, times, h):
        res = evolve_volterra(VolterraState(B0), flow, times, h=h)
        for got, want in zip(res.states, ref.evolve_volterra(B0, flow, times, h)):
            assert _rel_drift(got.B, want) <= 1e-11


class TestEvolverLayout:
    """The evolvers' fixed layout: 4 Volterra anchor sites; one ghost band
    each side and max(k_neg, k_pos) anchor sites for the chain.  Each runs
    at its smallest shape and refuses the next smaller one."""

    def test_volterra_needs_six_sites(self):
        res = evolve_volterra(VolterraState(np.arange(1.0, 7.0)), 2, [1e-3])
        assert res.stats["n_evolve"] == 2
        assert res.states[-1].n_sites == 6
        with pytest.raises(ValueError):
            evolve_volterra(VolterraState(np.arange(1.0, 6.0)), 2, [1e-3])

    @pytest.mark.parametrize("N, k_pos, k_neg", [(12, 2, 3), (5, 3, 3), (6, 2, 4)])
    def test_pfaff_runs_at_the_boundary(self, N, k_pos, k_neg):
        state = goe_lax_init(N, k_pos, k_neg)
        res = evolve_pfaff(state, [1e-3])
        assert res.stats["n_evolve"] == N - max(k_neg, k_pos)
        assert res.states[-1].w.shape == state.w.shape

    @pytest.mark.parametrize("N, k_pos, k_neg", [
        (12, 4, 2), (12, 1, 4), (4, 3, 3), (5, 2, 4), (5, 4, 3)],
        ids=["k_neg=2", "k_pos=1", "one-site", "one-site-k_neg", "one-site-k_pos"])
    def test_pfaff_refuses_past_the_boundary(self, N, k_pos, k_neg):
        with pytest.raises(ValueError):
            evolve_pfaff(goe_lax_init(N, k_pos, k_neg), [1e-3])


_PROJECT = flows._skew_block_projection


def _commutator_outcomes(state, leak):
    """The library's and the reference's commutator RHS, or the message of the
    StructureViolation each raised, with `leak` added to the projection so
    the derivative leaves the band structure."""
    def project(A):
        return _PROJECT(A) + leak

    outcomes = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(flows, "_skew_block_projection", project)
        m.setattr(ref, "_skew_block_projection", project)
        for rhs in (flows.pfaff_commutator_rhs, ref.pfaff_commutator_rhs):
            try:
                outcomes.append(rhs(state))
            except StructureViolation as exc:
                outcomes.append(str(exc))
    return outcomes


class TestDenseCommutator:
    """The masked embedding, scan and read-out against the site loops."""

    @pytest.mark.parametrize("p, q, message", [
        (0, 0, "unit superdiagonal drifts by -1.000e-03 at row 0"),
        (0, 1, "derivative -5.000e-04 at protected position (0, 0)"),
        (0, 17, None)])
    def test_first_violation(self, p, q, message):
        leak = np.zeros((24, 24))
        leak[p, q] = 1e-3
        new, old = _commutator_outcomes(goe_lax_init(12, 3, 3), leak)
        if message is None:
            assert np.array_equal(new, old, equal_nan=True)
        else:
            assert new == old == message

    @given(st.integers(3, 30), st.integers(2, 6), st.integers(1, 6),
           st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_site_loops(self, n_sites, k_neg, k_pos, seed, leaky):
        rng = np.random.default_rng(seed)
        state = PfaffLax(rng.uniform(-2.0, 2.0, (k_neg + k_pos + 1, n_sites)),
                         k_neg, k_pos)
        assert np.array_equal(flows._dense_embedding(state), ref.dense_embedding(state))
        leak = np.zeros((2 * n_sites, 2 * n_sites))
        if leaky:
            leak[tuple(rng.integers(0, 2 * n_sites, 2))] = rng.uniform(-1.0, 1.0)
        new, old = _commutator_outcomes(state, leak)
        if isinstance(old, str):
            assert new == old
        else:
            assert np.array_equal(new, old, equal_nan=True)


class TestReducedChain:
    def test_exact_solution(self):
        state = ReducedChainState(0.5, np.full(4, 2.0))
        res = evolve_reduced(state, [0.1, 0.2])
        for t, got in zip(res.times, res.states):
            assert abs(got.Wm1 - 0.5 / (1.0 - 2.0 * t)) < 1e-9
            assert np.max(np.abs(got.W - 2.0)) < 1e-8

    def test_fixed_rk4_stats_and_step(self):
        state = ReducedChainState(0.5, np.full(6, 2.0))
        res = evolve_reduced(state, [0.1, 0.2])
        assert res.stats["stepper"] == "rk4"
        assert res.stats["steps"] == 200 and res.stats["h"] == 1e-3
        assert res.stats["n_evolve"] == 7                   # W^{-1} and W^1..W^6
        coarse = evolve_reduced(state, [0.1, 0.2], h=0.05)
        assert coarse.stats["steps"] == 4
        err = [abs(r.states[-1].Wm1 - 0.5 / 0.6) for r in (res, coarse)]
        assert err[0] < 1e-11 < err[1]

    def test_rhs_at_initial_point(self):
        state = ReducedChainState(0.5, np.full(4, 2.0))
        dWm1, dW = reduced_chain_rhs(state)
        # d/dt (1/(2(1-2t))) = 1 at t=0; the W^k stay put
        assert abs(dWm1 - 1.0) < 1e-14
        assert np.max(np.abs(dW)) < 1e-13

    def test_state_validation(self):
        with pytest.raises(ValueError):
            ReducedChainState(0.5, np.array([2.0]))
        # these gave NaN rates
        for wm1, W in [(np.nan, np.full(4, 2.0)), (0.5, [2.0, np.inf, 2.0]),
                       (-np.inf, np.full(3, 2.0))]:
            with pytest.raises(ValueError, match="must be finite"):
                ReducedChainState(wm1, W)
        # the closure's name takes its one value only
        for ghost in ("pin", "two"):
            with pytest.raises(ValueError):
                reduced_chain_rhs(ReducedChainState(0.5, np.full(3, 2.0)), ghost=ghost)

    @given(st.integers(2, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_array_kernel_matches_state_rhs(self, K, seed):
        rng = np.random.default_rng(seed)
        wm1, W = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 3.0, K)
        dWm1, dW = reduced_chain_rhs(ReducedChainState(wm1, W))
        ref_dWm1, ref_dW = ref.reduced_chain_rhs(wm1, W)
        assert dWm1 == ref_dWm1 and np.array_equal(dW, ref_dW)

    def test_trajectory_matches_state_rhs(self):
        W = 2.0 + 0.1 * np.random.default_rng(7).standard_normal(6)
        res = evolve_reduced(ReducedChainState(0.5, W), [0.05, 0.2])
        ys, _ = evolve(lambda t, y: ref.reduced_rates(y),
                       np.concatenate([[0.5], W]), [0.05, 0.2])
        for got, y in zip(res.states, ys):
            assert got.Wm1 == y[0] and np.array_equal(got.W, y[1:])


class TestOracles:
    def test_translation_family(self):
        res = exact_oracles("t1-translation", times=[0.0, 0.7], n_sites=6)
        assert np.all(res.states[0].a == 0.0)
        assert np.allclose(res.states[1].a, 0.7, rtol=0)

    def test_scaling_family_volterra(self):
        res = exact_oracles("t2-scaling", times=[0.25], n_sites=5)
        assert np.allclose(res.states[0].B, 2.0 * np.arange(1.0, 6.0), rtol=0)

    def test_scaling_family_orthogonal(self):
        res = exact_oracles("t2-scaling", ensemble="orthogonal", times=[0.25],
                            n_sites=5, k_pos=3, k_neg=3)
        lax = res.states[0]
        cn = c_coeff(np.arange(1.0, 6.0))
        assert np.allclose(lax.w[lax.k_neg - 1], 1.0, rtol=0)      # 0.5 / s
        assert np.allclose(lax.w[lax.k_neg], cn, rtol=1e-15)
        assert np.allclose(lax.w[lax.k_neg + 1],
                           goe_lax_init(5, 3, 3).w[lax.k_neg + 1], rtol=0)

    def test_unknown_kinds(self):
        with pytest.raises(UnsupportedKind):
            exact_oracles("t3-cubic")
        with pytest.raises(UnsupportedKind):
            exact_oracles("t2-scaling", ensemble="symplectic")

    @pytest.mark.parametrize("ensemble, times", [("orthogonal", [0.5]), ("volterra", [0.1, 0.6])])
    def test_scaling_family_refuses_blow_up(self, ensemble, times):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreBreakingViolated, match="1/2"):
                exact_oracles("t2-scaling", ensemble=ensemble, times=times, n_sites=8,
                              k_pos=3, k_neg=3)


class TestEvolutionResult:
    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            EvolutionResult(np.array([0.0, 0.0]),
                            [VolterraState(np.ones(2))] * 2)

    def test_csv_layouts(self):
        res = exact_oracles("t2-scaling", times=[0.0, 0.25], n_sites=2)
        lines = res.to_csv().strip().split("\n")
        assert lines[0] == "time,B[1],B[2]"
        assert lines[2].split(",")[1] == "2"
        red = EvolutionResult(np.array([0.0]),
                              [ReducedChainState(0.5, np.full(3, 2.0))])
        assert red.to_csv().splitlines()[0] == "time,W[-1],W[1],W[2],W[3]"

    def test_csv_full_precision(self):
        state = VolterraState(np.array([1.0 / 3.0]))
        res = EvolutionResult(np.array([0.0]), [state])
        cell = res.to_csv().splitlines()[1].split(",")[1]
        assert float(cell) == 1.0 / 3.0

    def test_csv_unknown_state(self):
        res = EvolutionResult(np.array([0.0]), [object()])
        with pytest.raises(TypeError):
            res.to_csv()
