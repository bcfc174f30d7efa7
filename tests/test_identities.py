import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as ref
from taulattice import (CouplingVector, DivergedField, EvolutionResult, IdentityReport,
                        PfaffLax, VolterraState, couplings, exact_oracles, flows, goe_lax_init,
                        identities, kp_residual, mkp_residuals, moments,
                        observables_check, reduction_invariants, sample_gaussian_ensemble)
from taulattice.errors import IndexOutOfWindow, TauLatticeError
from taulattice.identities import _reduced_coordinates
from taulattice.lax import _manifold_window


def bump_state(n_sites=64, centre=10.0, width=4.0):
    n = np.arange(1.0, n_sites + 1.0)
    return VolterraState(0.5 + 0.25 * np.exp(-(((n - centre) / width) ** 2)))


class TestMkp:
    def test_bump_profile(self):
        report = mkp_residuals(8, bump_state())
        assert report.passed
        assert report.residual_rel < 1e-14
        assert report.meta["variant_passing"] == "xi-phi2"
        # the alternative printed coefficient is off by a factor, not noise
        assert report.meta["variants"]["xi-6phi2"] > 1e-2

    def test_conservation_pieces_reported(self):
        report = mkp_residuals(6, bump_state(32, 8.0, 3.0))
        for key in ("conservation_a", "conservation_b", "potential"):
            assert report.meta[key] < 1e-6, key

    def test_site_guards(self):
        with pytest.raises(ValueError):
            mkp_residuals(1, bump_state(32))
        with pytest.raises(ValueError):
            mkp_residuals(30, bump_state(32))

    @pytest.mark.parametrize("kwargs, name", [
        ({"steps": {2: 1e-2, 6: 1e-2}}, "steps"),
        ({"steps": {2: 1e-2, 4: 0.0, 6: 1e-2}}, "steps"),
        ({"steps": {2: -1e-2, 4: 1e-2, 6: 1e-2}}, "steps"),
        ({"steps": {2: 1e-2, 4: 1e-2, 6: float("nan")}}, "steps"),
        ({"steps": {2: float("inf"), 4: 1e-2, 6: 1e-2}}, "steps"),
        ({"steps": {2: 1e-2, 4: None, 6: 1e-2}}, "steps"),
        ({"h_ode": 0.0}, "h_ode"),
        ({"h_ode": -1e-3}, "h_ode"),
        ({"h_ode": float("inf")}, "h_ode"),
        ({"h_ode": float("nan")}, "h_ode"),
    ])
    def test_argument_guards(self, kwargs, name):
        # the finite-difference knobs are gone: passing one, through the
        # check or its suite, is refused rather than ignored
        with pytest.raises(TypeError, match=name):
            mkp_residuals(8, bump_state(), **kwargs)
        with pytest.raises(TypeError, match=name):
            identities.verify_mkp(8, **kwargs)

    def test_work_is_six_stencil_calls(self, monkeypatch):
        factory, calls = flows._volterra_kernel, []

        def counted(Bp, flow):
            kernel = factory(Bp, flow)

            def rates(out):
                calls.append((flow, Bp.shape))
                return kernel(out)
            return rates

        def refuse(*args):
            raise AssertionError("the jets take no RK4 step")
        monkeypatch.setattr(flows, "_volterra_kernel", counted)
        monkeypatch.setattr(flows, "_rk4_stepper", refuse)
        meta = mkp_residuals(8, bump_state()).meta
        # c_1, c_2, c_3 of the flow-2 orbit on 1, 3 and 5 circle points;
        # X_4 and X_6 on the line; X_4 along c_0 + c_1 x on 4 points
        assert calls == [(2, (72, 1)), (2, (72, 3)), (2, (72, 5)),
                         (4, (72, 1)), (6, (72, 1)), (4, (72, 4))]
        assert not {"steps", "evolutions", "rk4_steps"} & meta.keys()

    @pytest.mark.parametrize("shape, sites", [
        ("bump", (2, 8, 10, 11, 14)), ("ramp", (5,)), ("bump32", (8,))],
        ids=["bump", "ramp", "bump32"])
    def test_jets_match_nested_finite_differences(self, shape, sites):
        # the route the jets replaced, rebuilt in reference_kernels: per-shift
        # RK4 chains differenced with one Richardson level.  Its noise reads
        # up to 7.6e-9 against derivatives of order 1.
        B = {"bump": bump_state().B, "ramp": 0.4 + 0.01 * np.arange(1.0, 33.0),
             "bump32": bump_state(32, 8.0, 3.0).B}[shape]
        jets = identities._mkp_jets(B)
        for n in sites:
            fd = ref.mkp_derivatives_fd(B, n, {2: 1e-2, 4: 1e-2, 6: 1e-2}, 1e-3)
            got = np.array([[d[n - 1], d[n - 2]] for d in jets])
            assert np.abs(got - fd).max() <= 2e-8 * max(1.0, np.abs(fd).max()), n

    def test_absolute_residuals_show_the_crest_is_0_over_0(self):
        # sites 10 and 11 fail on relative residuals whose scales vanish at
        # the bump's crest; their absolute residuals are roundoff
        for n in (10, 11):
            meta = mkp_residuals(n, bump_state()).meta
            assert max(meta["conservation_a"], meta["conservation_b"],
                       meta["potential"]) > 1e-3, n
            assert max(meta["conservation_a_abs"], meta["conservation_b_abs"],
                       meta["potential_abs"], meta["variants_abs"]["xi-phi2"]) < 1e-14, n

    def test_diverging_jets_raise(self):
        state = VolterraState(1e80 * bump_state().B)
        with pytest.raises(DivergedField, match="jet coefficient .* not finite"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                mkp_residuals(8, state)


class TestKp:
    def test_one_point_determinant(self):
        report = kp_residual(1)
        assert report.passed
        assert report.residual_rel < 1e-4

    def test_two_point_determinant(self):
        report = kp_residual(2)
        assert report.passed
        # u itself is O(1) here; meta keeps the individual terms
        assert abs(report.meta["u"]) > 0.1

    def test_size_guard(self):
        with pytest.raises(ValueError):
            kp_residual(0)
        with pytest.raises(ValueError):
            kp_residual(33)

    @pytest.mark.parametrize("mapping", [{}, {4: -0.05}, {1: 0.05, 4: -0.03}])
    def test_exact_jets_hold_the_equation(self, mapping):
        t = CouplingVector.from_mapping(mapping)
        for n in range(1, 5):
            report = kp_residual(n, t)
            assert report.residual_rel <= 1e-10, (n, report.residual_rel)
            if not mapping:   # u = 2 n / (1 - 2 t2) on the Gaussian family
                assert abs(report.meta["u"] - 2.0 * n) <= 1e-12 * n

    def test_largest_size(self):
        report = kp_residual(32, CouplingVector.from_mapping({4: -0.05}))
        assert report.residual_rel <= 1e-8


class TestObservables:
    def test_gaussian_point_first_site(self):
        report = observables_check(1)
        assert report.passed
        assert report.residual_rel < 1e-9
        assert abs(report.meta["E_sum_sq"] - report.meta["w0w1"]) < 1e-9

    def test_gaussian_point_second_site(self):
        report = observables_check(2)
        assert report.passed

    def test_shifted_coupling(self):
        t = CouplingVector.from_mapping({2: 0.02})
        report = observables_check(1, t)
        assert report.passed

    @pytest.mark.parametrize("mapping", [{}, {2: 0.1}, {4: -0.05}, {1: 0.05, 4: -0.03}])
    def test_chemical_potential_against_skew_window(self, mapping):
        t = CouplingVector.from_mapping(mapping)
        for n in range(1, 5):
            report = observables_check(n, t)
            assert report.passed, (n, report.meta)
            assert report.meta["mu_residual"] <= 1e-14, n

    @pytest.mark.parametrize("tolerance", [0.0, -1e-8, float("inf"), float("nan")])
    def test_tolerance_that_is_not_finite_and_positive_refused(self, tolerance):
        # the residual is scaled by tolerance / 1e-12: at 0 it read 0.0 and
        # passed, at inf it read inf and passed
        with pytest.raises(ValueError, match="tolerance"):
            observables_check(2, tolerance=tolerance)

    def test_tau_ratios_only_for_the_first_pair(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pair entries are read only at n = 1")

        monkeypatch.setattr(identities, "pfaff_entries_from_tau", refuse)
        assert observables_check(2).passed

    @pytest.mark.parametrize("n", [2, 4])
    def test_one_grid_and_one_full_basis(self, n, monkeypatch, fresh_grids):
        # the three log tau and the skew window read one Stieltjes basis of
        # size 2n + 4, on one grid solved for once
        radii, sizes = [], []
        solve, basis = couplings._radius_for, moments._stieltjes_basis

        def counted_solve(*args, **kwargs):
            radii.append(args)
            return solve(*args, **kwargs)

        def counted_basis(ensemble, size, *args, **kwargs):
            sizes.append(size)
            return basis(ensemble, size, *args, **kwargs)

        monkeypatch.setattr(couplings, "_radius_for", counted_solve)
        monkeypatch.setattr(moments, "_stieltjes_basis", counted_basis)
        monkeypatch.setattr(identities, "_stieltjes_basis", counted_basis)
        assert observables_check(n).passed
        assert len(radii) == 1, len(radii)
        assert sizes == [2 * n + 4], sizes

    def test_perturbed_pfaffian_fails(self, monkeypatch):
        # a relative error of 1e-9 in the third Pfaffian pivot moves log
        # tau_6 and log tau_8 but not log tau_4, so delta_mu shifts by 1e-9
        # while the skew window, which never forms a Pfaffian, does not
        exact = moments._pfaffian_pivots

        def perturbed(A):
            sign, pivots = exact(A)
            if len(pivots) > 2:
                pivots[2] *= 1.0 + 1e-9
            return sign, pivots

        assert observables_check(2).passed
        monkeypatch.setattr(moments, "_pfaffian_pivots", perturbed)
        report = observables_check(2)
        assert not report.passed
        assert report.meta["mu_residual"] > 1e-10


@pytest.fixture(scope="module")
def c04_trajectory():
    """C04's banded GOE trajectory, as `verify_reduction` runs it."""
    return flows.evolve_pfaff(goe_lax_init(48, 9, 7), flows._sample_times(0.15, 3), h=1e-3)


class TestReductionInvariants:
    def test_scaling_trajectory(self):
        trajectory = exact_oracles("t2-scaling", ensemble="orthogonal",
                                   times=[0.0, 0.05, 0.1], n_sites=24,
                                   k_pos=6, k_neg=6)
        report = reduction_invariants(trajectory)
        assert report.passed
        assert report.residual_rel < 1e-10
        assert report.meta["samples"] == 3

    def test_rejects_sites_and_bands_past_the_window(self):
        # k_neg 1 read w^-2 from a wrapped row and failed at 15.5; k_pos 2
        # and 3 left the reduced chain fewer than two W, and k_pos 1 a
        # negative band count
        for k_neg, k_pos in [(1, 6), (0, 6), (6, 3), (6, 2), (6, 1)]:
            lax = goe_lax_init(24, k_pos, 6)
            trajectory = EvolutionResult(np.array([0.05]),
                                         (PfaffLax(lax.w[6 - k_neg:], k_neg, k_pos),))
            with pytest.raises(ValueError, match="k_neg >= 2 and k_pos >= 4"):
                reduction_invariants(trajectory)
        trajectory = exact_oracles("t2-scaling", ensemble="orthogonal",
                                   times=[0.05], n_sites=3, k_pos=6, k_neg=6)
        with pytest.raises(IndexError, match="4 sites"):
            reduction_invariants(trajectory)

    def test_a_window_of_three_sites_is_out_of_window(self):
        # raised a bare IndexError, not a TauLatticeError
        trajectory = exact_oracles("t2-scaling", ensemble="orthogonal", times=[0.1],
                                   n_sites=3, k_pos=4, k_neg=2)
        with pytest.raises(IndexOutOfWindow, match=re.escape(
                "the checks read 4 sites, past the window's 3")) as info:
            reduction_invariants(trajectory)
        assert isinstance(info.value, TauLatticeError) and isinstance(info.value, IndexError)

    def test_reads_the_smallest_window_it_accepts(self):
        trajectory = exact_oracles("t2-scaling", ensemble="orthogonal",
                                   times=[0.0, 0.05], n_sites=4, k_pos=4, k_neg=2)
        report = reduction_invariants(trajectory)
        assert report.passed
        assert (report.meta["n_max"], report.meta["k_max"]) == (4, 2)

    def test_rejects_wrong_trajectory(self):
        trajectory = exact_oracles("t2-scaling", times=[0.1], n_sites=24)
        with pytest.raises(TypeError):
            reduction_invariants(trajectory)

    @given(st.floats(0.1, 2.0), st.integers(2, 9), st.integers(16, 64), st.integers(2, 7),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_manifold_window_reads_back_its_coordinates(self, wm1, K, N, k_neg, seed):
        W = np.random.default_rng(seed).uniform(0.5, 3.0, K)
        n_max = max(4, N - 8)
        got_wm1, got_W, _, _ = _reduced_coordinates(_manifold_window(wm1, W, N, k_neg),
                                                     n_max, K)
        assert np.max(np.abs(got_W - W) / W) <= 4.5e-16
        # W^-1 is the mean of n_max equal entries, whose sum rounds: at most
        # 10.5 units of roundoff (5.25 eps) for n_max <= 64
        assert abs(got_wm1 - wm1) <= 6.0 * np.finfo(float).eps * wm1

    @given(st.floats(0.1, 2.0), st.integers(2, 9), st.integers(16, 64), st.integers(2, 7),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_passes_on_manifold_windows_away_from_the_gaussian_point(self, wm1, K, N, k_neg,
                                                                     seed):
        # K + 2 upper bands, so that the check reads W^1 .. W^min(6, K)
        rng = np.random.default_rng(seed)
        states = [_manifold_window(wm1 * rng.uniform(0.5, 1.5), rng.uniform(0.5, 3.0, K + 2),
                                   N, k_neg) for _ in range(3)]
        report = reduction_invariants(EvolutionResult(np.arange(3.0), states))
        assert report.passed, report.meta
        assert report.meta["k_max"] == min(6, K)

    @given(st.floats(-3.0, 0.3), st.integers(2, 9), st.integers(16, 64), st.integers(2, 7),
           st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=30, deadline=None)
    def test_each_band_is_held_on_its_own_scale(self, log_wm1, K, N, k_neg, seed, data):
        # W^-1 from 1e-3 to 2: w^-1 is held over its own size W^-1, so a
        # relative 1e-6 move of one entry fails however small W^-1 is; over
        # max(1, W^-1) or the window's largest entry it passes below 0.01
        rng = np.random.default_rng(seed)
        states = [_manifold_window(10.0 ** log_wm1 * rng.uniform(0.5, 1.5),
                                   rng.uniform(0.5, 3.0, K + 2),
                                   N, k_neg) for _ in range(3)]
        assert reduction_invariants(EvolutionResult(np.arange(3.0), states)).passed
        sample, site = data.draw(st.integers(0, 2)), data.draw(st.integers(0, N - 9))
        w = states[sample].w.copy()
        w[k_neg - 1, site] *= 1.0 + 1e-6
        states[sample] = PfaffLax(w, k_neg, K + 2)
        assert not reduction_invariants(EvolutionResult(np.arange(3.0), states)).passed

    @pytest.mark.parametrize("ell", range(-7, 7))
    def test_fails_when_one_entry_leaves_the_manifold(self, c04_trajectory, ell):
        # every band -k_neg .. k_max, every site n <= n_max of the last sample;
        # deep bands are zero on the manifold, so their entry is set to 1e-6
        report = reduction_invariants(c04_trajectory)
        assert report.passed
        n_max, k_max = report.meta["n_max"], report.meta["k_max"]
        lax = c04_trajectory.states[-1]
        assert (lax.k_neg, k_max) == (7, 6)
        row = ell + lax.k_neg
        for n in range(n_max):
            w = lax.w.copy()
            w[row, n] = 1e-6 if ell < -2 else w[row, n] * (1.0 + 1e-6)
            states = c04_trajectory.states[:-1] + (PfaffLax(w, lax.k_neg, lax.k_pos),)
            moved = reduction_invariants(EvolutionResult(c04_trajectory.times, states,
                                                         c04_trajectory.stats))
            assert not moved.passed, (ell, n + 1)


class TestEnsembleSampling:
    def test_deterministic_for_seed(self):
        a = sample_gaussian_ensemble(1, 2, 5000, seed=42)
        b = sample_gaussian_ensemble(1, 2, 5000, seed=42)
        assert a == b
        c = sample_gaussian_ensemble(1, 2, 5000, seed=43)
        assert c["trace"] != a["trace"]

    def test_known_moments(self):
        # E[tr] = 0, E[tr^2] = n, E[tr M^2] = n + n(n-1)/2 (real symmetric)
        out = sample_gaussian_ensemble(1, 2, 100_000, seed=7)
        for key, expect in (("trace", 0.0), ("trace_squared", 2.0),
                            ("trace_of_square", 3.0)):
            mean, se = out[key]
            assert se < 0.05
            assert abs(mean - expect) < 5.0 * se, key

    def test_known_moments_hermitian(self):
        # complex Hermitian doubles the off-diagonal mass: E[tr M^2] = n^2
        out = sample_gaussian_ensemble(2, 2, 100_000, seed=7)
        mean, se = out["trace_of_square"]
        assert abs(mean - 4.0) < 5.0 * se

    @pytest.mark.parametrize("beta", [1, 2])
    def test_known_moments_at_six(self, beta):
        # n = 2 has one off-diagonal; at n = 6 each of the five chi-square
        # degrees of freedom beta (n - i) shows in E[tr M^2] = n + beta n(n-1)/2
        out = sample_gaussian_ensemble(beta, 6, 100_000, seed=7)
        for key, expect in (("trace", 0.0), ("trace_squared", 6.0),
                            ("trace_of_square", 6.0 + 15.0 * beta)):
            mean, se = out[key]
            assert abs(mean - expect) < 5.0 * se, key

    def test_one_by_one(self):
        # one Gaussian entry and no off-diagonal: tr M^2 is tr^2, of mean 1
        out = sample_gaussian_ensemble(2, 1, 100_000, seed=7)
        assert out["trace_of_square"] == out["trace_squared"]
        for key, expect in (("trace", 0.0), ("trace_squared", 1.0)):
            mean, se = out[key]
            assert abs(mean - expect) < 5.0 * se, key

    def test_draw_order(self):
        # per batch of min(250 000, 2**20 // n) rows: d of shape (m, n), then
        # the chi-squares of shape (m, n - 1), all from one Philox stream
        n, rows, count = 20, 52_428, 60_000
        rng = np.random.Generator(np.random.Philox(3))
        tr, tr2 = [], []
        for m in (rows, count - rows):
            d = rng.standard_normal((m, n))
            chi2 = rng.chisquare(2.0 * np.arange(n - 1, 0, -1), size=(m, n - 1))
            tr.append(d.sum(axis=1))
            tr2.append((d ** 2).sum(axis=1) + chi2.sum(axis=1))
        tr, tr2 = np.concatenate(tr), np.concatenate(tr2)
        out = sample_gaussian_ensemble(2, n, count, seed=3)
        for key, x in (("trace", tr), ("trace_squared", tr ** 2), ("trace_of_square", tr2)):
            assert out[key][0] == pytest.approx(x.mean(), rel=1e-12), key

    def test_memory_follows_the_draws_not_the_matrix(self):
        # the dense constructions drew every off-diagonal entry of 250 000-row
        # batches: about 300 MB traced here
        tracemalloc.start()
        try:
            sample_gaussian_ensemble(2, 20, 50_000, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_gaussian_ensemble(3, 2, 100, seed=1)
        with pytest.raises(ValueError):
            sample_gaussian_ensemble(1, 2, 1, seed=1)

    @pytest.mark.parametrize("args, message", [
        ((True, 2, 100, 1), "beta must be an integer, got True"),
        ((1, -2, 100, 1), "n must be at least 1, got -2"),
        ((1, 0, 100, 1), "n must be at least 1, got 0"),
        ((1, 2.5, 100, 1), "n must be an integer, got 2.5"),
        ((1, 2, 2.5, 1), "count must be an integer, got 2.5"),
        ((1, 2, 100, 2.5), "seed must be an integer, got 2.5"),
        ((1, 2, 100, -1), "seed must be non-negative, got -1")])
    def test_refuses_arguments_by_name(self, args, message):
        # True ran and was recorded, -2 and both seeds raised numpy's
        # messages, and count 2.5 a bare TypeError
        with pytest.raises(ValueError, match=message):
            sample_gaussian_ensemble(*args)

    def test_records_numpy_integers_as_ints(self):
        out = sample_gaussian_ensemble(np.int64(1), np.int64(2), np.int64(100), np.uint32(3))
        assert out == sample_gaussian_ensemble(1, 2, 100, 3)
        assert all(type(out[key]) is int for key in ("beta", "n", "count", "seed"))


@pytest.mark.parametrize("kind, params, message", [
    ("t1-translation", {"n_site": 5}, "reads no keyword 'n_site'"),
    ("t1-translation", {"k_pos": 6}, "reads no keyword 'k_pos'"),
    ("t2-scaling", {"n_site": 5}, "reads no keyword 'n_site'"),
    ("t1-translation", {"n_sites": 2.5}, "n_sites must be an integer, got 2.5"),
    ("t2-scaling", {"n_sites": True}, "n_sites must be an integer, got True"),
    ("t2-scaling", {"n_sites": 0}, "n_sites must be at least 1, got 0"),
    ("t2-scaling", {"ensemble": "orthogonal", "k_pos": True}, "k_pos must be an integer"),
    ("t2-scaling", {"ensemble": "orthogonal", "k_neg": 6.0}, "k_neg must be an integer")])
def test_oracles_refuse_unread_keywords_and_sizes_that_are_not_integers(kind, params, message):
    # n_sites 2.5 returned 2 sites, n_site=5 the default 16 and k_pos True
    # a one-band window
    with pytest.raises(ValueError, match=message):
        exact_oracles(kind, times=[0.1], **params)


@pytest.mark.parametrize("kind, params", [("t1-translation", {}), ("t2-scaling", {}),
                                          ("t2-scaling", {"ensemble": "orthogonal"})])
def test_oracles_refuse_times_that_are_not_finite(kind, params):
    # the orthogonal window at t = nan held nan rows
    for times in ([math.nan], [0.0, math.inf], [-math.inf, 0.1]):
        with pytest.raises(ValueError, match="times must be finite"):
            exact_oracles(kind, times=times, n_sites=6, **params)


@pytest.mark.parametrize("times", [0.1, [[0.1, 0.2]], []], ids=["scalar", "2-d", "empty"])
@pytest.mark.parametrize("kind, params", [("t1-translation", {}), ("t2-scaling", {}),
                                          ("t2-scaling", {"ensemble": "orthogonal"})])
def test_oracles_refuse_times_that_are_not_a_vector(kind, params, times):
    # a scalar raised a bare TypeError and an empty list returned an empty result
    with pytest.raises(ValueError, match="^times must be a strictly increasing vector$"):
        exact_oracles(kind, times=times, n_sites=6, **params)


@pytest.mark.parametrize("ensemble", ["volterra", "orthogonal"])
def test_oracles_refuse_a_time_whose_scale_overflows(ensemble):
    # 1 - 2t overflowed with a RuntimeWarning: the orthogonal window read
    # +-0 rows, the Volterra state raised a bare "B must stay positive"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"oracle time -1e\+308 has no finite scale"):
            exact_oracles("t2-scaling", ensemble=ensemble, times=[-1e308, 0.1], n_sites=6)
        # the last time whose doubling stays finite is still served
        far = -np.finfo(float).max / 2
        assert exact_oracles("t2-scaling", ensemble=ensemble, times=[far], n_sites=6).times[0] == far


@pytest.mark.parametrize("n_sites", [10.5, 16.0, True])
def test_scaling_refuses_a_size_that_is_not_an_integer(n_sites):
    # 10.5 failed inside with a bare TypeError from a slice
    with pytest.raises(ValueError, match="n_sites must be an integer"):
        identities.verify_scaling(n_sites=n_sites)


def test_scaling_takes_a_numpy_integer():
    report = identities.verify_scaling(n_sites=np.int64(16))
    assert report.to_json() == identities.verify_scaling(n_sites=16).to_json()


# each check's smallest accepted value of each keyword its suite's flags set,
# the others at their defaults
SMALLEST = {
    ("init-gue", "n_max"): 2, ("init-goe", "n_sites"): 1, ("init-goe", "k_band"): 2,
    ("scaling", "n_sites"): 9, ("mkp", "n"): 2, ("mkp", "n_sites"): 16, ("kp", "n"): 1,
    ("commute", "seed"): 0, ("reduction", "n_sites"): 11, ("observables", "n"): 1,
    ("tau-cross", "n_pairs"): 1, ("skew-map", "n_pairs"): 1, ("hydro-chain", "n_x"): 5,
    ("haantjes", "window"): 10, ("haantjes", "n_points"): 1, ("haantjes", "seed"): 0,
}
SUITE_KEYWORDS = [(suite, keyword) for suite, (_, reads) in identities.SUITES.items()
                  for keyword in reads.values()]


def test_every_suite_keyword_has_a_smallest_size():
    assert sorted(SMALLEST) == sorted(SUITE_KEYWORDS)


@pytest.mark.parametrize("suite, keyword", SUITE_KEYWORDS)
@pytest.mark.parametrize("value", [2.5, True])
def test_suite_refuses_a_size_that_is_not_an_integer(suite, keyword, value):
    # 2.5 blamed another argument, raised a bare TypeError or an IndexError
    check = getattr(identities, identities.SUITES[suite][0])
    with pytest.raises(ValueError, match=f"{keyword} must be an integer"):
        check(**{keyword: value})


@pytest.mark.parametrize("suite, keyword", SUITE_KEYWORDS)
def test_suite_records_a_numpy_integer_size_as_an_int(suite, keyword):
    # the meta held the numpy integer, and to_json() raised
    check = getattr(identities, identities.SUITES[suite][0])
    size = SMALLEST[suite, keyword]
    assert check(**{keyword: np.int64(size)}).to_json() == check(**{keyword: size}).to_json()


@pytest.mark.parametrize("suite", list(identities.SUITES))
def test_suite_refuses_a_nan_tolerance(suite):
    # all but observables returned a failed report at NaN (and passed at inf)
    check = getattr(identities, identities.SUITES[suite][0])
    with pytest.raises(ValueError, match="tolerance must be finite and positive, got nan"):
        check(tolerance=math.nan)


@pytest.mark.parametrize("tolerance", [0.0, -1.0, math.inf, math.nan, True, np.True_])
def test_report_refuses_a_tolerance_that_is_not_finite_and_positive(tolerance):
    # no residual passed at NaN, 0 or -1, and every one passed at inf;
    # from_residual read True as 1.0, and a report built directly kept it
    message = re.escape(f"tolerance must be finite and positive, got {tolerance}")
    with pytest.raises(ValueError, match=message):
        IdentityReport.from_residual("identity", 0.0, tolerance)
    with pytest.raises(ValueError, match=message):
        IdentityReport("identity", 0.0, 0.0, tolerance, True)


def test_kp_residual_refuses_a_bool_tolerance():
    # passed at tolerance 1.0
    with pytest.raises(ValueError, match="tolerance must be finite and positive, got True"):
        kp_residual(tolerance=True)


def test_haantjes_scan_refuses_a_bool_tolerance():
    # kept True and wrote "tolerance": true into its report
    with pytest.raises(ValueError, match="tolerance must be finite and positive, got True"):
        identities.haantjes_scan(n_points=1, tolerance=True)


@pytest.mark.parametrize("check", [identities.verify_commute, identities.haantjes_scan])
def test_seed_must_be_a_non_negative_integer(check):
    # -1 raised numpy's message, which does not name the argument
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        check(seed=-1)
    report = check(seed=np.uint32(5))
    assert type(report.meta["seed"]) is int and report.meta["seed"] == 5
