import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as ref
from taulattice import (CouplingVector, DivergedField, VolterraState, couplings,
                        exact_oracles, identities, kp_residual, mkp_residuals, moments,
                        observables_check, reduction_invariants, sample_gaussian_ensemble)


def bump_state(n_sites=64, centre=10.0, width=4.0):
    n = np.arange(1.0, n_sites + 1.0)
    return VolterraState(0.5 + 0.25 * np.exp(-(((n - centre) / width) ** 2)))


class TestMkp:
    def test_bump_profile(self):
        report = mkp_residuals(8, bump_state())
        assert report.passed
        assert report.residual_rel < 1e-6
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
    def test_argument_guards(self, monkeypatch, kwargs, name):
        def refuse(*args):
            raise AssertionError("no evolution runs before the arguments are checked")
        monkeypatch.setattr(identities, "_mkp_field_table", refuse)
        with pytest.raises(ValueError, match=name):
            mkp_residuals(8, bump_state(), **kwargs)

    def test_work_counted_in_meta(self, monkeypatch):
        rhs, calls = identities.volterra_rhs, []

        def counted(B, flow=2):
            calls.append(B.shape)
            return rhs(B, flow)
        monkeypatch.setattr(identities, "volterra_rhs", counted)
        meta = mkp_residuals(8, bump_state()).meta
        # 10 flow-2, 34 flow-4 and 6 flow-6 evolutions; 30 + 20 + 20 stack steps
        assert (meta["evolutions"], meta["rk4_steps"]) == (50, 70)
        assert len(calls) == 4 * 70
        assert max(shape[1] for shape in calls) == 34
        assert len(identities._mkp_shifts({2: 1e-2, 4: 1e-2, 6: 1e-2})) == 51

    @given(st.floats(1e-3, 2e-2), st.floats(1e-3, 2e-2), st.floats(1e-3, 2e-2),
           st.sampled_from([5e-4, 1e-3, 3e-3, 1e-2]),
           st.sampled_from(["bump", "ramp"]), st.floats(6.0, 20.0), st.floats(2.0, 6.0))
    @settings(max_examples=20, deadline=None)
    def test_batched_fields_equal_per_shift_chains(self, s2, s4, s6, h, shape,
                                                   centre, width):
        state = (bump_state(32, centre, width) if shape == "bump"
                 else VolterraState(0.4 + 0.01 * np.arange(1.0, 33.0)))
        shifts = identities._mkp_shifts({2: s2, 4: s4, 6: s6})
        lines, _, _ = identities._mkp_field_table(state.B, shifts, h)
        oracle = ref.mkp_fields_nested(state.B, shifts, h)
        assert lines.keys() == oracle.keys()
        for key in shifts:
            assert np.array_equal(lines[key], oracle[key]), key

    def test_reports_equal_per_shift_chains(self, monkeypatch):
        state = bump_state()
        new = [mkp_residuals(n, state).to_dict() for n in range(2, 31)]
        shifts = identities._mkp_shifts({2: 1e-2, 4: 1e-2, 6: 1e-2})
        oracle = ref.mkp_fields_nested(state.B, shifts, 1e-3)

        def per_shift(B0, requested, h):
            assert requested == shifts and h == 1e-3 and B0 is state.B
            return oracle, None, None
        monkeypatch.setattr(identities, "_mkp_field_table", per_shift)
        for n, report in zip(range(2, 31), new):
            old = mkp_residuals(n, state).to_dict()
            for key in ("evolutions", "rk4_steps"):
                report["meta"].pop(key)
                old["meta"].pop(key)
            assert report == old, n

    def test_diverging_batch_raises(self):
        state = VolterraState(1e80 * bump_state().B)
        with pytest.raises(DivergedField, match="march of 10 evolutions overflowed"):
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

    def test_tau_ratios_only_for_the_first_pair(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pair entries are read only at n = 1")

        monkeypatch.setattr(identities, "pfaff_entries_from_tau", refuse)
        assert observables_check(2).passed

    @pytest.mark.parametrize("n", [2, 4])
    def test_one_grid_and_one_full_basis(self, n, monkeypatch):
        # log tau_{2n+4} and the skew window read one Stieltjes basis of
        # size 2n + 4; every size reads one grid, solved for once
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
        assert sorted(sizes) == [2 * n, 2 * n + 2, 2 * n + 4], sizes

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


class TestReductionInvariants:
    def test_scaling_trajectory(self):
        trajectory = exact_oracles("t2-scaling", ensemble="orthogonal",
                                   times=[0.0, 0.05, 0.1], n_sites=24,
                                   k_pos=6, k_neg=6)
        report = reduction_invariants(trajectory)
        assert report.passed
        assert report.residual_rel < 1e-10
        assert report.meta["samples"] == 3

    def test_rejects_wrong_trajectory(self):
        trajectory = exact_oracles("t2-scaling", times=[0.1], n_sites=24)
        with pytest.raises(TypeError):
            reduction_invariants(trajectory)


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

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_gaussian_ensemble(3, 2, 100, seed=1)
        with pytest.raises(ValueError):
            sample_gaussian_ensemble(1, 2, 1, seed=1)
