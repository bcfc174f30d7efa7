import numpy as np
import pytest

from taulattice import (CouplingVector, VolterraState, couplings, exact_oracles, identities,
                        kp_residual, mkp_residuals, moments, observables_check,
                        reduction_invariants, sample_gaussian_ensemble)


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
            kp_residual(5)


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
