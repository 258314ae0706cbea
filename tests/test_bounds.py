import math

import numpy as np
import pytest

from pspectra import (SolveOptions, canonical_conformal_volume,
                      conformal_volume_bound, genus_surface_bound,
                      normalize_unit_volume, random_smooth_factor,
                      solve_closed, verify_bound)


class TestConformalVolumeBound:
    def test_sphere_p2_value(self):
        assert conformal_volume_bound(2.0, 2, 2, 4 * math.pi) \
            == pytest.approx(8 * math.pi)

    def test_linear_in_vnc_at_p_eq_m(self):
        b1 = conformal_volume_bound(2.0, 2, 2, 1.0)
        b2 = conformal_volume_bound(2.0, 2, 2, 2.0)
        assert b2 == pytest.approx(2.0 * b1)

    def test_p15_arithmetic(self):
        expected = 2.0 ** 0.75 * 3.0 ** 0.25 * (4 * math.pi) ** 0.75
        assert conformal_volume_bound(1.5, 2, 2, 4 * math.pi) \
            == pytest.approx(expected, rel=1e-14)

    def test_hypothesis_rejections(self):
        with pytest.raises(ValueError):
            conformal_volume_bound(2.5, 2, 2, 1.0)  # p > m
        with pytest.raises(ValueError):
            conformal_volume_bound(1.5, 2, 1, 1.0)  # n < m
        with pytest.raises(ValueError):
            conformal_volume_bound(1.5, 2, 2, 0.0)

    def test_prefactor_monotone_in_n(self):
        # the absolute-value exponent makes (n+1)^|p/2-1| nondecreasing in n
        # for every p (constant exactly at p = 2)
        for p, m in [(3.0, 3), (2.0, 2), (1.2, 2), (1.8, 2)]:
            vals = [conformal_volume_bound(p, m, n, 1.0) for n in [3, 4, 6]]
            assert vals[0] <= vals[1] <= vals[2]


class TestGenusSurfaceBound:
    def test_genus_zero_value(self):
        assert genus_surface_bound(2.0, 0) == pytest.approx(8 * math.pi)

    def test_genus_two(self):
        assert genus_surface_bound(2.0, 2) == pytest.approx(16 * math.pi)

    def test_floor_behavior(self):
        # genus 0 -> floor(3/2) = 1, genus 1 -> floor(4/2) = 2
        assert genus_surface_bound(2.0, 0) == pytest.approx(8 * math.pi)
        assert genus_surface_bound(2.0, 1) == pytest.approx(16 * math.pi)

    def test_nondecreasing_in_genus(self):
        vals = [genus_surface_bound(1.7, g) for g in range(8)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_nonorientable_prefactor(self):
        expected = 5.0 ** abs(0.75 - 1.0) * (24 * math.pi) ** 0.75
        assert genus_surface_bound(1.5, 0, orientable=False) \
            == pytest.approx(expected, rel=1e-14)

    def test_agreement_with_volume_bound_at_p2(self):
        assert genus_surface_bound(2.0, 0) \
            == conformal_volume_bound(2.0, 2, 2, 4 * math.pi)

    def test_rejections(self):
        with pytest.raises(ValueError):
            genus_surface_bound(2.5, 0)
        with pytest.raises(ValueError):
            genus_surface_bound(2.0, -1)


class TestCanonicalConformalVolume:
    def test_table_values(self):
        assert canonical_conformal_volume("S1") == pytest.approx(2 * math.pi)
        assert canonical_conformal_volume("S2") == pytest.approx(4 * math.pi)

    def test_certified_by_solver(self, sphere5, circle400):
        lam_s2 = solve_closed(sphere5, np.ones(sphere5.n_vertices),
                              SolveOptions(p=2.0)).lam
        assert canonical_conformal_volume("S2", lam2=lam_s2) \
            == pytest.approx(4 * math.pi, rel=0.02)
        lam_s1 = solve_closed(circle400, np.ones(circle400.n_vertices),
                              SolveOptions(p=2.0)).lam
        assert canonical_conformal_volume("S1", lam2=lam_s1) \
            == pytest.approx(2 * math.pi, rel=0.01)

    def test_exact_eigenvalue_scaling_sanity(self):
        # feeding the exact first eigenvalue reproduces the plain volume
        assert canonical_conformal_volume("S2", lam2=2.0) \
            == pytest.approx(4 * math.pi)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            canonical_conformal_volume("T2")


class TestVerifyBound:
    def test_round_sphere_near_sharp(self, sphere5):
        f = normalize_unit_volume(sphere5, np.ones(sphere5.n_vertices))
        report = verify_bound(sphere5, f,
                              SolveOptions(p=2.0))
        assert report.passed
        assert report.computed_lambda >= 0.95 * report.bound_value
        assert report.bound_value == pytest.approx(8 * math.pi)

    def test_random_factor_p2(self, sphere4):
        f = normalize_unit_volume(sphere4,
                                  random_smooth_factor(sphere4, seed=3))
        report = verify_bound(sphere4, f, SolveOptions(p=2.0))
        assert report.passed
        assert report.slack >= -report.tolerance * report.bound_value

    def test_random_factor_p15_genus_bound(self, sphere4):
        f = normalize_unit_volume(sphere4,
                                  random_smooth_factor(sphere4, seed=5))
        report = verify_bound(sphere4, f, SolveOptions(p=1.5),
                              source="genus_surface")
        assert report.passed

    def test_rejects_unnormalized(self, sphere4):
        with pytest.raises(ValueError):
            verify_bound(sphere4, np.ones(sphere4.n_vertices),
                         SolveOptions(p=2.0))

    def test_rejects_p_above_m(self, circle400):
        f = normalize_unit_volume(circle400, np.ones(400))
        with pytest.raises(ValueError):
            verify_bound(circle400, f, SolveOptions(p=1.5))
