import numpy as np
import pytest

from pspectra import (band_plateau_factor, build_circle,
                      energy_density_weight, load_factor_csv,
                      measure_density, normalize_unit_volume,
                      random_smooth_factor, save_factor_csv,
                      smooth_band_plateau_factor, volume)
from pspectra.conformal import plateau_value


class TestDensities:
    def test_unit_factor(self, sphere3):
        one = np.ones(sphere3.n_vertices)
        assert np.all(measure_density(sphere3, one) == 1.0)
        assert np.all(energy_density_weight(sphere3, one, 2.5) == 1.0)

    def test_constant_powers_2d(self, sphere3):
        f = np.full(sphere3.n_vertices, 4.0)
        assert np.allclose(measure_density(sphere3, f), 4.0)

    def test_constant_powers_1d(self, circle400):
        f = np.full(circle400.n_vertices, 4.0)
        assert np.allclose(measure_density(circle400, f), 2.0)
        assert np.allclose(energy_density_weight(circle400, f, 3.0), 0.25)

    def test_conformally_invariant_energy(self, sphere3):
        f = random_smooth_factor(sphere3, seed=4)
        w = energy_density_weight(sphere3, f, 2.0)
        assert np.all(w == 1.0)

    def test_density_weight_ratio(self, sphere3):
        # measure density / energy weight = f^(p/2) pointwise
        f = random_smooth_factor(sphere3, seed=7, amplitude=1.5)
        for p in [1.3, 2.0, 3.7]:
            ratio = measure_density(sphere3, f) \
                / energy_density_weight(sphere3, f, p)
            assert np.allclose(ratio, f ** (p / 2.0), rtol=1e-12)

    def test_positive_required(self, sphere3):
        f = np.ones(sphere3.n_vertices)
        f[3] = 0.0
        with pytest.raises(ValueError):
            measure_density(sphere3, f)


class TestBandPlateau:
    def test_plateau_value_formula(self):
        # direct substitution: m=1, p=3, eps=0.1 -> 0.1^(12/2) = 1e-6
        assert plateau_value(0.1, 3.0, 1) == pytest.approx(1e-6, rel=1e-12)

    def test_singular_values(self):
        m = build_circle(600, 2.0 * np.pi)
        f = band_plateau_factor(m, 0.1, 3.0)
        r = m.colatitudes
        band = (r > np.pi / 2 - 0.1) & (r < np.pi / 2 + 0.1)
        assert np.all(f[band] == 1.0)
        assert np.all(f[~band] == pytest.approx(1e-6, rel=1e-12))

    def test_equator_vertex_in_band(self, sphere4):
        f = band_plateau_factor(sphere4, 0.35, 3.0)
        on_eq = np.abs(sphere4.colatitudes - np.pi / 2) <= 1e-9
        assert np.all(f[on_eq] == 1.0)

    def test_symmetric_about_equator(self, sphere4):
        from pspectra import mirror_index
        f = band_plateau_factor(sphere4, 0.35, 3.0)
        assert np.array_equal(f, f[mirror_index(sphere4)])

    def test_rejects_p_le_m(self, sphere4):
        with pytest.raises(ValueError):
            band_plateau_factor(sphere4, 0.35, 2.0)

    def test_rejects_unresolved_eps(self):
        m = build_circle(20, 2.0 * np.pi)
        with pytest.raises(ValueError):
            band_plateau_factor(m, 0.3, 3.0)

    def test_smooth_inner_band_and_plateau(self, sphere4):
        eps = 0.4
        f = smooth_band_plateau_factor(sphere4, eps, 3.0)
        r = sphere4.colatitudes
        inner = np.abs(r - np.pi / 2) <= eps / 2
        outer = np.abs(r - np.pi / 2) >= eps
        assert np.all(f[inner] == 1.0)
        assert np.all(f[outer] == pytest.approx(plateau_value(eps, 3.0, 2),
                                                rel=1e-12))

    def test_smooth_below_singular(self, sphere4):
        for eps in [0.35, 0.5]:
            fs = smooth_band_plateau_factor(sphere4, eps, 2.5)
            f = band_plateau_factor(sphere4, eps, 2.5)
            assert np.all(fs <= f + 1e-15)

    def test_smooth_mirror_symmetric(self, sphere4):
        from pspectra import mirror_index
        f = smooth_band_plateau_factor(sphere4, 0.35, 3.0)
        assert np.allclose(f, f[mirror_index(sphere4)], rtol=0, atol=1e-13)


class TestVolume:
    def test_round_sphere(self, sphere5):
        one = np.ones(sphere5.n_vertices)
        assert volume(sphere5, one) == pytest.approx(4 * np.pi, rel=1e-3)

    def test_constant_scaling(self, sphere3):
        one = np.ones(sphere3.n_vertices)
        c = 2.3
        assert volume(sphere3, c * one) == pytest.approx(
            c * volume(sphere3, one), rel=1e-12)

    def test_smooth_band_lower_bound(self, sphere5):
        # volume exceeds eps * V * sin(pi/2 - eps)^(m-1) with V = 2 pi
        for eps in [0.3, 0.5]:
            f = smooth_band_plateau_factor(sphere5, eps, 3.0)
            lower = eps * 2.0 * np.pi * np.sin(np.pi / 2 - eps)
            assert volume(sphere5, f) > lower

    def test_normalize_unit_volume(self, sphere4):
        f = random_smooth_factor(sphere4, seed=9, amplitude=1.2)
        h = normalize_unit_volume(sphere4, f)
        assert volume(sphere4, h) == pytest.approx(1.0, rel=1e-10)

    def test_normalize_round(self, sphere5):
        one = np.ones(sphere5.n_vertices)
        h = normalize_unit_volume(sphere5, one)
        assert np.allclose(h, 1.0 / (4.0 * np.pi), rtol=2e-3)

    def test_normalize_fixed_point(self):
        m = build_circle(100, 1.0)
        one = np.ones(m.n_vertices)
        assert np.allclose(normalize_unit_volume(m, one), 1.0, rtol=1e-12)


class TestGenerators:
    def test_random_factor_positive_and_seeded(self, sphere3):
        f1 = random_smooth_factor(sphere3, seed=5)
        f2 = random_smooth_factor(sphere3, seed=5)
        assert np.array_equal(f1, f2)
        assert np.all(f1 > 0)

    def test_symmetric_generator(self, sphere3):
        from pspectra import mirror_index
        f = random_smooth_factor(sphere3, seed=6, symmetric=True)
        assert np.allclose(f, f[mirror_index(sphere3)], rtol=0, atol=1e-12)

    def test_csv_roundtrip(self, sphere2, tmp_path):
        f = random_smooth_factor(sphere2, seed=1)
        path = tmp_path / "factor.csv"
        save_factor_csv(f, path)
        assert np.array_equal(load_factor_csv(path), f)
