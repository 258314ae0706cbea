from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pspectra import (MobiusMap, balance, balanced_energy_bound,
                      cap_density, integrate, measure_density, mobius,
                      moment_vector, normalize_unit_volume, p_shift,
                      solve_closed, SolveOptions)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


IDENTITY = MobiusMap(np.array([0.0, 0.0, 1.0]), 1.0)


def _chart_frame(a):
    """Orthonormal completion of the pole: Gram-Schmidt of the standard
    basis against a, in lexicographic order."""
    frame = []
    for e in np.eye(a.shape[0]):
        e = e - (e @ a) * a
        for b in frame:
            e = e - (e @ b) * b
        norm = np.linalg.norm(e)
        if norm > 1e-8:
            frame.append(e / norm)
        if len(frame) == a.shape[0] - 1:
            break
    return np.array(frame)


def stereographic(a, x):
    """Reference chart: coordinates of sphere points under projection from
    pole a, in the frame :func:`chart_apply` uses.

    The antipode of a maps to the origin and the equator orthogonal to a
    maps onto the unit sphere of the chart.
    """
    a = np.asarray(a, dtype=float)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    frame = _chart_frame(a)
    denom = 1.0 - x @ a
    if np.any(denom < 1e-9):
        raise ValueError("cannot project a point at (or too close to) the pole")
    y = (x @ frame.T) / denom[:, None]
    return y[0] if y.shape[0] == 1 and np.asarray(x).ndim == 1 else y


def stereographic_inverse(a, y):
    """Inverse of :func:`stereographic` for the same pole."""
    a = np.asarray(a, dtype=float)
    y = np.atleast_2d(np.asarray(y, dtype=float))
    frame = _chart_frame(a)
    s = np.sum(y * y, axis=1)
    x = (2.0 * y @ frame + (s - 1.0)[:, None] * a) / (s + 1.0)[:, None]
    return x[0] if x.shape[0] == 1 and np.asarray(y).ndim == 1 else x


def pl_gradient_sq(mesh, u):
    """Reference squared norm of the linear gradient of u on each triangle,
    in the triangle's own plane."""
    p = mesh.vertices[mesh.elements]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    g11 = np.einsum("ij,ij->i", e1, e1)
    g12 = np.einsum("ij,ij->i", e1, e2)
    g22 = np.einsum("ij,ij->i", e2, e2)
    det = g11 * g22 - g12 * g12
    ue = u[mesh.elements]
    d1 = ue[:, 1] - ue[:, 0]
    d2 = ue[:, 2] - ue[:, 0]
    return (g22 * d1 * d1 - 2.0 * g12 * d1 * d2 + g11 * d2 * d2) / det


def chart_apply(g, x):
    """Reference dilation through the stereographic chart frame."""
    a = np.asarray(g.pole)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if g.t == 1.0:
        return x.copy()
    frame = _chart_frame(a)
    denom = 1.0 - x @ a
    at_pole = denom <= 1e-15
    denom = np.where(at_pole, 1.0, denom)
    y = (x @ frame.T) / denom[:, None]
    u = np.linalg.norm(y, axis=1)
    at_antipode = u <= 1e-300
    unit = y / np.maximum(u, 1e-300)[:, None]
    log_rho = g.log_dilation + np.log(np.maximum(u, 1e-300))
    big = log_rho > 0.0
    r = np.where(big, np.exp(-np.abs(log_rho)),
                 np.exp(np.minimum(log_rho, 0.0)))
    coef_w = 2.0 * r / (1.0 + r * r)
    coef_a = (1.0 - r * r) / (1.0 + r * r) * np.where(big, 1.0, -1.0)
    out = coef_w[:, None] * (unit @ frame) + coef_a[:, None] * a
    out[at_pole] = a
    out[at_antipode] = -a
    return out / np.linalg.norm(out, axis=1)[:, None]


def quadrature_moments(mesh, phi, density, p, g):
    """Reference moments: one element-mean quadrature per coordinate."""
    psi = chart_apply(g, phi)
    comps = [integrate(mesh, np.sign(psi[:, i]) * np.abs(psi[:, i]) ** (p - 1.0)
                       * density)
             for i in range(psi.shape[1])]
    return np.array(comps) / integrate(mesh, density)


class TestStereographic:
    """The chart that the reference :func:`chart_apply` is built on."""

    def test_antipode_to_origin(self):
        a = unit([0.3, -0.2, 0.93])
        y = stereographic(a, -a)
        assert np.allclose(y, 0.0, atol=1e-14)

    def test_equator_to_unit_sphere(self):
        a = unit([0.0, 0.0, 1.0])
        x = unit([1.0, 0.0, 0.0])
        assert np.linalg.norm(stereographic(a, x)) == pytest.approx(1.0)

    def test_roundtrip_thousand_points(self):
        rng = np.random.default_rng(3)
        a = unit(rng.standard_normal(3))
        x = rng.standard_normal((1000, 3))
        x /= np.linalg.norm(x, axis=1)[:, None]
        x = x[(x @ a) < 1.0 - 1e-6]
        back = stereographic_inverse(a, stereographic(a, x))
        assert np.max(np.linalg.norm(back - x, axis=1)) < 1e-10

    def test_pole_rejected(self):
        a = unit([0.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            stereographic(a, a)


class TestMobiusMap:
    def test_t1_identity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((200, 3))
        x /= np.linalg.norm(x, axis=1)[:, None]
        g = MobiusMap(unit([1.0, 2.0, -0.5]), 1.0)
        assert np.array_equal(g.apply(x), x)

    def test_fixed_points(self):
        # for the last two poles a.a == 1 exactly: x = a has a zero
        # tangential part
        for pole in [[0.4, 0.1, 0.9], [0.0, 0.0, 1.0], [0.6, 0.0, 0.8]]:
            a = unit(pole)
            g = MobiusMap(a, 0.35)
            assert np.linalg.norm(g.apply(a) - a) < 1e-12
            assert np.linalg.norm(g.apply(-a) + a) < 1e-12

    def test_matches_chart_reference(self, sphere4):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1000, 3))
        x /= np.linalg.norm(x, axis=1)[:, None]
        x = np.vstack([x, sphere4.vertices])
        worst = 0.0
        for _ in range(20):
            a = unit(rng.standard_normal(3))
            # at +-a itself the image is rounding-driven for large dilations
            pts = x[np.minimum(np.linalg.norm(x - a, axis=1),
                               np.linalg.norm(x + a, axis=1)) > 1e-12]
            for t in [0.9, 0.5, 0.35, 0.05, 1e-3, 1e-4, 1e-6]:
                g = MobiusMap(a, t)
                worst = max(worst, np.abs(g.apply(pts)
                                          - chart_apply(g, pts)).max())
        assert worst <= 1e-12

    def test_half_angle_law(self):
        # the image of a point at angle theta from the pole lies at angle
        # 2 atan(e^-kappa tan(theta/2)), also within 1e-12 of the pole
        a = unit([0.3, -0.4, 0.85])
        perp = unit(np.cross(a, [1.0, 0.0, 0.0]))
        theta = np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.5, 2.0, 3.0])
        x = np.cos(theta)[:, None] * a + np.sin(theta)[:, None] * perp
        for t in [0.9, 0.5, 0.05, 1e-3]:
            g = MobiusMap(a, t)
            y = g.apply(x)
            got = np.arctan2(y @ perp, y @ a)
            want = 2.0 * np.arctan(np.exp(-g.log_dilation)
                                   * np.tan(theta / 2.0))
            assert np.max(np.abs(got - want)) <= 1e-15

    def test_saturated_fixed_points(self):
        # at t = 1e-6 every coefficient but the pole's underflows; -a stays
        # fixed
        a = unit([0.0, 0.6, 0.8])
        y = MobiusMap(a, 1e-6).apply(np.array([a, -a, unit([1.0, 0.0, 0.0])]))
        assert np.array_equal(y, [a, -a, a])

    @pytest.mark.parametrize("t", [1e-6, 1e-3, 1e-2, 0.1, 0.5])
    def test_antipode_fixed_for_inexact_pole(self, t):
        # a.a = 1 - 1.1e-16 in floats; x = -a must still have a zero
        # tangential part, or the image drifts towards a as t shrinks
        a = unit([0.4, 0.1, 0.9])
        assert a @ a != 1.0
        assert np.abs(MobiusMap(a, t).apply(-a) + a).max() <= 4.4e-16

    def test_image_on_sphere(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((500, 3))
        x /= np.linalg.norm(x, axis=1)[:, None]
        for t in [0.9, 0.5, 0.05, 1e-3, 1e-6]:
            g = MobiusMap(unit([0.1, -0.7, 0.7]), t)
            y = g.apply(x)
            assert np.max(np.abs(np.linalg.norm(y, axis=1) - 1.0)) <= 1e-12

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((300, 3))
        x /= np.linalg.norm(x, axis=1)[:, None]
        g = MobiusMap(unit([0.2, 0.5, -0.8]), 0.4)
        inverse = MobiusMap(-g.pole, g.t)
        err = np.linalg.norm(inverse.apply(g.apply(x)) - x, axis=1)
        assert np.max(err) < 1e-9

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MobiusMap(np.array([1.0, 1.0, 0.0]), 0.5)
        with pytest.raises(ValueError):
            MobiusMap(np.array([1.0, 0.0, 0.0]), 0.0)
        with pytest.raises(ValueError):
            MobiusMap(np.array([1.0, 0.0, 0.0]), 1.5)


class TestMomentVector:
    def test_symmetric_identity_zero(self, sphere3):
        dens = np.ones(sphere3.n_vertices)
        F = moment_vector(sphere3, sphere3.vertices, dens, 2.5, IDENTITY)
        assert np.linalg.norm(F) < 1e-10

    def test_concentration_pattern(self, sphere3):
        a = unit([0.3, -0.5, 0.81])
        p = 2.5
        dens = np.ones(sphere3.n_vertices)
        F = moment_vector(sphere3, sphere3.vertices, dens, p,
                          MobiusMap(a, 1e-3))
        pattern = np.sign(a) * np.abs(a) ** (p - 1.0)
        assert np.max(np.abs(F - pattern)) < 1e-2

    def test_p2_weighted_mean(self, sphere3):
        dens = cap_density(sphere3, [1.0, 0.2, 0.1], 4.0)
        F = moment_vector(sphere3, sphere3.vertices, dens, 2.0, IDENTITY)
        total = integrate(sphere3, dens)
        means = [integrate(sphere3, sphere3.vertices[:, i] * dens) / total
                 for i in range(3)]
        assert np.allclose(F, means, rtol=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
    def test_matches_quadrature_reference(self, sphere4, p):
        rng = np.random.default_rng(6)
        dens = cap_density(sphere4, [0.3, -0.5, 0.8], 6.0)
        for t in [1.0, 0.5, 0.05, 1e-3]:
            g = MobiusMap(unit(rng.standard_normal(3)), t)
            F = moment_vector(sphere4, sphere4.vertices, dens, p, g)
            ref = quadrature_moments(sphere4, sphere4.vertices, dens, p, g)
            assert np.max(np.abs(F - ref)) <= 1e-13


class TestBalance:
    def test_uniform_already_balanced(self, sphere3):
        dens = np.ones(sphere3.n_vertices)
        res = balance(sphere3, sphere3.vertices, dens, 2.0)
        assert res.converged
        assert res.map.t == pytest.approx(1.0)
        assert res.moment_norm <= 1e-6

    @pytest.mark.parametrize("p", [2.0, 1.7])
    def test_cap_density(self, sphere3, p):
        dens = cap_density(sphere3, [0.3, -0.5, 0.8], 8.0)
        res = balance(sphere3, sphere3.vertices, dens, p)
        assert res.converged
        assert res.moment_norm <= 1e-6
        assert res.map.t < 1.0

    def test_one_moment_vector_call_per_evaluation(self, sphere3,
                                                   monkeypatch):
        # the evaluation count that balance reports is the number of
        # moment_vector calls it made
        calls = []
        inner = mobius.moment_vector

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(mobius, "moment_vector", counted)
        dens = cap_density(sphere3, [0.3, -0.5, 0.8], 8.0)
        res = balance(sphere3, sphere3.vertices, dens, 1.7)
        assert res.evaluations > 0
        assert len(calls) == res.evaluations

    def test_two_cap_low_p(self, sphere4):
        # a grid search plus simplex refinement stalled here at norm 4.1e-4
        dens = (cap_density(sphere4, [0.0, 0.0, 1.0], 30.0)
                + 0.3 * cap_density(sphere4, [1.0, 0.0, 0.0], 30.0))
        res = balance(sphere4, sphere4.vertices, dens, 1.3)
        assert res.converged
        assert res.moment_norm <= 1e-6

    @pytest.mark.parametrize("concentration", [20.0, 100.0])
    def test_p_near_one_reports_instead_of_raising(self, sphere4,
                                                   concentration):
        # near p = 1 the moment map is nearly a sign function, so the root
        # search may miss; a miss is flagged, not raised
        dens = cap_density(sphere4, [0.3, -0.5, 0.8], concentration)
        res = balance(sphere4, sphere4.vertices, dens, 1.1)
        assert isinstance(res, mobius.BalanceResult)
        assert np.isfinite(res.moment_norm)
        assert res.converged == (res.moment_norm <= 1e-6)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_tol(self, sphere2, tol):
        dens = np.ones(sphere2.n_vertices)
        with pytest.raises(ValueError, match="tol"):
            balance(sphere2, sphere2.vertices, dens, 2.0, tol=tol)
        f = normalize_unit_volume(sphere2, dens)
        with pytest.raises(ValueError, match="tol"):
            balanced_energy_bound(sphere2, f, sphere2.vertices, 2.0, tol=tol)

    @pytest.mark.parametrize("p", [np.inf, np.nan, 1.0, 0.5])
    def test_rejects_bad_p_before_root_finding(self, sphere2, p,
                                               monkeypatch):
        def no_root(*args, **kwargs):
            raise AssertionError("root called before the p check")

        monkeypatch.setattr(mobius, "root", no_root)
        dens = np.ones(sphere2.n_vertices)
        with pytest.raises(ValueError, match="p must be finite and exceed 1"):
            balance(sphere2, sphere2.vertices, dens, p)
        f = normalize_unit_volume(sphere2, dens)
        with pytest.raises(ValueError, match="p must be finite and exceed 1"):
            balanced_energy_bound(sphere2, f, sphere2.vertices, p)

    def test_step_floor_before_any_root_at_p(self, sphere2, monkeypatch):
        # every root misses tol, so the steps shrink to the floor without
        # reaching p; the search then root-finds once at p itself
        qs = []

        def missing_root(fun, v, args, **kwargs):
            qs.append(args[-1])
            return SimpleNamespace(x=np.asarray(v), fun=np.ones(3), nfev=1)

        monkeypatch.setattr(mobius, "root", missing_root)
        dens = np.ones(sphere2.n_vertices)
        res = balance(sphere2, sphere2.vertices, dens, 3.0)
        assert qs[-1] == 3.0 and 3.0 not in qs[:-1]
        assert res.evaluations == len(qs)
        assert res.moment_norm == pytest.approx(np.sqrt(3.0))
        assert not res.converged

    def test_p2_matches_center_of_mass_oracle(self, sphere3):
        # independent p = 2 solver: root-find the mapped coordinate means
        from scipy.optimize import root
        from pspectra.mobius import _params_to_map

        dens = cap_density(sphere3, [0.1, 0.6, -0.7], 6.0)
        total = integrate(sphere3, dens)

        def mean_map(v):
            psi = _params_to_map(v).apply(sphere3.vertices)
            return [integrate(sphere3, psi[:, i] * dens) / total
                    for i in range(3)]

        sol = root(mean_map, np.array([0.05, 0.3, -0.35]), tol=1e-12)
        assert sol.success
        res = balance(sphere3, sphere3.vertices, dens, 2.0)
        psi = res.map.apply(sphere3.vertices)
        means = [integrate(sphere3, psi[:, i] * dens) / total
                 for i in range(3)]
        assert np.max(np.abs(means)) <= 1e-6
        oracle = _params_to_map(sol.x)
        assert np.linalg.norm(oracle.pole * (1 - oracle.t) / oracle.t
                              - res.map.pole * (1 - res.map.t) / res.map.t) \
            < 1e-4


class TestBalancedEnergyBound:
    def test_round_identity_prefactor_one(self, sphere3):
        # p = 2 on the unit-volume round sphere: bound is the conformally
        # invariant energy 2 * area, eigenvalue reaches it (sharp case)
        f = normalize_unit_volume(sphere3, np.ones(sphere3.n_vertices))
        bound = balanced_energy_bound(sphere3, f, sphere3.vertices, 2.0)
        assert bound == pytest.approx(2.0 * sphere3.element_measure.sum(),
                                      rel=1e-9)
        res = solve_closed(sphere3, f, SolveOptions(p=2.0))
        assert res.lam <= bound * 1.02
        assert res.lam >= bound * 0.95

    def test_prefactor_values(self, sphere2):
        from pspectra import energy_density_weight
        f = normalize_unit_volume(sphere2, np.ones(sphere2.n_vertices))
        p = 1.5
        hs = np.zeros(sphere2.n_elements)
        for i in range(3):
            hs += pl_gradient_sq(sphere2, sphere2.vertices[:, i].copy())
        ew = energy_density_weight(sphere2, f, p)[sphere2.elements].mean(axis=1)
        raw = float(np.sum(sphere2.element_measure * ew * hs ** (p / 2.0)))
        # prefactor (n+1)^|p/2-1| = 3^(1/4) at p = 1.5
        bound = balanced_energy_bound(sphere2, f, sphere2.vertices, p)
        assert bound == pytest.approx(3.0 ** 0.25 * raw, rel=1e-12)

    def test_rejects_unbalanced(self, sphere3):
        f = normalize_unit_volume(sphere3, np.ones(sphere3.n_vertices))
        skew = sphere3.vertices + np.array([0.5, 0.0, 0.0])
        skew /= np.linalg.norm(skew, axis=1)[:, None]
        with pytest.raises(ValueError):
            balanced_energy_bound(sphere3, f, skew, 2.0)

    @pytest.mark.parametrize("p", [1.7, 2.0])
    def test_pipeline_bound_holds(self, sphere3, p):
        f = normalize_unit_volume(
            sphere3, cap_density(sphere3, [0.2, 0.7, 0.4], 5.0))
        dens = measure_density(sphere3, f)
        res = balance(sphere3, sphere3.vertices, dens, p)
        assert res.converged
        psi = res.map.apply(sphere3.vertices)
        bound = balanced_energy_bound(sphere3, f, psi, p)
        rho = dens * sphere3.vertex_measure
        starts = [psi[:, i] - p_shift(psi[:, i], rho, p) for i in range(3)]
        solved = solve_closed(sphere3, f, SolveOptions(p=p),
                              extra_starts=starts)
        assert solved.lam <= bound * 1.02


class TestElementaryInequalities:
    """Coordinate bounds used by the balanced-map energy argument."""

    rng = np.random.default_rng(99)

    def _unit_vectors(self, n):
        v = self.rng.standard_normal((n, 3))
        return v / np.linalg.norm(v, axis=1)[:, None]

    @pytest.mark.parametrize("p", [2.0, 3.0, 5.0])
    def test_power_sums_p_ge_2(self, p):
        psi = self._unit_vectors(10_000)
        sums = np.sum(np.abs(psi) ** p, axis=1)
        assert np.all(sums <= 1.0 + 1e-12)
        assert np.all(sums >= 3.0 ** (1.0 - p / 2.0) - 1e-12)

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0])
    def test_power_sums_p_le_2(self, p):
        psi = self._unit_vectors(10_000)
        sums = np.sum(np.abs(psi) ** p, axis=1)
        assert np.all(sums >= 1.0 - 1e-12)
        s = self.rng.random((10_000, 3))
        lhs = np.sum(s ** (p / 2.0), axis=1)
        rhs = 3.0 ** (1.0 - p / 2.0) * np.sum(s, axis=1) ** (p / 2.0)
        assert np.all(lhs <= rhs + 1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(1.05, 8.0), st.integers(0, 2 ** 31 - 1))
    def test_gradient_sum_bound(self, p, seed):
        # sum |g_i|^(p/2) vs Hilbert-Schmidt combination, both directions
        rng = np.random.default_rng(seed)
        g = rng.random(3) * 5.0
        lhs = np.sum(g ** (p / 2.0))
        hs = np.sum(g) ** (p / 2.0)
        if p >= 2.0:
            assert lhs <= hs + 1e-12
        else:
            assert lhs <= 3.0 ** (1.0 - p / 2.0) * hs + 1e-12
