import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.sparse import bmat, csr_matrix, diags
from scipy.sparse.linalg import LinearOperator, norm as sparse_norm

from pspectra import (DegenerateFieldError, DiscreteManifold, MeshError,
                      SolveOptions, build_circle, build_icosphere,
                      build_interval, extract_hemisphere, integrate,
                      load_off, measure_density, mirror_index,
                      normalize_unit_volume,
                      p_shift,
                      radial_average, random_smooth_factor,
                      rayleigh_quotient, reflect_even, shooting_eigenvalue_1d,
                      smooth_band_plateau_factor, band_plateau_factor,
                      save_off, solve_closed, solve_dirichlet,
                      solve_neumann, split_band_plateau)
from pspectra import psolve
from pspectra.psolve import (_TINY, _brentq, _gram_inverse, _p2_eigenvector,
                             quotient_gradient, weighted_problem)


def ones(mesh):
    return np.ones(mesh.n_vertices)


def dirichlet_problem(mesh, p):
    """The problem solve_dirichlet solves: f = 1, boundary pinned to zero."""
    return weighted_problem(mesh, ones(mesh), p, mesh.boundary)


class TestRayleighQuotient:
    def test_coordinate_on_sphere(self, sphere5):
        z = sphere5.vertices[:, 2].copy()
        q = rayleigh_quotient(sphere5, ones(sphere5), 2.0, z)
        assert q == pytest.approx(2.0, rel=0.02)

    def test_scale_invariance(self, sphere3):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(sphere3.n_vertices)
        f = random_smooth_factor(sphere3, seed=2)
        q1 = rayleigh_quotient(sphere3, f, 2.7, u)
        q2 = rayleigh_quotient(sphere3, f, 2.7, 3.0 * u)
        assert q2 == pytest.approx(q1, rel=1e-12)

    def test_constant_shift_keeps_numerator(self, circle400):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(circle400.n_vertices)
        f = ones(circle400)
        p = 2.5
        w = measure_density(circle400, f) * circle400.vertex_measure
        c = p_shift(u + 5.0, w, p)
        q_shifted = rayleigh_quotient(circle400, f, p, u + 5.0 - c)
        # numerator unchanged: compare through a common denominator
        num = q_shifted * integrate(circle400, np.abs(u + 5.0 - c) ** p)
        num0 = rayleigh_quotient(circle400, f, p, u) \
            * integrate(circle400, np.abs(u) ** p)
        assert num == pytest.approx(num0, rel=1e-9)

    def test_constant_rejected(self, sphere3):
        with pytest.raises(DegenerateFieldError):
            rayleigh_quotient(sphere3, ones(sphere3), 2.0, ones(sphere3))


class TestPShift:
    def test_p2_weighted_mean(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(50)
        w = rng.random(50) + 0.1
        assert p_shift(u, w, 2.0) == pytest.approx(np.sum(u * w) / np.sum(w))

    def test_odd_symmetry(self):
        u = np.array([-2.0, -1.0, 1.0, 2.0])
        w = np.ones(4)
        assert p_shift(u, w, 3.5) == pytest.approx(0.0, abs=1e-12)

    def test_p4_two_point(self):
        # (2 - c)^3 = (1 + c)^3 has the unique real root c = 1/2
        c = p_shift(np.array([-1.0, 2.0]), np.ones(2), 4.0)
        assert c == pytest.approx(0.5, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(1.1, 6.0), st.integers(0, 2 ** 31 - 1))
    # root next to a data value, where the balance has a kink
    @example(1.25, 2691)
    def test_balance_root_property(self, p, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(30)
        w = rng.random(30) + 0.05
        c = p_shift(u, w, p)
        e = u - c
        h = np.sum(np.sign(e) * np.abs(e) ** (p - 1.0) * w)
        # when the root collides with a data value the balance has a kink
        # there and the closest representable c leaves a power-law residue
        kink = (1e-13 * (u.max() - u.min())) ** (p - 1.0) * w.max()
        assert abs(h) <= 1e-11 * np.sum(np.abs(e) ** (p - 1.0) * w) + kink
        assert u.min() <= c <= u.max()

    @pytest.mark.parametrize("p", [1.4, 2.0, 3.0])
    def test_shift_minimizes_denominator(self, p):
        rng = np.random.default_rng(7)
        u = rng.standard_normal(80)
        w = rng.random(80) + 0.1
        c = p_shift(u, w, p)

        def den(cc):
            return np.sum(np.abs(u - cc) ** p * w)

        assert den(c) <= den(c + 0.1)
        assert den(c) <= den(c - 0.1)

    def test_constant_degenerate(self):
        with pytest.raises(DegenerateFieldError):
            p_shift(np.full(5, 3.0), np.ones(5), 2.5)

    @pytest.mark.parametrize("p", [1.3, 3.0, 6.0])
    def test_zero_weights_leave_the_bracket(self, p):
        u = np.array([-10.0, -1.0, 1.0, 2.0, 50.0])
        c = p_shift(u, np.array([0.0, 1.0, 1.0, 1.0, 0.0]), p)
        assert -1.0 <= c <= 2.0

    @pytest.mark.parametrize("p", [1.3, 3.0, 6.0])
    def test_affine_equivariance(self, p):
        rng = np.random.default_rng(11)
        u = rng.standard_normal(40)
        w = rng.random(40) + 0.05
        c = p_shift(u, w, p)
        span = u.max() - u.min()
        for a in (0.25, 3.7):
            for b in (0.0, 5.0):
                assert p_shift(a * u + b, w, p) == pytest.approx(
                    a * c + b, abs=1e-12 * a * span)

    @pytest.mark.parametrize("p", [1.3, 3.0, 6.0])
    def test_weight_scaling(self, p):
        rng = np.random.default_rng(12)
        u = rng.standard_normal(40)
        w = rng.random(40) + 0.05
        c = p_shift(u, w, p)
        # a power of two scales every balance value exactly
        assert p_shift(u, 4.0 * w, p) == c
        assert p_shift(u, 3.7 * w, p) == pytest.approx(
            c, abs=1e-13 * (u.max() - u.min()))

    @pytest.mark.parametrize("p", [1.5, 2.0])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("arg", ["u", "weights"])
    def test_non_finite_input_rejected(self, p, bad, arg):
        # at p = 2 the weighted mean would turn these into nan or inf
        u, w = np.array([0.0, 1.0, 2.0]), np.ones(3)
        (u if arg == "u" else w)[1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            p_shift(u, w, p)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1.1, 6.0), st.integers(0, 2 ** 31 - 1))
    @example(1.25, 2691)
    def test_matches_scipy_brentq(self, p, seed):
        # the inputs of test_balance_root_property; p = 2 is a closed form
        assume(p != 2.0)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(30)
        w = rng.random(30) + 0.05
        lo, hi = float(u.min()), float(u.max())

        def balance(c):
            e = u - c
            return float(np.sum(np.sign(e) * np.abs(e) ** (p - 1.0) * w))

        expected = brentq(balance, lo, hi,
                          xtol=4.0 * np.spacing(max(abs(lo), abs(hi))),
                          rtol=4.0 * np.finfo(float).eps, disp=False)
        assert p_shift(u, w, p).hex() == expected.hex()


BRENT_FUNCTIONS = {
    "cubic": (lambda x: x ** 3 - 2.0 * x - 5.0, 1.0, 3.0),
    "exp": (lambda x: math.exp(x) - 3.0, 0.0, 3.0),
    "atan": (lambda x: math.atan(x - 0.3), -2.0, 4.0),
    "root-kink": (lambda x: math.copysign(abs(x - 0.1) ** 0.3, x - 0.1),
                  -1.0, 1.0),
    "cos": (lambda x: math.cos(x) - x, 0.0, 1.5),
}
RTOL = 4.0 * sys.float_info.epsilon


class TestBrentqPort:
    """_brentq against scipy.optimize.brentq, compared by .hex()."""

    @pytest.mark.parametrize("name", BRENT_FUNCTIONS)
    # below about 1e-150 the interpolation divisors underflow to zero
    # (cubic and exp), which must bisect as C's inf or nan does
    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e-300])
    @pytest.mark.parametrize("xtol", [2e-12, 5e-324])
    def test_scaled_values(self, name, scale, xtol):
        f, a, b = BRENT_FUNCTIONS[name]

        def g(x):
            return scale * f(x)

        for lo, hi in ((a, b), (b, a)):
            expected = brentq(g, lo, hi, xtol=xtol, rtol=RTOL, disp=False)
            assert _brentq(g, lo, hi, xtol, RTOL).hex() == expected.hex()

    @pytest.mark.parametrize("name", BRENT_FUNCTIONS)
    @pytest.mark.parametrize("maxiter", range(1, 9))
    def test_capped_runs_return_the_last_iterate(self, name, maxiter):
        f, a, b = BRENT_FUNCTIONS[name]
        expected = brentq(f, a, b, xtol=2e-12, rtol=RTOL, maxiter=maxiter,
                          disp=False)
        assert _brentq(f, a, b, 2e-12, RTOL, maxiter).hex() == expected.hex()

    def test_nan_value_raises(self):
        def f(x):
            return math.nan if x > 0.5 else 1.0

        with pytest.raises(ValueError, match="NaN"):
            brentq(f, 0.0, 1.0)
        with pytest.raises(ValueError, match="NaN"):
            _brentq(f, 0.0, 1.0, 2e-12, RTOL)

    def test_bracket_without_sign_change_raises(self):
        def f(x):
            return 1e-200 * x  # f(a) f(b) underflows, the signs still agree

        with pytest.raises(ValueError, match="different signs"):
            brentq(f, 1.0, 2.0)
        with pytest.raises(ValueError, match="different signs"):
            _brentq(f, 1.0, 2.0, 2e-12, RTOL)


@pytest.mark.parametrize("p", [np.inf, np.nan, 1.0, 0.5])
@pytest.mark.parametrize("entry", [
    lambda mesh, p: SolveOptions(p=p),
    lambda mesh, p: weighted_problem(mesh, ones(mesh), p),
    lambda mesh, p: rayleigh_quotient(mesh, ones(mesh), p,
                                      mesh.vertices[:, 2]),
    lambda mesh, p: quotient_gradient(mesh, ones(mesh), p,
                                      mesh.vertices[:, 2]),
    lambda mesh, p: p_shift(mesh.vertices[:, 2], mesh.vertex_measure, p),
], ids=["SolveOptions", "weighted_problem", "rayleigh_quotient",
        "quotient_gradient", "p_shift"])
def test_entry_points_reject_p(sphere2, entry, p):
    with pytest.raises(ValueError, match="p must be finite and exceed 1"):
        entry(sphere2, p)


def sign_split_shift(u, weights, p):
    """Reference factor s > 0 balancing s u+ + u- against the weights:
    s^(p-1) * (positive mass) = negative mass, in closed form."""
    u = np.asarray(u, dtype=float)
    w = np.asarray(weights, dtype=float)
    a = float(np.sum(np.maximum(u, 0.0) ** (p - 1.0) * w))
    b = float(np.sum(np.maximum(-u, 0.0) ** (p - 1.0) * w))
    if a <= 0.0 or b <= 0.0:
        raise DegenerateFieldError("field does not take both signs")
    return (b / a) ** (1.0 / (p - 1.0))


class TestSignSplitShift:
    """The reference shift that :class:`TestFactorDominationChain` uses."""

    def test_already_balanced(self):
        u = np.array([1.0, -1.0])
        assert sign_split_shift(u, np.ones(2), 2.0) == pytest.approx(1.0)

    def test_linear_balance(self):
        s = sign_split_shift(np.array([3.0, -1.0]), np.ones(2), 2.0)
        assert s == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_quadratic_balance(self):
        # 9 s^2 - 1 = 0
        s = sign_split_shift(np.array([3.0, -1.0]), np.ones(2), 3.0)
        assert s == pytest.approx(1.0 / 3.0, abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(1.2, 5.0), st.integers(0, 2 ** 31 - 1))
    def test_root_property(self, p, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(40)
        w = rng.random(40) + 0.05
        s = sign_split_shift(u, w, p)
        us = s * np.maximum(u, 0.0) + np.minimum(u, 0.0)
        h = np.sum(np.sign(us) * np.abs(us) ** (p - 1.0) * w)
        assert abs(h) <= 1e-9 * np.sum(np.abs(us) ** (p - 1.0) * w)

    def test_single_signed_rejected(self):
        with pytest.raises(DegenerateFieldError):
            sign_split_shift(np.array([1.0, 2.0]), np.ones(2), 2.0)


class TestSolveClosed:
    def test_circle_p2(self, circle400):
        res = solve_closed(circle400, ones(circle400), SolveOptions(p=2.0))
        assert res.lam == pytest.approx(1.0, rel=0.01)
        assert res.converged

    def test_sphere_p2(self, sphere5):
        res = solve_closed(sphere5, ones(sphere5),
                           SolveOptions(p=2.0))
        assert res.lam == pytest.approx(2.0, rel=0.02)

    def test_result_invariants(self, sphere3):
        f = random_smooth_factor(sphere3, seed=1)
        res = solve_closed(sphere3, f, SolveOptions(p=2.5))
        assert res.lam >= 0.0
        assert res.constraint_defect <= 1e-8
        u = res.eigenfunction
        assert u.max() - u.min() > 1e-10
        # normalized weighted p-norm
        mass = integrate(sphere3, np.abs(u) ** 2.5
                         * measure_density(sphere3, f))
        assert mass == pytest.approx(1.0, rel=1e-9)

    def test_rejects_boundary_mesh(self, interval1000):
        with pytest.raises(Exception):
            solve_closed(interval1000, ones(interval1000),
                         SolveOptions(p=2.0))

    @pytest.mark.parametrize("p,c", [(1.5, 0.25), (2.0, 4.0), (3.0, 0.25)])
    def test_dilatation_scaling_law(self, sphere2, p, c):
        f = random_smooth_factor(sphere2, seed=5, amplitude=0.8)
        opts = SolveOptions(p=p, residual_target=1e-8, max_iterations=20000)
        lam1 = solve_closed(sphere2, f, opts).lam
        lam2 = solve_closed(sphere2, c * f, opts).lam
        assert lam2 == pytest.approx(c ** (-p / 2.0) * lam1, rel=1e-6)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_result_belongs_to_the_given_factor(self, sphere2, p):
        # the solve rescales a factor far from unit scale; its eigenvalue,
        # history and D = 1 eigenfunction are those of the factor passed
        f = 1e-200 * random_smooth_factor(sphere2, seed=5, amplitude=0.8)
        res = solve_closed(sphere2, f, SolveOptions(p=p))
        prob = weighted_problem(sphere2, f, p)
        u = res.eigenfunction
        assert res.converged
        assert prob.denominator(u) == pytest.approx(1.0, rel=1e-12)
        assert rayleigh_quotient(sphere2, f, p, u) == pytest.approx(
            res.lam, rel=1e-12)
        assert res.history[-1] == pytest.approx(res.lam, rel=1e-6)

    def test_constant_extra_start_is_skipped(self, sphere2):
        # a constant start has no part off the p-mean constraint
        f = random_smooth_factor(sphere2, seed=5, amplitude=0.8)
        opts = SolveOptions(p=1.5)
        alone = solve_closed(sphere2, f, opts)
        res = solve_closed(sphere2, f, opts,
                           extra_starts=[np.ones(sphere2.n_vertices)])
        assert res.restarts == 0
        assert (res.lam, res.iterations) == (alone.lam, alone.iterations)
        assert np.array_equal(res.eigenfunction, alone.eigenfunction)

    def test_functional_scales_exactly(self, sphere3):
        rng = np.random.default_rng(11)
        u = rng.standard_normal(sphere3.n_vertices)
        f = random_smooth_factor(sphere3, seed=3)
        for p, c in [(1.5, 0.25), (2.0, 4.0), (3.0, 4.0)]:
            q1 = rayleigh_quotient(sphere3, f, p, u)
            q2 = rayleigh_quotient(sphere3, c * f, p, u)
            assert q2 == pytest.approx(c ** (-p / 2.0) * q1, rel=1e-12)

    def test_deterministic_rerun(self, sphere2):
        f = random_smooth_factor(sphere2, seed=8)
        opts = SolveOptions(p=2.5)
        r1 = solve_closed(sphere2, f, opts)
        r2 = solve_closed(sphere2, f, opts)
        assert r1.lam == r2.lam
        assert np.array_equal(r1.eigenfunction, r2.eigenfunction)

    def test_unit_volume_solve_ignores_blas_threads(self):
        # a unit-volume scale summed by a BLAS dot depends on the thread
        # count (here in the last bits of lambda); the subprocesses set it
        # before numpy loads
        script = ("import numpy as np, pspectra as ps\n"
                  "mesh = ps.build_icosphere(5)\n"
                  "f = ps.normalize_unit_volume(\n"
                  "    mesh, np.ones(mesh.n_vertices))\n"
                  "opts = ps.SolveOptions(p=1.5, residual_target=1e-3,\n"
                  "                       max_iterations=9000)\n"
                  "print(ps.solve_closed(mesh, f, opts).lam.hex())\n")
        src = os.path.dirname(os.path.dirname(psolve.__file__))
        path = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        hexes = [subprocess.run(
            [sys.executable, "-c", script], check=True, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": path,
                            "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")]
        assert hexes[0] == hexes[1]

    def test_p2_eigensolve_ignores_blas_threads(self):
        # verify-bound's level-5 cases at p = 2: ARPACK's own BLAS calls
        # add in another order under two threads unless they are pinned
        script = ("import numpy as np, pspectra as ps\n"
                  "mesh = ps.build_icosphere(5)\n"
                  "opts = ps.SolveOptions(p=2.0, residual_target=1e-3,\n"
                  "                       max_iterations=9000)\n"
                  "for f in [np.ones(mesh.n_vertices)] + [\n"
                  "        ps.random_smooth_factor(mesh, s)\n"
                  "        for s in range(3)]:\n"
                  "    f = ps.normalize_unit_volume(mesh, f)\n"
                  "    print(ps.solve_closed(mesh, f, opts).lam.hex())\n")
        src = os.path.dirname(os.path.dirname(psolve.__file__))
        path = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        hexes = [subprocess.run(
            [sys.executable, "-c", script], check=True, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": path,
                            "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")]
        assert len(hexes[0].split()) == 4
        assert hexes[0] == hexes[1]

    def test_p2_eigensolves_restore_blas_threads(self, sphere2):
        # concurrent pins, switching often: the count each one saves and
        # restores must be the caller's, never another pin's 1
        threads = psolve._blas_threads()
        if threads is None:
            pytest.skip("scipy's BLAS exports no thread-count symbols")
        get, put = threads
        count, interval = get(), sys.getswitchinterval()
        factors = [random_smooth_factor(sphere2, seed=s) for s in range(8)]
        try:
            put(2)
            sys.setswitchinterval(1e-6)
            with ThreadPoolExecutor(max_workers=4) as pool:
                lams = list(pool.map(
                    lambda f: solve_closed(sphere2, f,
                                           SolveOptions(p=2.0)).lam,
                    factors, timeout=60))
            assert get() == 2
        finally:
            sys.setswitchinterval(interval)
            put(count)
        assert all(lam > 0.0 for lam in lams)


class TestSolveDirichlet:
    def test_interval_p2(self, interval1000):
        res = solve_dirichlet(interval1000, SolveOptions(p=2.0))
        assert res.lam == pytest.approx(np.pi ** 2 / 4.0, rel=0.005)

    def test_eigenfunction_even(self, interval1000):
        res = solve_dirichlet(interval1000,
                              SolveOptions(p=2.0, residual_target=1e-8,
                                           max_iterations=30000))
        u = res.eigenfunction
        u = u / np.max(np.abs(u))
        assert np.max(np.abs(u - u[::-1])) < 1e-6

    def test_scaling_identity(self):
        opts = SolveOptions(p=3.0, residual_target=1e-9, max_iterations=60000)
        lam1 = solve_dirichlet(build_interval(400, -1, 1), opts).lam
        lam2 = solve_dirichlet(build_interval(400, -0.25, 0.25), opts).lam
        assert lam2 * 0.25 ** 3 == pytest.approx(lam1, rel=1e-9)

    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_one_free_vertex(self, p):
        # u = (0, 1, 0): both segments have |du| = 1, the middle vertex
        # measure 1
        res = solve_dirichlet(build_interval(2, -1.0, 1.0), SolveOptions(p=p))
        assert res.lam == 2.0
        assert res.converged

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_vs_oracle(self, interval1000, p):
        opts = SolveOptions(p=p, residual_target=1e-8, max_iterations=40000)
        fem = solve_dirichlet(interval1000, opts).lam
        oracle = shooting_eigenvalue_1d(p, "dirichlet", 1.0)
        assert fem == pytest.approx(oracle, rel=0.005)


class TestSolveNeumann:
    def test_hemisphere_p2(self, sphere4):
        hemi = extract_hemisphere(sphere4)
        res = solve_neumann(hemi, ones(hemi), SolveOptions(p=2.0))
        assert res.lam == pytest.approx(2.0, rel=0.02)
        assert res.constraint_defect <= 1e-8
        u = res.eigenfunction
        assert u.max() - u.min() > 1e-10

    def test_interval_p2(self):
        m = build_interval(600, 0.0, 1.0)
        res = solve_neumann(m, ones(m), SolveOptions(p=2.0))
        assert res.lam == pytest.approx(np.pi ** 2, rel=0.01)

    def test_rejects_closed_mesh(self, circle400):
        with pytest.raises(Exception):
            solve_neumann(circle400, ones(circle400), SolveOptions(p=2.0))

    def test_neumann_oracle_consistency(self):
        lam = shooting_eigenvalue_1d(2.0, "neumann", 0.5)
        assert lam == pytest.approx(np.pi ** 2, rel=1e-8)


class TestReflection:
    def test_quotient_matches_hemisphere(self, sphere4):
        hemi = extract_hemisphere(sphere4)
        res = solve_neumann(hemi, ones(hemi), SolveOptions(p=2.0))
        w = reflect_even(res.eigenfunction, hemi, sphere4)
        q = rayleigh_quotient(sphere4, ones(sphere4), 2.0, w)
        assert q == pytest.approx(res.lam, rel=1e-12)
        assert q == pytest.approx(2.0, rel=0.02)

    def test_ring_values_agree(self, sphere4):
        hemi = extract_hemisphere(sphere4)
        rng = np.random.default_rng(2)
        v = rng.standard_normal(hemi.n_vertices)
        w = reflect_even(v, hemi, sphere4)
        assert np.array_equal(w[hemi.parent_index], v)
        mirror = mirror_index(sphere4)
        assert np.array_equal(w, w[mirror])

    def test_reflected_constraint_zero(self, sphere4):
        hemi = extract_hemisphere(sphere4)
        f = random_smooth_factor(sphere4, seed=4, symmetric=True)
        p = 2.5
        res = solve_neumann(hemi, f[hemi.parent_index], SolveOptions(p=p))
        w = reflect_even(res.eigenfunction, hemi, sphere4)
        rho = measure_density(sphere4, f) * sphere4.vertex_measure
        defect = abs(np.sum(np.sign(w) * np.abs(w) ** (p - 1.0) * rho))
        defect /= np.sum(np.abs(w) ** (p - 1.0) * rho)
        assert defect <= 1e-8

    def test_closed_below_reflected(self, sphere4):
        f = random_smooth_factor(sphere4, seed=9, symmetric=True)
        p = 2.5
        hemi = extract_hemisphere(sphere4)
        res = solve_neumann(hemi, f[hemi.parent_index], SolveOptions(p=p))
        w = reflect_even(res.eigenfunction, hemi, sphere4)
        q = rayleigh_quotient(sphere4, f, p, w)
        closed = solve_closed(sphere4, f, SolveOptions(p=p),
                              extra_starts=[w])
        assert closed.lam <= q * (1.0 + 1e-9)


def _rounding_boundary_sphere():
    """Level-1 icosphere turned so its pole is off the coordinate axes, with
    one mirror pair (i, j) moved so that j's x coordinate and the computed
    mirror image of i lie on either side of a half-integer multiple of 1e-9
    (within an ulp of it)."""
    base = build_icosphere(1)
    axis = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    cross = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]],
                      [-axis[1], axis[0], 0.0]])
    rot = np.eye(3) + np.sin(0.7) * cross + (1.0 - np.cos(0.7)) * cross @ cross
    v = base.vertices @ rot.T
    n = v[base.pole]

    def mirror(x):
        return x - 2.0 * (x @ n) * n

    i = 5
    j = int(np.argmin(np.linalg.norm(v - mirror(v[i]), axis=1)))
    v[j, 0] = (np.floor(v[j, 0] * 1e9) + 0.5) * 1e-9
    v[j, 1:] *= np.sqrt(1.0 - v[j, 0] ** 2) / np.linalg.norm(v[j, 1:])
    v[i] = mirror(v[j])
    image = mirror(v[i])[0]
    step = np.inf if np.round(image * 1e9) < image * 1e9 else -np.inf
    x = image
    while np.round(x * 1e9) == np.round(image * 1e9):
        x = np.nextafter(x, step)
    v[j, 0] = x
    mesh = DiscreteManifold("sphere", v, base.elements, base.element_measure,
                            base.boundary, pole=base.pole)
    return mesh, i, j


class TestMirrorIndex:
    def test_matches_rounded_coordinate_lookup(self, sphere4):
        # reference: match coordinates rounded at 1e-9 through a dict
        n = sphere4.vertices[sphere4.pole]
        images = sphere4.vertices - 2.0 * (sphere4.vertices @ n)[:, None] * n
        lookup = {tuple(v): i for i, v in enumerate(
            np.round(sphere4.vertices * 1e9).astype(np.int64))}
        ref = [lookup[tuple(v)]
               for v in np.round(images * 1e9).astype(np.int64)]
        assert np.array_equal(mirror_index(sphere4), ref)

    def test_coordinate_at_rounding_boundary(self):
        mesh, i, j = _rounding_boundary_sphere()
        assert i != j and mesh.pole not in (i, j)
        out = mirror_index(mesh)
        assert out[i] == j and out[j] == i
        assert np.array_equal(out[out], np.arange(mesh.n_vertices))

    def test_asymmetric_mesh_rejected(self):
        mesh, i, _ = _rounding_boundary_sphere()
        v = mesh.vertices.copy()
        v[i] += 1e-4 * np.cross(v[i], v[mesh.pole])
        v[i] /= np.linalg.norm(v[i])
        moved = DiscreteManifold("sphere", v, mesh.elements,
                                 mesh.element_measure, mesh.boundary,
                                 pole=mesh.pole)
        with pytest.raises(MeshError, match="mirror-symmetric"):
            mirror_index(moved)

    def test_mesh_without_pole_rejected(self, sphere2):
        # the same error as extract_hemisphere's, not one from inside numpy
        poleless = DiscreteManifold("sphere", sphere2.vertices,
                                    sphere2.elements, sphere2.element_measure,
                                    sphere2.boundary)
        for call in (mirror_index, extract_hemisphere):
            with pytest.raises(MeshError, match="mesh has no pole"):
                call(poleless)


class TestRadialAverage:
    def test_radial_field_reproduced(self, sphere4):
        r = sphere4.colatitudes
        u = np.cos(r) + 0.3 * np.cos(2 * r)
        prof = radial_average(sphere4, u, ones(sphere4), 2.0)
        expected = np.abs(np.cos(prof.r) + 0.3 * np.cos(2 * prof.r))
        # bands straddling a zero of u carry the usual p-mean inflation
        mask = expected > 0.2
        assert np.max(np.abs(prof.values - expected)[mask]) < 0.02

    def test_equatorial_coordinate_profile(self, sphere4):
        x = sphere4.vertices[:, 0].copy()
        prof = radial_average(sphere4, x, ones(sphere4), 2.0)
        expected = np.sin(prof.r) / np.sqrt(2.0)
        mask = expected > 0.1
        rel = np.abs(prof.values[mask] / expected[mask] - 1.0)
        assert np.max(rel) < 0.05

    def test_pnorm_preservation(self, sphere5):
        f = random_smooth_factor(sphere5, seed=6)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(sphere5.n_vertices)
        prof = radial_average(sphere5, u, f, 2.0)
        assert prof.pnorm_lhs == pytest.approx(prof.pnorm_rhs, rel=0.01)

    def test_gradient_bound(self, sphere5):
        # profile derivative energy is dominated by the full energy
        r = sphere5.colatitudes
        u = np.cos(r) + 0.2 * sphere5.vertices[:, 0]
        for p in [2.0, 3.0]:
            prof = radial_average(sphere5, u, ones(sphere5), p)
            assert prof.grad_lhs <= prof.grad_rhs * 1.01


class TestSplitBandPlateau:
    def test_constant_profile(self):
        r = np.linspace(0.05, np.pi / 2, 20)
        vals = np.full(20, 2.5)
        v, w, diag = split_band_plateau((r, vals), 0.3, p=2.0)
        assert np.all(v == 0.0)
        assert np.all(w == 2.5)
        assert diag["disjoint_support_gap"] == 0.0

    def test_band_supported_profile(self):
        r = np.linspace(0.05, np.pi / 2, 40)
        eps = 0.4
        vals = np.where(r > np.pi / 2 - eps, r - (np.pi / 2 - eps), 0.0)
        v, w, diag = split_band_plateau((r, vals), eps, p=3.0)
        assert np.allclose(w, vals[diag["clamp_index"]])
        assert np.allclose(v + w, vals)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_random_monotone_diagnostics(self, p):
        rng = np.random.default_rng(12)
        r = np.linspace(0.02, np.pi / 2, 60)
        vals = np.cumsum(rng.random(60))
        v, w, diag = split_band_plateau((r, vals), 0.5, p=p)
        scale = np.max(np.abs(np.diff(vals))) ** p
        assert diag["disjoint_support_gap"] <= 1e-15 * scale
        assert diag["split_inequality_margin"] >= -1e-12

    def test_eps_out_of_range(self):
        r = np.linspace(1.0, np.pi / 2, 10)
        with pytest.raises(ValueError):
            split_band_plateau((r, np.ones(10)), 1.5, p=2.0)


class TestShootingOracle:
    def test_p2_closed_form(self):
        lam = shooting_eigenvalue_1d(2.0, "dirichlet", 1.0)
        assert lam == pytest.approx(np.pi ** 2 / 4.0, rel=1e-8)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_scaling_identity(self, p):
        base = shooting_eigenvalue_1d(p, "dirichlet", 1.0)
        for hw in [0.5, 0.1]:
            lam = shooting_eigenvalue_1d(p, "dirichlet", hw)
            assert lam * hw ** p == pytest.approx(base, rel=1e-8)

    # Dirichlet over p and halfwidth (the eps of criterion 02 and of the
    # dirichlet-scaling bench included) and three Neumann inputs
    @pytest.mark.parametrize("mode,p,halfwidth", [
        ("dirichlet", p, h) for p in (1.2, 1.5, 2.0, 3.0, 5.0)
        for h in (1.0, 0.5, 0.25, 0.125, 0.1)] + [
        ("neumann", 2.0, 0.5), ("neumann", 1.5, 1.0), ("neumann", 3.0, 1.0)])
    def test_integrations_per_call(self, monkeypatch, mode, p, halfwidth):
        # one integration at lam = 1 to the first zero gives every halfwidth
        solve_ivp, calls = psolve.solve_ivp, [0]

        def counting_solve_ivp(*args, **kwargs):
            calls[0] += 1
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(psolve, "solve_ivp", counting_solve_ivp)
        lam = shooting_eigenvalue_1d(p, mode, halfwidth)
        assert calls[0] == 1
        assert type(lam) is float

    @pytest.mark.parametrize("mode", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 5.0])
    def test_p_sine_closed_form(self, mode, p):
        # (p-1)(pi_p/2h)^p, pi_p = 2 pi / (p sin(pi/p)), in both modes:
        # the odd Neumann mode on (-h, h) is a quarter period on (0, h)
        pi_p = 2.0 * np.pi / (p * np.sin(np.pi / p))
        for h in (1.0, 0.25):
            exact = (p - 1.0) * (pi_p / (2.0 * h)) ** p
            lam = shooting_eigenvalue_1d(p, mode, h)
            assert lam == pytest.approx(exact, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(p=st.floats(1.05, 10.0), log_h=st.floats(-2.0, 2.0),
           mode=st.sampled_from(["dirichlet", "neumann"]))
    @example(p=4.40625, log_h=0.0, mode="dirichlet")
    @example(p=1.333984375, log_h=0.0, mode="dirichlet")
    def test_closed_form_over_p_and_halfwidth(self, p, log_h, mode):
        h = 10.0 ** log_h
        pi_p = 2.0 * np.pi / (p * np.sin(np.pi / p))
        exact = (p - 1.0) * (pi_p / (2.0 * h)) ** p
        lam = shooting_eigenvalue_1d(p, mode, h)
        assert lam == pytest.approx(exact, rel=1e-11)

    @pytest.mark.parametrize("mode", ["dirichlet", "neumann"])
    def test_run_without_zero(self, monkeypatch, mode):
        # a span too short for the first zero: the run ends with status 0
        solve_ivp = psolve.solve_ivp

        def short_solve_ivp(rhs, span, *args, **kwargs):
            sol = solve_ivp(rhs, (0.0, 0.5), *args, **kwargs)
            assert sol.status == 0
            return sol

        monkeypatch.setattr(psolve, "solve_ivp", short_solve_ivp)
        with pytest.raises(psolve.ConvergenceError):
            shooting_eigenvalue_1d(2.0, mode, 1.0)

    @pytest.mark.parametrize("mode", ["dirichlet", "neumann"])
    def test_failed_integration(self, monkeypatch, mode):
        failed = SimpleNamespace(status=-1, message="step size too small")
        monkeypatch.setattr(psolve, "solve_ivp", lambda *a, **k: failed)
        with pytest.raises(psolve.ConvergenceError, match="too small"):
            shooting_eigenvalue_1d(2.0, mode, 1.0)

    @pytest.mark.parametrize("mode", ["dirichlet", "neumann"])
    def test_halfwidth_list_shares_one_integration(self, monkeypatch, mode):
        widths = [1.0, 0.5, 0.25, 0.1, 3.0]
        scalar = {p: [shooting_eigenvalue_1d(p, mode, h).hex()
                      for h in widths] for p in (1.5, 2.0, 3.0)}
        solve_ivp, calls = psolve.solve_ivp, [0]

        def counting_solve_ivp(*args, **kwargs):
            calls[0] += 1
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(psolve, "solve_ivp", counting_solve_ivp)
        for p in scalar:
            calls[0] = 0
            lams = shooting_eigenvalue_1d(p, mode, widths)
            assert calls[0] == 1
            assert all(type(lam) is float for lam in lams)
            assert [lam.hex() for lam in lams] == scalar[p]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            shooting_eigenvalue_1d(1.0, "dirichlet", 1.0)
        with pytest.raises(ValueError):
            shooting_eigenvalue_1d(2.0, "robin", 1.0)

    # each is refused before any integration: an infinite p would integrate
    # without end, and a NaN or infinite halfwidth would give nan or 0.0
    @pytest.mark.parametrize("p,halfwidth", [
        (float("inf"), 1.0), (2.0, float("nan")), (2.0, float("inf")),
        (2.0, []), (2.0, [1.0, 0.0]), (2.0, [0.5, -1.0]),
        (2.0, [1.0, float("nan")])],
        ids=["infinite-p", "nan-halfwidth", "infinite-halfwidth",
             "empty-list", "zero-in-list", "negative-in-list", "nan-in-list"])
    def test_invalid_input_refused_before_integrating(self, monkeypatch, p,
                                                      halfwidth):
        def no_solve_ivp(*args, **kwargs):
            raise AssertionError("the integration started")

        monkeypatch.setattr(psolve, "solve_ivp", no_solve_ivp)
        with pytest.raises(ValueError, match="finite"):
            shooting_eigenvalue_1d(p, "dirichlet", halfwidth)


class TestSolveIvp:
    # the oracle's integrator on its own: (sin t, cos t) from t = 0.1
    @staticmethod
    def run(span, fun=lambda _, y: (y[1], -y[0])):
        return psolve.solve_ivp(fun, span, (math.sin(0.1), math.cos(0.1)),
                                events=lambda _, y: y[1], first_step=1e-3,
                                rtol=1e-14, atol=1e-16)

    def test_event_at_first_zero(self):
        sol = self.run((0.1, 10.0))
        assert sol.status == 1
        assert sol.t_events[0][0] == pytest.approx(math.pi / 2, rel=1e-14)

    def test_span_ends_before_event(self):
        sol = self.run((0.1, 1.5))
        assert sol.status == 0 and sol.t_events == [[]]

    def test_nan_derivative_fails(self):
        sol = self.run((0.1, 10.0), fun=lambda _, y: (math.nan, y[0]))
        assert sol.status == -1 and "step size" in sol.message


class TestSolverInternals:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_gradient_matches_finite_differences(self, csv_interval, p):
        from pspectra.psolve import _Problem, _element_mean
        from pspectra import energy_density_weight
        ico = build_icosphere(1)  # 42 vertices
        circle = build_circle(40, 2.0 * np.pi)
        for mesh, f in [
                (ico, random_smooth_factor(ico, seed=3, amplitude=0.7)),
                (circle, np.exp(np.sin(circle.vertices))),
                (csv_interval, np.exp(0.3 * csv_interval.vertices))]:
            rng = np.random.default_rng(21)
            u = rng.standard_normal(mesh.n_vertices)
            reg = 1e-4
            grad = quotient_gradient(mesh, f, p, u, reg=reg)
            ew = _element_mean(mesh, energy_density_weight(mesh, f, p))
            prob = _Problem(mesh, p, mesh.element_measure * ew,
                            measure_density(mesh, f) * mesh.vertex_measure)

            def quotient(v):
                return prob.numerator(v, reg) / prob.denominator(v)

            h = 1e-6
            fd = np.empty_like(u)
            for i in range(mesh.n_vertices):
                e = np.zeros_like(u)
                e[i] = h
                fd[i] = (quotient(u + e) - quotient(u - e)) / (2 * h)
            assert (np.linalg.norm(fd - grad)
                    <= 1e-5 * np.linalg.norm(grad)), mesh.kind

    def test_descent_monotonic_history(self, sphere3):
        f = random_smooth_factor(sphere3, seed=2)
        res = solve_closed(sphere3, f, SolveOptions(p=2.5))
        h = np.asarray(res.history)
        assert np.all(np.diff(h) <= 0.0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_residual_invariant_at_convergence(self, sphere2, p):
        f = random_smooth_factor(sphere2, seed=7, amplitude=0.8)
        opts = SolveOptions(p=p, residual_target=1e-8, max_iterations=20000)
        res = solve_closed(sphere2, f, opts)
        assert res.converged
        assert res.gradient_residual <= 1e-6

    def test_positive_negative_parts_equal_quotients(self, circle400):
        res = solve_closed(circle400, ones(circle400),
                           SolveOptions(p=2.5))
        u = res.eigenfunction
        qp = rayleigh_quotient(circle400, ones(circle400), 2.5,
                               np.maximum(u, 0.0))
        qn = rayleigh_quotient(circle400, ones(circle400), 2.5,
                               np.minimum(u, 0.0))
        assert qp == pytest.approx(res.lam, rel=0.02)
        assert qn == pytest.approx(res.lam, rel=0.02)


class TestFactorDominationChain:
    def test_compare_chain(self):
        mesh = build_circle(1500, 2.0 * np.pi)
        p, eps = 3.0, 0.3
        smooth = smooth_band_plateau_factor(mesh, eps, p)
        singular = band_plateau_factor(mesh, eps, p)
        res = solve_closed(mesh, smooth,
                           SolveOptions(p=p, residual_target=1e-3,
                                        max_iterations=6000))
        u = res.eigenfunction
        w_sing = measure_density(mesh, singular) * mesh.vertex_measure
        s = sign_split_shift(u, w_sing, p)
        u_t = s * np.maximum(u, 0.0) + np.minimum(u, 0.0)
        q_smooth = rayleigh_quotient(mesh, smooth, p, u_t)
        q_sing = rayleigh_quotient(mesh, singular, p, u_t)
        assert q_smooth >= q_sing * (1.0 - 1e-12)
        res_sing = solve_closed(mesh, singular,
                                SolveOptions(p=p, residual_target=1e-3,
                                             max_iterations=6000),
                                extra_starts=[u_t])
        assert res_sing.lam <= q_sing * (1.0 + 1e-9)


# -- the projected descent, kept as a test-side reference ---------------------
# The p != 2 solver ran this descent before Newton on the bordered system
# replaced it; the tests compare the solvers' eigenvalues against it. It
# reads a Jacobi diagonal (Sdiag), a constraint bundle and the gradient
# coefficients that the solver's problem object no longer carries;
# DescentProblem adds them.

class DescentProblem:
    """A solver problem plus what the reference descent reads from it."""

    def __init__(self, prob):
        self._prob = prob
        self.asm = SimpleNamespace(Sdiag=_jacobi_scatter(prob.mesh))

    def __getattr__(self, name):
        return getattr(self._prob, name)

    def num_and_grad(self, u, reg, with_coef=False):
        num, grad = self._prob.num_and_grad(u, reg)
        if not with_coef:
            return num, grad
        p = self.p
        coef = self.nw * p * (self.gradsq(u) + reg) ** (p / 2.0 - 1.0)
        return num, grad, coef

    def den_bundle(self, u):
        """Denominator, its gradient and the constraint normal, sharing the
        single power evaluation."""
        au = np.abs(u)
        aup = au ** self.p
        den = float(np.sum(aup * self.rho))
        safe = np.maximum(au, 1e-14 * np.max(au) + _TINY)
        aup1 = aup / safe
        den_grad = self.p * np.sign(u) * aup1 * self.rho
        normal = (aup1 / safe) * self.rho if self.fixed is None else None
        return den, den_grad, normal

    def tangent(self, u, grad, normal=None):
        """Project a gradient onto the feasible directions at u."""
        if self.fixed is not None:
            grad = grad.copy()
            grad[self.fixed] = 0.0
            return grad
        if normal is None:
            normal = self.den_bundle(u)[2]
        norm = np.linalg.norm(normal)
        if norm <= _TINY:
            return grad
        nc = normal / norm
        return grad - np.dot(grad, nc) * nc


def _jacobi_scatter(mesh):
    """Vertex x element scatter of the per-element Hessian-diagonal
    structure of the gradient square (the Jacobi diagonal's operator)."""
    ne, nv = mesh.n_elements, mesh.n_vertices
    el = mesh.elements
    # vertex 0 enters every edge difference, vertex a + 1 only difference a
    G = _gram_inverse(mesh)
    sdiag = np.column_stack([G.sum(axis=(0, 1)), *np.diagonal(G).T])
    vrows = el.ravel()
    vcols = np.repeat(np.arange(ne), el.shape[1])
    return csr_matrix((sdiag.ravel(), (vrows, vcols)), shape=(nv, ne))


def _descend(prob, u, reg, max_iter, tol, res_target, history):
    """Monotone projected descent with a Jacobi-preconditioned direction.

    Each iterate takes a line-searched descent step on the regularized
    quotient (direction: quotient gradient scaled by the diagonal of the
    local Hessian, projected onto the feasible directions), then re-shifts
    and renormalizes. The quotient is non-increasing across accepted steps
    by construction. With a residual target set (final continuation stage)
    stalling of the quotient only ends the stage once the projected
    residual is small.
    """
    p = prob.p
    u = prob.project(u)
    num, grad_n, coef = prob.num_and_grad(u, reg, with_coef=True)
    den = prob.denominator(u)
    quotient = num / den
    if not history:
        history.append(quotient)
    start_len = len(history)
    prev_u = prev_g = None
    step = 1.0
    stall = 0
    stall_window = 3 if res_target is None else 8
    window = 40
    res_hist = []
    it = 0
    rel = np.inf
    reason = "max_iterations"
    while True:
        _, grad_d, normal = prob.den_bundle(u)
        g = (grad_n - quotient * grad_d) / den
        pg = prob.tangent(u, g, normal)
        gn_scale = float(np.linalg.norm(grad_n))
        residual = float(np.linalg.norm(pg)) * den / max(gn_scale, _TINY)
        res_hist.append(residual)
        if res_target is not None and residual <= res_target:
            reason = "residual"
            break
        # a stall only counts once the residual of the iterate that would be
        # returned is near its target or has itself plateaued (its windowed
        # best stopped improving)
        if res_target is None or residual <= 100.0 * res_target:
            res_ok = True
        elif len(res_hist) > window:
            res_ok = min(res_hist[-window:]) > 0.5 * min(res_hist[:-window])
        else:
            res_ok = False
        if rel < tol and res_ok:
            stall += 1
            if stall >= stall_window:
                reason = "stalled"
                break
        else:
            stall = 0
        # windowed stall: average decrease over the last `window` accepted
        # steps below tolerance (catches slow sub-tolerance crawls)
        if it >= window and res_ok:
            drop = (history[start_len + it - window - 1] - quotient)
            if drop < window * tol * abs(quotient):
                reason = "stalled"
                break
        if it >= max_iter:
            break
        diag_n = prob.asm.Sdiag @ coef
        au = np.abs(u)
        safe = np.maximum(au, 1e-14 * np.max(au) + _TINY)
        diag_d = quotient * p * (p - 1.0) * safe ** (p - 2.0) * prob.rho
        hess = (diag_n + diag_d) / den
        hess = np.maximum(hess, 1e-12 * np.max(hess) + _TINY)
        d = prob.tangent(u, g / hess, normal)
        slope = float(np.dot(g, d))
        if slope <= 0.0:
            d = pg
            slope = float(np.dot(g, d))
            if slope <= 0.0:
                reason = "line_search_floor"
                break
        # spectral (Barzilai-Borwein) step in the preconditioned metric,
        # with doubling of the last accepted step as fallback
        trial_step = min(2.0 * step, 16.0)
        if prev_u is not None:
            du = u - prev_u
            dg = g - prev_g
            bb_den = float(np.dot(du, dg))
            if bb_den > 0.0:
                bb = float(np.dot(du, hess * du)) / bb_den
                if np.isfinite(bb) and bb > 0.0:
                    trial_step = min(bb, 1e8)
        accepted = False
        for _ in range(45):
            trial = prob.project(u - trial_step * d)
            num_t = prob.numerator(trial, reg)
            den_t = prob.denominator(trial)
            q_t = num_t / den_t
            if q_t < quotient - 1e-4 * trial_step * slope:
                accepted = True
                break
            trial_step *= 0.5
        if not accepted:
            reason = "line_search_floor"
            break
        step = trial_step
        prev_u, prev_g = u, g
        u = trial
        rel = (quotient - q_t) / max(abs(q_t), _TINY)
        quotient = q_t
        den = den_t
        history.append(quotient)
        num, grad_n, coef = prob.num_and_grad(u, reg, with_coef=True)
        it += 1
    return u, it, reason


def _delta_schedule(p, delta_final):
    if p == 2.0:
        return [0.0]
    lo = max(delta_final, 1e-8)
    stages = list(np.geomspace(1e-2, lo, 7))
    if delta_final < 1e-8:
        stages.append(delta_final)
    return stages


def _dirichlet_bump(mesh):
    u = np.ones(mesh.n_vertices)
    u[mesh.boundary] = 0.0
    if mesh.kind == "interval":
        x = mesh.vertices
        u = (x - x[0]) * (x[-1] - x)
    return u


def _run_one_start(prob, u0, opts, budget, tolerance, delta_final):
    u = prob.project(np.asarray(u0, dtype=float))
    gscale = float(np.mean(prob.gradsq(u)))
    s2 = gscale if gscale > 0 else 1.0
    history = []
    used = 0
    reason = "max_iterations"
    stages = _delta_schedule(prob.p, delta_final)
    for k, delta in enumerate(stages):
        final = k == len(stages) - 1
        reg = (delta * delta) * s2
        cap = budget - used if final else min(300, budget - used)
        if cap <= 0:
            break
        tol = tolerance if final else max(tolerance, 1e-9)
        res_target = opts.residual_target if final else None
        u, it, reason = _descend(prob, u, reg, cap, tol, res_target, history)
        used += it
    converged = reason in ("residual", "stalled", "line_search_floor")
    return u, used, history, converged, reason


def _p2_case(kind, sphere3):
    """(p = 2 solve, its problem, a descent start) for one problem type."""
    opts = SolveOptions(p=2.0)
    f = random_smooth_factor(sphere3, seed=2)
    if kind == "closed":
        return (lambda: solve_closed(sphere3, f, opts),
                weighted_problem(sphere3, f, 2.0), sphere3.vertices[:, 2])
    if kind == "neumann":
        hemi = extract_hemisphere(sphere3)
        f_h = f[hemi.parent_index]
        return (lambda: solve_neumann(hemi, f_h, opts),
                weighted_problem(hemi, f_h, 2.0), hemi.vertices[:, 0])
    iv = build_interval(200, -1.0, 1.0)
    return (lambda: solve_dirichlet(iv, opts), dirichlet_problem(iv, 2.0),
            _dirichlet_bump(iv))


@pytest.mark.parametrize("kind", ["closed", "neumann", "dirichlet"])
class TestP2Eigensolve:
    """The p = 2 eigensolve against the projected descent it replaced."""

    def test_stiffness_is_the_numerator(self, sphere3, kind):
        # the eigensolve's system, on a field that vanishes where the
        # problem pins it (the border row meets a zero)
        _, prob, _ = _p2_case(kind, sphere3)
        u = np.random.default_rng(5).standard_normal(prob.mesh.n_vertices)
        closed = prob.fixed is None
        if not closed:
            u[prob.fixed] = 0.0
        layout = prob.layout(bordered=closed)
        K = layout.matrix(prob.stiffness_blocks(), np.zeros_like(u),
                          prob.rho if closed else None)
        x = np.zeros(layout.n)
        x[layout.pos] = u[layout.free]
        assert x @ K @ x == pytest.approx(prob.numerator(u, 0.0), rel=1e-12)

    def test_not_above_tight_descent(self, sphere3, kind):
        solve, prob, start = _p2_case(kind, sphere3)
        res = solve()
        assert res.iterations == 0
        assert res.stop_reason == "eigensolve"
        tight = SolveOptions(p=2.0, residual_target=1e-10,
                             max_iterations=40000)
        u, *_ = _run_one_start(DescentProblem(prob), start, tight,
                               tight.max_iterations, tolerance=1e-14,
                               delta_final=1e-8)
        descent = prob.numerator(u, 0.0) / prob.denominator(u)
        v = res.eigenfunction
        lam = prob.numerator(v, 0.0) / prob.denominator(v)
        assert lam == pytest.approx(res.lam, rel=1e-12)
        assert lam <= descent
        assert lam == pytest.approx(descent, rel=1e-6)

    def test_admissible_and_reproducible(self, sphere3, kind):
        solve, _, _ = _p2_case(kind, sphere3)
        first, second = solve(), solve()
        assert first.constraint_defect <= 1e-12
        assert np.array_equal(first.eigenfunction, second.eigenfunction)


# -- the E'diag(h)E assembly, kept as a test-side reference -------------------
# The solver assembled its systems this way before each mesh cached its
# system layouts: three triple products with the edge-difference operators,
# the free rows and columns, bmat for the border and the elimination order
# applied to the assembled matrix.

def assemble(prob, blocks):
    """sum over elements of D' H D on all vertices, H the symmetric blocks
    given by their entries (a, b), a <= b (see psolve._Assembly), as triple
    products with D's row blocks."""
    a = prob.asm
    ne = prob.mesh.n_elements
    rows = [a.D[i * ne:(i + 1) * ne] for i in range(a.G.shape[0])]
    A = csr_matrix((a.D.shape[1], a.D.shape[1]))
    for h, i, j in zip(blocks, *a.pairs):
        term = rows[i].T @ diags(h) @ rows[j]
        A = A + (term if i == j else term + term.T)
    return A.tocsr()


def reference_system(prob, blocks, shift, border=None):
    """The system of prob's layout, assembled by the reference in the
    layout's order."""
    layout = prob.layout(bordered=border is not None)
    free = layout.free
    A = (assemble(prob, blocks) + diags(shift)).tocsr()[free][:, free]
    order = np.empty(layout.n, dtype=int)
    order[layout.pos] = np.arange(free.size)
    if border is not None:
        c = csr_matrix(border[free][:, None])
        A = bmat([[A, c], [c.T, None]])
        order[np.setdiff1d(np.arange(layout.n), layout.pos)] = free.size
    return A.tocsr()[order][:, order]


def _layout_problem(kind, sphere3, csv_interval):
    p = 1.5 if kind in ("closed", "neumann", "dirichlet-hemisphere") else 3.0
    f = random_smooth_factor(sphere3, seed=2)
    if kind == "closed":
        return weighted_problem(sphere3, f, p)
    hemi = extract_hemisphere(sphere3)
    if kind == "neumann":
        return weighted_problem(hemi, f[hemi.parent_index], p)
    if kind == "dirichlet-hemisphere":
        return dirichlet_problem(hemi, p)
    if kind == "interval":
        return dirichlet_problem(build_interval(60, -1.0, 1.0), p)
    if kind == "circle":
        mesh = build_circle(80, 2.0 * np.pi)
        return weighted_problem(mesh, np.exp(np.sin(mesh.vertices)), p)
    return weighted_problem(csv_interval, np.exp(0.3 * csv_interval.vertices),
                            p)


@pytest.mark.parametrize("kind", ["closed", "neumann", "dirichlet-hemisphere",
                                  "interval", "circle", "csv-unequal"])
class TestLayout:
    """The layouts' systems against the reference assembly."""

    def test_newton_system(self, sphere3, csv_interval, kind):
        prob = _layout_problem(kind, sphere3, csv_interval)
        u = prob.project(np.random.default_rng(3).standard_normal(
            prob.mesh.n_vertices))
        reg, sigma, p = 1e-6, 0.7, prob.p
        args = (prob.hessian_blocks(u, reg),
                -sigma * p * (p - 1.0) * prob.normal(u), -prob.den_grad(u))
        A = prob.layout(bordered=True).matrix(*args)
        R = reference_system(prob, *args)
        assert sparse_norm(A - R) <= 1e-14 * sparse_norm(R)

    def test_eigensolve_system(self, sphere3, csv_interval, kind):
        prob = _layout_problem(kind, sphere3, csv_interval)
        closed = prob.fixed is None
        args = (prob.stiffness_blocks(), np.zeros(prob.mesh.n_vertices),
                prob.rho if closed else None)
        A = prob.layout(bordered=closed).matrix(*args)
        R = reference_system(prob, *args)
        assert sparse_norm(A - R) <= 1e-14 * sparse_norm(R)

    def test_hessian_blocks(self, sphere3, csv_interval, kind):
        # the Newton system's blocks, without shift and border, times v
        # against central differences of the numerator's gradient along v
        prob = _layout_problem(kind, sphere3, csv_interval)
        rng = np.random.default_rng(4)
        u = prob.project(rng.standard_normal(prob.mesh.n_vertices))
        v = rng.standard_normal(prob.mesh.n_vertices)
        if prob.fixed is not None:
            v[prob.fixed] = 0.0
        reg, h = 1e-2, 1e-6
        layout = prob.layout(bordered=True)
        zero = np.zeros_like(u)
        H = layout.matrix(prob.hessian_blocks(u, reg), zero, zero)
        x = np.zeros(layout.n)
        x[layout.pos] = v[layout.free]
        hv = (H @ x)[layout.pos]
        fd = (prob.num_and_grad(u + h * v, reg)[1]
              - prob.num_and_grad(u - h * v, reg)[1])[layout.free] / (2 * h)
        assert np.linalg.norm(hv - fd) <= 1e-7 * np.linalg.norm(fd)


# -- the recursive dissection, kept as a test-side reference -----------------
# The solver split one vertex set at a time, depth first, before it split all
# sets of one depth together.

def recursive_dissection_order(coords, pattern, leaf=32):
    """Geometric nested dissection, one set at a time: each set is halved at
    the median of its widest coordinate, the lower vertices with an upper
    neighbour are its separator, ordered after both halves."""
    adj = pattern.tocsr(copy=True)
    adj.data[:] = 1.0
    upper_mask = np.zeros(adj.shape[0])
    order = []
    # (is a finished separator, vertex set); popped depth first, lower half
    # before upper half before separator
    stack = [(False, np.arange(adj.shape[0]))]
    while stack:
        separator, idx = stack.pop()
        if separator or idx.size <= leaf:
            order.append(idx)
            continue
        x = coords[idx]
        axis = int(np.argmax(np.ptp(x, axis=0)))
        ranked = idx[np.argsort(x[:, axis], kind="stable")]
        lower, upper = ranked[:idx.size // 2], ranked[idx.size // 2:]
        upper_mask[upper] = 1.0
        touches = adj[lower] @ upper_mask > 0.0
        upper_mask[upper] = 0.0
        stack += [(True, lower[touches]), (False, upper),
                  (False, lower[~touches])]
    return np.concatenate(order)


@pytest.mark.parametrize("kind", ["L2", "L4", "L5", "L6", "hemisphere-L4",
                                  "circle-4000", "interval-200"])
def test_dissection_order_matches_the_recursive_one(sphere2, sphere4,
                                                    sphere5, kind):
    # an identical order keeps every factorization bit for bit
    mesh = {"L2": lambda: sphere2, "L4": lambda: sphere4,
            "L5": lambda: sphere5, "L6": lambda: build_icosphere(6),
            "hemisphere-L4": lambda: extract_hemisphere(sphere4),
            "circle-4000": lambda: build_circle(4000, 2.0 * np.pi),
            "interval-200": lambda: build_interval(200, -1.0, 1.0)}[kind]()
    el = mesh.elements
    incidence = csr_matrix((np.ones(el.size), el.ravel(),
                            np.arange(0, el.size + 1, el.shape[1])),
                           shape=(el.shape[0], mesh.n_vertices))
    coords = mesh.vertices.reshape(mesh.n_vertices, -1)
    pattern = incidence.T @ incidence
    order = psolve._dissection_order(coords, pattern)
    assert np.array_equal(order, recursive_dissection_order(coords, pattern))
    assert np.array_equal(psolve._assembly(mesh).dissection_order, order)


class TestBorderedSolve:
    """The mean-constraint border of the p = 2 eigensolve."""

    @pytest.mark.parametrize("kind", ["hemisphere", "factor-1"])
    def test_singular_stiffness(self, sphere4, sphere5, kind):
        # K has the constant null mode; with the border eliminated last the
        # constraint residual reads 0.38 (hemisphere) and 0.087 (factor 1)
        if kind == "hemisphere":
            mesh = extract_hemisphere(sphere4)
            f = ones(mesh)
        else:
            mesh = sphere5
            f = normalize_unit_volume(sphere5,
                                      random_smooth_factor(sphere5, seed=1))
        prob = weighted_problem(mesh, f, 2.0)
        K, rho = assemble(prob, prob.stiffness_blocks()), prob.rho
        b = np.random.default_rng(0).standard_normal(mesh.n_vertices)
        x = prob.layout(bordered=True).solver(
            prob.stiffness_blocks(), np.zeros_like(rho), rho)(b)
        # K's rows sum to zero, so the multiplier of the border is sum b /
        # sum rho
        mu = b.sum() / rho.sum()
        assert (np.linalg.norm(K @ x + mu * rho - b)
                <= 1e-12 * np.linalg.norm(b))
        assert abs(rho @ x) <= 1e-12 * np.linalg.norm(rho) * np.linalg.norm(x)

    @pytest.mark.parametrize("kind", ["sphere", "hemisphere", "circle"])
    def test_measure_border_gives_the_rho_operator(self, monkeypatch,
                                                   sphere3, kind):
        # the eigensolve borders K by the vertex measure and projects input
        # and output to rho'x = 0: the operator of K bordered by rho
        operators = []

        def capture(*args, OPinv, **kwargs):
            operators.append(OPinv)
            raise RuntimeError("captured")

        monkeypatch.setattr(psolve, "eigsh", capture)
        if kind == "circle":
            mesh = build_circle(400, 2.0 * np.pi)
            f = np.exp(np.sin(mesh.vertices))
        else:
            mesh = sphere3 if kind == "sphere" else extract_hemisphere(sphere3)
            f = random_smooth_factor(mesh, seed=2)
        prob = weighted_problem(mesh, f, 2.0)
        with pytest.raises(psolve.ConvergenceError, match="captured"):
            _p2_eigenvector(prob)
        rho_solve = prob.layout(bordered=True).solver(
            prob.stiffness_blocks(), np.zeros_like(prob.rho), prob.rho)
        rng = np.random.default_rng(1)
        for b in rng.standard_normal((3, mesh.n_vertices)):
            x = rho_solve(b)
            assert (np.linalg.norm(operators[0].matvec(b) - x)
                    <= 1e-10 * np.linalg.norm(x))

    def test_extreme_factor_eigensolve(self, monkeypatch):
        # criterion 07's circle at eps 0.05: at a shift of -1e-3 tr K /
        # sum rho = -1.4e7, far from lambda_1, ARPACK needs 61285 operator
        # solves
        eigsh = psolve.eigsh
        applied = [0]

        def counting_eigsh(*args, OPinv, **kwargs):
            def matvec(x):
                applied[0] += 1
                return OPinv.matvec(x)
            return eigsh(*args, OPinv=LinearOperator(OPinv.shape, matvec,
                                                     dtype=float), **kwargs)

        monkeypatch.setattr(psolve, "eigsh", counting_eigsh)
        mesh = build_circle(4000, 2.0 * np.pi)
        prob = weighted_problem(
            mesh, smooth_band_plateau_factor(mesh, 0.05, 3.0), 2.0)
        u = _p2_eigenvector(prob)
        assert applied[0] <= 100
        K, rho = assemble(prob, prob.stiffness_blocks()), prob.rho
        lam = prob.numerator(u, 0.0) / prob.denominator(u)
        assert abs(rho @ u) <= 1e-12 * np.linalg.norm(rho) * np.linalg.norm(u)
        # normwise backward error of the eigen-equation
        assert (np.linalg.norm(K @ u - lam * rho * u)
                <= 1e-8 * (np.linalg.norm(abs(K) @ abs(u))
                           + lam * np.linalg.norm(rho * u)))
        assert lam == pytest.approx(1486.79453486858, rel=1e-12)


def _newton_case(kind, sphere2):
    """(Newton solve, its problem, the descent's start) at p != 2."""
    tight = dict(residual_target=1e-10, max_iterations=200)
    if kind == "interval":
        iv = build_interval(200, -1.0, 1.0)
        return (solve_dirichlet(iv, SolveOptions(p=1.5, **tight)),
                dirichlet_problem(iv, 1.5), _dirichlet_bump(iv))
    p = {"sphere-1.5": 1.5, "sphere-3": 3.0}[kind]
    f = random_smooth_factor(sphere2, seed=7, amplitude=0.8)
    return (solve_closed(sphere2, f, SolveOptions(p=p, **tight)),
            weighted_problem(sphere2, f, p),
            _p2_eigenvector(weighted_problem(sphere2, f, 2.0)))


class TestNewton:
    """The p != 2 Newton solve against the projected descent it replaced."""

    @pytest.mark.parametrize("kind", ["sphere-1.5", "sphere-3", "interval"])
    def test_not_above_tight_descent(self, sphere2, kind):
        res, prob, start = _newton_case(kind, sphere2)
        assert res.converged
        tight = SolveOptions(p=prob.p, residual_target=1e-10,
                             max_iterations=40000)
        u, *_ = _run_one_start(DescentProblem(prob), start, tight,
                               tight.max_iterations, tolerance=1e-14,
                               delta_final=1e-8)
        descent = prob.numerator(u, 0.0) / prob.denominator(u)
        assert res.lam <= descent * (1.0 + 1e-9)
        assert res.lam == pytest.approx(descent, rel=1e-6)

    def test_converged_means_residual_met(self, sphere3):
        # the descent stopped this input "stalled" at residual 8.8e-3 > 1e-3
        # and still reported converged
        f = normalize_unit_volume(sphere3, random_smooth_factor(sphere3,
                                                                seed=1))
        opts = SolveOptions(p=1.5, residual_target=1e-3, max_iterations=9000)
        res = solve_closed(sphere3, f, opts)
        assert res.converged
        assert res.gradient_residual <= opts.residual_target

    def test_round_off_stops_the_run(self):
        # the residual floors at 1.2e-8, above the target; without a
        # round-off stop the run spends max_iterations (6000 systems) on
        # steps that change the quotient by round-off only
        res = solve_dirichlet(build_interval(200, -1.0, 1.0),
                              SolveOptions(p=1.2, residual_target=1e-9))
        assert res.stop_reason == "round_off"
        assert not res.converged
        assert res.iterations < 100
        assert res.lam == pytest.approx(1.4582256465907624, rel=1e-14)

    def test_damping_never_zeroes_the_shift(self, monkeypatch, sphere2):
        # the ladder climbs past 1e-1 here; with the relative shift 1 that
        # used to follow, sigma = 0 and the bordered system is singular
        step = psolve._newton_step
        shifts = []

        def spy(prob, u, sigma, reg, *args):
            q = prob.numerator(u, reg) / prob.denominator(u)
            shifts.append((sigma, 1.0 - sigma / q))
            return step(prob, u, sigma, reg, *args)

        monkeypatch.setattr(psolve, "_newton_step", spy)
        f = random_smooth_factor(sphere2, seed=4, amplitude=1.0)
        res = solve_closed(sphere2, f, SolveOptions(p=1.5,
                                                    residual_target=1e-9))
        assert res.converged
        assert len(shifts) == res.iterations
        assert all(sigma != 0.0 for sigma, _ in shifts)
        assert max(mu for _, mu in shifts) >= 0.5

    @pytest.mark.parametrize("kind", ["closed", "dirichlet"])
    def test_singular_factor_is_a_failed_step(self, monkeypatch, kind):
        # every Newton factorization fails; the p = 2 eigensolve's does not
        splu, calls = psolve.splu, [0]

        def singular_after_first(*args, **kwargs):
            calls[0] += 1
            if calls[0] > 1:
                raise RuntimeError("Factor is exactly singular")
            return splu(*args, **kwargs)

        monkeypatch.setattr(psolve, "splu", singular_after_first)
        opts = SolveOptions(p=1.5)
        if kind == "closed":
            # a mesh of its own: one that keeps an earlier test's p = 2
            # factorization would make the first call a Newton one
            mesh = build_icosphere(2)
            res = solve_closed(mesh, ones(mesh), opts)
        else:
            res = solve_dirichlet(build_interval(20, -1.0, 1.0), opts)
        # each stage climbs the whole damping ladder, then stops
        assert res.stop_reason == "line_search_floor"
        assert res.iterations == psolve._STAGES * len(psolve._DAMPING)
        assert not res.converged


def _plain(mesh):
    """The same mesh through the constructor: no coarser levels."""
    return DiscreteManifold(mesh.kind, mesh.vertices, mesh.elements,
                            mesh.element_measure, mesh.boundary,
                            pole=mesh.pole)


def _single_level(mesh, f, opts, fixed=None):
    """Reference: the continuation path on the mesh itself, the p = 2
    eigenvector and four equal stages of p, at the solve's factor scale;
    (lam, eigenfunction, iterations)."""
    k = 1 - int(np.frexp(np.max(f))[1])
    g = np.ldexp(f, k)
    prob = weighted_problem(mesh, g, 2.0, fixed)
    u = _p2_eigenvector(prob)
    used = 0
    for q in np.linspace(2.0, opts.p, psolve._STAGES + 1)[1:]:
        prob = weighted_problem(mesh, g, q, fixed)
        u = prob.project(u)
        run = psolve._newton(prob, u, psolve._regularization(prob, u),
                             opts.max_iterations - used, opts.residual_target)
        used += run.iterations
        u = run.eigenfunction
    return (float(run.lam * np.exp2(k * opts.p / 2.0)),
            run.eigenfunction * np.exp2(k * mesh.dim / (2.0 * opts.p)), used)


class TestCoarseToFine:
    """p != 2 closed solves on icospheres of level >= 3 run the continuation
    path on the level-2 sphere and one Newton run per finer level."""

    TIGHT = dict(residual_target=1e-8, max_iterations=9000)

    @staticmethod
    def factor(mesh, seed):
        return normalize_unit_volume(mesh, random_smooth_factor(mesh,
                                                                seed=seed))

    @pytest.mark.parametrize("level,seed,p", [
        (3, 0, 3.0), (3, 1, 1.5), (3, 1, 3.0),
        (4, 0, 1.5), (4, 0, 3.0), (4, 1, 1.5), (4, 1, 3.0)])
    def test_matches_the_direct_path(self, sphere3, sphere4, level, seed, p):
        mesh = {3: sphere3, 4: sphere4}[level]
        f = self.factor(mesh, seed)
        opts = SolveOptions(p=p, **self.TIGHT)
        nested = solve_closed(mesh, f, opts)
        direct = solve_closed(_plain(mesh), f, opts)
        assert nested.converged and direct.converged
        assert nested.lam == pytest.approx(direct.lam, rel=1e-9)

    def test_lower_critical_point_on_level3(self, sphere3):
        # level 3, factor 0, p = 1.5: the two paths end at distinct critical
        # points 5.1e-8 apart; the direct path's is not the lower one, since
        # Newton from the nested result stays at the nested value
        f = self.factor(sphere3, 0)
        opts = SolveOptions(p=1.5, **self.TIGHT)
        nested = solve_closed(sphere3, f, opts)
        direct = solve_closed(_plain(sphere3), f, opts)
        assert nested.converged and direct.converged
        assert nested.lam == pytest.approx(direct.lam, rel=1e-7)
        assert nested.lam < direct.lam * (1.0 - 1e-8)
        restarted = solve_closed(_plain(sphere3), f, opts,
                                 extra_starts=[nested.eigenfunction])
        assert restarted.lam == pytest.approx(nested.lam, rel=1e-12)

    def test_levels_and_counts(self, monkeypatch, sphere4):
        newton, runs = psolve._newton, []

        def spy(prob, *args):
            run = newton(prob, *args)
            runs.append((prob.mesh.n_vertices, prob.p, run, run.iterations))
            return run

        monkeypatch.setattr(psolve, "_newton", spy)
        opts = SolveOptions(p=1.5, residual_target=1e-6)
        res = solve_closed(sphere4, self.factor(sphere4, 1), opts)
        # the four stages on level 2, then one run at p on levels 3 and 4
        assert [run[0] for run in runs] == [162] * 4 + [642, 2562]
        assert [run[1] for run in runs] == list(
            np.linspace(2.0, 1.5, psolve._STAGES + 1)[1:]) + [1.5, 1.5]
        finest = runs[-1][2]
        assert res.iterations == sum(run[3] for run in runs)
        assert res.gradient_residual == finest.gradient_residual
        assert res.stop_reason == finest.stop_reason
        assert res.converged == finest.converged
        assert res.restarts == 0

    def test_budget_covers_every_level(self, sphere3):
        f = self.factor(sphere3, 1)
        full = solve_closed(sphere3, f, SolveOptions(p=1.5))
        assert full.converged
        short = solve_closed(sphere3, f, SolveOptions(p=1.5,
                                                      max_iterations=5))
        assert short.iterations == 5
        assert short.stop_reason == "max_iterations"
        assert not short.converged

    def test_extra_starts_run_on_the_finest_level(self, sphere3):
        f = self.factor(sphere3, 1)
        opts = SolveOptions(p=3.0, residual_target=1e-8)
        alone = solve_closed(sphere3, f, opts)
        res = solve_closed(sphere3, f, opts,
                           extra_starts=[alone.eigenfunction])
        assert res.restarts == 1
        assert res.lam <= alone.lam
        assert res.lam == pytest.approx(alone.lam, rel=1e-12)

    def test_level2_solves_directly(self, sphere2):
        f = random_smooth_factor(sphere2, seed=5, amplitude=0.8)
        opts = SolveOptions(p=1.5, residual_target=1e-8, max_iterations=20000)
        res = solve_closed(sphere2, f, opts)
        lam, u, used = _single_level(sphere2, f, opts)
        assert (res.lam, res.iterations) == (lam, used)
        assert np.array_equal(res.eigenfunction, u)

    @pytest.mark.parametrize("kind", ["circle", "interval", "hemisphere",
                                      "off"])
    def test_other_meshes_keep_the_single_level_path(self, tmp_path, sphere3,
                                                     kind):
        opts = SolveOptions(p=1.5)
        if kind == "interval":
            mesh = build_interval(100, -1.0, 1.0)
            res = solve_dirichlet(mesh, opts)
            ref = _single_level(mesh, ones(mesh), opts, mesh.boundary)
        else:
            if kind == "circle":
                mesh = build_circle(300, 2.0 * np.pi)
                f = 1.0 + 0.5 * np.sin(mesh.vertices) ** 2
            elif kind == "hemisphere":
                mesh = extract_hemisphere(sphere3)
                f = random_smooth_factor(sphere3, seed=2)[mesh.parent_index]
            else:
                save_off(sphere3, tmp_path / "sphere3.off")
                mesh = load_off(tmp_path / "sphere3.off")
                f = random_smooth_factor(mesh, seed=2)
            solve = solve_neumann if kind == "hemisphere" else solve_closed
            res = solve(mesh, f, opts)
            ref = _single_level(mesh, f, opts)
        assert (res.lam, res.iterations) == (ref[0], ref[2])
        assert np.array_equal(res.eigenfunction, ref[1])


class TestRelaxation:
    """Each finer level of a coarse-to-fine solve starts from the prolonged
    iterate after up to _RELAX damped Jacobi sweeps."""

    @pytest.fixture(scope="class")
    def starts(self, sphere4):
        # the level-3 solution prolonged to level 4, projected, and relaxed
        f = TestCoarseToFine.factor(sphere4, 1)
        coarse, prolong = psolve._coarse_chain(sphere4)[0]
        run = solve_closed(coarse, f[:coarse.n_vertices],
                           SolveOptions(p=1.5, residual_target=1e-6))
        prob = weighted_problem(sphere4, f, 1.5)
        prolonged = prob.project(prolong @ run.eigenfunction)
        reg = psolve._regularization(prob, prolonged)
        return prob, reg, prolonged, psolve._relax(prob, prolonged, reg)

    @staticmethod
    def residual(prob, reg, u):
        num, grad_n = prob.num_and_grad(u, reg)
        r = grad_n - num / prob.denominator(u) * prob.den_grad(u)
        return psolve._residual(prob, u, r, grad_n)

    def test_relaxed_start_is_admissible(self, starts):
        prob, _, _, relaxed = starts
        assert prob.constraint_defect(relaxed) <= 1e-12
        assert prob.denominator(relaxed) == pytest.approx(1.0, rel=1e-12)

    def test_relaxed_start_is_lower_and_smoother(self, starts):
        prob, reg, prolonged, relaxed = starts
        assert prob.quotient_change(prolonged, relaxed, reg) < 0.0
        # midpoint prolongation leaves a residual of about 0.56; two sweeps
        # take it to about 0.11
        assert (self.residual(prob, reg, relaxed)
                < 0.5 * self.residual(prob, reg, prolonged))

    def test_sweep_that_raises_the_quotient_is_dropped(self, monkeypatch,
                                                       starts):
        prob, reg, prolonged, _ = starts
        monkeypatch.setattr(psolve, "_OMEGA", 20.0)  # far past the minimum
        assert psolve._relax(prob, prolonged, reg) is prolonged

    def test_nonpositive_diagonal_keeps_the_value(self, monkeypatch, starts):
        # near a zero of u at p < 2 the -R p (p-1) |u|^(p-2) rho term
        # outweighs the Hessian's diagonal; such a vertex takes no step
        prob, reg, prolonged, _ = starts
        u = prolonged.copy()
        i = int(np.argmin(np.abs(u)))
        u[i] = 1e-9
        layout = prob.layout(bordered=True)
        q = prob.numerator(u, reg) / prob.denominator(u)
        d = layout.matrix(prob.hessian_blocks(u, reg),
                          -q * 1.5 * 0.5 * prob.normal(u),
                          prob.den_grad(u)).diagonal()[layout.pos]
        assert d[i] < 0.0 < np.delete(d, i).min()
        project, swept = prob.project, []
        monkeypatch.setattr(prob, "project",
                            lambda w: swept.append(w) or project(w))
        psolve._relax(prob, u, reg)
        assert np.flatnonzero(swept[0] == u).tolist() == [i]

    def test_systems_per_level(self, monkeypatch, sphere4):
        newton, runs = psolve._newton, []

        def spy(prob, *args):
            run = newton(prob, *args)
            runs.append((prob.mesh.n_vertices, run.iterations))
            return run

        monkeypatch.setattr(psolve, "_newton", spy)
        f = TestCoarseToFine.factor(sphere4, 1)
        res = solve_closed(sphere4, f, SolveOptions(p=1.5,
                                                    residual_target=1e-3))
        # without the sweeps level 3 takes 3 systems
        assert runs == [(162, 2), (162, 2), (162, 2), (162, 3), (642, 2),
                        (2562, 3)]
        assert res.converged


def _kept_factorizations(mesh):
    """The factorizations the layouts of mesh and of the coarser levels it
    has built keep."""
    chain = getattr(mesh, "_psolve_chain", None) or []
    meshes = [mesh] + [coarse for coarse, _ in chain]
    return [layout._kept for m in meshes
            for layout in psolve._assembly(m)._layouts.values()
            if layout._kept is not None]


class TestKeptFactorization:
    """At p = m = 2 the bordered stiffness of a closed or Neumann eigensolve
    does not depend on the factor: a mesh factors it once."""

    @staticmethod
    def count_splu(monkeypatch):
        splu, calls = psolve.splu, []

        def spy(*args, **kwargs):
            calls.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(psolve, "splu", spy)
        return calls

    @staticmethod
    def factors(mesh, n):
        return [normalize_unit_volume(mesh, random_smooth_factor(mesh,
                                                                 seed=s))
                for s in range(n)]

    def test_sphere_factors_once(self, monkeypatch):
        mesh = build_icosphere(3)
        calls = self.count_splu(monkeypatch)
        for f in [ones(mesh)] + self.factors(mesh, 3):
            solve_closed(mesh, f, SolveOptions(p=2.0))
        assert len(calls) == 1
        hemi = extract_hemisphere(mesh)
        for f in self.factors(mesh, 2):
            solve_neumann(hemi, f[hemi.parent_index], SolveOptions(p=2.0))
        assert len(calls) == 2

    def test_circle_factors_each_factor(self, monkeypatch):
        # the 1-D stiffness weights the elements by f^(-1/2)
        mesh = build_circle(400, 2.0 * np.pi)
        calls = self.count_splu(monkeypatch)
        for f in [np.exp(np.sin(mesh.vertices)),
                  np.exp(np.cos(mesh.vertices))]:
            solve_closed(mesh, f, SolveOptions(p=2.0))
        assert len(calls) == 2

    def test_kept_factorization_is_bit_identical(self, sphere3):
        first, second = self.factors(sphere3, 2)
        mesh = build_icosphere(3)
        solve_closed(mesh, first, SolveOptions(p=2.0))
        reused = solve_closed(mesh, second, SolveOptions(p=2.0))
        fresh = solve_closed(build_icosphere(3), second, SolveOptions(p=2.0))
        assert reused.lam == fresh.lam
        assert np.array_equal(reused.eigenfunction, fresh.eigenfunction)

    def test_newton_drops_it(self):
        mesh = build_icosphere(3)
        f = self.factors(mesh, 1)[0]
        solve_closed(mesh, f, SolveOptions(p=2.0))
        assert len(_kept_factorizations(mesh)) == 1
        solve_closed(mesh, f, SolveOptions(p=1.5))
        assert _kept_factorizations(mesh) == []

    def test_concurrent_solves_share_it(self, monkeypatch, sphere4):
        # more threads than cores, switching often: a first pass races to
        # build the layout and its factorization, a second one shares it
        opts = SolveOptions(p=2.0)
        factors = self.factors(sphere4, 8)
        sequential = [solve_closed(sphere4, f, opts).lam for f in factors]
        mesh = build_icosphere(4)
        calls = self.count_splu(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                def solve_all():
                    return list(pool.map(
                        lambda f: solve_closed(mesh, f, opts).lam, factors,
                        timeout=120))
                first = solve_all()
                raced = len(calls)
                second = solve_all()
        finally:
            sys.setswitchinterval(interval)
        assert first == second == sequential
        assert raced >= 1
        assert len(calls) == raced
