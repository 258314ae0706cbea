"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Mesh resolutions, tolerances and runtime limits are fixed here.
"""

import math
import time

import numpy as np

from pspectra import (SolveOptions, balance, balanced_energy_bound,
                      build_circle, build_interval, cap_density,
                      extract_hemisphere, genus_surface_bound,
                      measure_density, normalize_unit_volume, p_shift,
                      radial_average, random_smooth_factor, reflect_even,
                      shooting_eigenvalue_1d, solve_closed, solve_dirichlet,
                      solve_neumann, split_band_plateau)
from pspectra.cli import _sweep_case, build_mesh
from pspectra.psolve import quotient_gradient


def report(num, ok, detail):
    print(f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_dirichlet_sanity(interval1000):
    t0 = time.monotonic()
    fem = solve_dirichlet(interval1000, SolveOptions(p=2.0)).lam
    oracle = shooting_eigenvalue_1d(2.0, "dirichlet", 1.0)
    elapsed = time.monotonic() - t0
    exact = math.pi ** 2 / 4.0
    fem_ok = abs(fem / exact - 1.0) <= 5e-3
    oracle_ok = abs(oracle / exact - 1.0) <= 1e-8
    ok = fem_ok and oracle_ok and elapsed < 5.0
    report(1, ok, f"fem rel {abs(fem / exact - 1):.2e} (<=5e-3), "
                  f"oracle rel {abs(oracle / exact - 1):.2e} (<=1e-8), "
                  f"runtime {elapsed:.2f}s (<5s)")


def test_criterion_02_dirichlet_scaling():
    eps_list = [1.0, 0.5, 0.25, 0.1]
    worst_oracle = 0.0
    worst_fem = 0.0
    for p in [1.5, 2.0, 3.0]:
        base = shooting_eigenvalue_1d(p, "dirichlet", 1.0)
        for eps in eps_list[1:]:
            lam = shooting_eigenvalue_1d(p, "dirichlet", eps)
            worst_oracle = max(worst_oracle, abs(lam * eps ** p / base - 1.0))
        opts = SolveOptions(p=p, residual_target=1e-9, max_iterations=60000)
        vals = [solve_dirichlet(build_interval(400, -e, e), opts).lam * e ** p
                for e in eps_list]
        worst_fem = max(worst_fem,
                        max(abs(v / vals[0] - 1.0) for v in vals))
    ok = worst_oracle <= 1e-9 and worst_fem <= 1e-6
    report(2, ok, f"oracle spread {worst_oracle:.2e} (<=1e-9), "
                  f"fem spread {worst_fem:.2e} (<=1e-6), "
                  "p in {1.5, 2, 3}, eps in {1, 0.5, 0.25, 0.1}")


def test_criterion_03_canonical_eigenvalues(circle400, sphere5):
    t0 = time.monotonic()
    lam_circle = solve_closed(circle400, np.ones(400),
                              SolveOptions(p=2.0)).lam
    t_circle = time.monotonic() - t0
    t0 = time.monotonic()
    lam_sphere = solve_closed(sphere5, np.ones(sphere5.n_vertices),
                              SolveOptions(p=2.0)).lam
    t_sphere = time.monotonic() - t0
    circle_ok = abs(lam_circle - 1.0) <= 0.01 and t_circle < 60.0
    sphere_ok = abs(lam_sphere - 2.0) <= 0.04 and t_sphere < 60.0
    report(3, circle_ok and sphere_ok,
           f"circle lambda {lam_circle:.6f} (~1, {t_circle:.1f}s), "
           f"sphere lambda {lam_sphere:.6f} (~2, {t_sphere:.1f}s)")


def test_criterion_04_dilatation_scaling_law(sphere2):
    f = random_smooth_factor(sphere2, seed=5, amplitude=0.8)
    worst = 0.0
    for p in [1.5, 2.0, 3.0]:
        opts = SolveOptions(p=p, residual_target=1e-8, max_iterations=20000)
        lam = solve_closed(sphere2, f, opts).lam
        for c in [0.25, 4.0]:
            lam_c = solve_closed(sphere2, c * f, opts).lam
            worst = max(worst, abs(lam_c / (c ** (-p / 2.0) * lam) - 1.0))
    ok = worst <= 1e-6
    report(4, ok, f"worst law deviation {worst:.2e} (<=1e-6) over "
                  "p in {1.5, 2, 3}, c in {0.25, 4}")


def test_criterion_05_volume_bounds(sphere5):
    slack = 0.02
    failures = []
    round_ratio = None
    for p in [2.0, 1.5]:
        bound = 8.0 * math.pi if p == 2.0 else genus_surface_bound(1.5, 0)
        for case in range(21):
            if case == 0:
                f = np.ones(sphere5.n_vertices)
            else:
                f = random_smooth_factor(sphere5, seed=case - 1,
                                         amplitude=1.0)
            f = normalize_unit_volume(sphere5, f)
            opts = SolveOptions(p=p, residual_target=1e-3, max_iterations=9000)
            lam = solve_closed(sphere5, f, opts).lam
            if lam > bound * (1.0 + slack):
                failures.append((p, case, lam / bound))
            if p == 2.0 and case == 0:
                round_ratio = lam / bound
    sharp_ok = round_ratio is not None and round_ratio >= 0.95
    ok = not failures and sharp_ok
    report(5, ok, f"42 solves vs bounds, violations {failures}, "
                  f"round-sphere ratio {round_ratio:.4f} (>=0.95)")


def test_criterion_06_balancing_pipeline(sphere4):
    directions = [[0.3, -0.5, 0.8], [1.0, 0.2, 0.1], [-0.6, 0.7, 0.3],
                  [0.1, -0.9, -0.4], [-0.2, -0.3, 0.9]]
    worst_norm = 0.0
    failures = []
    for p in [1.7, 2.0]:
        for k, direction in enumerate(directions):
            f = normalize_unit_volume(
                sphere4, cap_density(sphere4, direction, 5.0 + k))
            dens = measure_density(sphere4, f)
            res = balance(sphere4, sphere4.vertices, dens, p)
            worst_norm = max(worst_norm, res.moment_norm)
            psi = res.map.apply(sphere4.vertices)
            bound = balanced_energy_bound(sphere4, f, psi, p)
            rho = dens * sphere4.vertex_measure
            starts = [psi[:, i] - p_shift(psi[:, i], rho, p)
                      for i in range(3)]
            lam = solve_closed(sphere4, f,
                               SolveOptions(p=p),
                               extra_starts=starts).lam
            if lam > bound * 1.02:
                failures.append((p, k, lam / bound))
    ok = worst_norm <= 1e-6 and not failures
    report(6, ok, f"worst moment norm {worst_norm:.2e} (<=1e-6), "
                  f"bound violations {failures} (2% slack), p in {{1.7, 2}}")


def test_criterion_07_blowup_trend():
    solver = {"residual_target": 1e-3, "max_iterations": 8000}
    circle_spec = {"kind": "circle", "n": 4000, "length": 2.0 * math.pi}
    circle = build_mesh(circle_spec)
    rows = []
    warm = None
    for eps in [0.4, 0.2, 0.1, 0.05]:
        row = _sweep_case(circle, eps, SolveOptions(p=3.0, **solver), warm)
        warm = row["eigenfunction"]
        rows.append(row)
    lams1 = [r["lambda"] for r in rows]
    scaled1 = [r["lambda_eps_scaled"] for r in rows]
    m1_ok = (all(b > a for a, b in zip(lams1, lams1[1:]))
             and all(b >= a for a, b in zip(scaled1, scaled1[1:]))
             and lams1[-1] >= 10.0 * lams1[0])

    sphere_spec = {"kind": "icosphere", "level": 6}
    sphere = build_mesh(sphere_spec)
    solver2 = {"residual_target": 1e-3, "max_iterations": 4000}
    rows2 = []
    warm = None
    for eps in [0.5, 0.35, 0.25]:
        row = _sweep_case(sphere, eps, SolveOptions(p=3.0, **solver2), warm)
        warm = row["eigenfunction"]
        rows2.append(row)
    lams2 = [r["lambda"] for r in rows2]
    m2_ok = all(b > a for a, b in zip(lams2, lams2[1:]))
    ok = m1_ok and m2_ok
    report(7, ok,
           f"m=1 growth x{lams1[-1] / lams1[0]:.0f} (>=10, strict, scaled "
           f"nondecreasing {scaled1[-1] >= scaled1[0]}), "
           f"m=2 lambdas {['%.1f' % v for v in lams2]} strictly increasing")


def test_criterion_08_reflection_inequality(sphere4):
    hemi = extract_hemisphere(sphere4)
    failures = []
    for p in [2.0, 2.5]:
        for k in range(5):
            f = random_smooth_factor(sphere4, seed=30 + k, amplitude=0.9,
                                     symmetric=True)
            f_h = f[hemi.parent_index]
            opts = SolveOptions(p=p)
            neu = solve_neumann(hemi, f_h, opts)
            w = reflect_even(neu.eigenfunction, hemi, sphere4)
            closed = solve_closed(sphere4, f, opts, extra_starts=[w])
            if closed.lam > neu.lam * 1.02:
                failures.append((p, k, closed.lam / neu.lam))
    opts = SolveOptions(p=2.0)
    ones = np.ones(sphere4.n_vertices)
    lam_c = solve_closed(sphere4, ones, opts).lam
    lam_n = solve_neumann(hemi, np.ones(hemi.n_vertices), opts).lam
    equality_ok = abs(lam_c / lam_n - 1.0) <= 0.02
    ok = not failures and equality_ok
    report(8, ok, f"10 symmetric-factor cases, violations {failures}; "
                  f"round case closed/neumann = {lam_c / lam_n:.5f} "
                  "(within 2%)")


def test_criterion_09_elementary_inequalities():
    rng = np.random.default_rng(2024)
    psi = rng.standard_normal((10_000, 3))
    psi /= np.linalg.norm(psi, axis=1)[:, None]
    s = rng.random((10_000, 3)) * 4.0
    worst = 0.0
    for p in [1.2, 1.5, 2.0, 3.0, 5.0]:
        sums = np.sum(np.abs(psi) ** p, axis=1)
        if p >= 2.0:
            worst = max(worst, np.max(sums - 1.0))
            worst = max(worst, np.max(3.0 ** (1.0 - p / 2.0) - sums))
        if p <= 2.0:
            worst = max(worst, np.max(1.0 - sums))
            lhs = np.sum(s ** (p / 2.0), axis=1)
            rhs = 3.0 ** (1.0 - p / 2.0) * np.sum(s, axis=1) ** (p / 2.0)
            worst = max(worst, np.max(lhs - rhs))
    ok = worst <= 1e-12
    report(9, ok, f"worst violation {worst:.2e} (<=1e-12) over 1e4 vectors, "
                  "p in {1.2, 1.5, 2, 3, 5}")


def test_criterion_10_solver_internals(tmp_path):
    # analytic gradient vs central differences on a 50-vertex mesh
    mesh = build_interval(49, -1.0, 1.0)  # 50 vertices
    rng = np.random.default_rng(77)
    u = rng.standard_normal(mesh.n_vertices)
    f = np.exp(0.5 * np.sin(mesh.vertices * 3.0))
    worst_grad = 0.0
    for p in [1.5, 2.0, 3.0]:
        reg = 1e-4
        grad = quotient_gradient(mesh, f, p, u, reg=reg)

        def quotient(v, p=p):
            from pspectra.psolve import _Problem, _element_mean
            from pspectra import energy_density_weight
            ew = _element_mean(mesh, energy_density_weight(mesh, f, p))
            prob = _Problem(mesh, p, mesh.element_measure * ew,
                            measure_density(mesh, f) * mesh.vertex_measure)
            return prob.numerator(v, reg) / prob.denominator(v)

        h = 1e-6
        fd = np.empty_like(u)
        for i in range(mesh.n_vertices):
            e = np.zeros_like(u)
            e[i] = h
            fd[i] = (quotient(u + e) - quotient(u - e)) / (2 * h)
        worst_grad = max(worst_grad, np.linalg.norm(fd - grad)
                         / np.linalg.norm(grad))
    grad_ok = worst_grad <= 1e-5

    circle = build_circle(200, 2.0 * math.pi)
    res = solve_closed(circle, np.ones(200),
                       SolveOptions(p=2.5))
    monotone_ok = bool(np.all(np.diff(np.asarray(res.history)) <= 0.0))

    # deterministic reruns: byte-identical CSV modulo the timestamp line
    from click.testing import CliRunner
    from pspectra.cli import main as cli_main
    import json
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 2.0, "eps": [1.0, 0.5], "n": 150,
                               "seed": 0}))
    runner = CliRunner()
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        r = runner.invoke(cli_main, ["dirichlet-scaling", "--config",
                                     str(cfg), "--out", str(out)])
        assert r.exit_code == 0, r.output
        outs.append((out / "rows.csv").read_bytes().split(b"\n", 1)[1])
    deterministic_ok = outs[0] == outs[1]
    ok = grad_ok and monotone_ok and deterministic_ok
    report(10, ok, f"gradient vs FD {worst_grad:.2e} (<=1e-5), "
                   f"monotone descent {monotone_ok}, "
                   f"byte-identical rerun {deterministic_ok}")


def test_criterion_11_symmetrization_diagnostics(sphere5):
    f = random_smooth_factor(sphere5, seed=41, amplitude=0.8)
    rng = np.random.default_rng(6)
    u = rng.standard_normal(sphere5.n_vertices)
    pnorm_ok = True
    exact_ok = True
    detail = []
    for p in [2.0, 3.0]:
        prof = radial_average(sphere5, u, f, p)
        rel = abs(prof.pnorm_lhs / prof.pnorm_rhs - 1.0)
        pnorm_ok &= rel <= 0.01
        detail.append(f"p={p}: pnorm rel {rel:.2e}")
        grad_ok = prof.grad_lhs <= prof.grad_rhs * 1.01
        pnorm_ok &= grad_ok
        # band/plateau split identities on the profile restricted to the
        # upper hemisphere
        v, w, diag = split_band_plateau(prof, 0.4, p=p)
        scale = max(np.max(np.abs(np.diff(prof.values))) ** p, 1e-300)
        exact_ok &= diag["disjoint_support_gap"] <= 1e-12 * scale
        exact_ok &= diag["split_inequality_margin"] >= -1e-12
    ok = pnorm_ok and exact_ok
    report(11, ok, "; ".join(detail) + f"; split identities exact {exact_ok}")
