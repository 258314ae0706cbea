"""Experiment commands producing CSV/JSON/SVG artifacts.

Every command reads a single JSON config (all physical parameters explicit),
writes into --out, and is deterministic for a fixed (config, seed): reruns
produce byte-identical CSV up to the timestamp header line. Exit codes:
0 success, 1 validation or I/O error, 2 flagged numerical non-convergence.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from . import bounds as bounds_mod
from . import conformal, mesh as mesh_mod, mobius, psolve

FMT = "%.17g"


class ConfigError(ValueError):
    pass


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")


def _require(cfg, key):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def build_mesh(spec):
    kind = _require(spec, "kind")
    if kind == "interval":
        return mesh_mod.build_interval(_require(spec, "n"),
                                       _require(spec, "a"), _require(spec, "b"))
    if kind == "circle":
        return mesh_mod.build_circle(_require(spec, "n"),
                                     _require(spec, "length"))
    if kind == "icosphere":
        return mesh_mod.build_icosphere(_require(spec, "level"))
    if kind == "hemisphere":
        sphere = mesh_mod.build_icosphere(_require(spec, "level"))
        return mesh_mod.extract_hemisphere(sphere)
    if kind == "off":
        return mesh_mod.load_off(_require(spec, "path"))
    if kind == "csv":
        return mesh_mod.load_mesh_csv(_require(spec, "path"))
    raise ConfigError(f"unknown mesh kind {kind!r}")


def build_factor(mesh, spec, p=None):
    kind = _require(spec, "kind")
    if kind == "constant":
        f = np.full(mesh.n_vertices, float(spec.get("value", 1.0)))
    elif kind == "random_smooth":
        f = conformal.random_smooth_factor(
            mesh, _require(spec, "seed"),
            amplitude=float(spec.get("amplitude", 1.0)),
            symmetric=bool(spec.get("symmetric", False)))
    elif kind == "band_plateau":
        if p is None:
            raise ConfigError("band_plateau factor needs p")
        builder = (conformal.smooth_band_plateau_factor
                   if spec.get("smooth", True)
                   else conformal.band_plateau_factor)
        f = builder(mesh, _require(spec, "eps"), p)
    elif kind == "cap":
        f = conformal.cap_density(mesh, _require(spec, "direction"),
                                  float(spec.get("concentration", 8.0)))
    elif kind == "csv":
        f = conformal.load_factor_csv(_require(spec, "path"))
        f = mesh_mod.check_field(mesh, f, "factor file")
    else:
        raise ConfigError(f"unknown factor kind {kind!r}")
    if spec.get("normalize", False):
        f = conformal.normalize_unit_volume(mesh, f)
    return f


def _solver_options(p, seed, solver_cfg):
    try:
        return psolve.SolveOptions(p=p, seed=seed, **solver_cfg)
    except TypeError as exc:  # unknown or mistyped solver key
        raise ConfigError(f"invalid solver config: {exc}") from None


def solve_options(cfg, **overrides):
    p = float(_require(cfg, "p"))
    opts = dict(cfg.get("solver", {}))
    opts.update(overrides)
    seed = int(cfg.get("seed", opts.pop("seed", 0)))
    return _solver_options(p, seed, opts)


def _timestamp():
    return datetime.now(timezone.utc).isoformat()


def write_csv(path, columns, rows):
    """CSV with a timestamp comment line (excluded from golden diffs),
    then a header line, then 17-significant-digit rows."""
    with open(path, "w") as fh:
        fh.write(f"# generated {_timestamp()}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(FMT % v if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_svg_loglog(path, xs, ys, title, xlabel, ylabel):
    """Minimal log-log polyline chart, no external renderer."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    ok = (xs > 0) & (ys > 0)
    lx, ly = np.log10(xs[ok]), np.log10(ys[ok])
    w, h, m = 640, 480, 60
    spanx = max(lx.max() - lx.min(), 1e-9)
    spany = max(ly.max() - ly.min(), 1e-9)

    def px(v):
        return m + (v - lx.min()) / spanx * (w - 2 * m)

    def py(v):
        return h - m - (v - ly.min()) / spany * (h - 2 * m)

    pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(lx, ly))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w/2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<line x1="{m}" y1="{h-m}" x2="{w-m}" y2="{h-m}" stroke="black"/>',
        f'<line x1="{m}" y1="{m}" x2="{m}" y2="{h-m}" stroke="black"/>',
        f'<text x="{w/2:.0f}" y="{h-16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel} (log10)</text>',
        f'<text x="18" y="{h/2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {h/2:.0f})">{ylabel} (log10)</text>',
    ]
    for v in np.linspace(lx.min(), lx.max(), 4):
        parts.append(f'<text x="{px(v):.0f}" y="{h-m+18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{v:.2f}</text>')
    for v in np.linspace(ly.min(), ly.max(), 4):
        parts.append(f'<text x="{m-8}" y="{py(v):.0f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{v:.2f}</text>')
    parts.append(f'<polyline points="{pts}" fill="none" stroke="steelblue" '
                 'stroke-width="2"/>')
    for a, b in zip(lx, ly):
        parts.append(f'<circle cx="{px(a):.2f}" cy="{py(b):.2f}" r="4" '
                     'fill="steelblue"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def _save_mesh(mesh, outdir):
    if mesh.dim == 2:
        mesh_mod.save_off(mesh, outdir / "mesh.off")
    else:
        mesh_mod.save_mesh_csv(mesh, outdir / "mesh.csv")


def _result_payload(result, **extra):
    payload = result.to_json()
    payload.update(extra)
    return payload


def _fail(message, code=1):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@click.group()
def main():
    """First-eigenvalue experiments on weighted circles and spheres.

    All commands take --config FILE.json and write artifacts to --out.
    """


def _common(fn):
    fn = click.option("--out", default="pspectra_out", show_default=True,
                      help="Output directory.")(fn)
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(), help="JSON config file.")(fn)
    return fn


@main.command()
@_common
def eigen(config_path, out):
    """Solve one eigenvalue problem.

    Config: mesh, p, factor, problem (closed|neumann|dirichlet), solver,
    seed. Writes results.json, eigenfunction.csv and the mesh file.
    """
    try:
        cfg = _load_config(config_path)
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        mesh = build_mesh(_require(cfg, "mesh"))
        opts = solve_options(cfg)
        problem = cfg.get("problem", "closed")
        if problem == "dirichlet":
            result = psolve.solve_dirichlet(mesh, opts)
        else:
            f = build_factor(mesh, _require(cfg, "factor"), p=opts.p)
            if problem == "closed":
                result = psolve.solve_closed(mesh, f, opts)
            elif problem == "neumann":
                result = psolve.solve_neumann(mesh, f, opts)
            else:
                raise ConfigError(f"unknown problem {problem!r}")
    except (ValueError, OSError) as exc:
        _fail(exc)
    write_json(outdir / "results.json", _result_payload(result, p=opts.p,
                                                        problem=problem))
    conformal.save_factor_csv(result.eigenfunction,
                              outdir / "eigenfunction.csv")
    _save_mesh(mesh, outdir)
    if not result.converged:
        click.echo("flagged: solver did not meet its convergence criteria",
                   err=True)
        sys.exit(2)
    click.echo(f"lambda = {result.lam:.12g}")


def _sweep_case(args):
    mesh_spec, p, eps, solver_cfg, seed, warm = args
    mesh = build_mesh(mesh_spec)
    f = conformal.smooth_band_plateau_factor(mesh, eps, p)
    vol = conformal.volume(mesh, f)
    r = mesh.colatitudes
    # odd profile across the band: slope confined to where the factor is 1
    starts = [np.clip((r - np.pi / 2) / (eps / 2.0), -1.0, 1.0)]
    if mesh.kind == "circle":
        # in 1-D the weighted circle is isometric to a plain circle of its
        # conformal length; pull the first circle mode back through that
        # isometry (extrema at the plateau centers)
        sq = np.sqrt(f)
        seg = 0.5 * (sq + np.roll(sq, -1)) * mesh.element_measure
        sigma = np.concatenate([[0.0], np.cumsum(seg)[:-1]])
        starts.append(np.cos(2.0 * np.pi * sigma / seg.sum()))
    opts = _solver_options(p, seed, solver_cfg)
    result = psolve.solve_closed(mesh, f, opts, u0=warm, extra_starts=starts,
                                 include_canonical=False)
    m = mesh.dim
    lam_unit = vol ** (p / m) * result.lam
    return {
        "eps": eps,
        "lambda": result.lam,
        "volume": vol,
        "lambda_eps_scaled": result.lam * eps ** (p / m),
        "lambda_unit_volume": lam_unit,
        "converged": result.converged,
        "eigenfunction": result.eigenfunction,
    }


@main.command("sweep-eps")
@_common
@click.option("--jobs", default=1, show_default=True,
              help="Run eps cases concurrently (no warm starts).")
def sweep_eps(config_path, out, jobs):
    """Blow-up sweep: for each eps build the smooth band/plateau factor,
    solve, and check the growth trend.

    Config: mesh (circle|icosphere), p (> mesh dimension), eps (decreasing
    list), solver, seed. CSV columns: eps, lambda (pre-normalization
    eigenvalue of the band/plateau metric), volume (before normalization),
    lambda_eps_scaled (lambda * eps^(p/m)), lambda_unit_volume (eigenvalue
    of the unit-volume metric via the exact scaling law). Asserts lambda
    strictly increasing and lambda_eps_scaled nondecreasing along
    decreasing eps; exit 2 when the trend or convergence fails.
    """
    try:
        cfg = _load_config(config_path)
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        mesh_spec = _require(cfg, "mesh")
        mesh = build_mesh(mesh_spec)
        p = float(_require(cfg, "p"))
        if p <= mesh.dim:
            raise ConfigError("blow-up sweep needs p > mesh dimension")
        eps_list = [float(e) for e in _require(cfg, "eps")]
        if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
            raise ConfigError("eps list must be strictly decreasing")
        for eps in eps_list:
            conformal.smooth_band_plateau_factor(mesh, eps, p)  # validates
        solver_cfg = dict(cfg.get("solver", {}))
        seed = int(cfg.get("seed", 0))
        rows = []
        if jobs > 1:
            cases = [(mesh_spec, p, eps, solver_cfg, seed + i, None)
                     for i, eps in enumerate(eps_list)]
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                rows = list(pool.map(_sweep_case, cases))
        else:
            warm = None
            for eps in eps_list:
                row = _sweep_case((mesh_spec, p, eps, solver_cfg, seed, warm))
                warm = row["eigenfunction"]
                rows.append(row)
    except (ValueError, OSError) as exc:
        _fail(exc)
    columns = ["eps", "lambda", "volume", "lambda_eps_scaled",
               "lambda_unit_volume"]
    write_csv(outdir / "rows.csv", columns,
              [[r[c] for c in columns] for r in rows])
    write_svg_loglog(outdir / "chart.svg", [r["eps"] for r in rows],
                     [r["lambda"] for r in rows],
                     "eigenvalue blow-up sweep", "eps", "lambda")
    _save_mesh(mesh, outdir)
    lams = [r["lambda"] for r in rows]
    scaled = [r["lambda_eps_scaled"] for r in rows]
    increasing = all(b > a for a, b in zip(lams, lams[1:]))
    nondecreasing = all(b >= a for a, b in zip(scaled, scaled[1:]))
    all_converged = all(r["converged"] for r in rows)
    write_json(outdir / "results.json", {
        "eps": eps_list, "lambda": lams, "lambda_eps_scaled": scaled,
        "strictly_increasing": increasing,
        "scaled_nondecreasing": nondecreasing,
        "converged": all_converged,
    })
    if not (increasing and nondecreasing and all_converged):
        click.echo("flagged: blow-up trend or convergence failed", err=True)
        sys.exit(2)
    click.echo(f"lambda grew {lams[-1] / lams[0]:.3g}x over the sweep")


def _bound_case(args):
    (mesh, p, factor_seed, amplitude, source, genus, orientable,
     slack, corrupt) = args
    if factor_seed is None:
        f = np.ones(mesh.n_vertices)
    else:
        f = conformal.random_smooth_factor(mesh, factor_seed,
                                           amplitude=amplitude)
    f = conformal.normalize_unit_volume(mesh, f)
    opts = psolve.SolveOptions(p=p, seed=0 if factor_seed is None
                               else factor_seed, multistart=1,
                               tolerance=1e-6, residual_target=1e-3,
                               max_iterations=9000)
    report = bounds_mod.verify_bound(mesh, f, opts, source=source,
                                     genus=genus, orientable=orientable,
                                     tolerance=slack)
    if corrupt:
        bad = report.bound_value * 1e-4
        report = bounds_mod.BoundReport(bad, report.computed_lambda,
                                        bad - report.computed_lambda,
                                        report.parameters, report.tolerance)
    return report


@main.command("verify-bound")
@_common
@click.option("--jobs", default=1, show_default=True)
def verify_bound(config_path, out, jobs):
    """Check solved eigenvalues against the closed-form upper bound.

    Config: mesh (icosphere), p (1 < p <= 2), n_factors, amplitude, seed,
    source (conformal_volume|genus_surface), genus, orientable, slack, and
    the self-test flag self_test_corrupt_bound. One CSV row per sampled unit-volume factor
    (columns: case, bound_value, computed_lambda, slack, passed); the round
    factor is case 0. Nonzero exit if any case fails.
    """
    try:
        cfg = _load_config(config_path)
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        mesh = build_mesh(_require(cfg, "mesh"))
        p = float(_require(cfg, "p"))
        n_factors = int(cfg.get("n_factors", 5))
        amplitude = float(cfg.get("amplitude", 1.0))
        seed = int(cfg.get("seed", 0))
        source = cfg.get("source", "conformal_volume")
        genus = int(cfg.get("genus", 0))
        orientable = bool(cfg.get("orientable", True))
        slack = float(cfg.get("slack", bounds_mod.MESH_SLACK))
        corrupt = bool(cfg.get("self_test_corrupt_bound", False))
        cases = [(mesh, p, None, amplitude, source, genus, orientable,
                  slack, corrupt)]
        cases += [(mesh, p, seed + i, amplitude, source, genus,
                   orientable, slack, corrupt) for i in range(n_factors)]
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                reports = list(pool.map(_bound_case, cases))
        else:
            reports = [_bound_case(c) for c in cases]
    except (ValueError, OSError) as exc:
        _fail(exc)
    rows = [[i, r.bound_value, r.computed_lambda, r.slack, int(r.passed)]
            for i, r in enumerate(reports)]
    write_csv(outdir / "rows.csv",
              ["case", "bound_value", "computed_lambda", "slack", "passed"],
              rows)
    write_json(outdir / "results.json",
               {"reports": [r.to_json() for r in reports],
                "all_passed": all(r.passed for r in reports)})
    if not all(r.passed for r in reports):
        click.echo("flagged: bound violated", err=True)
        sys.exit(2)
    click.echo(f"all {len(reports)} cases within the bound")


@main.command()
@_common
def reflect(config_path, out):
    """Even-reflection comparison: closed sphere vs hemisphere Neumann.

    Config: mesh (icosphere), p, factor (must satisfy f(r) = f(pi - r)),
    solver, seed. Writes the two eigenvalues, the reflected-field quotient,
    the constraint defect of the reflection, and the inequality slack.
    """
    try:
        cfg = _load_config(config_path)
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        sphere = build_mesh(_require(cfg, "mesh"))
        if sphere.kind != "sphere":
            raise ConfigError("reflection needs an icosphere mesh")
        opts = solve_options(cfg)
        f = build_factor(sphere, _require(cfg, "factor"), p=opts.p)
        mirror = psolve.mirror_index(sphere)
        if np.max(np.abs(f - f[mirror])) > 1e-10 * np.max(f):
            raise ConfigError("factor is not symmetric about the equator")
        hemi = mesh_mod.extract_hemisphere(sphere)
        f_h = f[hemi.parent_index]
        neumann = psolve.solve_neumann(hemi, f_h, opts)
        w = psolve.reflect_even(neumann.eigenfunction, hemi, sphere)
        quotient = psolve.rayleigh_quotient(sphere, f, opts.p, w)
        dens = conformal.measure_density(sphere, f)
        rho = dens * sphere.vertex_measure
        au = np.abs(w)
        defect = abs(float(np.sum(np.sign(w) * au ** (opts.p - 1.0) * rho)))
        defect /= float(np.sum(au ** (opts.p - 1.0) * rho))
        closed = psolve.solve_closed(sphere, f, opts, extra_starts=[w])
    except (ValueError, OSError) as exc:
        _fail(exc)
    payload = {
        "p": opts.p,
        "lambda_closed": closed.lam,
        "lambda_neumann": neumann.lam,
        "reflected_quotient": quotient,
        "reflection_defect": defect,
        "slack": neumann.lam - closed.lam,
        "inequality_holds": closed.lam <= quotient * (1.0 + 1e-9),
        "converged": closed.converged and neumann.converged,
    }
    write_json(outdir / "results.json", payload)
    if not payload["converged"] or not payload["inequality_holds"]:
        click.echo("flagged: reflection comparison failed", err=True)
        sys.exit(2)
    click.echo(f"closed {closed.lam:.6g} <= neumann {neumann.lam:.6g}")


@main.command("dirichlet-scaling")
@_common
def dirichlet_scaling(config_path, out):
    """Dirichlet eigenvalues on (-eps, eps): the scaled column is constant.

    Config: p, eps (list), n (mesh segments), solver, seed. CSV columns:
    eps, lambda_fem, lambda_fem_scaled, lambda_oracle, lambda_oracle_scaled
    (scaled = lambda * eps^p). Asserts the scaled columns constant within
    1e-6 (FEM, proportionally scaled meshes) and 1e-9 (shooting oracle).
    """
    try:
        cfg = _load_config(config_path)
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        p = float(_require(cfg, "p"))
        eps_list = [float(e) for e in _require(cfg, "eps")]
        n = int(cfg.get("n", 400))
        solver_cfg = dict(cfg.get("solver", {}))
        solver_cfg.setdefault("multistart", 1)
        solver_cfg.setdefault("tolerance", 1e-14)
        solver_cfg.setdefault("residual_target", 1e-9)
        solver_cfg.setdefault("max_iterations", 60000)
        seed = int(cfg.get("seed", 0))
        rows = []
        for eps in eps_list:
            iv = mesh_mod.build_interval(n, -eps, eps)
            opts = _solver_options(p, seed, solver_cfg)
            fem = psolve.solve_dirichlet(iv, opts)
            oracle = psolve.shooting_eigenvalue_1d(p, "dirichlet", eps)
            rows.append([eps, fem.lam, fem.lam * eps ** p,
                         oracle, oracle * eps ** p])
    except (ValueError, OSError, psolve.ConvergenceError) as exc:
        _fail(exc)
    write_csv(outdir / "rows.csv",
              ["eps", "lambda_fem", "lambda_fem_scaled", "lambda_oracle",
               "lambda_oracle_scaled"], rows)
    fem_scaled = [r[2] for r in rows]
    orc_scaled = [r[4] for r in rows]
    fem_ok = max(abs(v / fem_scaled[0] - 1.0) for v in fem_scaled) <= 1e-6
    orc_ok = max(abs(v / orc_scaled[0] - 1.0) for v in orc_scaled) <= 1e-9
    write_json(outdir / "results.json",
               {"fem_constant_1e6": fem_ok, "oracle_constant_1e9": orc_ok,
                "fem_scaled": fem_scaled, "oracle_scaled": orc_scaled})
    if not (fem_ok and orc_ok):
        click.echo("flagged: scaled Dirichlet column is not constant",
                   err=True)
        sys.exit(2)
    click.echo(f"lambda * eps^p = {orc_scaled[0]:.12g} (constant)")


@main.command()
@_common
def balance(config_path, out):
    """Moment balancing plus the balanced-map energy bound.

    Config: mesh (icosphere), p, factor (defines the unit-volume metric and
    the balancing density), tol, solver, seed. Writes pole, t, final moment
    norm, evaluations, the energy bound, the solved eigenvalue and the
    slack; exit 2 when balancing does not reach tol.
    """
    try:
        cfg = _load_config(config_path)
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        mesh = build_mesh(_require(cfg, "mesh"))
        if mesh.kind != "sphere":
            raise ConfigError("balancing needs an icosphere mesh")
        opts = solve_options(cfg)
        f = build_factor(mesh, _require(cfg, "factor"), p=opts.p)
        f = conformal.normalize_unit_volume(mesh, f)
        tol = float(cfg.get("tol", 1e-6))
        density = conformal.measure_density(mesh, f)
        result = mobius.balance(mesh, mesh.vertices, density, opts.p, tol=tol)
        psi = result.map.apply(mesh.vertices)
        bound = mobius.balanced_energy_bound(mesh, f, psi, opts.p, tol=tol)
        rho = density * mesh.vertex_measure
        starts = []
        for i in range(psi.shape[1]):
            shift = psolve.p_shift(psi[:, i], rho, opts.p)
            starts.append(psi[:, i] - shift)
        solved = psolve.solve_closed(mesh, f, opts, extra_starts=starts)
    except (ValueError, OSError) as exc:
        _fail(exc)
    payload = result.to_json()
    payload.update({
        "p": opts.p,
        "energy_bound": bound,
        "lambda": solved.lam,
        "slack": bound - solved.lam,
        "bound_holds": solved.lam <= bound * (1.0 + 1e-9),
    })
    write_json(outdir / "results.json", payload)
    if not result.converged:
        click.echo("flagged: balancing did not reach tolerance", err=True)
        sys.exit(2)
    click.echo(f"moment norm {result.moment_norm:.3g}, "
               f"lambda {solved.lam:.6g} <= bound {bound:.6g}")


if __name__ == "__main__":
    main()
