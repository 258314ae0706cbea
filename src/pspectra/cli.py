"""Experiment commands producing CSV/JSON/SVG artifacts.

Every command reads a single JSON config (all physical parameters explicit),
writes into --out, and is deterministic for a fixed (config, seed): reruns
produce byte-identical CSV up to the timestamp header line. Exit codes:
0 success, 1 validation, usage or I/O error, 2 flagged numerical
non-convergence.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from . import bounds as bounds_mod
from . import conformal, mesh as mesh_mod, mobius, psolve

FMT = "%.17g"


class ConfigError(ValueError):
    pass


_REQUIRED = object()
_JSON_TYPES = {float: "JSON number", int: "JSON integer", bool: "JSON boolean",
               str: "JSON string", dict: "JSON object",
               list: "non-empty JSON array of numbers"}


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return cfg


def _is(value, kind):
    """Whether a JSON value reads as kind: booleans are not numbers, every
    number reads as a float and an integral one as an int."""
    if isinstance(value, bool):
        return kind is bool
    if kind is int and isinstance(value, float):
        return value.is_integer()
    if kind is list:
        return (isinstance(value, list) and len(value) > 0
                and all(_is(v, float) for v in value))
    return isinstance(value, (int, float) if kind is float else kind)


def _get(cfg, key, kind, default=_REQUIRED):
    """cfg[key] read as kind: float, int, bool, str, dict, or list (of
    numbers, read as floats). ConfigError when the key is missing and has no
    default, or when its value has another JSON type."""
    if key not in cfg:
        if default is _REQUIRED:
            raise ConfigError(f"config is missing required key {key!r}")
        return default
    value = cfg[key]
    if not _is(value, kind):
        raise ConfigError(f"config key {key!r} must be a {_JSON_TYPES[kind]}")
    return [float(v) for v in value] if kind is list else kind(value)


def build_mesh(spec):
    kind = _get(spec, "kind", str)
    if kind == "interval":
        return mesh_mod.build_interval(_get(spec, "n", int),
                                       _get(spec, "a", float),
                                       _get(spec, "b", float))
    if kind == "circle":
        return mesh_mod.build_circle(_get(spec, "n", int),
                                     _get(spec, "length", float))
    if kind == "icosphere":
        return mesh_mod.build_icosphere(_get(spec, "level", int))
    if kind == "hemisphere":
        sphere = mesh_mod.build_icosphere(_get(spec, "level", int))
        return mesh_mod.extract_hemisphere(sphere)
    if kind == "off":
        return mesh_mod.load_off(_get(spec, "path", str))
    if kind == "csv":
        return mesh_mod.load_mesh_csv(_get(spec, "path", str))
    raise ConfigError(f"unknown mesh kind {kind!r}")


def build_factor(mesh, spec, p):
    kind = _get(spec, "kind", str)
    if kind == "constant":
        f = np.full(mesh.n_vertices, _get(spec, "value", float, 1.0))
    elif kind == "random_smooth":
        f = conformal.random_smooth_factor(
            mesh, _get(spec, "seed", int),
            amplitude=_get(spec, "amplitude", float, 1.0),
            symmetric=_get(spec, "symmetric", bool, False))
    elif kind == "band_plateau":
        builder = (conformal.smooth_band_plateau_factor
                   if _get(spec, "smooth", bool, True)
                   else conformal.band_plateau_factor)
        f = builder(mesh, _get(spec, "eps", float), p)
    elif kind == "cap":
        direction = _get(spec, "direction", list)
        if mesh.dim != 2:
            raise ConfigError("a cap factor needs an icosphere or hemisphere "
                              "mesh")
        if len(direction) != 3 or not 0.0 < np.linalg.norm(direction) < np.inf:
            raise ConfigError("cap direction must be a nonzero vector of 3 "
                              "numbers")
        f = conformal.cap_density(mesh, direction,
                                  _get(spec, "concentration", float, 8.0))
    elif kind == "csv":
        f = conformal.load_factor_csv(_get(spec, "path", str))
        f = mesh_mod.check_field(mesh, f, "factor file")
    else:
        raise ConfigError(f"unknown factor kind {kind!r}")
    if _get(spec, "normalize", bool, False):
        f = conformal.normalize_unit_volume(mesh, f)
    return f


def solve_options(cfg, **defaults):
    """SolveOptions from the config's p and solver block; defaults are a
    command's own values for keys the solver block leaves unset. The
    config's seed and the block's tolerance (> 0), multistart (>= 1) and
    seed are checked but set nothing: the solver draws no random starts."""
    solver = {**defaults, **_get(cfg, "solver", dict, {})}
    kinds = {f.name: type(f.default)
             for f in dataclasses.fields(psolve.SolveOptions)
             if f.name != "p"}
    kinds.update(tolerance=float, multistart=int, seed=int)
    unknown = sorted(set(solver) - set(kinds))
    if unknown:
        raise ConfigError(f"invalid solver config: unknown keys {unknown}")
    opts = {key: _get(solver, key, kinds[key]) for key in solver}
    _get(cfg, "seed", int, opts.pop("seed", 0))
    p = _get(cfg, "p", float)
    if not opts.pop("tolerance", 1.0) > 0.0:
        raise ConfigError("tolerance must be positive")
    if opts.pop("multistart", 1) < 1:
        raise ConfigError("multistart must be at least 1")
    return psolve.SolveOptions(p=p, **opts)


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


class _Group(click.Group):
    """A group whose usage errors (an unknown command or option, a missing
    option or option argument, no command at all) exit 1 like every other
    invalid input; exit 2 stays reserved for flagged results."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = 1
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = 1
            raise


@click.group(cls=_Group)
def main():
    """First-eigenvalue experiments on weighted circles and spheres.

    All commands take --config FILE.json and write artifacts to --out.
    """


def command(body):
    """Register body(cfg, outdir) as a command of main.

    The body returns its results payload, a flag message or None, and its
    success line. The command loads --config, creates --out and writes the
    payload to results.json; a validation, I/O or convergence error exits 1
    with its message, a flag exits 2 once the results are written.
    """
    @main.command()
    @click.option("--config", "config_path", required=True,
                  type=click.Path(), help="JSON config file.")
    @click.option("--out", default="pspectra_out", show_default=True,
                  help="Output directory.")
    @functools.wraps(body)
    def run(config_path, out):
        try:
            cfg = _load_config(config_path)
            outdir = Path(out)
            outdir.mkdir(parents=True, exist_ok=True)
            payload, flag, message = body(cfg, outdir)
            write_json(outdir / "results.json", payload)
        except (ValueError, OSError, psolve.ConvergenceError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        if flag is not None:
            click.echo(f"flagged: {flag}", err=True)
            sys.exit(2)
        click.echo(message)
    return run


@command
def eigen(cfg, outdir):
    """Solve one eigenvalue problem.

    Config: mesh, p, factor, problem (closed|neumann|dirichlet), solver,
    seed. Writes results.json, eigenfunction.csv and the mesh file.
    """
    mesh = build_mesh(_get(cfg, "mesh", dict))
    opts = solve_options(cfg)
    problem = _get(cfg, "problem", str, "closed")
    if problem == "dirichlet":
        result = psolve.solve_dirichlet(mesh, opts)
    elif problem in ("closed", "neumann"):
        f = build_factor(mesh, _get(cfg, "factor", dict), p=opts.p)
        solve = (psolve.solve_closed if problem == "closed"
                 else psolve.solve_neumann)
        result = solve(mesh, f, opts)
    else:
        raise ConfigError(f"unknown problem {problem!r}")
    conformal.save_factor_csv(result.eigenfunction,
                              outdir / "eigenfunction.csv")
    _save_mesh(mesh, outdir)
    flag = (None if result.converged
            else "solver did not meet its convergence criteria")
    return ({**result.to_json(), "p": opts.p, "problem": problem}, flag,
            f"lambda = {result.lam:.12g}")


def _sweep_case(mesh, eps, opts, warm):
    f = conformal.smooth_band_plateau_factor(mesh, eps, opts.p)
    vol = conformal.volume(mesh, f)
    result = psolve.solve_closed(
        mesh, f, opts, extra_starts=None if warm is None else [warm])
    q = opts.p / mesh.dim  # the exponent of the scaling laws
    return {
        "eps": eps,
        "lambda": result.lam,
        "volume": vol,
        "lambda_eps_scaled": result.lam * eps ** q,
        "lambda_unit_volume": vol ** q * result.lam,
        "converged": result.converged,
        "eigenfunction": result.eigenfunction,
    }


@command
def sweep_eps(cfg, outdir):
    """Blow-up sweep on one mesh: for each eps build the smooth band/plateau
    factor, solve from the previous eps's eigenfunction, and check the
    growth trend.

    Config: mesh (circle|icosphere), p (> mesh dimension), eps (decreasing
    list), solver, seed. CSV columns: eps, lambda (pre-normalization
    eigenvalue of the band/plateau metric), volume (before normalization),
    lambda_eps_scaled (lambda * eps^(p/m)), lambda_unit_volume (eigenvalue
    of the unit-volume metric via the exact scaling law). Asserts lambda
    strictly increasing and lambda_eps_scaled nondecreasing along
    decreasing eps; exit 2 when the trend or convergence fails.
    """
    mesh = build_mesh(_get(cfg, "mesh", dict))
    opts = solve_options(cfg)
    if opts.p <= mesh.dim:
        raise ConfigError("blow-up sweep needs p > mesh dimension")
    eps_list = _get(cfg, "eps", list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("eps list must be strictly decreasing")
    for eps in eps_list:
        conformal.smooth_band_plateau_factor(mesh, eps, opts.p)  # validates
    rows, warm = [], None
    for eps in eps_list:
        rows.append(_sweep_case(mesh, eps, opts, warm))
        warm = rows[-1]["eigenfunction"]
    columns = ["eps", "lambda", "volume", "lambda_eps_scaled",
               "lambda_unit_volume"]
    write_csv(outdir / "rows.csv", columns,
              [[r[c] for c in columns] for r in rows])
    lams = [r["lambda"] for r in rows]
    write_svg_loglog(outdir / "chart.svg", eps_list, lams,
                     "eigenvalue blow-up sweep", "eps", "lambda")
    _save_mesh(mesh, outdir)
    scaled = [r["lambda_eps_scaled"] for r in rows]
    increasing = all(b > a for a, b in zip(lams, lams[1:]))
    nondecreasing = all(b >= a for a, b in zip(scaled, scaled[1:]))
    all_converged = all(r["converged"] for r in rows)
    payload = {
        "eps": eps_list, "lambda": lams, "lambda_eps_scaled": scaled,
        "strictly_increasing": increasing,
        "scaled_nondecreasing": nondecreasing,
        "converged": all_converged,
    }
    flag = (None if increasing and nondecreasing and all_converged
            else "blow-up trend or convergence failed")
    return (payload, flag,
            f"lambda grew {lams[-1] / lams[0]:.3g}x over the sweep")


@command
def verify_bound(cfg, outdir):
    """Check solved eigenvalues against the closed-form upper bound.

    Config: mesh (icosphere), p (1 < p <= 2), n_factors, amplitude, seed,
    source (conformal_volume|genus_surface), genus, orientable, slack and
    solver. One CSV row per sampled unit-volume factor (columns: case,
    bound_value, computed_lambda, slack, passed); the round factor is
    case 0. Nonzero exit if any case fails.
    """
    mesh = build_mesh(_get(cfg, "mesh", dict))
    opts = solve_options(cfg, residual_target=1e-3, max_iterations=9000)
    seed = _get(cfg, "seed", int, 0)
    n_factors = _get(cfg, "n_factors", int, 5)
    slack = _get(cfg, "slack", float, bounds_mod.MESH_SLACK)
    if n_factors < 0:
        raise ConfigError("config key 'n_factors' must be nonnegative")
    if not 0.0 <= slack < np.inf:
        raise ConfigError("config key 'slack' must be finite and nonnegative")
    amplitude = _get(cfg, "amplitude", float, 1.0)
    source = _get(cfg, "source", str, "conformal_volume")
    genus = _get(cfg, "genus", int, 0)
    orientable = _get(cfg, "orientable", bool, True)
    reports = []
    for factor_seed in [None] + [seed + i for i in range(n_factors)]:
        f = (np.ones(mesh.n_vertices) if factor_seed is None
             else conformal.random_smooth_factor(mesh, factor_seed,
                                                 amplitude=amplitude))
        f = conformal.normalize_unit_volume(mesh, f)
        reports.append(bounds_mod.verify_bound(
            mesh, f, opts, source=source, genus=genus, orientable=orientable,
            tolerance=slack))
    rows = [[i, r.bound_value, r.computed_lambda, r.slack, int(r.passed)]
            for i, r in enumerate(reports)]
    write_csv(outdir / "rows.csv",
              ["case", "bound_value", "computed_lambda", "slack", "passed"],
              rows)
    passed = all(r.passed for r in reports)
    return ({"reports": [r.to_json() for r in reports], "all_passed": passed},
            None if passed else "bound violated",
            f"all {len(reports)} cases within the bound")


@command
def reflect(cfg, outdir):
    """Even-reflection comparison: closed sphere vs hemisphere Neumann.

    Config: mesh (icosphere), p, factor (must satisfy f(r) = f(pi - r)),
    solver, seed. Writes the two eigenvalues, the reflected-field quotient,
    the constraint defect of the reflection, and the inequality slack.
    """
    sphere = build_mesh(_get(cfg, "mesh", dict))
    if sphere.kind != "sphere":
        raise ConfigError("reflection needs an icosphere mesh")
    opts = solve_options(cfg)
    f = build_factor(sphere, _get(cfg, "factor", dict), p=opts.p)
    mirror = psolve.mirror_index(sphere)
    if np.max(np.abs(f - f[mirror])) > 1e-10 * np.max(f):
        raise ConfigError("factor is not symmetric about the equator")
    hemi = mesh_mod.extract_hemisphere(sphere)
    neumann = psolve.solve_neumann(hemi, f[hemi.parent_index], opts)
    w = psolve.reflect_even(neumann.eigenfunction, hemi, sphere)
    quotient = psolve.rayleigh_quotient(sphere, f, opts.p, w)
    defect = psolve.weighted_problem(sphere, f, opts.p).constraint_defect(w)
    closed = psolve.solve_closed(sphere, f, opts, extra_starts=[w])
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
    flag = (None if payload["converged"] and payload["inequality_holds"]
            else "reflection comparison failed")
    return (payload, flag,
            f"closed {closed.lam:.6g} <= neumann {neumann.lam:.6g}")


@command
def dirichlet_scaling(cfg, outdir):
    """Dirichlet eigenvalues on (-eps, eps): the scaled column is constant.

    Config: p, eps (list), n (mesh segments), solver, seed. CSV columns:
    eps, lambda_fem, lambda_fem_scaled, lambda_oracle, lambda_oracle_scaled
    (scaled = lambda * eps^p). Asserts the scaled columns constant within
    1e-6 (FEM, proportionally scaled meshes) and 1e-9 (shooting oracle).
    """
    opts = solve_options(cfg, residual_target=1e-9, max_iterations=60000)
    p = opts.p
    n = _get(cfg, "n", int, 400)
    eps_list = _get(cfg, "eps", list)
    oracles = psolve.shooting_eigenvalue_1d(p, "dirichlet", eps_list)
    rows = []
    for eps, oracle in zip(eps_list, oracles):
        fem = psolve.solve_dirichlet(mesh_mod.build_interval(n, -eps, eps),
                                     opts)
        rows.append([eps, fem.lam, fem.lam * eps ** p,
                     oracle, oracle * eps ** p])
    write_csv(outdir / "rows.csv",
              ["eps", "lambda_fem", "lambda_fem_scaled", "lambda_oracle",
               "lambda_oracle_scaled"], rows)
    fem_scaled = [r[2] for r in rows]
    orc_scaled = [r[4] for r in rows]
    fem_ok = max(abs(v / fem_scaled[0] - 1.0) for v in fem_scaled) <= 1e-6
    orc_ok = max(abs(v / orc_scaled[0] - 1.0) for v in orc_scaled) <= 1e-9
    return ({"fem_constant_1e6": fem_ok, "oracle_constant_1e9": orc_ok,
             "fem_scaled": fem_scaled, "oracle_scaled": orc_scaled},
            None if fem_ok and orc_ok
            else "scaled Dirichlet column is not constant",
            f"lambda * eps^p = {orc_scaled[0]:.12g} (constant)")


@command
def balance(cfg, outdir):
    """Moment balancing plus the balanced-map energy bound.

    Config: mesh (icosphere), p, factor (defines the unit-volume metric and
    the balancing density), tol, solver, seed. Writes pole, t, final moment
    norm, evaluations, the energy bound, the solved eigenvalue and the
    slack; exit 2 when balancing does not reach tol or the eigenvalue
    exceeds the bound.
    """
    mesh = build_mesh(_get(cfg, "mesh", dict))
    if mesh.kind != "sphere":
        raise ConfigError("balancing needs an icosphere mesh")
    opts = solve_options(cfg)
    f = build_factor(mesh, _get(cfg, "factor", dict), p=opts.p)
    f = conformal.normalize_unit_volume(mesh, f)
    tol = _get(cfg, "tol", float, 1e-6)
    density = conformal.measure_density(mesh, f)
    result = mobius.balance(mesh, mesh.vertices, density, opts.p, tol=tol)
    psi = result.map.apply(mesh.vertices)
    # a missed balance is flagged below, with the energy of the map it found
    bound = mobius.balanced_energy_bound(
        mesh, f, psi, opts.p, tol=max(tol, result.moment_norm))
    solved = psolve.solve_closed(mesh, f, opts, extra_starts=list(psi.T))
    payload = {
        **result.to_json(),
        "p": opts.p,
        "energy_bound": bound,
        "lambda": solved.lam,
        "slack": bound - solved.lam,
        "bound_holds": solved.lam <= bound * (1.0 + 1e-9),
    }
    flag = ("balancing did not reach tolerance" if not result.converged
            else None if payload["bound_holds"]
            else "eigenvalue exceeds the balanced energy bound")
    return (payload, flag, f"moment norm {result.moment_norm:.3g}, "
                           f"lambda {solved.lam:.6g} <= bound {bound:.6g}")


if __name__ == "__main__":
    main()
