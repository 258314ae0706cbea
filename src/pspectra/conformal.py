"""Conformal factors and the weighted measures/energies they induce.

A conformal factor is a strictly positive vertex field f multiplying the
base metric. In dimension m it weighs volume by f^(m/2) and the p-energy
density by f^((m-p)/2); powers are applied pointwise at vertices before
quadrature, consistent with the first-order scheme.
"""

from __future__ import annotations

import numpy as np

from .mesh import _read_numeric_csv, check_field, integrate

__all__ = [
    "check_conformal_factor",
    "measure_density",
    "energy_density_weight",
    "band_plateau_factor",
    "smooth_band_plateau_factor",
    "volume",
    "normalize_unit_volume",
    "random_smooth_factor",
    "cap_density",
    "save_factor_csv",
    "load_factor_csv",
]


def check_conformal_factor(mesh, f):
    """Validate a conformal factor: aligned, finite, strictly positive."""
    f = check_field(mesh, f, "conformal factor")
    if np.any(f <= 0.0):
        raise ValueError("conformal factor must be strictly positive")
    return f


def measure_density(mesh, f):
    """Pointwise f^(m/2): volume density of f*g against the base measure."""
    f = check_conformal_factor(mesh, f)
    return f ** (mesh.dim / 2.0)


def energy_density_weight(mesh, f, p):
    """Pointwise f^((m-p)/2): weight turning base |du|^p into the f*g energy."""
    f = check_conformal_factor(mesh, f)
    exponent = (mesh.dim - p) / 2.0
    if exponent == 0.0:
        return np.ones_like(f)
    return f ** exponent


def plateau_value(eps, p, m):
    """Plateau level eps^(4p / (m (p - m))), defined for p > m."""
    if p <= m:
        raise ValueError("plateau factors need p > m")
    if not 0.0 < eps < np.pi / 2:
        raise ValueError("eps must lie in (0, pi/2)")
    return eps ** (4.0 * p / (m * (p - m)))


def _resolution_guard(mesh, eps):
    span = mesh.max_edge_colatitude_span
    if eps < 4.0 * span:
        raise ValueError(
            f"eps={eps:g} under-resolved: needs >= 4 element layers "
            f"(4 * max edge span = {4.0 * span:g})")


def band_plateau_factor(mesh, eps, p):
    """Radial factor: 1 on the open band of colatitudes (pi/2-eps, pi/2+eps),
    a tiny plateau eps^(4p/(m(p-m))) elsewhere.

    The band must be resolved by at least 4 element layers.
    """
    _resolution_guard(mesh, eps)
    m = mesh.dim
    r = mesh.colatitudes
    low = plateau_value(eps, p, m)
    in_band = (r > np.pi / 2 - eps) & (r < np.pi / 2 + eps)
    return np.where(in_band, 1.0, low)


def _smoothstep(x):
    # quintic, zero first and second derivatives at both ends
    x = np.clip(x, 0.0, 1.0)
    return x * x * x * (x * (6.0 * x - 15.0) + 10.0)


def smooth_band_plateau_factor(mesh, eps, p):
    """Smooth radial factor dominated by :func:`band_plateau_factor`.

    Equals 1 on [pi/2-eps/2, pi/2+eps/2], the plateau value outside
    [pi/2-eps, pi/2+eps], interpolates with a quintic smoothstep in between,
    and is symmetric about the equator: f(pi - r) = f(r).
    """
    _resolution_guard(mesh, eps)
    m = mesh.dim
    r = mesh.colatitudes
    low = plateau_value(eps, p, m)
    d = np.abs(r - np.pi / 2)  # symmetric in r -> pi - r by construction
    s = _smoothstep((eps - d) / (eps / 2.0))  # 0 at d=eps, 1 at d=eps/2
    return low + (1.0 - low) * s


def volume(mesh, f):
    """Total measure of the conformal metric f*g."""
    return integrate(mesh, measure_density(mesh, f))


def normalize_unit_volume(mesh, f):
    """Rescale f so the conformal metric has unit volume."""
    vol = volume(mesh, f)
    if not vol > 0.0:
        raise ValueError("cannot normalize a factor of non-positive volume")
    return f * vol ** (-2.0 / mesh.dim)


# -- field generators (seeded, smooth) --------------------------------------

def _harmonic_basis(points):
    x, y, z = points.T
    return np.stack([x, y, z, x * y, y * z, z * x,
                     x * x - y * y, 3.0 * z * z - 1.0])


def random_smooth_factor(mesh, seed, amplitude=1.0, symmetric=False):
    """Positive factor exp(field) from a seeded low-order harmonic field.

    With ``symmetric=True`` only even-in-z terms are used, so the factor is
    invariant under reflection across the pole's equator.
    """
    if mesh.dim == 1 and mesh.length is None:
        raise ValueError("a random_smooth factor needs a circle, icosphere "
                         "or hemisphere mesh")
    rng = np.random.default_rng(seed)
    basis = _harmonic_basis(mesh.vertices) if mesh.dim == 2 else None
    if basis is None:
        theta = 2.0 * np.pi * mesh.vertices / mesh.length
        basis = np.stack([np.cos(theta), np.sin(theta),
                          np.cos(2 * theta), np.sin(2 * theta)])
    coeff = rng.standard_normal(basis.shape[0])
    if symmetric and mesh.dim == 2:
        coeff[[2, 4, 5]] = 0.0  # drop z, yz, zx (odd in z)
    field = coeff @ basis
    scale = np.max(np.abs(field))
    if scale > 0:
        field *= amplitude / scale
    return np.exp(field)


def cap_density(mesh, direction, concentration=8.0):
    """Positive density concentrated in a spherical cap around `direction`."""
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    return np.exp(concentration * (mesh.vertices @ direction - 1.0))


# -- serialization -----------------------------------------------------------

def save_factor_csv(values, path):
    """Write a vertex field as CSV rows (vertex index, value)."""
    with open(path, "w") as fh:
        fh.write("vertex,value\n")
        for i, v in enumerate(np.asarray(values, dtype=float)):
            fh.write("%d,%.17g\n" % (i, v))


def load_factor_csv(path):
    """Read a vertex field written by :func:`save_factor_csv`."""
    _, rows = _read_numeric_csv(path, 2, n_header=1)
    return rows[:, 1]
