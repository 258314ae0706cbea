"""Closed-form upper bounds for the first eigenvalue and their verification
against solved values."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .conformal import volume
from .psolve import solve_closed

__all__ = [
    "BoundReport",
    "conformal_volume_bound",
    "genus_surface_bound",
    "canonical_conformal_volume",
    "verify_bound",
]

MESH_SLACK = 0.02  # default relative slack covering discretization bias


def conformal_volume_bound(p, m, n, vnc):
    """m^(p/2) (n+1)^|p/2-1| vnc^(p/m) for 1 < p <= m <= n, vnc > 0."""
    if not 1.0 < p <= m:
        raise ValueError("bound requires 1 < p <= m")
    if not m <= n:
        raise ValueError("bound requires m <= n")
    if not vnc > 0.0:
        raise ValueError("conformal volume must be positive")
    return m ** (p / 2.0) * (n + 1) ** abs(p / 2.0 - 1.0) * vnc ** (p / m)


def genus_surface_bound(p, genus, orientable=True):
    """Surface bound k_p * floor((genus+3)/2)^(p/2) for 1 < p <= 2.

    k_p = 3^|p/2-1| (8 pi)^(p/2) for orientable surfaces,
    5^|p/2-1| (24 pi)^(p/2) otherwise.
    """
    if not 1.0 < p <= 2.0:
        raise ValueError("surface bound requires 1 < p <= 2")
    if genus < 0 or genus != int(genus):
        raise ValueError("genus must be a nonnegative integer")
    if orientable:
        kp = 3.0 ** abs(p / 2.0 - 1.0) * (8.0 * math.pi) ** (p / 2.0)
    else:
        kp = 5.0 ** abs(p / 2.0 - 1.0) * (24.0 * math.pi) ** (p / 2.0)
    return kp * float((int(genus) + 3) // 2) ** (p / 2.0)


def canonical_conformal_volume(manifold, lam2=None):
    """Conformal volume of the round circle or sphere in its own class.

    Equals the volume of the manifold rescaled by (first Laplace eigenvalue
    over dimension); for the round metrics that factor is one, so the value
    is the plain volume (2 pi for the circle, 4 pi for the sphere). Passing
    a measured first eigenvalue `lam2` evaluates the identity with it
    instead of assuming the exact value.
    """
    table = {"S1": (1, 2.0 * math.pi), "S2": (2, 4.0 * math.pi)}
    if manifold not in table:
        raise ValueError(f"unsupported manifold tag {manifold!r}")
    m, vol = table[manifold]
    if lam2 is None:
        return vol
    return (lam2 / m) ** (m / 2.0) * vol


@dataclass
class BoundReport:
    """One bound-versus-solve comparison."""

    bound_value: float
    computed_lambda: float
    slack: float
    parameters: dict
    tolerance: float

    @property
    def passed(self):
        return self.computed_lambda <= self.bound_value * (1.0 + self.tolerance)

    def to_json(self):
        return {
            "bound_value": self.bound_value,
            "computed_lambda": self.computed_lambda,
            "slack": self.slack,
            "parameters": self.parameters,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def verify_bound(mesh, f, opts, source="conformal_volume", genus=0,
                 orientable=True, tolerance=MESH_SLACK):
    """Solve the first eigenvalue for a unit-volume factor and compare it
    with the requested closed-form bound.

    `source` is "conformal_volume" (with n = m and the canonical conformal
    volume of the round mesh) or "genus_surface".
    """
    p = opts.p
    m = mesh.dim
    vol = volume(mesh, f)
    if abs(vol - 1.0) > 1e-6:
        raise ValueError(f"factor is not volume-normalized (volume {vol:g})")
    if not 1.0 < p <= m:
        raise ValueError("bound verification requires 1 < p <= m")
    if source == "conformal_volume":
        vnc = canonical_conformal_volume("S2" if m == 2 else "S1")
        bound = conformal_volume_bound(p, m, m, vnc)
        params = {"p": p, "m": m, "n": m, "vnc": vnc}
    elif source == "genus_surface":
        bound = genus_surface_bound(p, genus, orientable)
        params = {"p": p, "genus": genus, "orientable": orientable}
    else:
        raise ValueError(f"unknown bound source {source!r}")
    result = solve_closed(mesh, f, opts)
    lam = result.lam
    return BoundReport(
        bound_value=float(bound),
        computed_lambda=float(lam),
        slack=float(bound - lam),
        parameters=params,
        tolerance=tolerance,
    )
