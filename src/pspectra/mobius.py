"""Conformal dilations of the sphere, moment balancing and the balanced-map
energy bound.

The non-isometric part of the sphere's conformal group is the family of
dilations gamma(a, t): conjugate a Euclidean dilation of factor
e^((1-t)/t) by the stereographic projection of pole a, which is the
Lorentz boost of rapidity (1-t)/t along a on the light cone. Rotations are
omitted everywhere: they are isometries of the round metric, so pullback
volumes and the feasibility of moment balancing are unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import root

from .conformal import measure_density
from .mesh import check_field
from .psolve import weighted_problem

__all__ = [
    "MobiusMap",
    "BalanceResult",
    "moment_vector",
    "balance",
    "balanced_energy_bound",
]


@dataclass(frozen=True)
class MobiusMap:
    """Dilation gamma(a, t) of the sphere: expansion toward the pole a.

    t = 1 is the identity; the dilation factor is e^((1-t)/t). The fixed
    points are a and -a.
    """

    pole: np.ndarray
    t: float

    def __post_init__(self):
        pole = np.asarray(self.pole, dtype=float)
        if abs(np.linalg.norm(pole) - 1.0) > 1e-12:
            raise ValueError("pole must be a unit vector")
        if not 0.0 < self.t <= 1.0:
            raise ValueError("t must lie in (0, 1]")
        pole = pole.copy()
        pole.setflags(write=False)
        object.__setattr__(self, "pole", pole)

    @property
    def log_dilation(self):
        return (1.0 - self.t) / self.t

    def inverse(self):
        """The inverse dilation: same t, pole flipped to the antipode.

        (Contracting toward -a by the same factor undoes the expansion
        toward a; the formal t' with negated log-dilation leaves (0, 1].)
        """
        return MobiusMap(-np.asarray(self.pole), self.t)

    def apply(self, x):
        """Apply the map to points of the sphere (vectorized).

        The dilation is the Lorentz boost of rapidity kappa = log_dilation
        along a: with s = x.a, w = x - s a, c = 1 + s and e = 1 - tanh kappa
        the image is ((c - e) a + sech(kappa) w) / (c - s e), which turns the
        angle theta to a into 2 atan(e^-kappa tan(theta/2)). As kappa grows,
        e and sech kappa underflow to 0 and the image saturates at a.
        """
        single = np.asarray(x).ndim == 1
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.t == 1.0:
            out = x.copy()
            return out[0] if single else out
        a = self.pole
        q = math.exp(-2.0 * self.log_dilation)
        e, sech = 2.0 * q / (1.0 + q), 2.0 * math.sqrt(q) / (1.0 + q)
        # points are columns, so every elementwise pass runs along one long
        # axis; for s < 0, c = |w|^2 / (1 - s) keeps the digits of 1 + s
        xt = x.T
        s = a @ xt
        w = xt - a[:, None] * s
        c = np.where(s < 0.0, np.einsum("ij,ij->j", w, w) / (1.0 + np.abs(s)),
                     1.0 + s)
        den = c - s * e
        out = a[:, None] * (c - e) + sech * w
        # den = 0 only once e and c underflow, within 1e-162 of the fixed -a
        fixed = den == 0.0
        out[:, fixed], den[fixed] = -a[:, None], 1.0
        out /= den
        return out.T[0] if single else out.T

    def to_json(self):
        return {"pole": list(map(float, self.pole)), "t": float(self.t)}


def moment_vector(mesh, phi, density, p, mobius_map):
    """Normalized coordinate p-moments of the mapped mesh.

    Component i is the integral of |psi_i|^(p-2) psi_i against the density,
    divided by the total density mass, where psi = gamma o phi. Both
    integrals use the lumped vertex measure (equal in exact arithmetic to
    the element-mean quadrature of :func:`~pspectra.mesh.integrate`).
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape[0] != mesh.n_vertices:
        raise ValueError("mapped points misaligned with the mesh")
    density = check_field(mesh, density, "density")
    if np.any(density < 0.0):
        raise ValueError("density must be nonnegative")
    w = mesh.vertex_measure * density
    total = float(w.sum())
    if total <= 0.0:
        raise ValueError("density has zero total mass")
    psi = mobius_map.apply(phi)
    return (np.sign(psi) * np.abs(psi) ** (p - 1.0)).T @ w / total


@dataclass
class BalanceResult:
    """Balancing output: the map, its final moment norm, search effort."""

    map: MobiusMap
    moment_norm: float
    evaluations: int
    converged: bool

    def to_json(self):
        return {
            "pole": list(map(float, self.map.pole)),
            "t": float(self.map.t),
            "moment_norm": self.moment_norm,
            "evaluations": self.evaluations,
            "converged": self.converged,
        }


_MIN_T = 1e-6
# continuation in p: equal steps from 2, halved on a miss down to the floor
_STAGES = 4
_MIN_STEP = 1e-3


def _check_tol(tol):
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be positive")


def _params_to_map(v):
    kappa = float(np.linalg.norm(v))
    if kappa == 0.0:
        return MobiusMap(np.array([0.0, 0.0, 1.0]), 1.0)
    t = max(1.0 / (1.0 + kappa), _MIN_T)
    return MobiusMap(np.asarray(v) / kappa, t)


def _moments(v, mesh, phi, density, q):
    return moment_vector(mesh, phi, density, q, _params_to_map(v))


def balance(mesh, phi, density, p, tol=1e-6):
    """Find a dilation whose coordinate p-moments all vanish.

    Root finding (MINPACK hybrd, finite-difference Jacobian) on the moment
    map v -> moment_vector at q in the unconstrained parameterization
    v = kappa * pole (continuous at v = 0, where the map is the identity).
    The first root is the conformal barycenter at q = 2, which exists and is
    unique, found from v = 0; q then walks from 2 to p in equal steps, each
    started from the previous root, and a step whose root misses tol is
    halved. Below a fixed step floor the search stops and returns the best
    root found at p, flagged as not converged. `evaluations` counts the
    moment_vector calls, Jacobian differences included.
    """
    _check_tol(tol)
    phi = np.asarray(phi, dtype=float)
    if phi.shape[1] != 3:
        raise ValueError("balancing search is implemented for maps into S^2")
    evaluations = 0
    best = None

    def solve(v, q):
        nonlocal evaluations, best
        # the data go in args: root keeps the function it wraps in a
        # reference cycle, which would hold a closure's mesh until a gc
        sol = root(_moments, v, args=(mesh, phi, density, q), method="hybr",
                   options={"xtol": 1e-14})
        evaluations += sol.nfev
        norm = float(np.linalg.norm(sol.fun))
        if q == p and (best is None or norm < best[1]):
            best = (sol.x, norm)
        return sol.x, norm

    v, _ = solve(np.zeros(3), 2.0)
    q, step = 2.0, (p - 2.0) / _STAGES
    while q != p:
        q_next = p if abs(p - q) <= abs(step) * (1.0 + 1e-9) else q + step
        v_next, norm = solve(v, q_next)
        if norm <= tol:
            q, v = q_next, v_next
        elif abs(step) >= 2.0 * _MIN_STEP:
            step /= 2.0
        else:
            if best is None:
                solve(v, p)
            break
    v, norm = best
    return BalanceResult(_params_to_map(v), norm, evaluations, norm <= tol)


def balanced_energy_bound(mesh, f, psi, p, tol=1e-6):
    """Upper bound for the first eigenvalue from a balanced sphere map.

    For a unit-volume metric f * base and a map psi into the sphere whose
    coordinate p-moments vanish, the eigenvalue is at most
    (n+1)^|p/2 - 1| times the p-energy of psi under that metric (the energy
    uses the Hilbert-Schmidt gradient norm across the n+1 coordinates).
    Inputs with moment norm above 10 * tol are rejected.
    """
    _check_tol(tol)
    prob = weighted_problem(mesh, f, p)
    psi = np.asarray(psi, dtype=float)
    n1 = psi.shape[1]
    density = measure_density(mesh, f)
    ident = MobiusMap(np.array([0.0] * (n1 - 1) + [1.0]), 1.0)
    defect = float(np.linalg.norm(moment_vector(mesh, psi, density, p, ident)))
    if defect > 10.0 * tol:
        raise ValueError(f"map is not balanced (moment norm {defect:g})")
    hs = np.zeros(mesh.n_elements)
    for i in range(n1):
        hs += prob.gradsq(psi[:, i])
    energy = float(np.sum(prob.nw * hs ** (p / 2.0)))
    return (n1) ** abs(p / 2.0 - 1.0) * energy

