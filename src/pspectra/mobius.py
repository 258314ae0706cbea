"""Conformal dilations of the sphere, moment balancing and the balanced-map
energy bound.

The non-isometric part of the sphere's conformal group is the family of
dilations gamma(a, t): conjugate a Euclidean dilation of factor
e^((1-t)/t) by the stereographic projection of pole a. Rotations are
omitted everywhere: they are isometries of the round metric, so pullback
volumes and the feasibility of moment balancing are unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .conformal import measure_density
from .mesh import build_icosphere, check_field
from .psolve import weighted_problem

__all__ = [
    "MobiusMap",
    "BalanceResult",
    "stereographic",
    "stereographic_inverse",
    "moment_vector",
    "balance",
    "balanced_energy_bound",
    "sup_image_volume",
]


def _chart_frame(a):
    """Deterministic orthonormal completion of the pole to a frame.

    Gram-Schmidt of the standard basis against a, in lexicographic order;
    any other frame differs by a rotation, which cancels in every use.
    """
    a = np.asarray(a, dtype=float)
    n1 = a.shape[0]
    frame = []
    for k in range(n1):
        e = np.zeros(n1)
        e[k] = 1.0
        e = e - (e @ a) * a
        for b in frame:
            e = e - (e @ b) * b
        norm = np.linalg.norm(e)
        if norm > 1e-8:
            frame.append(e / norm)
        if len(frame) == n1 - 1:
            break
    return np.array(frame)


def stereographic(a, x):
    """Chart coordinates of sphere points under projection from pole a.

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

    @property
    def dilation(self):
        return math.exp(min(self.log_dilation, 700.0))

    def inverse(self):
        """The inverse dilation: same t, pole flipped to the antipode.

        (Contracting toward -a by the same factor undoes the expansion
        toward a; the formal t' with negated log-dilation leaves (0, 1].)
        """
        return MobiusMap(-np.asarray(self.pole), self.t)

    def apply(self, x):
        """Apply the map to points of the sphere (vectorized).

        Computed via reciprocal chart radii so that arbitrarily large
        dilation factors saturate smoothly at the pole instead of
        overflowing.
        """
        a = np.asarray(self.pole)
        single = np.asarray(x).ndim == 1
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.t == 1.0:
            out = x.copy()
            return out[0] if single else out
        # Points are columns here, so every elementwise pass runs along one
        # long axis. With s = x.a, the tangential part x - s a has the
        # direction of the chart vector (carried back by the chart frame)
        # and, over 1 - s, its norm u.
        xt = x.T
        s = a @ xt
        denom = 1.0 - s
        at_pole = denom <= 1e-15
        tang = xt - a[:, None] * s
        norm_t = np.sqrt(np.einsum("ij,ij->j", tang, tang))
        u = norm_t / np.where(at_pole, 1.0, denom)
        at_antipode = u <= 1e-300
        kappa = self.log_dilation
        # rho = e^kappa * u, handled through r = min(rho, 1/rho) so that it
        # never overflows
        log_rho = kappa + np.log(np.maximum(u, 1e-300))
        r = np.exp(-np.abs(log_rho))
        rr = r * r
        # rho > 1: r = 1/rho -> coef_w = 2r/(1+r^2), coef_a = (1-r^2)/(1+r^2)
        # rho <= 1: r = rho -> coef_w = 2r/(1+r^2), coef_a = -(1-r^2)/(1+r^2)
        # coef_w also divides the tangential part by its norm
        coef_w = 2.0 * r / (1.0 + rr) / np.maximum(norm_t, 1e-300)
        coef_a = (1.0 - rr) / (1.0 + rr) * np.where(log_rho > 0.0, 1.0, -1.0)
        out = coef_w * tang + a[:, None] * coef_a
        # the fixed points exactly; x = a can leave a zero tangential part,
        # so the pole is assigned last
        out[:, at_antipode] = -a[:, None]
        out[:, at_pole] = a[:, None]
        out /= np.sqrt(np.einsum("ij,ij->j", out, out))
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


def _check_tol(tol):
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be positive")


def _params_to_map(v):
    kappa = float(np.linalg.norm(v))
    if kappa == 0.0:
        return MobiusMap(np.array([0.0, 0.0, 1.0]), 1.0)
    t = max(1.0 / (1.0 + kappa), _MIN_T)
    return MobiusMap(np.asarray(v) / kappa, t)


def balance(mesh, phi, density, p, tol=1e-6, budget=400):
    """Find a dilation whose coordinate p-moments all vanish.

    Coarse grid over poles (level-2 icosphere directions) and log-spaced
    dilation strengths, then derivative-free simplex refinement on the
    unconstrained parameterization v = kappa * pole (continuous at v = 0,
    where the map is the identity and the moments do not depend on the
    pole). Returns the best map found, flagged if the tolerance was not
    reached within the budget.
    """
    _check_tol(tol)
    phi = np.asarray(phi, dtype=float)
    if phi.shape[1] != 3:
        raise ValueError("balancing search is implemented for maps into S^2")
    evaluations = 0

    def norm_at(v):
        nonlocal evaluations
        evaluations += 1
        return float(np.linalg.norm(
            moment_vector(mesh, phi, density, p, _params_to_map(v))))

    poles = build_icosphere(2).vertices
    kappas = np.concatenate([[0.0], np.geomspace(1e-2, 1e3, 19)])
    best_v, best_norm = np.zeros(phi.shape[1]), norm_at(np.zeros(phi.shape[1]))
    for kappa in kappas[1:]:
        for a in poles:
            v = kappa * a
            s = norm_at(v)
            if s < best_norm:
                best_norm, best_v = s, v
    if best_norm > tol:
        res = minimize(lambda v: norm_at(v) ** 2, best_v,
                       method="Nelder-Mead",
                       options={"maxfev": budget, "xatol": 1e-14,
                                "fatol": 1e-30})
        s = math.sqrt(max(res.fun, 0.0))
        if s < best_norm:
            best_norm, best_v = s, res.x
    return BalanceResult(_params_to_map(best_v), best_norm, evaluations,
                         best_norm <= tol)


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


def _image_area(mesh, points, max_edge=None):
    """Total flat area of the mapped triangles.

    With max_edge set, candidates whose image triangles are unresolved
    (some edge chord beyond it) evaluate to -inf: their flat areas no
    longer estimate the image measure, so they must not win the search.
    """
    p = points[mesh.elements]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    if max_edge is not None:
        e3 = p[:, 2] - p[:, 1]
        longest = max(np.linalg.norm(e1, axis=1).max(),
                      np.linalg.norm(e2, axis=1).max(),
                      np.linalg.norm(e3, axis=1).max())
        if longest > max_edge:
            return -np.inf
    return float(np.linalg.norm(np.cross(e1, e2), axis=1).sum() / 2.0)


def sup_image_volume(mesh, phi, n_t=32, refine_steps=60):
    """Lower estimate of the supremum over dilations of the image area.

    Maximizes the total mapped triangle area over a pole/strength grid
    (level-2 icosphere poles, log-spaced strengths including the identity),
    then by deterministic pattern search. Rotations change nothing, so the
    family of dilations exhausts the search directions that matter.
    """
    if mesh.dim != 2:
        raise ValueError("image volume needs a surface mesh")
    phi = np.asarray(phi, dtype=float)
    p = phi[mesh.elements]
    base_longest = max(float(np.linalg.norm(p[:, i] - p[:, j], axis=1).max())
                       for i, j in ((0, 1), (1, 2), (2, 0)))
    edge_cap = max(0.75, 2.0 * base_longest)

    def area_at(v):
        return _image_area(mesh, _params_to_map(v).apply(phi),
                           max_edge=edge_cap)

    poles = build_icosphere(2).vertices
    kappas = np.concatenate([[0.0], np.geomspace(1e-2, 10.0, n_t - 1)])
    best_v = np.zeros(3)
    best = area_at(best_v)
    for kappa in kappas[1:]:
        for a in poles:
            v = kappa * a
            s = area_at(v)
            if s > best:
                best, best_v = s, v
    step = 0.25
    for _ in range(refine_steps):
        improved = False
        for k in range(3):
            for sign in (+1.0, -1.0):
                v = best_v.copy()
                v[k] += sign * step
                s = area_at(v)
                if s > best:
                    best, best_v = s, v
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-6:
                break
    return best
