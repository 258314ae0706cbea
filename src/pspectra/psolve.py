"""First eigenvalues of the p-Laplacian by constrained quotient descent.

The closed and Neumann problems minimize the weighted Rayleigh quotient over
fields with vanishing weighted p-mean; the constraint is enforced by
re-shifting after every step (the shift is the exact minimizer of the
denominator over constants). The Dirichlet problem fixes boundary values to
zero instead. Nonsmoothness of the energy for p < 2 is handled by a
geometric continuation on the regularization parameter.

At p = 2 the quotient is u'Ku / u'Mu with M = diag(rho), and the minimizer is
computed directly as the first nonzero eigenpair of the pencil (K, M) by
shift-invert Lanczos (ARPACK; Lehoucq, Sorensen & Yang, ARPACK Users' Guide,
SIAM 1998). For p != 2 the closed and Neumann descents start from that p = 2
eigenvector.

Each solve owns an isolated workspace and is deterministic for a fixed seed;
distinct solves may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh
from scipy.sparse import csr_matrix, diags
from scipy.sparse.linalg import LinearOperator, eigsh, splu
from scipy.spatial import cKDTree

from .conformal import (check_conformal_factor, energy_density_weight,
                        measure_density)
from .mesh import MeshError, check_field

__all__ = [
    "DegenerateFieldError",
    "ConvergenceError",
    "SolveOptions",
    "SpectralResult",
    "rayleigh_quotient",
    "weighted_problem",
    "p_shift",
    "solve_closed",
    "solve_neumann",
    "solve_dirichlet",
    "reflect_even",
    "mirror_index",
    "RadialProfile",
    "radial_average",
    "split_band_plateau",
    "shooting_eigenvalue_1d",
]

_TINY = 1e-300


class DegenerateFieldError(ValueError):
    """Raised for constant/zero candidate fields (quotient undefined)."""


class ConvergenceError(RuntimeError):
    """Raised when a root bracket or shooting iteration cannot be completed."""


@dataclass
class SolveOptions:
    """Options for the quotient descent.

    tolerance is on the relative quotient decrease; delta is the final
    regularization level of the continuation (the energy uses
    (|du|^2 + (delta * s)^2)^(p/2) with s a per-start gradient scale, which
    keeps the continuation exactly equivariant under mesh dilation).
    residual_target stops the final stage once the projected stationarity
    residual falls below it (relative to the numerator gradient scale);
    quotient stalls only end the final stage once the residual is within a
    hundredfold of that target. At p = 2 the solvers run no descent (one
    eigensolve gives the exact discrete minimizer) and use none of the
    other options.
    """

    p: float
    max_iterations: int = 6000
    tolerance: float = 1e-9
    delta: float = 1e-8
    multistart: int = 2
    seed: int = 0
    residual_target: float = 1e-5

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError("p must exceed 1")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.delta < 0.0:
            raise ValueError("delta must be nonnegative")
        if self.multistart < 1:
            raise ValueError("multistart must be at least 1")
        if not self.residual_target > 0.0:
            raise ValueError("residual_target must be positive")


@dataclass
class SpectralResult:
    """Solver output: eigenvalue estimate plus convergence diagnostics.

    The eigenfunction is normalized so the weighted p-norm integral is one;
    constraint_defect is the weighted p-mean of the eigenfunction (zero for
    admissible fields), gradient_residual the norm of the projected descent
    direction at termination relative to the numerator gradient scale.
    stop_reason is "eigensolve" at p = 2, otherwise why the final descent
    stage stopped: "residual", "stalled", "line_search_floor" or
    "max_iterations".
    """

    lam: float
    eigenfunction: np.ndarray
    constraint_defect: float
    gradient_residual: float
    iterations: int
    restarts: int
    converged: bool
    stop_reason: str
    history: list = field(default_factory=list, repr=False)

    def to_json(self):
        return {
            "lambda": self.lam,
            "constraint_defect": self.constraint_defect,
            "gradient_residual": self.gradient_residual,
            "iterations": self.iterations,
            "restarts": self.restarts,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
        }


# -- quotient and constraint shifts -----------------------------------------

def _element_mean(mesh, values):
    return values[mesh.elements].mean(axis=1)


def rayleigh_quotient(mesh, f, p, u):
    """Weighted quotient: integrated |du|^p f^((m-p)/2) over |u|^p f^(m/2)."""
    u = check_field(mesh, u)
    if np.max(u) - np.min(u) <= 1e-300:
        raise DegenerateFieldError("constant field has no Rayleigh quotient")
    prob = weighted_problem(mesh, f, p)
    den = prob.denominator(u)
    if den <= _TINY:
        raise DegenerateFieldError("vanishing denominator")
    return prob.numerator(u, 0.0) / den


def quotient_gradient(mesh, f, p, u, reg=0.0):
    """Analytic gradient of the (regularized) weighted Rayleigh quotient.

    reg is added to the squared gradient inside the energy, matching the
    solver's regularization; reg = 0 gives the plain quotient's gradient.
    """
    u = check_field(mesh, u)
    prob = weighted_problem(mesh, f, p)
    num, grad_n = prob.num_and_grad(u, reg)
    den = prob.denominator(u)
    if den <= _TINY:
        raise DegenerateFieldError("vanishing denominator")
    return (grad_n - (num / den) * prob.den_grad(u)) / den


def p_shift(u, weights, p, c0=None):
    """Constant c with sum |u-c|^(p-2) (u-c) weights = 0.

    The balance map is strictly decreasing in c, so c is unique inside
    [min u, max u]; found by bracketed bisection with Newton polish, driven
    to round-off. (The balance has a power-law kink at each data value; if
    the root collides with one, exact vanishing may not be representable
    and the best floating-point candidate is returned.)
    """
    u = np.asarray(u, dtype=float)
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0.0) or not np.any(w > 0.0):
        raise ValueError("weights must be nonnegative and not all zero")
    support = w > 0.0
    lo = float(np.min(u[support]))
    hi = float(np.max(u[support]))
    if hi - lo <= 0.0:
        raise DegenerateFieldError("constant field: every shift balances it")
    if p == 2.0:
        return float(np.sum(u * w) / np.sum(w))

    def balance(c):
        e = u - c
        a = np.abs(e)
        ap1 = a ** (p - 1.0)
        h = float(np.sum(np.sign(e) * ap1 * w))
        scale = float(np.sum(ap1 * w))
        slope = (p - 1.0) * float(np.sum(ap1 / np.maximum(a, _TINY) * w))
        return h, scale, slope

    c = float(c0) if c0 is not None and lo < c0 < hi else 0.5 * (lo + hi)
    best_c, best_h = c, np.inf
    dx = dx_old = hi - lo
    for _ in range(80):
        h, scale, slope = balance(c)
        if abs(h) < best_h:
            best_c, best_h = c, abs(h)
        if abs(h) <= 1e-14 * scale:
            break
        if h > 0.0:
            lo = c
        else:
            hi = c
        # Newton only while it stays in the bracket and at least halves the
        # step before last (as in rtsafe): next to a data value the slope
        # blows up and unguarded Newton steps crawl
        newton = h / slope if slope > 0.0 else np.inf
        if lo < c + newton < hi and 2.0 * abs(newton) <= dx_old:
            dx_old, dx = dx, abs(newton)
            c = c + newton
        else:
            dx_old, dx = dx, 0.5 * (hi - lo)
            c = 0.5 * (lo + hi)
    return best_c


# -- assembly ----------------------------------------------------------------

class _Assembly:
    """Sparse difference operators for vectorized energy and gradient."""

    def __init__(self, mesh):
        ne, nv = mesh.n_elements, mesh.n_vertices
        el = mesh.elements
        rows = np.repeat(np.arange(ne), 2)
        if mesh.dim == 1:
            invh = 1.0 / mesh.element_measure
            data = np.column_stack([-invh, invh]).ravel()
            cols = el.ravel()
            self.E1 = csr_matrix((data, (rows, cols)), shape=(ne, nv))
            self.E2 = None
            self.ga = np.ones(ne)
            self.gb = self.gc = None
            sdiag = np.column_stack([invh * invh, invh * invh])
        else:
            ones = np.ones(ne)
            d1 = np.column_stack([-ones, ones]).ravel()
            self.E1 = csr_matrix((d1, (rows, el[:, [0, 1]].ravel())),
                                 shape=(ne, nv))
            self.E2 = csr_matrix((d1, (rows, el[:, [0, 2]].ravel())),
                                 shape=(ne, nv))
            from .mesh import _gram_inverse
            self.ga, self.gb, self.gc = _gram_inverse(mesh)
            # per-element Hessian-diagonal structure of the gradient square
            sdiag = np.column_stack([self.ga + 2.0 * self.gb + self.gc,
                                     self.ga, self.gc])
        # scatter (vertex x element): Jacobi diagonal of the energy Hessian
        vrows = el.ravel()
        vcols = np.repeat(np.arange(ne), el.shape[1])
        self.Sdiag = csr_matrix((sdiag.ravel(), (vrows, vcols)),
                                shape=(nv, ne))
        self.E1T = self.E1.T.tocsr()
        self.E2T = None if self.E2 is None else self.E2.T.tocsr()
        self.coords = mesh.vertices.reshape(nv, -1)

    @cached_property
    def dissection_order(self):
        """Nested-dissection order of all vertices (shared elements are the
        sparsity pattern of every stiffness matrix on the mesh)."""
        return _dissection_order(self.coords, self.Sdiag @ self.Sdiag.T)


def _assembly(mesh):
    asm = getattr(mesh, "_psolve_assembly", None)
    if asm is None:
        asm = _Assembly(mesh)
        mesh._psolve_assembly = asm
    return asm


class _Problem:
    """One weighted eigenvalue problem: numerator/denominator machinery."""

    def __init__(self, mesh, p, num_weights, rho, fixed=None):
        self.mesh = mesh
        self.p = p
        self.asm = _assembly(mesh)
        self.nw = num_weights          # element: measure * mean energy weight
        self.rho = rho                 # vertex: density * lumped measure
        self.fixed = fixed             # boolean mask of pinned (zero) vertices
        self.constrained = fixed is None

    def _diffs(self, u):
        d1 = self.asm.E1 @ u
        d2 = None if self.asm.E2 is None else self.asm.E2 @ u
        return d1, d2

    def _gradsq(self, d1, d2):
        if d2 is None:
            return d1 * d1
        return (self.asm.ga * d1 * d1 + 2.0 * self.asm.gb * d1 * d2
                + self.asm.gc * d2 * d2)

    def gradsq(self, u):
        """Squared gradient of the piecewise-linear field u, per element."""
        return self._gradsq(*self._diffs(u))

    def stiffness(self):
        """Sparse K with numerator(u, 0) == u @ K @ u when p = 2."""
        a = self.asm
        K = a.E1T @ diags(self.nw * a.ga) @ a.E1
        if a.E2 is not None:
            cross = a.E1T @ diags(self.nw * a.gb) @ a.E2
            K = K + cross + cross.T + a.E2T @ diags(self.nw * a.gc) @ a.E2
        # a compact copy: sparse sums keep views into over-allocated buffers
        return K.tocsr(copy=True)

    def numerator(self, u, reg):
        g = self.gradsq(u)
        return float(np.sum(self.nw * (g + reg) ** (self.p / 2.0)))

    def num_and_grad(self, u, reg, with_coef=False):
        p = self.p
        d1, d2 = self._diffs(u)
        g = self._gradsq(d1, d2) + reg
        gp1 = g ** (p / 2.0 - 1.0)
        num = float(np.sum(self.nw * gp1 * g))
        coef = self.nw * p * gp1
        if d2 is None:
            grad = self.asm.E1T @ (coef * d1)
        else:
            grad = (self.asm.E1T @ (coef * (self.asm.ga * d1
                                            + self.asm.gb * d2))
                    + self.asm.E2T @ (coef * (self.asm.gb * d1
                                              + self.asm.gc * d2)))
        if with_coef:
            return num, grad, coef
        return num, grad

    def denominator(self, u):
        return float(np.sum(np.abs(u) ** self.p * self.rho))

    def den_bundle(self, u):
        """Denominator, its gradient and the constraint normal, sharing the
        single power evaluation."""
        au = np.abs(u)
        aup = au ** self.p
        den = float(np.sum(aup * self.rho))
        safe = np.maximum(au, 1e-14 * np.max(au) + _TINY)
        aup1 = aup / safe
        den_grad = self.p * np.sign(u) * aup1 * self.rho
        normal = (aup1 / safe) * self.rho if self.constrained else None
        return den, den_grad, normal

    def den_grad(self, u):
        return self.p * np.sign(u) * np.abs(u) ** (self.p - 1.0) * self.rho

    def constraint_defect(self, u):
        au = np.abs(u)
        val = float(np.sum(np.sign(u) * au ** (self.p - 1.0) * self.rho))
        scale = float(np.sum(au ** (self.p - 1.0) * self.rho))
        return abs(val) / max(scale, _TINY)

    def project(self, u, c0=None):
        """Pin/shift/renormalize a candidate onto the feasible set."""
        if self.fixed is not None:
            u = u.copy()
            u[self.fixed] = 0.0
            c = 0.0
        elif self.constrained:
            c = p_shift(u, self.rho, self.p, c0=c0)
            u = u - c
        den = self.denominator(u)
        if den <= _TINY:
            raise DegenerateFieldError("degenerate start field")
        return u / den ** (1.0 / self.p), c

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
    u, c = prob.project(u)
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
            trial, c = prob.project(u - trial_step * d, c0=c)
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


def _dissection_order(coords, pattern, leaf=32):
    """Geometric nested-dissection elimination order.

    Each vertex set is halved at the median of its widest coordinate; the
    vertices of the lower half with a neighbour (a nonzero of `pattern`) in
    the upper half form the separator, ordered after both halves. Sets of at
    most `leaf` vertices keep their order.
    """
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


def _p2_eigenvector(prob):
    """First nonzero eigenvector of the pencil (K, diag(rho)) at p = 2.

    Shift-invert Lanczos with a fixed start vector: closed/Neumann problems
    take the two eigenvalues nearest a small negative shift (the constant
    null mode and the wanted one), Dirichlet problems the lowest eigenvalue
    on the free vertices. K - sigma M is factored once, in nested-dissection
    order, and its solves are the Lanczos operator.
    """
    mesh = prob.mesh
    K = prob.stiffness()
    perm = prob.asm.dissection_order
    if prob.fixed is None:
        free = np.arange(mesh.n_vertices)
        sigma = -1e-3 * K.diagonal().sum() / prob.rho.sum()
        k = 2
    else:
        free = np.flatnonzero(~prob.fixed)
        if free.size == 0:
            raise DegenerateFieldError("every vertex is pinned")
        K = K[free][:, free]
        # the mesh order restricted to the free vertices, in their numbering
        perm = np.searchsorted(free, perm[~prob.fixed[perm]])
        sigma = 0.0
        k = 1
    M = diags(prob.rho[free])
    if free.size <= k:
        _, vecs = eigh(K.toarray(), M.toarray())
    else:
        lu = splu((K - sigma * M).tocsr()[perm][:, perm].tocsc(),
                  permc_spec="NATURAL", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})

        def solve(b):
            x = np.empty_like(b)
            x[perm] = lu.solve(b[perm])
            return x

        v0 = np.random.default_rng(0).standard_normal(free.size)
        vals, vecs = eigsh(K, k=k, M=M, sigma=sigma, which="LM", v0=v0,
                           OPinv=LinearOperator(K.shape, matvec=solve,
                                                dtype=float))
        vecs = vecs[:, np.argsort(vals)]
    u = np.zeros(mesh.n_vertices)
    u[free] = vecs[:, k - 1]
    return u


def _dirichlet_bump(mesh):
    u = np.ones(mesh.n_vertices)
    u[mesh.boundary] = 0.0
    if mesh.kind == "interval":
        x = mesh.vertices
        u = (x - x[0]) * (x[-1] - x)
    return u


def _run_one_start(prob, u0, opts, budget):
    u, _ = prob.project(np.asarray(u0, dtype=float))
    gscale = float(np.mean(prob.gradsq(u)))
    s2 = gscale if gscale > 0 else 1.0
    history = []
    used = 0
    reason = "max_iterations"
    stages = _delta_schedule(prob.p, opts.delta)
    for k, delta in enumerate(stages):
        final = k == len(stages) - 1
        reg = (delta * delta) * s2
        cap = budget - used if final else min(300, budget - used)
        if cap <= 0:
            break
        tol = opts.tolerance if final else max(opts.tolerance, 1e-9)
        res_target = opts.residual_target if final else None
        u, it, reason = _descend(prob, u, reg, cap, tol, res_target, history)
        used += it
    converged = reason in ("residual", "stalled", "line_search_floor")
    return u, used, history, converged, reason


def _finalize(prob, u, used, restarts, converged, history, reason):
    den = prob.denominator(u)
    lam = prob.numerator(u, 0.0) / den
    num, grad_n = prob.num_and_grad(
        u, (1e-8) ** 2 * max(np.mean(prob.gradsq(u)), _TINY))
    g = (grad_n - (num / den) * prob.den_grad(u)) / den
    d = prob.tangent(u, g)
    residual = float(np.linalg.norm(d) * den /
                     max(np.linalg.norm(grad_n), _TINY))
    defect = prob.constraint_defect(u) if prob.constrained else 0.0
    return SpectralResult(
        lam=float(lam),
        eigenfunction=u,
        constraint_defect=float(defect),
        gradient_residual=residual,
        iterations=used,
        restarts=restarts,
        converged=converged,
        stop_reason=reason,
        history=history,
    )


def weighted_problem(mesh, f, p):
    """The weighted quotient of the conformal factor f at exponent p.

    numerator(u, 0) integrates |du|^p f^((m-p)/2) (weight averaged per
    element), denominator(u) integrates |u|^p f^(m/2) under the lumped vertex
    measure, gradsq(u) is the per-element |du|^2 and constraint_defect(u) the
    relative weighted p-mean of u.
    """
    f = check_conformal_factor(mesh, f)
    ew = _element_mean(mesh, energy_density_weight(mesh, f, p))
    return _Problem(mesh, p, mesh.element_measure * ew,
                    measure_density(mesh, f) * mesh.vertex_measure)


def _dirichlet_problem(mesh, p):
    """Unweighted problem with the boundary vertices pinned to zero."""
    return _Problem(mesh, p, mesh.element_measure.copy(),
                    mesh.vertex_measure.copy(), fixed=mesh.boundary.copy())


def _solve(mesh, f, opts, *, dirichlet, u0=None, extra_starts=None,
           include_canonical=True):
    p = opts.p
    if dirichlet:
        prob = _dirichlet_problem(mesh, p)
    else:
        prob = weighted_problem(mesh, f, p)
    if p == 2.0:
        u, _ = prob.project(_p2_eigenvector(prob))
        return _finalize(prob, u, 0, 0, True, [], "eigensolve")

    starts = []
    if u0 is not None:
        starts.append(np.asarray(u0, dtype=float))
    if extra_starts:
        starts.extend(np.asarray(v, dtype=float) for v in extra_starts)
    if include_canonical or not starts:
        if dirichlet:
            starts.append(_dirichlet_bump(mesh))
        else:
            starts.append(_p2_eigenvector(weighted_problem(mesh, f, 2.0)))
    rng = np.random.default_rng(opts.seed)
    for _ in range(opts.multistart - 1):
        starts.append(rng.standard_normal(mesh.n_vertices))

    candidates = []
    total_used = 0
    ran = 0
    for start in starts:
        try:
            u, used, history, converged, reason = _run_one_start(
                prob, start, opts, opts.max_iterations)
        except DegenerateFieldError:
            continue
        ran += 1
        total_used += used
        candidates.append(_finalize(prob, u, total_used, ran - 1, converged,
                                    history, reason))
    if not candidates:
        raise DegenerateFieldError("no admissible start field")
    # among candidates within 0.01% of the minimum, prefer a converged one
    low = min(c.lam for c in candidates)
    ties = [c for c in candidates if c.lam <= low * (1.0 + 1e-4)]
    converged_ties = [c for c in ties if c.converged]
    best = min(converged_ties or ties, key=lambda c: c.lam)
    best.iterations = total_used
    best.restarts = ran - 1
    return best


def solve_closed(mesh, f, opts, u0=None, extra_starts=None,
                 include_canonical=True):
    """Minimize the weighted quotient on a closed mesh (p-mean constraint).

    At p = 2 this is one sparse eigensolve, the exact discrete minimizer;
    u0, extra_starts, include_canonical and multistart are unused there.
    Otherwise multistart projected descent, deterministic for a fixed seed:
    a warm start u0 and extra candidate starts are tried in addition to the
    canonical start (the p = 2 eigenvector) and seeded random starts;
    include_canonical=False drops the canonical start when callers supply
    problem-adapted ones.
    """
    if mesh.boundary.any():
        raise MeshError("solve_closed needs a closed mesh")
    return _solve(mesh, f, opts, dirichlet=False, u0=u0,
                  extra_starts=extra_starts,
                  include_canonical=include_canonical)


def solve_neumann(mesh, f, opts, u0=None, extra_starts=None,
                  include_canonical=True):
    """Closed-style solve on a mesh with boundary; the natural boundary
    condition holds weakly, the p-mean constraint is enforced. Starts and
    the p = 2 eigensolve as in solve_closed."""
    if not mesh.boundary.any():
        raise MeshError("solve_neumann needs a mesh with boundary")
    return _solve(mesh, f, opts, dirichlet=False, u0=u0,
                  extra_starts=extra_starts,
                  include_canonical=include_canonical)


def solve_dirichlet(mesh, opts, u0=None, extra_starts=None,
                    include_canonical=True):
    """Minimize the unweighted quotient over fields vanishing on the
    boundary; no shift constraint. At p = 2 one sparse eigensolve on the
    free vertices (starts unused), otherwise descent from a bump start."""
    if not mesh.boundary.any():
        raise MeshError("solve_dirichlet needs a mesh with boundary")
    return _solve(mesh, None, opts, dirichlet=True, u0=u0,
                  extra_starts=extra_starts,
                  include_canonical=include_canonical)


# -- even reflection ----------------------------------------------------------

def mirror_index(mesh, pole=None):
    """Index of each vertex's mirror across the pole's equator plane.

    Requires the mesh to be mirror-symmetric: every mirrored vertex must land
    within 1e-6 shortest edges of a distinct vertex (the icosphere builder
    guarantees this for its own pole axis).
    """
    if pole is None:
        pole = mesh.pole
    n = mesh.vertices[pole]
    mirrored = mesh.vertices - 2.0 * (mesh.vertices @ n)[:, None] * n
    dist, out = cKDTree(mesh.vertices).query(mirrored)
    if (np.max(dist) > 1e-6 * mesh.min_edge_length
            or np.any(np.bincount(out, minlength=mesh.n_vertices) != 1)):
        raise MeshError("mesh is not mirror-symmetric about the equator")
    return out


def reflect_even(values, hemisphere, sphere):
    """Extend a hemisphere field to the sphere by even reflection.

    values live on `hemisphere` (extracted from `sphere`); the returned field
    agrees with values above the equator and with the mirrored values below.
    """
    values = check_field(hemisphere, values, "hemisphere field")
    if hemisphere.parent_index is None:
        raise MeshError("hemisphere does not record its parent mesh")
    parent_pole = int(hemisphere.parent_index[hemisphere.pole])
    mirror = mirror_index(sphere, pole=parent_pole)
    w = np.full(sphere.n_vertices, np.nan)
    w[hemisphere.parent_index] = values
    missing = np.isnan(w)
    w[missing] = w[mirror[missing]]
    if np.any(np.isnan(w)):
        raise MeshError("reflection did not cover the sphere")
    return w


# -- radial averaging and band/plateau splitting ------------------------------

@dataclass
class RadialProfile:
    """Colatitude-band profile of |u| in the p-mean sense, plus the band
    measures needed for the averaging comparisons."""

    r: np.ndarray                  # band centers
    values: np.ndarray             # (band mean of |u|^p)^(1/p)
    base_measure: np.ndarray       # lumped base measure per band
    weighted_measure: np.ndarray   # f^(m/2)-weighted measure per band
    energy_measure: np.ndarray     # f^((m-p)/2)-weighted measure per band
    p: float
    pnorm_lhs: float = 0.0
    pnorm_rhs: float = 0.0
    grad_lhs: float = 0.0
    grad_rhs: float = 0.0


def radial_average(mesh, u, f, p, n_bins=None):
    """Radial p-mean profile of u over colatitude bands.

    Bands must span at least two element layers. The returned profile
    carries two certified comparisons: the weighted p-norm of the profile
    against that of u (equal up to binning error), and the profile's
    weighted derivative energy against the full gradient energy (bounded
    above by it, up to binning error).
    """
    if mesh.kind != "sphere":
        raise MeshError("radial averaging needs a sphere mesh")
    u = check_field(mesh, u)
    span = mesh.max_edge_colatitude_span
    max_bins = int(np.pi / (2.0 * span))
    if n_bins is None:
        n_bins = int(np.pi / (2.5 * span))
    if n_bins > max_bins:
        raise ValueError(f"binning too fine: at most {max_bins} bands "
                         "(two element layers each)")
    if n_bins < 3:
        raise ValueError("mesh too coarse for radial averaging")
    edges = np.linspace(0.0, np.pi, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    idx = np.clip(np.searchsorted(edges, mesh.colatitudes, side="right") - 1,
                  0, n_bins - 1)
    M = mesh.vertex_measure
    dens = measure_density(mesh, f)
    ew = energy_density_weight(mesh, f, p)
    base = np.bincount(idx, weights=M, minlength=n_bins)
    if np.any(base <= 0.0):
        raise ValueError("empty colatitude band")
    up = np.abs(u) ** p
    ubar = (np.bincount(idx, weights=up * M, minlength=n_bins) / base) ** (1.0 / p)
    dband = np.bincount(idx, weights=dens * M, minlength=n_bins)
    wband = np.bincount(idx, weights=ew * M, minlength=n_bins)

    pnorm_lhs = float(np.sum(ubar ** p * dband))
    pnorm_rhs = float(np.sum(up * dens * M))
    slopes = np.diff(ubar) / np.diff(centers)
    grad_lhs = float(np.sum(np.abs(slopes) ** p * 0.5 * (wband[:-1] + wband[1:])))
    grad_rhs = weighted_problem(mesh, f, p).numerator(u, 0.0)
    return RadialProfile(centers, ubar, base, dband, wband, p,
                         pnorm_lhs, pnorm_rhs, grad_lhs, grad_rhs)


def split_band_plateau(profile, eps, p=None):
    """Split a [0, pi/2] profile into a clamped part and the band increment.

    w freezes the profile at its value at pi/2 - eps, v carries everything
    beyond; their discrete derivatives have disjoint supports, so
    |du|^p = |dv|^p + |dw|^p holds gapwise exactly, and the pointwise
    convexity bound |u|^p <= 2^(p-1) (|v|^p + |w|^p) holds bandwise.
    Returns (v, w, diagnostics).
    """
    if isinstance(profile, RadialProfile):
        r, vals = profile.r, profile.values
        p = profile.p if p is None else p
    else:
        r, vals = profile
    if p is None:
        raise ValueError("p is required for plain array profiles")
    keep = r <= np.pi / 2 + 1e-12
    r, vals = np.asarray(r)[keep], np.asarray(vals, dtype=float)[keep]
    cut = np.pi / 2 - eps
    if not r[0] <= cut <= r[-1]:
        raise ValueError("eps outside the profile range")
    k = int(np.searchsorted(r, cut, side="right") - 1)
    w = vals.copy()
    w[k + 1:] = vals[k]
    v = vals - w
    du, dv, dw = np.diff(vals), np.diff(v), np.diff(w)
    support_gap = np.max(np.abs(np.abs(du) ** p
                                - (np.abs(dv) ** p + np.abs(dw) ** p)),
                         initial=0.0)
    margin = 2.0 ** (p - 1.0) * (np.abs(v) ** p + np.abs(w) ** p) \
        - np.abs(vals) ** p
    diagnostics = {
        "disjoint_support_gap": float(support_gap),
        "split_inequality_margin": float(np.min(margin)),
        "clamp_index": k,
    }
    return v, w, diagnostics


# -- 1-D shooting oracle -------------------------------------------------------

def _p_sine_half_period(p):
    # first Dirichlet eigenvalue of the 1-D p-Laplacian on (-1, 1)
    pi_p = 2.0 * np.pi / (p * math.sin(np.pi / p))
    return (p - 1.0) * (pi_p / 2.0) ** p


def shooting_eigenvalue_1d(p, mode, halfwidth, tol=1e-10):
    """First 1-D eigenvalue on (-halfwidth, halfwidth) by shooting.

    Dirichlet: integrate from the left boundary with u = 0, u' = 1 and
    bisect the eigenvalue on the sign of u at the right boundary (no parity
    assumed). Neumann: the first eigenfunction is odd, integrate from the
    center with u = 0, u' = 1 and bisect on the sign of the flux at the
    boundary. The boundary residual is driven below `tol`.
    """
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    if mode not in ("dirichlet", "neumann"):
        raise ValueError("mode must be 'dirichlet' or 'neumann'")
    if halfwidth <= 0:
        raise ValueError("halfwidth must be positive")
    q = 1.0 / (p - 1.0)

    def integrate_to_end(lam):
        def rhs(_, y):
            u, v = y
            return (math.copysign(abs(v) ** q, v),
                    -lam * math.copysign(abs(u) ** (p - 1.0), u))
        if mode == "dirichlet":
            t0, t1 = -halfwidth, halfwidth
        else:
            t0, t1 = 0.0, halfwidth
        sol = solve_ivp(rhs, (t0, t1), (0.0, 1.0), method="DOP853",
                        rtol=1e-12, atol=1e-14)
        if not sol.success:
            raise ConvergenceError(f"ODE integration failed: {sol.message}")
        u_end, v_end = sol.y[0, -1], sol.y[1, -1]
        scale = max(np.max(np.abs(sol.y[0])), np.max(np.abs(sol.y[1])), _TINY)
        endpoint = u_end if mode == "dirichlet" else v_end
        return endpoint, scale

    guess = _p_sine_half_period(p) / halfwidth ** p
    lo = 0.5 * guess
    for _ in range(80):
        val, _ = integrate_to_end(lo)
        if val > 0.0:
            break
        lo *= 0.5
    else:
        raise ConvergenceError("no lower bracket for the shooting eigenvalue")
    hi = 2.0 * lo
    for _ in range(80):
        val, _ = integrate_to_end(hi)
        if val < 0.0:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("no upper bracket for the shooting eigenvalue")
    while hi - lo > 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        val, _ = integrate_to_end(mid)
        if val > 0.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    val, scale = integrate_to_end(lam)
    if abs(val) / scale > tol:
        raise ConvergenceError("boundary residual above tolerance")
    return lam

