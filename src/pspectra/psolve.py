"""First eigenvalues of the p-Laplacian.

The closed and Neumann problems minimize the weighted Rayleigh quotient over
fields with vanishing weighted p-mean; the Dirichlet problem fixes boundary
values to zero instead.

At p = 2 the quotient is u'Ku / u'Mu with M = diag(rho), and the minimizer is
computed directly as the first nonzero eigenpair of the pencil (K, M) by
shift-invert Lanczos (ARPACK; Lehoucq, Sorensen & Yang, ARPACK Users' Guide,
SIAM 1998).

For p != 2 the solvers minimize the quotient by Newton's method on the
bordered eigen-system F(u, lam) = (grad N(u) - lam grad D(u), 1 - D(u)) = 0
(Ruhe, SIAM J. Numer. Anal. 10, 1973), N the numerator with its gradient
square regularized and D the denominator, continued in p from the p = 2
eigenvector in equal stages. Steps are accepted on a sufficient decrease of
the quotient; where the Newton step does not descend, a Levenberg-Marquardt
shift of lam turns it towards a preconditioned gradient step, so the
iteration does not settle on saddles of the quotient. The entries of grad N
sum to zero, so a critical point with lam > 0 has vanishing weighted p-mean
by itself; trial fields are shifted to it anyway, which keeps every
accepted quotient an upper bound of the eigenvalue.

Closed solves on an icosphere of level 3 or more run coarse to fine
(nested iteration; Brandt, Math. Comp. 31, 1977): the p = 2 eigensolve and
the continuation in p run on the level-2 sphere, and each finer level runs
one Newton run at the target p from the prolonged iterate, smoothed first
by damped Jacobi sweeps (Hackbusch, Multi-Grid Methods and Applications,
1985).

Each solve owns an isolated workspace and is deterministic; distinct solves
may run concurrently. The first solve on a mesh that needs a system layout
builds and caches it, and a Newton factorization on a layout drops the p = 2
one it keeps (see _p2_eigenvector); neither changes a later solve's result.
"""

from __future__ import annotations

import math
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, cached_property
from types import SimpleNamespace

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix, diags
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .conformal import (check_conformal_factor, energy_density_weight,
                        measure_density)
from .mesh import MeshError, check_field, coarser_icospheres

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


def check_p(p):
    """Reject an exponent outside (1, inf): ValueError, nan included."""
    if not 1.0 < p < math.inf:
        raise ValueError("p must be finite and exceed 1")


class DegenerateFieldError(ValueError):
    """Raised for constant/zero candidate fields (quotient undefined)."""


class ConvergenceError(RuntimeError):
    """Raised when an eigensolve or a shooting run fails, or when the
    eigenvalue of a factor lies outside the positive float range."""


@dataclass
class SolveOptions:
    """Options of the p != 2 Newton solve.

    max_iterations caps the Newton systems a solve factors and solves,
    summed over the continuation stages, the mesh levels and the supplied
    starts.
    residual_target is the projected stationarity residual (relative to
    the numerator gradient scale) at which a stage stops; a result is
    converged when its residual meets it. Each stage regularizes at the
    fixed relative level delta = 1e-8 (see _regularization), and the solve
    draws no random starts. At p = 2 the solvers run no Newton steps (one
    eigensolve gives the exact discrete minimizer).
    """

    p: float
    max_iterations: int = 6000
    residual_target: float = 1e-5

    def __post_init__(self):
        check_p(self.p)
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0.0 < self.residual_target < np.inf:
            raise ValueError("residual_target must be positive and finite")


@dataclass
class SpectralResult:
    """Solver output: eigenvalue estimate plus convergence diagnostics.

    Each Newton run returns one for its last iterate; a solve returns the
    chosen run's, with the totals of all its runs. The eigenfunction is
    normalized so the weighted p-norm integral is one; constraint_defect is
    the weighted p-mean of the eigenfunction (zero for admissible fields),
    gradient_residual the norm of the projected quotient gradient relative
    to the numerator gradient scale, and converged whether it meets the
    residual target. iterations counts the Newton systems solved, restarts
    the supplied starts solved besides the continuation path. stop_reason
    is "eigensolve" at p = 2, otherwise why the Newton run of the result
    stopped: "residual", "round_off" (its quotient stopped changing beyond
    round-off first), "line_search_floor" or "max_iterations". history
    holds the regularized quotient at the start of that run and after each
    accepted step (nonincreasing; at p = 2 the eigenvector's alone).
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


def p_shift(u, weights, p):
    """Constant c with sum |u-c|^(p-2) (u-c) weights = 0.

    The balance is strictly decreasing in c, positive at the least and
    negative at the greatest value of u on the weights' support, so c is
    its unique root between the two: one Brent solve (_brentq, the exact
    port of scipy's brentq) on that bracket, to 4 ulps. A run that reaches
    the step cap returns its last iterate. (The balance has a power-law kink
    at each data value; a root next to one may leave a residue that no float
    removes.) p must be finite and exceed 1, and u and weights finite
    (ValueError otherwise).
    """
    check_p(p)
    u = np.asarray(u, dtype=float)
    w = np.asarray(weights, dtype=float)
    if not (np.isfinite(u).all() and np.isfinite(w).all()):
        raise ValueError("u and weights must be finite")
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
        return float(np.sum(np.sign(e) * np.abs(e) ** (p - 1.0) * w))

    return _brentq(balance, lo, hi, 4.0 * math.ulp(max(abs(lo), abs(hi))),
                   4.0 * sys.float_info.epsilon)


def _brentq(f, a, b, xtol, rtol, maxiter=100):
    """Root of f between a and b, where f changes sign: a line-for-line
    port of brentq.c in scipy.optimize (Brent, Algorithms for Minimization
    Without Derivatives, 1973, ch. 4).

    The float operations and their order are C's, so the result equals
    scipy.optimize.brentq(f, a, b, xtol, rtol, maxiter, disp=False) bit for
    bit; after maxiter steps the last iterate is returned. Arguments are
    Python floats, as f's values must be. A zero divisor gives inf or nan in
    C, which fails the short-step test, so here it bisects; a nan value of f
    raises ValueError, as scipy's wrapper does.
    """
    def value(x):
        fx = f(x)
        if fx != fx:
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = a, b
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # fails the short-step test below: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        bound = 3 * abs(sbis) - delta
        if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
            spre, scur = scur, stry  # good short step
        else:
            spre, scur = sbis, sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    return xcur


def _power_change(x, dx, s):
    """(x + dx)^s - x^s for x, x + dx >= 0, accurate for small dx."""
    with np.errstate(divide="ignore", invalid="ignore"):
        change = x ** s * np.expm1(s * np.log1p(dx / x))
        return np.where(x > 0.0, change, (x + dx) ** s)


# -- assembly ----------------------------------------------------------------

def _gram_inverse(mesh):
    """Inverse Gram matrices of the elements' edge vectors, shape (k, k, ne):
    1/h^2 on a segment, the closed-form 2x2 inverse on a triangle."""
    if mesh.dim == 1:
        return (1.0 / mesh.element_measure ** 2)[None, None]
    p = mesh.vertices[mesh.elements]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    g11 = np.einsum("ij,ij->i", e1, e1)
    g12 = np.einsum("ij,ij->i", e1, e2)
    g22 = np.einsum("ij,ij->i", e2, e2)
    det = g11 * g22 - g12 * g12
    return np.array([[g22, -g12], [-g12, g11]]) / det


class _Assembly:
    """The mesh's stacked edge-difference operator D, its inverse Gram stack
    G and its system layouts.

    Row a * ne + e of D is vertex a + 1 of element e minus its vertex 0, so
    the squared gradient of a piecewise-linear field on element e is d'Gd,
    d = (D u)[e::ne] its k edge differences and G = G[:, :, e]. Systems are
    sums over elements of D' H D with symmetric blocks H, given by their
    entries (a, b), a <= b, in the order of `pairs`.
    """

    def __init__(self, mesh):
        ne, nv = mesh.n_elements, mesh.n_vertices
        el = mesh.elements
        k = el.shape[1] - 1
        rows = np.repeat(np.arange(k * ne), 2)
        cols = np.column_stack([np.tile(el[:, 0], k), el[:, 1:].T.ravel()])
        self.D = csr_matrix((np.tile([-1.0, 1.0], k * ne),
                             (rows, cols.ravel())), shape=(k * ne, nv))
        self.DT = self.D.T.tocsr()
        self.G = _gram_inverse(mesh)
        self.pairs = np.triu_indices(k)
        self.elements = el
        self.coords = mesh.vertices.reshape(nv, -1)
        self._layouts = {}

    @cached_property
    def dissection_order(self):
        """Nested-dissection order of all vertices; vertices that share an
        element (the stencil of every stiffness matrix and Hessian on the
        mesh) are neighbours."""
        ne, nvert = self.elements.shape
        incidence = csr_matrix(
            (np.ones(self.elements.size), self.elements.ravel(),
             np.arange(0, ne * nvert + 1, nvert)),
            shape=(ne, self.coords.shape[0]))
        return _dissection_order(self.coords, incidence.T @ incidence)

    def layout(self, fixed, bordered):
        """The cached _Layout of the systems on the vertices not fixed."""
        key = (bordered, None if fixed is None else fixed.tobytes())
        if key not in self._layouts:
            self._layouts[key] = _Layout(self, fixed, bordered)
        return self._layouts[key]


class _Layout:
    """One kind of linear system on a mesh, laid out for its factorization.

    The system is the sum over elements of D' H D (see _Assembly) plus
    diag(shift), on the free vertices, and if bordered, bordered by a column
    c with a zero corner. Its unknowns are the free vertices in the mesh's
    dissection order, the border placed before the last of them: a matrix
    singular in one direction not orthogonal to c (the constant mode of a
    stiffness matrix, the iterate at a Newton solution) would leave the
    round-off of that zero as the last pivot with the border last. The CSC
    pattern is fixed in that order, and the sparse map `scatter` takes the
    stacked [H blocks, shift, c] (per element, per vertex) to its data, so
    assembling a system is one product.

    A layout keeps at most one factorization, the one `solver` was asked to
    keep (the f-free p = 2 eigensolve system of _p2_eigenvector), while
    later calls ask for the same key; any other factorization on the layout
    (a Newton system) drops it.
    """

    def __init__(self, asm, fixed, bordered):
        nv = asm.coords.shape[0]
        order = asm.dissection_order
        free = np.arange(nv)
        if fixed is not None:
            free, order = np.flatnonzero(~fixed), order[~fixed[order]]
        nf = free.size
        n = nf + bordered
        at = np.full(nv, -1)  # the system index of each vertex, -1 if fixed
        at[order] = np.arange(nf)
        if bordered:
            at[order[-1]] = nf
        self.free, self.pos, self.n = free, at[free], n
        self.bordered = bordered
        self._kept = None  # (key, solve) of the kept factorization
        # the pattern: the key c * n + r of every entry (r, c) of the
        # element matrices (n * n where a vertex is fixed), the diagonal
        # and the border
        el = asm.elements
        ne, nvert = el.shape
        entries = [(at[el[:, i]], at[el[:, j]]) for i in range(nvert)
                   for j in range(nvert)]
        entries.append((self.pos, self.pos))
        if bordered:
            edge = np.full(nf, nf - 1)
            entries += [(self.pos, edge), (edge, self.pos)]
        pattern, slots = np.unique(np.concatenate(
            [np.where((r >= 0) & (c >= 0), c * n + r, n * n)
             for r, c in entries]), return_inverse=True)
        slots = slots.astype(np.int32)
        npat = np.count_nonzero(pattern < n * n)  # slot npat: off the system
        self.indptr = np.searchsorted(pattern, np.arange(n + 1) * n).astype(
            np.int32)
        self.indices = (pattern[:npat] % n).astype(np.int32)
        # the scatter, by columns: the slots each source value (an element's
        # block entry, a vertex's shift, border) lands on, with their
        # coefficients; local[a, i] is that of an element's vertex i in its
        # edge difference a, so block entry (a, b) adds local[a, i] *
        # local[b, j] (and its mirror for a != b) to element entry (i, j)
        element_slots = slots[:nvert * nvert * ne].reshape(-1, ne)
        local = np.hstack([-np.ones((nvert - 1, 1)), np.eye(nvert - 1)])
        sources = []
        for a, b in zip(*asm.pairs):
            w = np.outer(local[a], local[b])
            w = (w if a == b else w + w.T).ravel()
            use = np.flatnonzero(w)
            sources.append((element_slots[use].T, w[use]))
        rest = slots[nvert * nvert * ne:].reshape(-1, nf)  # diagonal, border
        for group in [rest[:1], rest[1:]] if bordered else [rest]:
            idx = np.full((nv, group.shape[0]), npat, dtype=np.int32)
            idx[free] = group.T
            sources.append((idx, 1.0))
        keep = [idx < npat for idx, _ in sources]
        counts = np.concatenate([kp.sum(axis=1) for kp in keep])
        values = [(kp * w)[kp] for (_, w), kp in zip(sources, keep)]
        self.scatter = csc_matrix(
            (np.concatenate(values),
             np.concatenate([idx[kp] for (idx, _), kp in zip(sources, keep)]),
             np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)),
            shape=(npat, counts.size))

    def matrix(self, blocks, shift, border=None):
        """The system of the per-element blocks, the per-vertex diagonal
        shift and, for a bordered layout, the per-vertex border; CSC in the
        layout's order."""
        parts = [*blocks, shift] + ([border] if self.bordered else [])
        return csc_matrix((self.scatter @ np.concatenate(parts),
                           self.indices, self.indptr), shape=(self.n, self.n))

    def solver(self, blocks, shift, border=None, key=None):
        """Solve with that system on the free vertices, LU-factored in the
        layout's order without pivoting (x = solve(b), both indexed like
        `free`, the border equation's right-hand side zero). Raises splu's
        RuntimeError when a pivot is exactly zero.

        With a key (bytes that determine the system), the factorization is
        kept and returned again while the key stays the same; a call with
        another key, or none, factors anew and drops the kept one. Threads
        that race here may each factor the system; the factorizations are
        bit-equal, so the race costs time only."""
        kept = self._kept
        if key is not None and kept is not None and kept[0] == key:
            return kept[1]
        self._kept = None
        lu = splu(self.matrix(blocks, shift, border), permc_spec="NATURAL",
                  diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        n, pos = self.n, self.pos  # the solve holds no reference to self

        def solve(b):
            y = np.zeros(n)
            y[pos] = b
            return lu.solve(y)[pos]
        if key is not None:
            self._kept = (key, solve)
        return solve


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

    def _edges(self, u, reg):
        """(d, Gd, g) per element: the edge differences d (k x ne) of u, G d
        and the regularized squared gradient g = d'Gd + reg."""
        d = (self.asm.D @ u).reshape(self.asm.G.shape[0], -1)
        gd = np.einsum("abe,be->ae", self.asm.G, d)
        return d, gd, np.einsum("ae,ae->e", d, gd) + reg

    def gradsq(self, u):
        """Squared gradient of the piecewise-linear field u, per element."""
        return self._edges(u, 0.0)[2]

    def layout(self, bordered):
        """The mesh's _Layout on this problem's free vertices."""
        return self.asm.layout(self.fixed, bordered)

    def stiffness_blocks(self):
        """Per-element blocks of the stiffness matrix K, numerator(u, 0) ==
        u @ K @ u when p = 2 (see _Assembly)."""
        return self.nw * self.asm.G[self.asm.pairs]

    def hessian_blocks(self, u, reg):
        """Per-element blocks of the Hessian of numerator(u, reg) (see
        _Assembly): nw p g^(p/2 - 1) G + nw p (p - 2) g^(p/2 - 2) (G d)(G d)',
        g the regularized squared gradient."""
        p, (a, b) = self.p, self.asm.pairs
        _, gd, g = self._edges(u, reg)
        coef = self.nw * p * g ** (p / 2.0 - 1.0)
        rank = self.nw * p * (p - 2.0) * g ** (p / 2.0 - 2.0)
        return coef * self.asm.G[a, b] + rank * gd[a] * gd[b]

    def numerator(self, u, reg):
        g = self._edges(u, reg)[2]
        return float(np.sum(self.nw * g ** (self.p / 2.0)))

    def num_and_grad(self, u, reg):
        p = self.p
        _, gd, g = self._edges(u, reg)
        gp1 = g ** (p / 2.0 - 1.0)
        num = float(np.sum(self.nw * gp1 * g))
        return num, self.asm.DT @ (self.nw * p * gp1 * gd).ravel()

    def denominator(self, u):
        return float(np.sum(np.abs(u) ** self.p * self.rho))

    def quotient_change(self, u, v, reg):
        """Regularized quotient of v minus that of u, computed from the
        difference v - u, so it stays accurate where the two quotients
        agree to round-off."""
        _, gd, g = self._edges(u, reg)
        e, ge, _ = self._edges(v - u, 0.0)
        dg = np.einsum("ae,ae->e", e, 2.0 * gd + ge)  # e'G(2d + e)
        au = np.abs(u)
        num = float(np.sum(self.nw * g ** (self.p / 2.0)))
        den = float(np.sum(self.rho * au ** self.p))
        dnum = float(np.sum(self.nw * _power_change(g, dg, self.p / 2.0)))
        dden = float(np.sum(self.rho * _power_change(au, np.abs(v) - au,
                                                      self.p)))
        return (dnum * den - num * dden) / (den * (den + dden))

    def normal(self, u):
        """|u|^(p-2) rho, with |u| floored at 1e-14 max|u|: the normal of
        the p-mean constraint and, times p(p-1), the Hessian of D."""
        au = np.abs(u)
        safe = np.maximum(au, 1e-14 * np.max(au) + _TINY)
        return (au ** self.p / safe / safe) * self.rho

    def den_grad(self, u):
        return self.p * np.sign(u) * np.abs(u) ** (self.p - 1.0) * self.rho

    def constraint_defect(self, u):
        au = np.abs(u)
        val = float(np.sum(np.sign(u) * au ** (self.p - 1.0) * self.rho))
        scale = float(np.sum(au ** (self.p - 1.0) * self.rho))
        return abs(val) / max(scale, _TINY)

    def project(self, u):
        """Pin the fixed vertices to zero (Dirichlet) or shift to vanishing
        p-mean (p_shift), then scale to unit denominator."""
        if self.fixed is not None:
            u = u.copy()
            u[self.fixed] = 0.0
        else:
            u = u - p_shift(u, self.rho, self.p)
        den = self.denominator(u)
        if den <= _TINY:
            raise DegenerateFieldError("degenerate start field")
        return u / den ** (1.0 / self.p)

    def tangent(self, u, grad):
        """Project a gradient onto the feasible directions at u."""
        if self.fixed is not None:
            grad = grad.copy()
            grad[self.fixed] = 0.0
            return grad
        normal = self.normal(u)
        norm = np.linalg.norm(normal)
        if norm <= _TINY:
            return grad
        nc = normal / norm
        return grad - np.dot(grad, nc) * nc


def _dissection_order(coords, pattern, leaf=32):
    """Geometric nested-dissection elimination order.

    Each vertex set is halved at the median of its widest coordinate (ties
    keep their order); the vertices of the lower half with a neighbour (a
    nonzero of `pattern`) in the upper half form the separator, ordered after
    both halves. Sets of at most `leaf` vertices keep their order. Each set
    holds a contiguous run of the order, and all sets of one depth are split
    together: the sets of a depth share no neighbours (a separator parts the
    halves), so one mask of all their upper halves finds every separator.
    """
    adj = pattern.tocsr(copy=True)
    adj.data[:] = 1.0
    n = adj.shape[0]
    order = np.arange(n)
    starts, sizes = np.array([0]), np.array([n])  # the sets still to split
    while True:
        split = sizes > leaf
        starts, sizes = starts[split], sizes[split]
        if not sizes.size:
            return order
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        which = np.repeat(np.arange(sizes.size), sizes)  # set of each slot
        rank = np.arange(which.size) - offsets[which]
        at = starts[which] + rank
        x = coords[order[at]]
        axis = np.argmax(np.maximum.reduceat(x, offsets)
                         - np.minimum.reduceat(x, offsets), axis=1)
        ranked = order[at][np.lexsort((x[np.arange(which.size), axis[which]],
                                       which))]
        upper = rank >= (sizes // 2)[which]
        mask = np.zeros(n)
        mask[ranked[upper]] = 1.0
        separator = ~upper & ((adj @ mask)[ranked] > 0.0)
        # regroup each set as [lower minus separator, upper, separator]
        group = 3 * which + np.where(upper, 1, np.where(separator, 2, 0))
        order[at] = ranked[np.argsort(group, kind="stable")]
        counts = np.bincount(group, minlength=3 * sizes.size).reshape(-1, 3)
        starts = np.column_stack([starts, starts + counts[:, 0]]).ravel()
        sizes = counts[:, :2].ravel()


@cache
def _blas_threads():
    """(get, set) of the thread count of scipy's OpenBLAS, which ARPACK
    calls, looked up through a scipy BLAS extension (scipy's wheels link
    one OpenBLAS for all of them), or None where the extension does not
    reach them (MKL and other BLAS builds)."""
    import ctypes
    from scipy.linalg import _fblas
    lib = ctypes.CDLL(_fblas.__file__)
    get = getattr(lib, "scipy_openblas_get_num_threads", None)
    put = getattr(lib, "scipy_openblas_set_num_threads", None)
    if not (get and put):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


_BLAS_PIN = threading.Lock()


@contextmanager
def _one_blas_thread():
    """Run the body with scipy's OpenBLAS at one thread and restore its
    count after: ARPACK's BLAS reductions then add in one order whatever
    the thread count, so the p = 2 eigenvector is bit-reproducible. The
    count is per process, so pinned bodies run one at a time. Without the
    thread-count symbols (_blas_threads) nothing is pinned."""
    threads = _blas_threads()
    if threads is None:
        yield
        return
    get, put = threads
    with _BLAS_PIN:
        count = get()
        put(1)
        try:
            yield
        finally:
            put(count)


def _p2_eigenvector(prob):
    """First nonzero eigenvector of the pencil (K, diag(rho)) at p = 2.

    Shift-invert Lanczos at shift 0 with a fixed start vector; its operator
    solves with a system factored in nested-dissection order. Closed and
    Neumann problems border K by the lumped vertex measure, which removes
    the constant null mode and leaves a system free of rho, and project the
    operator's input and output to the p = 2 mean constraint rho'u = 0:
    x -> P K+ P'x with P x = x - 1 (rho'x) / sum rho, the same operator as
    K bordered by rho. The bordered system depends on the factor only
    through K's element weights nw, which at p = m (the sphere at p = 2,
    where the energy is conformally invariant) are the element measures for
    every factor: its factorization is kept on the mesh's layout (see
    _Layout) and serves every p = 2 eigensolve on the mesh with bit-equal
    nw until a Newton system is factored there. Dirichlet problems take K
    on the free vertices. ARPACK runs with scipy's BLAS at one thread
    (_one_blas_thread). A singular factorization or a failed ARPACK run
    raises ConvergenceError.
    """
    closed = prob.fixed is None
    layout = prob.layout(bordered=closed)
    free = layout.free
    u = np.zeros(prob.mesh.n_vertices)
    if free.size <= 1:
        if free.size == 0:
            raise DegenerateFieldError("every vertex is pinned")
        u[free] = 1.0
        return u
    v0 = np.random.default_rng(0).standard_normal(free.size)
    rho = prob.rho[free]
    try:
        # an unbordered (Dirichlet) layout ignores the border
        solve = layout.solver(prob.stiffness_blocks(), np.zeros_like(u),
                              prob.mesh.vertex_measure,
                              key=prob.nw.tobytes() if closed else None)
        if closed:
            total = rho.sum()

            # sums, not BLAS dot products: one BLAS thread or many give
            # the same bits, and no BLAS threads wake per application
            def matvec(b):
                x = solve(b - rho * (b.sum() / total))
                return x - np.sum(rho * x) / total
        # shift-invert eigsh reads only the shape of its matrix argument
        op = LinearOperator((free.size, free.size),
                            matvec=matvec if closed else solve, dtype=float)
        with _one_blas_thread():
            _, vecs = eigsh(op, k=1, M=diags(rho), sigma=0.0, v0=v0,
                            OPinv=op)
    except RuntimeError as exc:  # splu: a zero pivot; eigsh: ArpackError
        raise ConvergenceError(f"p = 2 eigensolve failed: {exc}") from exc
    u[free] = vecs[:, 0]
    return u


_STAGES = 4             # equal steps of p from 2 to the target
_COARSEST = 200         # a chain of coarser meshes ends at this many
                        # vertices or fewer (the level-2 icosphere has 162)
_RELAX = 2              # damped Jacobi sweeps on each prolonged iterate
_OMEGA = 0.6            # their damping factor
_MIN_STEP = 2.0 ** -10  # Newton steps are halved down to this fraction
_FLAT_STEPS = 3         # a run stops after this many accepted steps in a
                        # row that change R by at most 4 ulp (round-off)
_DELTA = 1e-8           # regularization level, relative to the field
# relative shifts mu of lam (sigma = lam (1 - mu)) tried in turn while
# Newton steps fail to descend; a run stops beyond the last. mu = 1 is left
# out: at sigma = 0 the bordered system of a closed or Neumann problem has
# [1; 0] in its kernel (constants are in that of H_N, and grad D is
# orthogonal to them at vanishing p-mean); 1/2 and 2 stand in for it
_DAMPING = (0.0, 1e-3, 1e-2, 1e-1, 0.5, 2.0, 1e1, 1e2, 1e3)


def _regularization(prob, u):
    """_DELTA^2 s^2, s^2 the mean |du|^2 of u: the stage energy is
    (|du|^2 + _DELTA^2 s^2)^(p/2), a level that scales with the field, so
    the solve is equivariant under mesh dilation and factor scaling."""
    s2 = float(np.mean(prob.gradsq(u)))
    return _DELTA * _DELTA * (s2 if s2 > 0.0 else 1.0)


def _residual(prob, u, r, grad_n):
    """Norm of r = grad N - R grad D (the quotient gradient times D)
    projected on the feasible directions, relative to |grad N|."""
    return float(np.linalg.norm(prob.tangent(u, r)) /
                 max(np.linalg.norm(grad_n), _TINY))


def _newton_step(prob, u, sigma, reg, r, grad_d):
    """The u part of the solution of the bordered system
    [[H_N - sigma H_D, -grad D], [-grad D', 0]] [du; dlam] = [-r; 0]
    on the free vertices, or None when its factorization meets a zero
    pivot."""
    p = prob.p
    layout = prob.layout(bordered=True)
    try:
        solve = layout.solver(prob.hessian_blocks(u, reg),
                              -sigma * p * (p - 1.0) * prob.normal(u),
                              -grad_d)
    except RuntimeError:  # splu: a zero pivot
        return None
    du = np.zeros_like(u)
    du[layout.free] = solve(-r[layout.free])
    return du


def _newton(prob, u, reg, budget, target):
    """Newton's method for the minimum of the regularized quotient R from
    the admissible u, on the bordered system of F(u, lam) =
    (grad N_reg - lam grad D, 1 - D) with lam = R(u).

    Trial iterates are shifted to vanishing p-mean (closed and Neumann
    problems) and scaled to D = 1. A step is halved down to _MIN_STEP until
    R decreases sufficiently; when no fraction does, or the step is no
    descent direction (near a saddle of R), the system is solved again with
    lam shifted down by a growing multiple of itself, which turns the step
    towards a preconditioned gradient step (_DAMPING); a system with a zero
    pivot counts as such a step. A run whose last _FLAT_STEPS accepted
    steps changed R by round-off only stops ("round_off"): the residual
    target lies below what the arithmetic resolves. Returns the run's
    SpectralResult: its last iterate with the plain quotient, the residual
    that stopped the run, the systems solved, why it stopped, and R of the
    start and of every accepted iterate as history (nonincreasing). A zero
    budget evaluates the start alone.
    """
    def evaluate(v):
        num, grad_n = prob.num_and_grad(v, reg)
        return num, grad_n, prob.denominator(v), prob.den_grad(v)

    ev = evaluate(u)
    history = [ev[0] / ev[2]]
    steps = level = flat = 0
    while True:
        num, grad_n, den, grad_d = ev
        q = num / den
        r = grad_n - q * grad_d
        residual = _residual(prob, u, r, grad_n)
        if residual <= target:
            reason = "residual"
            break
        if flat == _FLAT_STEPS:
            reason = "round_off"
            break
        if steps >= budget:
            reason = "max_iterations"
            break
        du = _newton_step(prob, u, q * (1.0 - _DAMPING[level]), reg, r,
                          grad_d)
        steps += 1
        slope = 0.0 if du is None else float(np.dot(r, du)) / den
        t = 1.0
        while slope < 0.0 and t >= _MIN_STEP:
            trial = prob.project(u + t * du)
            change = prob.quotient_change(u, trial, reg)
            if change <= 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            level += 1
            if level == len(_DAMPING):
                reason = "line_search_floor"
                break
            continue
        level = max(level - 1, 0)
        flat = flat + 1 if abs(change) <= 4.0 * np.spacing(q) else 0
        u, ev = trial, evaluate(trial)
        history.append(history[-1] + change)
    return SpectralResult(
        lam=prob.numerator(u, 0.0) / den,
        eigenfunction=u,
        constraint_defect=(prob.constraint_defect(u) if prob.fixed is None
                           else 0.0),
        gradient_residual=residual,
        iterations=steps,
        restarts=0,
        converged=residual <= target,
        stop_reason=reason,
        history=history,
    )


def weighted_problem(mesh, f, p, fixed=None):
    """The weighted quotient of the conformal factor f at exponent p.

    numerator(u, 0) integrates |du|^p f^((m-p)/2) (weight averaged per
    element), denominator(u) integrates |u|^p f^(m/2) under the lumped vertex
    measure, gradsq(u) is the per-element |du|^2 and constraint_defect(u) the
    relative weighted p-mean of u. fixed, a boolean vertex mask, pins those
    vertices to zero in place of the p-mean constraint (Dirichlet). p must
    be finite and exceed 1 (ValueError otherwise).
    """
    check_p(p)
    f = check_conformal_factor(mesh, f)
    ew = _element_mean(mesh, energy_density_weight(mesh, f, p))
    return _Problem(mesh, p, mesh.element_measure * ew,
                    measure_density(mesh, f) * mesh.vertex_measure, fixed)


def _relax(prob, u, reg):
    """Up to _RELAX damped Jacobi sweeps u <- project(u - _OMEGA r / d) on a
    closed problem's Newton system at sigma = R (see _newton_step): d the
    diagonal of H_N - R p (p-1) diag(normal), r = grad N - R grad D. A sweep
    is kept while it lowers the regularized quotient R; a vertex where
    d <= 0 keeps its value. The sweeps smooth the high-frequency error that
    prolongation leaves."""
    p, layout = prob.p, prob.layout(bordered=True)
    for _ in range(_RELAX):
        num, grad_n = prob.num_and_grad(u, reg)
        grad_d = prob.den_grad(u)
        q = num / prob.denominator(u)
        d = layout.matrix(prob.hessian_blocks(u, reg),
                          -q * p * (p - 1.0) * prob.normal(u),
                          grad_d).diagonal()[layout.pos]
        r = grad_n - q * grad_d
        trial = prob.project(u - _OMEGA * np.divide(
            r, d, out=np.zeros_like(r), where=d > 0.0))
        if not prob.quotient_change(u, trial, reg) < 0.0:
            break
        u = trial
    return u


def _coarse_chain(mesh):
    """The mesh's coarser levels down to _COARSEST vertices (see
    coarser_icospheres), built once per mesh."""
    chain = getattr(mesh, "_psolve_chain", None)
    if chain is None:
        chain = coarser_icospheres(mesh, _COARSEST)
        mesh._psolve_chain = chain
    return chain


def _path(mesh, f, opts, fixed):
    """The canonical path at p != 2, coarse to fine (nested iteration).

    On the coarsest level of the mesh's chain (the mesh itself when it has
    none) it runs the p = 2 eigensolve and the continuation in p, each
    stage with its own regularization level. Each finer level runs one
    Newton run at the target p from the prolonged iterate, relaxed by
    _relax, at the level of its projected start. The coarse factor is f
    restricted to the coarse vertices, a prefix of the fine ones. Returns
    the finest run, its iterations summed over every level, with its
    problem and regularization level.
    """
    chain = _coarse_chain(mesh)  # only closed icospheres have one
    meshes = [mesh] + [coarse for coarse, _ in chain]  # finest first
    u = _p2_eigenvector(weighted_problem(
        meshes[-1], f[:meshes[-1].n_vertices], 2.0, fixed))
    # the stages on the coarsest level, then the target p on each finer one
    steps = [(meshes[-1], q, None)
             for q in np.linspace(2.0, opts.p, _STAGES + 1)[1:]]
    steps += [(finer, opts.p, prolong)
              for finer, (_, prolong) in zip(meshes[-2::-1], chain[::-1])]
    used = 0
    for level, q, prolong in steps:
        prob = weighted_problem(level, f[:level.n_vertices], q, fixed)
        u = prob.project(u if prolong is None else prolong @ u)
        reg = _regularization(prob, u)
        if prolong is not None:
            u = _relax(prob, u, reg)
        run = _newton(prob, u, reg, opts.max_iterations - used,
                      opts.residual_target)
        used += run.iterations
        u = run.eigenfunction
    run.iterations = used
    return run, prob, reg


def _solve(mesh, f, opts, fixed=None, extra_starts=None):
    """At p != 2 the canonical path (_path), then the extra_starts on the
    finest level at its regularization level. The lowest converged run
    wins with its own finest-level converged, gradient_residual and
    stop_reason; iterations counts the systems of every level and run."""
    # the one place that decides the scale: the solve runs on 2^k f, max
    # 2^k f in [1, 2), and lam(f) = 2^(kp/2) lam(2^k f); the D = 1
    # eigenfunction of f is that of 2^k f times 2^(km/2p)
    f = check_conformal_factor(mesh, f)
    k = 1 - int(np.frexp(np.max(f))[1])
    f = np.ldexp(f, k)
    if opts.p == 2.0:
        prob = weighted_problem(mesh, f, 2.0, fixed)
        u = prob.project(_p2_eigenvector(prob))
        best = _newton(prob, u, _regularization(prob, u), 0,
                       opts.residual_target)
        best.stop_reason = "eigensolve"
    else:
        run, prob, reg = _path(mesh, f, opts, fixed)
        used = run.iterations
        runs = [run]
        # supplied starts: the final stage only, at its regularization level
        for start in extra_starts or []:
            try:
                u = prob.project(np.asarray(start, dtype=float))
            except DegenerateFieldError:
                continue
            runs.append(_newton(prob, u, reg, opts.max_iterations - used,
                                opts.residual_target))
            used += runs[-1].iterations
        best = min([r for r in runs if r.converged] or runs,
                   key=lambda r: r.lam)
        best.iterations = used
        best.restarts = len(runs) - 1
    with np.errstate(over="ignore", under="ignore"):
        scale = np.exp2(k * opts.p / 2.0)
        best.lam = float(best.lam * scale)
        best.history = [float(h * scale) for h in best.history]
        best.eigenfunction = best.eigenfunction * np.exp2(
            k * mesh.dim / (2.0 * opts.p))
    if not 0.0 < best.lam < math.inf:
        raise ConvergenceError(
            f"lambda = {best.lam:g} at this factor's scale: outside the "
            "positive float range")
    return best


def solve_closed(mesh, f, opts, extra_starts=None):
    """Minimize the weighted quotient on a closed mesh (p-mean constraint).

    At p = 2 this is one sparse eigensolve, the exact discrete minimizer;
    extra_starts are unused there. On a sphere at p = 2 (p = m) the
    eigensolve's bordered system is the same for every factor, so the mesh
    keeps its factorization for the next p = 2 solve and drops it when it
    factors a Newton system (see _p2_eigenvector). Otherwise Newton with
    continuation in p from the p = 2 eigenvector. On a mesh made by
    build_icosphere with more than 200 vertices the eigensolve and the
    continuation run on the coarsest level of its chain (coarser_icospheres;
    the level-2 sphere), and each finer level runs Newton at the target p
    from the prolonged iterate after two damped Jacobi sweeps; any other
    mesh is solved on itself alone. Each of the extra_starts (warm starts
    included), shifted to the p-mean constraint, gets Newton at the target
    p on the mesh itself, each run ending at or below the quotient of its
    shifted start.
    The result is the lowest eigenvalue among the runs that meet the
    residual target (among all runs when none does); iterations and
    max_iterations count the Newton systems of every level and run.
    """
    if mesh.boundary.any():
        raise MeshError("solve_closed needs a closed mesh")
    return _solve(mesh, f, opts, extra_starts=extra_starts)


def solve_neumann(mesh, f, opts):
    """Closed-style solve on a mesh with boundary; the natural boundary
    condition holds weakly, the p-mean constraint is enforced. The p = 2
    eigensolve and the continuation path as in solve_closed."""
    if not mesh.boundary.any():
        raise MeshError("solve_neumann needs a mesh with boundary")
    return _solve(mesh, f, opts)


def solve_dirichlet(mesh, opts):
    """Minimize the unweighted quotient over fields vanishing on the
    boundary; no shift constraint. Eigensolve and continuation path as in
    solve_closed, on the free vertices."""
    if not mesh.boundary.any():
        raise MeshError("solve_dirichlet needs a mesh with boundary")
    return _solve(mesh, np.ones(mesh.n_vertices), opts, mesh.boundary)


# -- even reflection ----------------------------------------------------------

def mirror_index(mesh):
    """Index of each vertex's mirror across the mesh pole's equator plane.

    Requires the mesh to be mirror-symmetric: every mirrored vertex must land
    within 1e-6 shortest edges of a distinct vertex (the icosphere builder
    guarantees this for its own pole). A mesh without a pole raises
    MeshError.
    """
    if mesh.pole is None:
        raise MeshError("mesh has no pole")
    from scipy.spatial import cKDTree  # imported on first use
    n = mesh.vertices[mesh.pole]
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
    mirror = mirror_index(sphere)
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
    """Colatitude-band profile of |u| in the p-mean sense, with the two
    comparisons radial_average certifies."""

    r: np.ndarray                  # band centers
    values: np.ndarray             # (band mean of |u|^p)^(1/p)
    p: float
    pnorm_lhs: float = 0.0
    pnorm_rhs: float = 0.0
    grad_lhs: float = 0.0
    grad_rhs: float = 0.0


def radial_average(mesh, u, f, p):
    """Radial p-mean profile of u over colatitude bands.

    The int(pi / (2.5 s)) equal bands, s the largest edge span in
    colatitude, span over two element layers each. The returned profile
    carries two certified comparisons: the weighted p-norm of the profile
    against that of u (equal up to binning error), and the profile's
    weighted derivative energy against the full gradient energy (bounded
    above by it, up to binning error).
    """
    if mesh.kind != "sphere":
        raise MeshError("radial averaging needs a sphere mesh")
    u = check_field(mesh, u)
    n_bins = int(np.pi / (2.5 * mesh.max_edge_colatitude_span))
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
    return RadialProfile(centers, ubar, p, pnorm_lhs, pnorm_rhs, grad_lhs,
                         grad_rhs)


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

_MIDPOINT_SUBSTEPS = (2, 4, 6, 8, 10)  # Deuflhard's sequence: order 10


def _extrapolated_step(fun, t, y, f0, h):
    """Increment of y over [t, t + h] and its error estimate: the modified
    midpoint rule with each number of substeps in _MIDPOINT_SUBSTEPS,
    extrapolated to zero substep length by Aitken-Neville in h^2 (Gragg,
    Bulirsch & Stoer; Hairer, Norsett & Wanner, Solving ODEs I, II.9).
    f0 = fun(t, y). The rule runs on increments, so its rounding is
    relative to the change of y, not to y."""
    row = []
    for j, n in enumerate(_MIDPOINT_SUBSTEPS):
        s = h / n
        d0, d1 = [0.0] * len(y), [s * a for a in f0]
        for m in range(1, n):
            f = fun(t + m * s, [a + b for a, b in zip(y, d1)])
            d0, d1 = d1, [a + 2.0 * s * b for a, b in zip(d0, f)]
        f = fun(t + h, [a + b for a, b in zip(y, d1)])
        new = [[(a + b + s * c) / 2.0 for a, b, c in zip(d1, d0, f)]]
        for k, prev in enumerate(row):
            r = (n / _MIDPOINT_SUBSTEPS[j - k - 1]) ** 2 - 1.0
            new.append([a + (a - b) / r for a, b in zip(new[k], prev)])
        row = new
    return row[-1], [a - b for a, b in zip(row[-1], row[-2])]


def solve_ivp(fun, t_span, y0, events, first_step, rtol, atol):
    """Integrate y' = fun(t, y) over t_span from y0 until events(t, y)
    falls through zero (a terminal event). y0 and fun's values are
    sequences of floats, integrated one component at a time in Python
    floats.

    Steps are extrapolated midpoint steps (_extrapolated_step) of an
    adaptive length, starting from first_step; a step is accepted when
    its error estimate is within atol + rtol |y| in every component. The
    event's time is the Brent root (_brentq) of the event on the length of
    the accepted step that carries it through zero. The result has
    `status` 1 and `t_events[0][0]` at the event, `status` 0 when the span
    ends first, and `status` -1 with `message` when the step length falls
    below the spacing of the floats.
    """
    t, end = t_span
    y, h = list(y0), first_step
    while t < end:
        h = min(h, end - t)
        if t + h == t:
            return SimpleNamespace(status=-1, t_events=[[]],
                                   message="step size too small")
        f0 = fun(t, y)
        d, est = _extrapolated_step(fun, t, y, f0, h)
        new = [a + b for a, b in zip(y, d)]
        err = max(abs(e) / (atol + rtol * max(abs(a), abs(b)))
                  for e, a, b in zip(est, y, new))
        if err <= 1.0:
            if events(t + h, new) <= 0.0 < events(t, y):
                def crossing(s):
                    step = _extrapolated_step(fun, t, y, f0, s)[0]
                    return events(t + s, [a + b for a, b in zip(y, step)])
                s = _brentq(crossing, 0.0, h, 4.0 * math.ulp(t + h),
                            4.0 * sys.float_info.epsilon)
                return SimpleNamespace(status=1, t_events=[[t + s]],
                                       message="event")
            t, y = t + h, new
        # the estimate is O(h^9); a nan err shrinks the step
        h *= min(4.0, max(0.2, 0.9 * max(err, 1e-9) ** (-1.0 / 9.0)))
    return SimpleNamespace(status=0, t_events=[[]],
                           message="end of the span reached")


def shooting_eigenvalue_1d(p, mode, halfwidth):
    """First 1-D eigenvalue on (-halfwidth, halfwidth) by the p-sine time map.

    halfwidth is a number, or a non-empty sequence of them for a list of
    eigenvalues; either way p must be finite and exceed 1, and every
    halfwidth must be finite and positive (ValueError otherwise).

    The equation -(|u'|^(p-2) u')' = lam |u|^(p-2) u is (p-1)-homogeneous:
    u(c t) solves it at lam = c^p when u solves it at lam = 1 (Drabek &
    Manasevich, Differential Integral Equations 12, 1999). At lam = 1 the
    flux v = |u'|^(p-2) u' and u run from (u, v) = (0, 1) to (U, 0) over
    the quarter period T, U = (p-1)^(1/p) by the conserved energy
    |v|^r / r + |u|^p / p (r = p/(p-1)). Both modes span one quarter
    period on a halfwidth: the Dirichlet eigenfunction rises from u(-h) = 0
    to its maximum at 0, the odd Neumann mode from u(0) = 0 to its maximum
    at h.
    So lam = (T / h)^p in either mode, and a call with several halfwidths
    shares the one integration: each entry equals the one-halfwidth call's
    value bit for bit.
    The solution has a kink at either end of the quarter period, in
    |u|^(p-1) at u = 0 and in |v|^(r-1) at v = 0. So one solve_ivp run
    integrates both halves of the quarter period at once, each away from
    its kink: (u, v) forward from (0, 1), and (w, z) backward from (U, 0),
    which is (U v_r, U^(p-1) u_r) for the forward half (u_r, v_r) at the
    conjugate exponent r. Both start at time t0 from the two-term series
    of their end, t - t^(e+1) / ((e-1) e (e+1)) and 1 - t^e / e at exponent
    e, whose first neglected terms are O(t0^(2e)) relative: t0^(2 min(p,
    r)) = 1e-16. The halves meet at T/2, where (w - u) + (v - z) falls
    through zero at the rate 2 |v|^(r-1) + 2 |u|^(p-1) > 0. Energy
    conservation bounds T by p (p-1)^(1/p-1); the span is twice that
    bound. At rtol 1e-14 lam is within 1e-13 relative of the closed form
    over p in [1.05, 10]. A run that fails or ends before the halves meet
    raises ConvergenceError.
    """
    check_p(p)
    if mode not in ("dirichlet", "neumann"):
        raise ValueError("mode must be 'dirichlet' or 'neumann'")
    many = np.ndim(halfwidth) > 0
    widths = list(halfwidth) if many else [halfwidth]
    if not widths or not all(0.0 < h < math.inf for h in widths):
        raise ValueError("halfwidths must be finite and positive")
    k = p - 1.0
    q, r = 1.0 / k, p / k
    top = k ** (1.0 / p)
    slope = top ** k

    def rhs(_, y):
        u, v, w, z = y
        return (math.copysign(abs(v) ** q, v), -math.copysign(abs(u) ** k, u),
                -math.copysign(abs(z) ** q, z), math.copysign(abs(w) ** k, w))

    def meeting(_, y):
        u, v, w, z = y
        return (w - u) + (v - z)

    def series(e, t):  # (u, v) of the forward half at exponent e
        return (t - t ** (e + 1.0) / ((e - 1.0) * e * (e + 1.0)),
                1.0 - t ** e / e)
    t0 = 1e-8 ** (1.0 / min(p, r))
    (u, v), (z, w) = series(p, t0), series(r, t0)
    sol = solve_ivp(rhs, (t0, 2.0 * p * k ** (1.0 / p - 1.0)),
                    (u, v, top * w, slope * z), events=meeting,
                    first_step=t0, rtol=1e-14, atol=1e-16)
    if sol.status != 1:
        raise ConvergenceError(f"shooting integration failed: {sol.message}")
    lams = [float((2.0 * sol.t_events[0][0] / h) ** p) for h in widths]
    return lams if many else lams[0]
