"""Simplicial models of the interval, circle, sphere and hemisphere.

Meshes carry base-metric element measures (Euclidean length in 1-D, flat
triangle area in 2-D). Every array a mesh holds is marked read-only: the
ones given at construction (vertices, elements, element measures, boundary
flags, parent index) and the ones derived on first use (vertex measure,
edge lengths, colatitudes). A mesh is not frozen, though: those derived
arrays are cached lazily, and solves attach psolve's caches to the mesh:
`_psolve_assembly` (the edge-difference operator and one system layout per
kind of system, each keeping at most one factorization that a later one
replaces) and `_psolve_chain` (the coarser levels of an icosphere, empty
for other meshes). None of these caches changes a result; threads that
share a mesh may build one twice, which costs time only.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components

__all__ = [
    "MeshError",
    "DiscreteManifold",
    "build_interval",
    "build_circle",
    "build_icosphere",
    "coarser_icospheres",
    "extract_hemisphere",
    "integrate",
    "save_off",
    "load_off",
    "save_mesh_csv",
    "load_mesh_csv",
]

EQUATOR_TOL = 1e-9

_PHI = (1.0 + math.sqrt(5.0)) / 2.0

# Icosahedron oriented so every coordinate axis is a two-fold symmetry axis;
# the vertex set is then exactly closed under each sign flip, in particular
# (x, y, z) -> (x, y, -z), which subdivision preserves.
_ICO_VERTICES = np.array(
    [
        [-1.0, _PHI, 0.0], [1.0, _PHI, 0.0], [-1.0, -_PHI, 0.0], [1.0, -_PHI, 0.0],
        [0.0, -1.0, _PHI], [0.0, 1.0, _PHI], [0.0, -1.0, -_PHI], [0.0, 1.0, -_PHI],
        [_PHI, 0.0, -1.0], [_PHI, 0.0, 1.0], [-_PHI, 0.0, -1.0], [-_PHI, 0.0, 1.0],
    ]
)

_ICO_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [5, 4, 9], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ]
)


class MeshError(ValueError):
    """Raised when a mesh violates a structural requirement."""


def _readonly(a):
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


class DiscreteManifold:
    """Simplicial mesh of one of the supported model manifolds.

    Parameters
    ----------
    kind : str
        One of ``"interval"``, ``"circle"``, ``"sphere"``, ``"hemisphere"``.
    vertices : ndarray
        Shape (n,) scalar coordinates for 1-D meshes (position on the line,
        arc position along the circle), shape (n, 3) unit vectors for sphere
        and hemisphere meshes.
    elements : ndarray of int
        Shape (ne, 2) segments or (ne, 3) triangles.
    element_measure : ndarray
        Base-metric length/area per element, all positive.
    boundary : ndarray of bool
        Per-vertex boundary flag; nonempty only for interval and hemisphere.
    pole : int or None
        Distinguished vertex used for radial (colatitude) constructions.
    length : float or None
        Total circumference, circle meshes only.
    parent_index : ndarray of int or None
        For hemispheres, the index of each vertex in the parent sphere mesh.
    """

    def __init__(self, kind, vertices, elements, element_measure, boundary,
                 pole=None, length=None, parent_index=None):
        if kind not in ("interval", "circle", "sphere", "hemisphere"):
            raise MeshError(f"unknown mesh kind {kind!r}")
        self.kind = kind
        self.dim = 1 if kind in ("interval", "circle") else 2
        self.vertices = _readonly(np.asarray(vertices, dtype=float))
        self.elements = _readonly(np.asarray(elements, dtype=np.int64))
        self.element_measure = _readonly(np.asarray(element_measure, dtype=float))
        self.boundary = _readonly(np.asarray(boundary, dtype=bool))
        self.pole = None if pole is None else int(pole)
        self.length = None if length is None else float(length)
        self.parent_index = None if parent_index is None else _readonly(
            np.asarray(parent_index, dtype=np.int64))
        self._validate()

    def _validate(self):
        n = self.n_vertices
        if self.elements.shape[1] != self.dim + 1:
            raise MeshError("element arity does not match mesh dimension")
        if self.elements.min() < 0 or self.elements.max() >= n:
            raise MeshError("element index out of range")
        if not np.all(np.isfinite(self.vertices)):
            raise MeshError("non-finite vertex coordinate")
        if np.any(self.element_measure <= 0.0):
            raise MeshError("non-positive element measure")
        if self.boundary.shape != (n,):
            raise MeshError("boundary flag length mismatch")
        if self.dim == 2:
            radii = np.linalg.norm(self.vertices, axis=1)
            if np.max(np.abs(radii - 1.0)) > 1e-12:
                raise MeshError("sphere vertices must sit on the unit sphere")
        if self.pole is not None and not (0 <= self.pole < n):
            raise MeshError("pole index out of range")
        # single connected component over shared vertices
        j0 = self.elements[:, :-1].ravel()
        j1 = self.elements[:, 1:].ravel()
        adj = coo_matrix((np.ones_like(j0), (j0, j1)), shape=(n, n))
        ncomp, _ = connected_components(adj, directed=False)
        if ncomp != 1:
            raise MeshError(f"mesh is not connected ({ncomp} components)")

    # -- basic queries ----------------------------------------------------

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]

    @cached_property
    def vertex_measure(self):
        """Lumped vertex measure: each element spreads its measure evenly."""
        share = self.element_measure / self.elements.shape[1]
        m = np.zeros(self.n_vertices)
        np.add.at(m, self.elements.ravel(),
                  np.repeat(share, self.elements.shape[1]))
        return _readonly(m)

    @cached_property
    def edge_lengths(self):
        if self.dim == 1:
            return self.element_measure
        p = self.vertices[self.elements]
        e = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
        return _readonly(np.linalg.norm(e, axis=2).ravel())

    @property
    def min_edge_length(self):
        return float(self.edge_lengths.min())

    @property
    def max_edge_length(self):
        return float(self.edge_lengths.max())

    @cached_property
    def max_edge_colatitude_span(self):
        """Largest edge extent in colatitude (the radial resolution that
        matters for banded radial constructions; equatorial edges span 0)."""
        if self.kind == "circle":
            return self.max_edge_length * np.pi / (self.length / 2.0)
        if self.dim == 2:
            c = self.colatitudes
            el = self.elements
            spans = [np.abs(c[el[:, i]] - c[el[:, j]])
                     for i, j in ((0, 1), (1, 2), (2, 0))]
            return float(np.max(spans))
        return self.max_edge_length

    @cached_property
    def colatitudes(self):
        if self.pole is None:
            raise MeshError("mesh has no pole")
        if self.dim == 2:
            c = np.arccos(np.clip(self.vertices @ self.vertices[self.pole], -1, 1))
        else:
            if self.kind != "circle":
                raise MeshError("colatitude needs a circle or sphere mesh")
            arc = np.abs(self.vertices - self.vertices[self.pole]) % self.length
            arc = np.minimum(arc, self.length - arc)
            c = arc * np.pi / (self.length / 2.0)
        return _readonly(c)


# -- builders -------------------------------------------------------------

def build_interval(n, a, b):
    """Uniform mesh of the interval (a, b) with n segments.

    Both endpoints are boundary-flagged; the total measure is b - a exactly.
    """
    if n < 2:
        raise MeshError("interval mesh needs n >= 2")
    if not a < b:
        raise MeshError("interval needs a < b")
    x = np.linspace(a, b, n + 1)
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    measures = np.diff(x)
    boundary = np.zeros(n + 1, dtype=bool)
    boundary[0] = boundary[-1] = True
    return DiscreteManifold("interval", x, elements, measures, boundary, pole=0)


def build_circle(n, length):
    """Closed uniform mesh of a circle of the given circumference.

    Vertices are arc positions in [0, length); vertex 0 is the pole used for
    colatitude, defined as arc distance rescaled to [0, pi].
    """
    if n < 3:
        raise MeshError("circle mesh needs n >= 3")
    if length <= 0:
        raise MeshError("circle length must be positive")
    s = np.arange(n) * (length / n)
    elements = np.column_stack([np.arange(n), (np.arange(n) + 1) % n])
    measures = np.full(n, length / n)
    boundary = np.zeros(n, dtype=bool)
    return DiscreteManifold("circle", s, elements, measures, boundary,
                            pole=0, length=length)


def _unique_edges(faces):
    """Undirected edges of a triangle list, numbered in first-seen order.

    Face k's edges are visited as (a, b), (b, c), (c, a). Returns the edges
    as sorted vertex pairs, shape (n_edges, 2), and the edge number of each
    face side, shape (n_faces, 3).
    """
    sides = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    keys = sides[:, 0] * (int(faces.max()) + 1) + sides[:, 1]
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(first.size)
    return sides[np.sort(first)], rank[inverse].reshape(-1, 3)


def _subdivide(verts, faces):
    edges, side_edge = _unique_edges(faces)
    mid = verts[edges[:, 0]] + verts[edges[:, 1]]
    mid /= np.linalg.norm(mid, axis=1)[:, None]
    ab, bc, ca = (len(verts) + side_edge).T
    a, b, c = faces.T
    new_faces = np.stack([np.column_stack([a, ab, ca]),
                          np.column_stack([b, bc, ab]),
                          np.column_stack([c, ca, bc]),
                          np.column_stack([ab, bc, ca])], axis=1)
    return np.vstack([verts, mid]), new_faces.reshape(-1, 3)


def _snap_equator(verts, min_edge):
    """Project vertices within 0.25 min-edge of the equator onto it."""
    colat = np.arccos(np.clip(verts[:, 2], -1, 1))
    near = np.abs(colat - np.pi / 2) < 0.25 * min_edge
    if np.any(near):
        v = verts.copy()
        v[near, 2] = 0.0
        norm = np.linalg.norm(v[near], axis=1)
        v[near] /= norm[:, None]
        return v
    return verts


def _conform_equator(verts, faces):
    """Flip the diagonal of every rhombus whose diagonal crosses the equator.

    Each equator-crossing edge must see two adjacent triangles whose opposite
    vertices both lie exactly on the equator (guaranteed by the mirror
    symmetry of the subdivided icosahedron); the flip replaces the crossing
    diagonal with the equatorial one, so no element straddles the equator.
    """
    z = verts[:, 2]
    sgn = np.where(np.abs(z) <= 1e-12, 0, np.sign(z)).astype(int)
    edges, side_edge = _unique_edges(faces)
    crossing = sgn[edges[:, 0]] * sgn[edges[:, 1]] == -1
    # face sides on crossing edges, grouped by edge and in face order within
    sides = np.flatnonzero(crossing[side_edge.ravel()])
    sides = sides[np.argsort(side_edge.ravel()[sides], kind="stable")]
    per_edge = np.bincount(side_edge.ravel()[sides], minlength=len(edges))
    if np.any(per_edge[crossing] != 2):
        raise MeshError("equator-crossing edge without two faces")
    face, slot = np.divmod(sides, 3)
    opposite = faces[face, (slot + 2) % 3]
    if np.any(sgn[opposite] != 0):
        raise MeshError("cannot conform equator: off-equator rhombus")
    f1, f2 = face[0::2], face[1::2]
    o1, o2 = opposite[0::2], opposite[1::2]
    u, w = edges[crossing].T
    up = np.where(sgn[u] > 0, u, w)
    dn = u + w - up
    faces = faces.copy()
    faces[f1] = np.column_stack([o1, o2, up])
    faces[f2] = np.column_stack([o2, o1, dn])
    fsig = sgn[faces]
    if np.any((fsig.min(axis=1) < 0) & (fsig.max(axis=1) > 0)):
        raise MeshError("equator conforming failed")
    return faces


def _orient_outward(verts, faces):
    p0, p1, p2 = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    normal = np.cross(p1 - p0, p2 - p0)
    inward = np.einsum("ij,ij->i", normal, p0 + p1 + p2) < 0
    faces = faces.copy()
    faces[inward] = faces[inward][:, [0, 2, 1]]
    return faces


def _triangle_areas(verts, faces):
    p0, p1, p2 = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    return 0.5 * np.linalg.norm(np.cross(p1 - p0, p2 - p0), axis=1)


def _subdivided(level):
    """Vertices and faces of the unit icosahedron subdivided `level` times,
    before any equator treatment."""
    verts = _ICO_VERTICES / np.linalg.norm(_ICO_VERTICES, axis=1)[:, None]
    faces = _ICO_FACES
    for _ in range(level):
        verts, faces = _subdivide(verts, faces)
    return verts, faces


def _icosphere_mesh(verts, faces, level):
    edge = verts[faces[:, [0, 1, 2]]] - verts[faces[:, [1, 2, 0]]]
    min_edge = float(np.linalg.norm(edge, axis=2).min())
    verts = _snap_equator(verts, min_edge)
    faces = _conform_equator(verts, faces)
    faces = _orient_outward(verts, faces)
    areas = _triangle_areas(verts, faces)
    pole = int(np.argmax(verts[:, 2]))
    boundary = np.zeros(len(verts), dtype=bool)
    mesh = DiscreteManifold("sphere", verts, faces, areas, boundary, pole=pole)
    mesh._icosphere_level = level  # read by coarser_icospheres
    return mesh


def build_icosphere(level):
    """Icosahedron subdivided `level` times and projected to the unit sphere.

    The mesh is exactly symmetric under z -> -z, carries a conforming ring of
    vertices at colatitude pi/2 (hemisphere extraction is exact), and its
    pole is the vertex nearest (0, 0, 1) (exactly (0, 0, 1) for level >= 1).
    Subdivision appends the edge midpoints, so the vertices of level k - 1
    are the first vertices of level k, bit for bit.
    """
    if not 0 <= level <= 8:
        raise MeshError("icosphere level must be in [0, 8]")
    return _icosphere_mesh(*_subdivided(level), level)


def coarser_icospheres(mesh, floor):
    """The coarser levels of a mesh made by build_icosphere, finest first.

    Each entry is (coarse, P): coarse equals build_icosphere of its level,
    and the sparse P prolongs its fields to the next finer level. P keeps
    the values of the coarse vertices (the first vertices of the finer
    level) and gives each new vertex the mean of the two ends of the edge it
    halves, an edge of the subdivision before the equator flips. The chain
    ends at the first level with at most `floor` vertices; it is empty for
    a mesh with at most `floor` vertices and for any mesh not made by
    build_icosphere.
    """
    level = getattr(mesh, "_icosphere_level", None)
    if level is None or mesh.n_vertices <= floor:
        return []
    raw = [_subdivided(0)]
    while len(raw) < level:
        raw.append(_subdivide(*raw[-1]))
    chain = []
    for k in range(level - 1, -1, -1):
        verts, faces = raw[k]
        n = len(verts)
        edges, _ = _unique_edges(faces)
        new = n + np.arange(len(edges))
        prolong = csr_matrix(
            (np.concatenate([np.ones(n), np.full(2 * len(edges), 0.5)]),
             (np.concatenate([np.arange(n), new, new]),
              np.concatenate([np.arange(n), edges[:, 0], edges[:, 1]]))),
            shape=(n + len(edges), n))
        chain.append((_icosphere_mesh(verts, faces, k), prolong))
        if n <= floor:
            break
    return chain


def extract_hemisphere(mesh):
    """Submesh of all elements on the pole side of the equator.

    Requires a conforming ring of vertices at colatitude pi/2 around the
    mesh's pole (no element may straddle the equator); the ring is
    boundary-flagged in the extracted mesh, which keeps the pole.
    """
    if mesh.kind != "sphere":
        raise MeshError("hemisphere extraction needs a sphere mesh")
    colat = mesh.colatitudes
    elem_colat = colat[mesh.elements]
    keep = np.all(elem_colat <= np.pi / 2 + EQUATOR_TOL, axis=1)
    conforming = np.all(elem_colat[~keep] >= np.pi / 2 - EQUATOR_TOL)
    if not conforming:
        raise MeshError("sphere mesh has no conforming equator ring "
                        "around its pole")
    used = np.unique(mesh.elements[keep])
    remap = np.full(mesh.n_vertices, -1, dtype=np.int64)
    remap[used] = np.arange(used.size)
    boundary = np.abs(colat[used] - np.pi / 2) <= EQUATOR_TOL
    return DiscreteManifold(
        "hemisphere",
        mesh.vertices[used],
        remap[mesh.elements[keep]],
        mesh.element_measure[keep],
        boundary,
        pole=int(remap[mesh.pole]),
        parent_index=used,
    )


# -- field operations ------------------------------------------------------

def check_field(mesh, values, name="field"):
    """Validate a per-vertex scalar field and return it as a float array."""
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n_vertices,):
        raise ValueError(f"{name} is misaligned with the mesh "
                         f"({values.shape} vs {mesh.n_vertices} vertices)")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} contains non-finite values")
    return values


def integrate(mesh, density):
    """Integral of a vertex density: element measure times vertex mean."""
    density = check_field(mesh, density, "density")
    # np.sum, not a BLAS dot: its partial sums do not depend on the number
    # of BLAS threads, so neither does any solve on a normalized factor
    return float(np.sum(mesh.element_measure
                        * density[mesh.elements].mean(axis=1)))


# -- serialization ---------------------------------------------------------

def save_off(mesh, path):
    """Write a triangle mesh in OFF text format."""
    if mesh.dim != 2:
        raise MeshError("OFF export is for triangle meshes; use save_mesh_csv")
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{mesh.n_vertices} {mesh.n_elements} 0\n")
        for v in mesh.vertices:
            fh.write("%.17g %.17g %.17g\n" % tuple(v))
        for t in mesh.elements:
            fh.write("3 %d %d %d\n" % tuple(t))


def load_off(path):
    """Read an OFF triangle mesh written by :func:`save_off`.

    Boundary flags are rebuilt from edge incidence; the pole is the vertex
    nearest (0, 0, 1).
    """
    with open(path) as fh:
        tokens = []
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.extend(line.split())
    if not tokens or tokens[0] != "OFF":
        raise MeshError("not an OFF file")
    try:
        nv, nf = int(tokens[1]), int(tokens[2])
        body = tokens[4:]
        verts = np.array(body[:3 * nv], dtype=float).reshape(nv, 3)
        rows = np.array(body[3 * nv:3 * nv + 4 * nf],
                        dtype=np.int64).reshape(nf, 4)
    except (IndexError, ValueError, OverflowError):
        raise MeshError("truncated or malformed OFF file") from None
    if nv <= 0 or nf <= 0:
        raise MeshError("OFF file has no vertices or faces")
    if np.any(rows[:, 0] != 3):
        raise MeshError("only triangle faces are supported")
    faces = rows[:, 1:]
    if faces.min() < 0 or faces.max() >= nv:
        raise MeshError("face index out of range")
    edges, side_edge = _unique_edges(faces)
    once = np.bincount(side_edge.ravel(), minlength=len(edges)) == 1
    boundary = np.zeros(nv, dtype=bool)
    boundary[edges[once].ravel()] = True
    kind = "hemisphere" if boundary.any() else "sphere"
    areas = _triangle_areas(verts, faces)
    pole = int(np.argmax(verts[:, 2]))
    return DiscreteManifold(kind, verts, faces, areas, boundary, pole=pole)


def save_mesh_csv(mesh, path):
    """Write a 1-D mesh as CSV rows (vertex, coordinate, boundary flag)."""
    if mesh.dim != 1:
        raise MeshError("CSV export is for 1-D meshes; use save_off")
    with open(path, "w") as fh:
        if mesh.kind == "circle":
            fh.write(f"# kind=circle length={mesh.length!r}\n")
        else:
            fh.write("# kind=interval\n")
        fh.write("vertex,coordinate,boundary\n")
        for i, (x, b) in enumerate(zip(mesh.vertices, mesh.boundary)):
            fh.write("%d,%.17g,%d\n" % (i, x, int(b)))


def _read_numeric_csv(path, n_fields, n_header):
    """Header lines and the rows of numbers of a CSV file.

    Blank lines are skipped; a row that is not n_fields comma-separated
    numbers, the first its vertex index 0, 1, ..., is a ValueError naming it.
    """
    with open(path) as fh:
        header = [fh.readline() for _ in range(n_header)]
        rows = []
        for lineno, line in enumerate(fh, start=n_header + 1):
            if not line.strip():
                continue
            fields = line.split(",")
            try:
                row = [float(x) for x in fields]
                if len(row) != n_fields or row[0] != len(rows):
                    raise ValueError
            except ValueError:
                raise ValueError(f"{path}, line {lineno}: expected {n_fields} "
                                 f"numbers, the first {len(rows)}") from None
            rows.append(row)
    return header, np.array(rows, dtype=float).reshape(-1, n_fields)


def load_mesh_csv(path):
    """Read a 1-D mesh written by :func:`save_mesh_csv`."""
    (header, _), rows = _read_numeric_csv(path, 3, n_header=2)
    coords = rows[:, 1]
    if len(coords) < 2:
        raise MeshError(f"{path}: a 1-D mesh needs at least two vertices")
    if "kind=circle" in header:
        try:
            length = float(header.split("length=")[1].split()[0])
        except (IndexError, ValueError):
            raise MeshError(f"{path}, line 1: circle header needs "
                            f"length=<number>") from None
        n = len(coords)
        elements = np.column_stack([np.arange(n), (np.arange(n) + 1) % n])
        gaps = np.diff(np.append(coords, coords[0] + length))
        return DiscreteManifold("circle", coords, elements, gaps,
                                np.zeros(n, dtype=bool), pole=0, length=length)
    boundary = rows[:, 2] == 1.0
    n = len(coords) - 1
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    return DiscreteManifold("interval", coords, elements, np.diff(coords),
                            boundary, pole=0)
