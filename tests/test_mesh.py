import numpy as np
import pytest

from pspectra import (DiscreteManifold, MeshError, build_circle,
                      build_icosphere, build_interval, extract_hemisphere,
                      integrate, load_mesh_csv, load_off, save_mesh_csv,
                      save_off, weighted_problem)
from pspectra import mesh as mesh_mod
from pspectra.mesh import coarser_icospheres


def gradsq(mesh, u):
    """Per-element squared gradient of u on the unweighted p = 2 problem."""
    return weighted_problem(mesh, np.ones(mesh.n_vertices), 2.0).gradsq(u)


class TestInterval:
    def test_three_vertices(self):
        m = build_interval(2, -1.0, 1.0)
        assert np.allclose(m.vertices, [-1.0, 0.0, 1.0])
        assert np.allclose(m.element_measure, [1.0, 1.0])
        assert set(np.flatnonzero(m.boundary)) == {0, 2}

    def test_total_measure(self):
        m = build_interval(4, 0.0, 2.0)
        assert m.element_measure.sum() == pytest.approx(2.0)
        m = build_interval(1000, -0.1, 0.1)
        assert m.element_measure.sum() == pytest.approx(0.2, abs=1e-14)

    def test_rejects(self):
        with pytest.raises(MeshError):
            build_interval(1, 0.0, 1.0)
        with pytest.raises(MeshError):
            build_interval(10, 1.0, 1.0)


class TestCircle:
    def test_uniform_segments(self):
        m = build_circle(3, 3.0)
        assert np.allclose(m.element_measure, 1.0)
        assert not m.boundary.any()

    @pytest.mark.parametrize("n", [3, 7, 50, 400])
    def test_total_measure_exact(self, n):
        m = build_circle(n, 2.0 * np.pi)
        assert m.element_measure.sum() == pytest.approx(2.0 * np.pi, rel=1e-14)

    def test_antipodal_colatitude(self):
        m = build_circle(6, 2.0 * np.pi)
        assert m.colatitudes[3] == pytest.approx(np.pi)

    def test_rejects(self):
        with pytest.raises(MeshError):
            build_circle(2, 1.0)
        with pytest.raises(MeshError):
            build_circle(10, 0.0)


def _loop_subdivide(verts, faces):
    """Reference quadrisection: midpoints numbered as first met, face by
    face, edge by edge."""
    verts, cache, new_faces = list(verts), {}, []

    def midpoint(i, j):
        key = (min(i, j), max(i, j))
        if key not in cache:
            m = verts[i] + verts[j]
            cache[key] = len(verts)
            verts.append(m / np.linalg.norm(m))
        return cache[key]

    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
    return np.array(verts), np.array(new_faces)


def _loop_conform(verts, faces):
    """Reference equator flips, one crossing edge at a time."""
    z = verts[:, 2]
    sgn = np.where(np.abs(z) <= 1e-12, 0, np.sign(z)).astype(int)
    adjacent = {}
    for fi, (a, b, c) in enumerate(faces):
        for u, w in ((a, b), (b, c), (c, a)):
            adjacent.setdefault((min(u, w), max(u, w)), []).append(fi)
    faces = faces.copy()
    for (u, w), (f1, f2) in ((e, fs) for e, fs in adjacent.items()
                             if sgn[e[0]] * sgn[e[1]] == -1):
        o1 = next(v for v in faces[f1] if v not in (u, w))
        o2 = next(v for v in faces[f2] if v not in (u, w))
        up, dn = (u, w) if sgn[u] > 0 else (w, u)
        faces[f1], faces[f2] = (o1, o2, up), (o2, o1, dn)
    return faces


def test_vectorized_build_matches_loop_reference():
    verts = mesh_mod._ICO_VERTICES / np.linalg.norm(
        mesh_mod._ICO_VERTICES, axis=1)[:, None]
    faces = mesh_mod._ICO_FACES
    for _ in range(5):
        ref_verts, ref_faces = _loop_subdivide(verts, faces)
        verts, faces = mesh_mod._subdivide(verts, faces)
        assert np.array_equal(faces, ref_faces)
        # midpoint norms are summed in another order: a few ulps of 1
        assert np.max(np.abs(verts - ref_verts)) <= 4.0 * np.finfo(float).eps
        edge = verts[faces] - verts[faces[:, [1, 2, 0]]]
        snapped = mesh_mod._snap_equator(
            verts, float(np.linalg.norm(edge, axis=2).min()))
        assert np.array_equal(mesh_mod._conform_equator(snapped, faces),
                              _loop_conform(snapped, faces))


class TestIcosphere:
    def test_level0_combinatorics(self):
        m = build_icosphere(0)
        assert m.n_vertices == 12
        assert m.n_elements == 20

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_quadrisection_counts(self, level):
        m = build_icosphere(level)
        assert m.n_elements == 20 * 4 ** level
        assert m.n_vertices == 2 + 10 * 4 ** level

    def test_unit_vertices(self, sphere3):
        radii = np.linalg.norm(sphere3.vertices, axis=1)
        assert np.max(np.abs(radii - 1.0)) <= 1e-12

    def test_level5_area(self, sphere5):
        area = sphere5.element_measure.sum()
        assert abs(area - 4.0 * np.pi) < 1e-3 * 4.0 * np.pi

    def test_spherical_area_oracle(self, sphere3):
        # exact geodesic triangle areas must tile the sphere
        v = sphere3.vertices[sphere3.elements]
        a = np.linalg.norm(v[:, 1] - v[:, 2], axis=1)
        b = np.linalg.norm(v[:, 0] - v[:, 2], axis=1)
        c = np.linalg.norm(v[:, 0] - v[:, 1], axis=1)
        a, b, c = (2.0 * np.arcsin(x / 2.0) for x in (a, b, c))
        s = 0.5 * (a + b + c)
        excess = 4.0 * np.arctan(np.sqrt(np.clip(
            np.tan(s / 2) * np.tan((s - a) / 2) * np.tan((s - b) / 2)
            * np.tan((s - c) / 2), 0.0, None)))
        assert excess.sum() == pytest.approx(4.0 * np.pi, rel=1e-10)

    def test_monotone_area_convergence(self):
        errs = [abs(build_icosphere(k).element_measure.sum() - 4.0 * np.pi)
                for k in range(5)]
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))

    def test_rejects_deep_levels(self):
        with pytest.raises(MeshError):
            build_icosphere(9)

    def test_pole_is_north(self, sphere3):
        assert np.allclose(sphere3.vertices[sphere3.pole], [0.0, 0.0, 1.0])

    def test_pole_and_antipode_colatitudes(self, sphere3):
        assert sphere3.colatitudes[sphere3.pole] == 0.0
        anti = int(np.argmin(sphere3.vertices @ sphere3.vertices[sphere3.pole]))
        assert sphere3.colatitudes[anti] == pytest.approx(np.pi)

    def test_equator_ring_snapped(self, sphere3):
        ring = np.abs(sphere3.colatitudes - np.pi / 2) <= 1e-9
        assert ring.sum() >= 8
        assert np.max(np.abs(sphere3.colatitudes[ring] - np.pi / 2)) < 1e-9

    def test_mirror_symmetric_vertex_set(self, sphere3):
        key = {tuple(np.round(v * 1e9).astype(np.int64)): i
               for i, v in enumerate(sphere3.vertices)}
        flipped = sphere3.vertices * np.array([1.0, 1.0, -1.0])
        for v in np.round(flipped * 1e9).astype(np.int64):
            assert tuple(v) in key

    def test_positive_orientation(self, sphere3):
        v = sphere3.vertices[sphere3.elements]
        n = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
        assert np.all(np.einsum("ij,ij->i", n, v.sum(axis=1)) > 0)


class TestHierarchy:
    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
    def test_coarse_vertices_are_a_prefix(self, level):
        coarse, fine = build_icosphere(level - 1), build_icosphere(level)
        assert np.array_equal(coarse.vertices,
                              fine.vertices[:coarse.n_vertices])

    def test_chain_ends_at_the_floor(self, sphere5):
        chain = coarser_icospheres(sphere5, 200)
        assert [c.n_vertices for c, _ in chain] == [2562, 642, 162]
        finer = [sphere5] + [c for c, _ in chain[:-1]]
        for (coarse, prolong), fine, level in zip(chain, finer, [4, 3, 2]):
            assert prolong.shape == (fine.n_vertices, coarse.n_vertices)
            ref = build_icosphere(level)
            assert np.array_equal(coarse.vertices, ref.vertices)
            assert np.array_equal(coarse.elements, ref.elements)
        assert [c.n_vertices for c, _ in coarser_icospheres(sphere5, 642)] \
            == [2562, 642]

    def test_prolongation_keeps_and_averages(self, sphere4):
        (coarse, prolong), = coarser_icospheres(sphere4, 642)
        n = coarse.n_vertices
        u = np.random.default_rng(3).standard_normal(n)
        w = prolong @ u
        assert np.array_equal(w[:n], u)
        rows = prolong.tocsr()[n:]
        assert np.all(np.diff(rows.indptr) == 2)
        assert np.all(rows.data == 0.5)
        a, b = rows.indices[0::2], rows.indices[1::2]
        assert np.array_equal(w[n:], 0.5 * (u[a] + u[b]))
        # each new vertex is the projected midpoint of the edge it halves
        mid = coarse.vertices[a] + coarse.vertices[b]
        mid /= np.linalg.norm(mid, axis=1)[:, None]
        assert np.max(np.abs(mid - sphere4.vertices[n:])) <= 1e-15

    def test_other_meshes_have_no_chain(self, sphere2, sphere3, tmp_path):
        save_off(sphere3, tmp_path / "s.off")
        rebuilt = DiscreteManifold("sphere", sphere3.vertices,
                                   sphere3.elements, sphere3.element_measure,
                                   sphere3.boundary, pole=sphere3.pole)
        for mesh in [sphere2, rebuilt, load_off(tmp_path / "s.off"),
                     extract_hemisphere(sphere3), build_circle(64, 1.0),
                     build_interval(64, -1.0, 1.0)]:
            assert coarser_icospheres(mesh, 200) == []
        assert len(coarser_icospheres(sphere2, 12)) == 2


class TestHemisphere:
    def test_measure_half(self, sphere4):
        h = extract_hemisphere(sphere4)
        assert abs(h.element_measure.sum() - 2.0 * np.pi) < 0.01 * 2.0 * np.pi

    def test_pole_interior_equator_boundary(self, sphere4):
        h = extract_hemisphere(sphere4)
        assert not h.boundary[h.pole]
        ring = np.abs(np.arccos(np.clip(h.vertices[:, 2], -1, 1))
                      - np.pi / 2) <= 1e-9
        assert np.array_equal(ring, h.boundary)

    def test_rejects_off_axis_pole(self, sphere3):
        # a generic vertex has no conforming ring around it
        off = int(np.argmax(sphere3.vertices[:, 0]))
        moved = DiscreteManifold("sphere", sphere3.vertices, sphere3.elements,
                                 sphere3.element_measure, sphere3.boundary,
                                 pole=off)
        with pytest.raises(MeshError):
            extract_hemisphere(moved)


class TestFieldOps:
    def test_integrate_identity_density(self, sphere5):
        one = np.ones(sphere5.n_vertices)
        assert integrate(sphere5, one) == pytest.approx(
            sphere5.element_measure.sum())
        assert abs(integrate(sphere5, one) - 4.0 * np.pi) < 0.002 * 4 * np.pi

    def test_integrate_linear(self, sphere3):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(sphere3.n_vertices)
        v = rng.standard_normal(sphere3.n_vertices)
        lhs = integrate(sphere3, 2.5 * u - 1.25 * v)
        rhs = 2.5 * integrate(sphere3, u) - 1.25 * integrate(sphere3, v)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_integrate_constant_scaling(self, circle400):
        c = 3.7
        val = integrate(circle400, np.full(circle400.n_vertices, c))
        assert val == pytest.approx(c * circle400.element_measure.sum(),
                                    rel=1e-14)

    def test_integrate_odd_symmetry(self, sphere3):
        z = sphere3.vertices[:, 2]
        assert abs(integrate(sphere3, z)) < 1e-10

    def test_integrate_misaligned(self, sphere3):
        with pytest.raises(ValueError):
            integrate(sphere3, np.ones(7))

    def test_gradient_constant(self, sphere3):
        g = gradsq(sphere3, np.full(sphere3.n_vertices, 4.2))
        assert np.all(g == 0.0)

    def test_gradient_unit_slope_1d(self, csv_interval):
        # and slope 3 on segments of unequal length
        for m, slope in [(build_interval(10, 0.0, 1.0), 1.0),
                         (csv_interval, 3.0)]:
            g = gradsq(m, slope * m.vertices)
            assert np.allclose(g, slope * slope, rtol=1e-12, atol=0.0)

    def test_gradient_linear_on_flat_triangles(self, sphere2):
        # the gradient of c.x on a flat triangle is c's part in its plane
        c = np.array([0.3, -1.2, 2.0])
        p = sphere2.vertices[sphere2.elements]
        n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        n /= np.linalg.norm(n, axis=1)[:, None]
        tangential = c - (n @ c)[:, None] * n
        g = gradsq(sphere2, sphere2.vertices @ c)
        assert np.allclose(g, np.sum(tangential ** 2, axis=1), rtol=1e-12,
                           atol=0.0)

    def test_gradient_shift_invariant(self, sphere3):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(sphere3.n_vertices)
        g1 = gradsq(sphere3, u)
        g2 = gradsq(sphere3, u + 11.0)
        # exact up to the roundoff of shifting the vertex values
        assert np.allclose(g1, g2, rtol=0.0, atol=1e-11 * g1.max())

    def test_coordinate_eigenfunction_identity(self, sphere5):
        # |dz|^2 integrates to twice the z^2 integral (z is a first mode);
        # closed forms: 8pi/3 and 4pi/3
        z = sphere5.vertices[:, 2].copy()
        energy = float(np.sum(sphere5.element_measure
                              * gradsq(sphere5, z)))
        mass = integrate(sphere5, z * z)
        assert mass == pytest.approx(4.0 * np.pi / 3.0, rel=0.01)
        assert energy == pytest.approx(2.0 * mass, rel=0.01)


class TestSerialization:
    def test_off_roundtrip(self, sphere2, tmp_path):
        path = tmp_path / "sphere.off"
        save_off(sphere2, path)
        back = load_off(path)
        assert np.array_equal(back.vertices, sphere2.vertices)
        assert np.array_equal(back.elements, sphere2.elements)
        assert back.kind == "sphere"
        assert not back.boundary.any()

    def test_off_hemisphere_boundary(self, sphere3, tmp_path):
        h = extract_hemisphere(sphere3)
        path = tmp_path / "hemi.off"
        save_off(h, path)
        back = load_off(path)
        assert back.kind == "hemisphere"
        assert np.array_equal(back.boundary, h.boundary)

    def test_load_off_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("PLY\n1 2 3\n")
        with pytest.raises(MeshError):
            load_off(path)

    def test_csv_roundtrip_interval(self, tmp_path):
        m = build_interval(12, -0.5, 2.0)
        path = tmp_path / "interval.csv"
        save_mesh_csv(m, path)
        back = load_mesh_csv(path)
        assert back.kind == "interval"
        assert np.array_equal(back.vertices, m.vertices)
        assert np.array_equal(back.boundary, m.boundary)

    def test_csv_roundtrip_circle(self, tmp_path):
        m = build_circle(17, 5.0)
        path = tmp_path / "circle.csv"
        save_mesh_csv(m, path)
        back = load_mesh_csv(path)
        assert back.kind == "circle"
        assert back.length == pytest.approx(5.0)
        assert np.allclose(back.element_measure, m.element_measure)
