import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from pwlab import geometry, hankel
from pwlab.geometry import (
    Ball,
    GeometryError,
    HPolytope,
    Product,
    Pyramid,
    VPolytope,
    body_from_json,
    box,
    check_ball_interactions_disjoint,
    disc_lens_reach,
    polar_dual,
    pyramid_ball_check,
    solve_certificate,
    to_hpolytope,
    unit_box,
    vertex_enumerate,
)
from pwlab.calibration import DEFAULT_CALIBRATION
from pwlab.nehari import build_bumps, pack_boundary_disc
from pwlab.simplicial import build_approximation


class TestMembership:
    def test_ball_center_inside(self):
        assert Ball([0.0, 0.0], 1.0).contains([0.0, 0.0])

    def test_ball_boundary_excluded(self):
        assert not Ball([0.0, 0.0], 1.0).contains([1.0, 0.0])

    def test_square_interior(self):
        assert unit_box(2).contains([0.5, 0.5])

    def test_square_boundary_excluded(self):
        assert not unit_box(2).contains([0.0, 0.5])

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            Ball([0.0, 0.0], 1.0).contains([1.0, 0.0, 0.0])

    def test_hv_consistency_on_probes(self, right_triangle, rng):
        v = VPolytope(vertex_enumerate(right_triangle))
        pts = rng.uniform(-0.5, 1.5, size=(1000, 2))
        assert np.array_equal(right_triangle.contains_batch(pts), v.contains_batch(pts))

    @pytest.mark.parametrize("name", ["triangle", "square", "cube", "pyramid"])
    def test_row_loop_matches_the_matrix_product(self, name, rng):
        # the mask of the one-product form, which omega_mc's draws relied on
        P = geometry.BUILTIN_BODIES[name]()
        verts = vertex_enumerate(P)
        pts = rng.uniform(-1.5, 1.5, size=(200000, P.dim))
        pts[::2] = (verts[rng.integers(len(verts), size=100000)]
                    * rng.uniform(0.999999, 1.000001, size=(100000, 1)))
        expect = np.all(pts @ P.normals.T < P.offsets, axis=1)
        assert np.array_equal(P.contains_batch(pts), expect)

    def test_product_and_affine(self, rng):
        body = Product((Ball([0.5], 0.5), Ball([0.5], 0.5)))
        img = geometry.AffineImage(base=body, matrix=2 * np.eye(2), shift=np.array([1.0, 0.0]))
        pts = rng.uniform(-1, 3, size=(500, 2))
        expect = body.contains_batch((pts - [1.0, 0.0]) / 2.0)
        assert np.array_equal(img.contains_batch(pts), expect)


class TestVertexEnumeration:
    def test_cube_vertices(self):
        verts = vertex_enumerate(box([-1, -1, -1], [1, 1, 1]))
        assert verts.shape == (8, 3)
        assert np.allclose(np.sort(np.abs(verts).ravel()), 1.0)

    def test_triangle_vertices(self, right_triangle):
        verts = vertex_enumerate(right_triangle)
        expected = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
        assert verts.shape == (3, 2)
        for p in expected:
            assert np.min(np.linalg.norm(verts - p, axis=1)) < 1e-9

    def test_pyramid_2d_vertices(self):
        # intersecting the three facet lines of T(1,1) by hand gives
        # (-1,0), (1,0), (0,1)
        verts = vertex_enumerate(Pyramid(1.0, 1.0, dim=2).hpolytope())
        expected = np.array([[-1, 0], [1, 0], [0, 1]], dtype=float)
        assert verts.shape == (3, 2)
        for p in expected:
            assert np.min(np.linalg.norm(verts - p, axis=1)) < 1e-9

    def test_pyramid_3d_vertices(self):
        verts = vertex_enumerate(Pyramid(1.0, 1.0, dim=3).hpolytope())
        expected = np.array([[-1, -1, 0], [-1, 1, 0], [1, -1, 0], [1, 1, 0], [0, 0, 1]],
                            dtype=float)
        assert verts.shape == (5, 3)
        for p in expected:
            assert np.min(np.linalg.norm(verts - p, axis=1)) < 1e-9

    def test_unbounded_rejected(self):
        with pytest.raises(GeometryError):
            vertex_enumerate(HPolytope([[-1, 0], [0, -1]], [0, 0]))

    def test_degenerate_rejected(self):
        flat = HPolytope([[0, 1], [0, -1], [1, 0], [-1, 0]], [0, 0, 1, 0])
        with pytest.raises(GeometryError):
            vertex_enumerate(flat)

    def test_strip_is_unbounded(self):
        # the rows span only one direction
        with pytest.raises(GeometryError, match="unbounded"):
            vertex_enumerate(HPolytope([[1, 0], [-1, 0]], [1, 1]))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([2, 3]),
           count=st.integers(4, 12))
    def test_permuted_and_repeated_halfspaces(self, seed, dim, count):
        rng = np.random.default_rng(seed)
        H = to_hpolytope(VPolytope(rng.uniform(-1, 1, size=(count, dim))))
        k = H.offsets.size
        rows = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, size=k // 2)]))
        verts = vertex_enumerate(H)
        other = vertex_enumerate(HPolytope(H.normals[rows], H.offsets[rows]))
        gap = np.linalg.norm(other[:, None] - verts[None], axis=2)
        assert other.shape == verts.shape
        assert np.all(gap.min(axis=0) <= geometry.DEDUP_TOL)


    @pytest.mark.parametrize("s", [1e-10, 1e-12])
    @pytest.mark.parametrize("name", ["triangle", "square", "cube", "pyramid"])
    def test_scale_free(self, name, s):
        # {a . y <= s b} is sP: its vertices are s times those of P, on the
        # same facets, with no window absolute
        P = geometry.BUILTIN_BODIES[name]()
        small = HPolytope(P.normals, s * P.offsets)
        verts = vertex_enumerate(small)
        assert verts.shape == P._vertices.shape
        assert np.all(np.abs(verts - s * vertex_enumerate(P)) <= 1e-14 * s)
        assert np.array_equal(small.incidence, P.incidence)


def distance_incidence(normals, offsets, verts) -> np.ndarray:
    """(vertex, facet) mask of the planes a . y = b passing within
    1e-9 (|a| |v| + |b|) of each vertex: an oracle for the tests only."""
    gap = np.abs(verts @ normals.T - offsets)
    scale = np.linalg.norm(verts, axis=1)[:, None] * np.linalg.norm(normals, axis=1)
    return gap <= 1e-9 * (scale + np.abs(offsets))


class TestIncidence:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([2, 3]),
           count=st.integers(4, 12))
    def test_hform_matches_plane_distances(self, seed, dim, count):
        # rows permuted, repeated and rescaled by 10^U(-3, 3)
        rng = np.random.default_rng(seed)
        H = to_hpolytope(VPolytope(rng.uniform(-1, 1, size=(count, dim))))
        k = H.offsets.size
        rows = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, size=k // 2)]))
        s = 10.0 ** rng.uniform(-3, 3, size=rows.size)
        H = HPolytope(H.normals[rows] * s[:, None], H.offsets[rows] * s)
        verts, incidence = geometry.vertex_incidence(H)
        assert np.array_equal(incidence, distance_incidence(H.normals, H.offsets, verts))
        assert np.array_equal(H.incidence, incidence)

    @pytest.mark.parametrize("name", ["pyramid", "cube"])
    def test_vform_matches_plane_distances(self, name):
        # the simplicial hulls: each facet one Qhull triangle
        hull = build_approximation(geometry.BUILTIN_BODIES[name](), 0.1, seed=11).hull
        h = hull.hform
        assert np.array_equal(hull.incidence,
                              distance_incidence(h.normals, h.offsets, hull.vertices))
        assert np.all(hull.incidence.sum(axis=0) == 3)

    def test_vform_merges_the_triangles_of_a_facet(self):
        # the cube's square faces, split by Qhull, each carry four corners
        cube = VPolytope(vertex_enumerate(unit_box(3)))
        assert np.all(cube.incidence.sum(axis=0) == 4)
        assert np.all(cube.incidence.sum(axis=1) == 3)

    def test_pyramid_apex_on_four_facets(self, shifted_pyramid):
        verts, incidence = geometry.vertex_incidence(shifted_pyramid)
        assert incidence[np.argmax(verts[:, 2])].sum() == 4
        assert sorted(incidence.sum(axis=1)) == [3, 3, 3, 3, 4]


class TestHull:
    def test_flat_facets_merged(self):
        # the cube's corners plus its centre and an edge midpoint: six facets,
        # though the hull triangulates each square face
        pts = np.vstack([vertex_enumerate(unit_box(3)), [[0.5, 0.5, 0.5], [0.5, 0.0, 0.0]]])
        h = to_hpolytope(VPolytope(pts))
        assert h.normals.shape == (6, 3)
        got, cube = vertex_enumerate(h), vertex_enumerate(unit_box(3))
        assert np.allclose(got[np.lexsort(got.T)], cube[np.lexsort(cube.T)], rtol=0, atol=1e-12)

    def test_flat_point_set_rejected(self):
        with pytest.raises(GeometryError, match="degenerate"):
            to_hpolytope(VPolytope([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]))

    def test_interval(self):
        h = to_hpolytope(VPolytope([[0.5], [-1.0], [2.0]]))
        assert np.array_equal(h.normals, [[1.0], [-1.0]])
        assert np.array_equal(h.offsets, [2.0, 1.0])


def counting(monkeypatch, name: str) -> list:
    """Wrap geometry.<name> so that every call is recorded; returns the record."""
    calls = []
    inner = getattr(geometry, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)
    monkeypatch.setattr(geometry, name, wrapper)
    return calls


class TestCachedCombinatorics:
    def test_vform_hull_built_once(self, monkeypatch, shifted_pyramid, rng):
        calls = counting(monkeypatch, "to_hpolytope")
        v = VPolytope(vertex_enumerate(shifted_pyramid))
        pts = rng.uniform(-1.0, 1.0, size=(200, 3))
        first = v.contains_batch(pts)
        for _ in range(4):
            assert np.array_equal(v.contains_batch(pts), first)
        assert v.contains(pts[0]) == first[0]
        assert np.array_equal(first, shifted_pyramid.contains_batch(pts))
        assert len(calls) == 1

    def test_hform_vertices_enumerated_once(self, monkeypatch, right_triangle):
        calls = counting(monkeypatch, "vertex_incidence")
        boxes = [right_triangle.bounding_box() for _ in range(5)]
        assert len(calls) == 1
        for lo, hi in boxes:
            assert np.allclose(lo, [0.0, 0.0]) and np.allclose(hi, [1.0, 1.0])

    @pytest.mark.parametrize("h, match", [
        (HPolytope([[-1, 0], [0, -1]], [0, 0]), "unbounded"),
        (HPolytope([[0, 1], [0, -1], [1, 0], [-1, 0]], [0, 0, 1, 0]), "empty interior"),
    ])
    def test_unbounded_or_flat_raise_every_call(self, monkeypatch, h, match):
        calls = counting(monkeypatch, "vertex_incidence")
        for _ in range(3):
            with pytest.raises(GeometryError, match=match):
                h.bounding_box()
        assert len(calls) == 3


class TestPolarDuality:
    def test_square_dual_is_cross(self):
        dual = polar_dual(box([-1, -1], [1, 1]))
        expected = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
        assert dual.vertices.shape == (4, 2)
        for p in expected:
            assert np.min(np.linalg.norm(dual.vertices - p, axis=1)) < 1e-12

    def test_involution_on_cube(self):
        cube = box([-1, -1, -1], [1, 1, 1])
        back = polar_dual(polar_dual(cube))
        verts = vertex_enumerate(back)
        orig = vertex_enumerate(cube)
        for p in orig:
            assert np.min(np.linalg.norm(verts - p, axis=1)) < 1e-9

    def test_involution_random_triangle(self):
        tri = VPolytope([[2.0, 0.0], [0.0, 2.0], [-1.0, -1.0]])
        dd = polar_dual(polar_dual(tri))
        for p in tri.vertices:
            assert np.min(np.linalg.norm(dd.vertices - p, axis=1)) < 1e-9

    def test_order_reversal(self):
        inner, outer = box([-0.5, -0.5], [0.5, 0.5]), box([-1, -1], [1, 1])
        d_outer, d_inner = polar_dual(outer), polar_dual(inner)
        h = to_hpolytope(d_inner)
        assert np.all(d_outer.vertices @ h.normals.T <= h.offsets + 1e-9)

    def test_involution_on_a_small_pyramid(self, shifted_pyramid):
        # offsets of 1e-10: the origin test and every window scale with the body
        s = 1e-10
        P = HPolytope(shifted_pyramid.normals, s * shifted_pyramid.offsets)
        verts, back = vertex_enumerate(P), vertex_enumerate(polar_dual(polar_dual(P)))
        gap = np.linalg.norm(back[:, None] - verts[None], axis=2)
        assert back.shape == verts.shape and gap.min(axis=0).max() <= 1e-12 * s

    def test_redundant_row_at_small_offsets(self):
        # the redundant row x <= 2s lies on no vertex at any scale s
        rows = [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 0]]
        unit = polar_dual(HPolytope(rows, [1, 1, 1, 1, 2]))
        s = 1e-10
        small = polar_dual(HPolytope(rows, s * np.array([1, 1, 1, 1, 2])))
        assert unit.vertices.shape == (4, 2)
        assert np.array_equal(small.vertices, unit.vertices / s)

    def test_repeated_row_dropped(self):
        # 2x <= 2 repeats the essential row x <= 1: one dual vertex for both
        square = box([-1, -1], [1, 1])
        repeated = HPolytope(np.vstack([square.normals, [[2, 0]]]), np.append(square.offsets, 2))
        dual = polar_dual(repeated)
        assert dual.vertices.shape == (4, 2)
        assert np.array_equal(dual.vertices, polar_dual(square).vertices)

    def test_origin_not_interior(self):
        shifted = box([1, 1], [2, 2])
        with pytest.raises(GeometryError):
            polar_dual(shifted)

    @pytest.mark.parametrize("verts", [[[1, 1], [2, 1], [1, 2]], [[0, 0], [1, 0], [0, 1]]],
                             ids=["origin_outside", "vertex_at_origin"])
    def test_origin_not_interior_to_a_vpolytope(self, verts):
        # {v . x <= 1} is then unbounded, or has a zero row, and is no polar
        with pytest.raises(GeometryError, match="origin not interior"):
            polar_dual(VPolytope(verts))

    def test_repeated_vertex_kept_once(self):
        # a repeated vertex is not in the hull of the other points, though it
        # is in the hull of its own copy
        dual = polar_dual(VPolytope([[-1, -1], [1, -1], [1, 1], [-1, 1], [1, 1]]))
        assert sorted(map(tuple, dual.normals)) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        assert np.array_equal(dual.offsets, np.ones(4))

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), name=st.sampled_from(["cube", "pyramid", "hull"]),
           form=st.sampled_from(["H", "V"]))
    def test_rotation_commutes_with_polarity(self, seed, name, form):
        # (QP)* = Q P* for a rotation Q, and (QP)** = QP
        rng = np.random.default_rng(seed)
        if name == "hull":
            P = to_hpolytope(VPolytope(rng.uniform(-1, 1, size=(rng.integers(5, 13), 3))))
        else:
            P = geometry.BUILTIN_BODIES[name]()
        # centred on its vertex mean, so the origin is interior
        verts = vertex_enumerate(P)
        centre = verts.mean(axis=0)
        verts = verts - centre
        P = HPolytope(P.normals, P.offsets - P.normals @ centre)
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        Q[:, 0] *= np.linalg.det(Q)
        if form == "H":
            body, turned = P, HPolytope(P.normals @ Q.T, P.offsets)
        else:
            body, turned = VPolytope(verts), VPolytope(verts @ Q.T)

        def vertices(b):
            return b.vertices if isinstance(b, VPolytope) else vertex_enumerate(b)

        def same_points(a, b):
            gap = np.linalg.norm(a[:, None] - b[None], axis=2)
            return a.shape == b.shape and max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= 1e-9

        dual = polar_dual(turned)
        assert same_points(vertices(dual), vertices(polar_dual(body)) @ Q.T)
        assert same_points(vertices(polar_dual(dual)), verts @ Q.T)


class TestPyramidBall:
    def test_anchor_radius(self):
        pyr = Pyramid(1.0, 1.0, dim=2)
        assert abs(pyr.inscribed_ball_radius(0.75) - 0.25 / math.sqrt(2)) < 1e-12
        assert pyramid_ball_check(1.0, 1.0, 0.75)

    def test_near_apex(self):
        assert pyramid_ball_check(1.0, 1.0, 1.0 - 1e-9)

    def test_out_of_range(self):
        with pytest.raises(GeometryError):
            pyramid_ball_check(1.0, 1.0, 0.25)


def sampled_containment_violations(C, eps, dim, count, rng):
    """Monte Carlo reference: how many of count draws of the lens
    B(2(1 - q) x, 1 + 2q) cap B(0, 1), q = C eps^2, lie at least eps from
    x = e_1.  Draws only show a violation that exists; a thin one they can miss."""
    q = C * eps * eps
    x = np.eye(dim)[0]
    pts = rejection_lens(Ball(np.zeros(dim), 1.0), Ball(2.0 * (1.0 - q) * x, 1.0 + 2.0 * q),
                         count, rng)
    return int(np.count_nonzero(np.linalg.norm(pts - x, axis=1) >= eps))


def containment_threshold(eps, dim):
    """The largest C whose lens lies in B(x, eps): the rim reaches
    sqrt(4q / (1 - q)) from x, and in 1-D the lens is the interval (1 - 4q, 1)."""
    return 1.0 / (4.0 * eps) if dim == 1 else 1.0 / (4.0 + eps * eps)


class TestDiscContainment:
    def test_zero_violations_at_calibrated_constant(self):
        C = DEFAULT_CALIBRATION.containment_c
        for eps in (0.1, 0.05, 0.01, DEFAULT_CALIBRATION.eps0):
            assert disc_lens_reach(C, eps) <= eps

    def test_violations_outside_regime(self):
        assert disc_lens_reach(10.0, 0.5) > 0.5

    def test_halved_constant_still_passes(self):
        C = DEFAULT_CALIBRATION.containment_c / 2
        assert disc_lens_reach(C, 0.1) <= 0.1

    def test_doubled_constant_fails(self):
        # doubling crosses the lens-corner threshold 1/(4 + eps^2)
        C = DEFAULT_CALIBRATION.containment_c * 2
        assert disc_lens_reach(C, 0.1) > 0.1

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.1, 0.35, 0.9])
    def test_verdict_flips_at_threshold(self, eps, dim):
        C = containment_threshold(eps, dim)
        assert disc_lens_reach(C * (1.0 - 1e-6), eps, dim) <= eps
        assert disc_lens_reach(C * (1.0 + 1e-6), eps, dim) > eps

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_reach_closed_form(self, dim):
        # the unit ball lies in B(2(1 - q) x, 1 + 2q) once q >= 1/2, which
        # includes the concentric balls at q = 1; its farthest point is -x
        eps = 0.5
        for q in (1e-6, 0.01, 0.2, 0.5 - 1e-9, 0.5, 0.5 + 1e-12, 0.7,
                  1.0 - 1e-12, 1.0, 1.0 + 1e-12, 3.0):
            if q >= 0.5:
                want = 2.0
            else:
                want = 4.0 * q if dim == 1 else math.sqrt(4.0 * q / (1.0 - q))
            got = disc_lens_reach(q / eps ** 2, eps, dim)
            # the candidates are formed at the unit scale of the balls, so the
            # squared reach is good to a few units in the last place of 1
            assert abs(got ** 2 - want ** 2) <= 1e-12 * want ** 2 + 1e-15, (q, got, want)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_agrees_with_sampling(self, dim, rng):
        # away from the threshold the sampled verdict is the exact one
        for eps in (0.1, 0.3, 0.6):
            for factor in (0.5, 0.9, 2.0, 4.0):
                C = factor * containment_threshold(eps, dim)
                sampled = sampled_containment_violations(C, eps, dim, 1000, rng)
                assert (sampled == 0) == (disc_lens_reach(C, eps, dim) <= eps), (eps, factor)

    @pytest.mark.parametrize("args", [(0.0, 0.1, 2), (-1.0, 0.1, 2), (0.24, 0.0, 2),
                                      (0.24, 1.0, 2), (0.24, 0.1, 0)])
    def test_invalid_arguments_rejected(self, args):
        with pytest.raises(GeometryError, match="need C > 0"):
            disc_lens_reach(*args)


class TestCertificates:
    def test_two_by_two_anchor(self):
        cert = solve_certificate([0.1, 0.1], [[0.5, 0.5], [0.5, 0.5]], 0)
        assert abs(cert.rho[0] - 21 / 22) < 1e-12
        assert abs(cert.rho[1] - 1 / 22) < 1e-12
        assert cert.residual() < 1e-10

    def test_three_by_three_uniform(self):
        cert = solve_certificate([0.2] * 3, np.full((3, 3), 1 / 3), 1)
        assert np.all(cert.rho > 0)
        assert abs(cert.rho.sum() - 1) < 1e-10

    def test_zero_lambda_reduces_to_identity(self):
        cert = solve_certificate([0.0, 0.0], [[0.5, 0.5], [0.5, 0.5]], 1)
        assert np.allclose(cert.rho, [0.0, 1.0], atol=1e-14)

    def test_singular_precondition(self):
        with pytest.raises(GeometryError):
            solve_certificate([0.6, 0.6], [[0.5, 0.5], [0.5, 0.5]], 0)

    def test_random_trials(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 6))
            lam = rng.uniform(1e-3, 0.999 / k, size=k)
            mu = rng.uniform(0.05, 1.0, size=(k, k))
            mu /= mu.sum(axis=1, keepdims=True)
            cert = solve_certificate(lam, mu, int(rng.integers(k)))
            assert np.all(cert.rho > 0)
            assert abs(cert.rho.sum() - 1) <= 1e-10

    def test_reconstruction_property(self, rng):
        k = 5
        x = rng.uniform(-1, 1, size=(k, 2))
        lam = rng.uniform(0.01, 0.9 / k, size=k)
        mu = rng.uniform(0.1, 1.0, size=(k, k))
        mu /= mu.sum(axis=1, keepdims=True)
        y = (1 + lam)[:, None] * x - lam[:, None] * (mu @ x)
        for target in range(k):
            cert = solve_certificate(lam, mu, target)
            assert np.linalg.norm(cert.rho @ y - x[target]) < 1e-8


class TestJsonSchema:
    def test_hpolytope_roundtrip(self, right_triangle):
        text = json.dumps({"dim": 2, "halfspaces": [
            {"normal": a.tolist(), "offset": float(b)}
            for a, b in zip(right_triangle.normals, right_triangle.offsets)]})
        back = body_from_json(text)
        assert np.array_equal(back.normals, right_triangle.normals)
        assert np.array_equal(back.offsets, right_triangle.offsets)

    def test_vpolytope_roundtrip(self):
        v = VPolytope([[0.1234567890123456, 2.0], [1e-17, -1.0], [3.0, 0.5]])
        back = body_from_json(json.dumps({"dim": 2, "vertices": v.vertices.tolist()}))
        assert np.array_equal(back.vertices, v.vertices)

    @pytest.mark.parametrize("doc, key", [
        ({"dim": 3, "vertices": [[0, 0], [1, 0], [0, 1]]}, "vertices"),
        ({"dim": 3, "halfspaces": [{"normal": [-1, 0], "offset": 0},
                                   {"normal": [0, -1], "offset": 0},
                                   {"normal": [1, 1], "offset": 1}]}, "halfspaces")])
    def test_dim_field_must_match(self, doc, key):
        with pytest.raises(GeometryError, match=f"dim field inconsistent with {key}"):
            body_from_json(json.dumps(doc))

    def test_schema_needs_halfspaces_or_vertices(self):
        with pytest.raises(GeometryError, match="needs 'halfspaces' or 'vertices'"):
            body_from_json(json.dumps({"dim": 2}))


def rejection_lens(a, b, count, rng):
    """Plain rejection from the overlap of the two balls' bounding boxes."""
    lo = np.maximum(a.center - a.radius, b.center - b.radius)
    hi = np.minimum(a.center + a.radius, b.center + b.radius)
    out = np.empty((0, a.dim))
    while out.shape[0] < count:
        z = rng.uniform(lo, hi, size=(8 * count, a.dim))
        out = np.vstack([out, z[a.contains_batch(z) & b.contains_batch(z)]])
    return out[:count]


def thin_boundary_lens():
    eps = 0.05
    cal = DEFAULT_CALIBRATION
    fam = build_bumps(pack_boundary_disc(eps), eps, cal.containment_c, cal.bump_c1)
    s = fam.supports()[0]
    return Ball([0.0, 0.0], 1.0), Ball(s.center, s.radius + 1.0)


LENS_3D = (Ball([0.0, 0.0, 0.2], 1.0), Ball([0.9, -0.6, 0.7], 0.8))


def lens_support(a, b):
    """A body and the support whose interaction region is the lens a cap b:
    the smaller ball is the body and the larger its reach."""
    body, reach = sorted((a, b), key=lambda ball: ball.radius)
    return body, Ball(reach.center + body.center, reach.radius - body.radius)


def reaches(body, supports):
    return [Ball(s.center - body.center, s.radius + body.radius) for s in supports]


def lens_draws(body, reach, count, rng):
    """count draws of the lens body cap reach, none if it is empty."""
    if np.linalg.norm(reach.center - body.center) >= reach.radius + body.radius:
        return np.empty((0, body.dim))
    return rejection_lens(body, reach, count, rng)


def sampled_overlap(body, supports, count, rng):
    """Monte Carlo reference: the first pair i < j for which some of count
    draws of D_i or of D_j lands in the other region, or None.  Draws only
    show an overlap that exists; a thin one they can miss."""
    reach = reaches(body, supports)
    draws = [lens_draws(body, r, count, rng) for r in reach]
    for i, j in itertools.combinations(range(len(supports)), 2):
        if reach[j].contains_batch(draws[i]).any() or reach[i].contains_batch(draws[j]).any():
            return f"interaction regions {i} and {j} overlap"
    return None


def common_point(balls, pts):
    """A point inside every ball, or None: a local search from the draw that
    comes nearest to one, which finds overlaps too thin for the draws."""
    if pts.shape[0] == 0:
        return None

    def excess(x):
        return max(np.linalg.norm(x - b.center) / b.radius - 1.0 for b in balls)

    x = optimize.minimize(excess, min(pts, key=excess), method="Nelder-Mead",
                          options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 4000}).x
    return x if all(b.contains(x) for b in balls) else None


def region_draws(body, supports, count, rng):
    """The three balls whose common part is D_0 cap D_1, and count draws of
    each of the two lenses."""
    balls = [body] + reaches(body, supports)
    return balls, np.vstack([lens_draws(body, r, count, rng) for r in balls[1:]])


def exact_outcome(body, supports):
    try:
        check_ball_interactions_disjoint(body, supports)
    except GeometryError as err:
        return str(err)
    return None


def random_configuration(rng, n):
    """A ball body and two supports whose regions are lenses at least 5 %
    of the largest depth 2 rho + R deep, in random directions."""
    body = Ball(rng.uniform(-1.0, 1.0, n), rng.uniform(0.5, 1.5))
    supports = []
    for _ in range(2):
        u = rng.normal(size=n)
        R = rng.uniform(0.05, 1.0)
        t = rng.uniform(0.6, 0.95) * (2.0 * body.radius + R)
        supports.append(Ball(2.0 * body.center + t * u / np.linalg.norm(u), R))
    return body, supports


class TestBallLens:
    @pytest.mark.parametrize("a, b", [
        thin_boundary_lens(),
        # the lens holds the centre of a, so its widest section is a's own
        (Ball([0.3, -0.2], 1.0), Ball([1.1, 0.3], 1.6)),
        LENS_3D,
    ], ids=["thin-boundary", "contains-centre", "3d"])
    def test_matches_plain_rejection(self, a, b):
        # probe balls through points of the lens, or just clear of them
        body, support = lens_support(a, b)
        rng = np.random.default_rng(31)
        pts = rejection_lens(a, b, 2000, rng)
        size = np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))
        outcomes = []
        for x in pts[:60]:
            u = rng.normal(size=body.dim)
            radius = body.radius + rng.uniform(0.01, 0.5) * size
            probe = Ball(x + (radius + rng.uniform(-0.3, 0.3) * size) * u / np.linalg.norm(u),
                         radius)
            supports = [support, Ball(probe.center + body.center, radius - body.radius)]
            overlap = exact_outcome(body, supports) is not None
            if overlap and not probe.contains_batch(pts).any():
                # an overlap the draws missed needs a common point
                assert common_point([a, b, probe], pts) is not None
            else:
                assert overlap == probe.contains_batch(pts).any()
            outcomes.append(overlap)
        assert 0 < sum(outcomes) < len(outcomes)

    def test_disjoint_and_overlapping_regions(self):
        body = Ball([0.0, 0.0], 1.0)
        apart = [Ball([1.8, 0.0], 0.1), Ball([-1.8, 0.0], 0.1)]
        check_ball_interactions_disjoint(body, apart)
        with pytest.raises(GeometryError, match="overlap"):
            check_ball_interactions_disjoint(body, [apart[0], apart[0]])

    def test_empty_lens_gives_no_points(self):
        # B((3.1, 0), 2.1) touches the disc at (1, 0) from outside, so its
        # region is empty, though the second region reaches that point
        supports = [Ball([3.1, 0.0], 1.1), Ball([1.8, 0.0], 0.1)]
        assert exact_outcome(Ball([0.0, 0.0], 1.0), supports) is None

    def test_non_ball_body_rejected(self):
        with pytest.raises(GeometryError, match="ball bodies"):
            check_ball_interactions_disjoint(unit_box(2), [Ball([1.8, 0.0], 0.1)])


class TestExactDisjointness:
    def test_random_configurations_match_sampling(self):
        rng = np.random.default_rng(2024)
        verdicts = []
        for trial in range(1200):
            body, supports = random_configuration(rng, trial % 3 + 1)
            msg = exact_outcome(body, supports)
            ref = sampled_overlap(body, supports, 1000, rng)
            if msg is not None and ref is None:
                # an overlap the draws missed needs a common point
                assert common_point(*region_draws(body, supports, 1000, rng)) is not None
            else:
                assert msg == ref
            verdicts.append(msg is None)
        assert 300 < sum(verdicts) < 900

    def test_sliver_overlap_missed_by_sampling(self):
        # two regions on the unit disc whose reach balls meet just inside
        # the circle: they share a sliver some 8e-6 deep, a 1e-7 part of each
        disc = Ball([0.0, 0.0], 1.0)
        theta = 1.14086
        supports = [Ball([1.8, 0.0], 0.1),
                    Ball([1.8 * math.cos(theta), 1.8 * math.sin(theta)], 0.1)]
        assert sampled_overlap(disc, supports, 10_000, np.random.default_rng(0)) is None
        assert common_point(*region_draws(disc, supports, 10_000,
                                          np.random.default_rng(0))) is not None
        with pytest.raises(GeometryError, match="interaction regions 0 and 1 overlap"):
            hankel.check_disjoint_interactions(disc, supports)

    @pytest.mark.parametrize("body, supports", [
        # 1-D: D_0 = (0, 1) and D_1 = (-1, 0) meet at 0 only
        (Ball([0.0], 1.0), [Ball([1.5], 0.5), Ball([-1.5], 0.5)]),
        # reach balls tangent at (0.8, 0), inside the disc
        (Ball([0.0, 0.0], 1.0), [Ball([0.8, 1.2], 0.2), Ball([0.8, -1.2], 0.2)]),
        # reach balls whose lens touches the disc at (1, 0) from outside
        (Ball([0.0, 0.0], 1.0), [Ball([2.2, 0.5], 0.3), Ball([2.2, -0.5], 0.3)]),
        # reach balls tangent at (0.6, 0.1, 0.1), inside a ball in space
        (Ball([0.1, -0.2, 0.3], 1.0),
         [Ball([0.7, 0.62, 1.36], 0.2), Ball([0.7, -0.82, -0.56], 0.2)]),
    ], ids=["1d", "tangent-inside", "tangent-at-boundary", "3d"])
    def test_tangent_regions_pass(self, body, supports):
        assert exact_outcome(body, supports) is None
        # pulled together by 1e-6 of their radii, they overlap
        reach = reaches(body, supports)
        mid = 0.5 * (reach[0].center + reach[1].center)
        closer = [Ball(mid + (r.center - mid) * (1.0 - 1e-6) + body.center, s.radius)
                  for r, s in zip(reach, supports)]
        assert exact_outcome(body, closer) == "interaction regions 0 and 1 overlap"

    @pytest.mark.parametrize("body, supports", [
        (Ball([0.0], 1.0), [Ball([0.2], 0.5), Ball([-0.1], 0.3)]),
        (Ball([0.0, 0.0], 1.0), [Ball([0.1, -0.2], 0.5), Ball([-0.2, 0.1], 0.4)]),
        (Ball([0.1, 0.2, 0.3], 1.0), [Ball([0.3, 0.3, 0.6], 0.4), Ball([0.2, 0.5, 0.4], 0.3)]),
    ], ids=["1d", "2d", "3d"])
    def test_regions_filling_the_body_raise(self, body, supports):
        # both reach balls hold the whole body, so both regions are the body
        # and no two of the three circles cross inside it
        assert exact_outcome(body, supports) == "interaction regions 0 and 1 overlap"

    @pytest.mark.parametrize("support", [
        Ball([1.5], 0.5), Ball([1.8, 0.3], 0.1), Ball([0.5, 1.2, -1.0], 0.4)])
    def test_identical_supports_raise(self, support):
        body = Ball(np.zeros(support.dim), 1.0)
        assert exact_outcome(body, [support, support]) == "interaction regions 0 and 1 overlap"


class TestPrunedDisjointness:
    # on the unit disc: FAR sits opposite the others, WIDE's lens covers most
    # of the disc, TINY's is a sliver at (1, 0) inside WIDE's and NEAR's,
    # and TURNED's lens overlaps NEAR's; the first pair i < j that overlaps
    # is named
    FAR = Ball([-1.8, 0.0], 0.1)
    WIDE = Ball([0.5, 0.0], 0.1)
    TINY = Ball([1.999, 0.0], 0.0005)
    NEAR = Ball([1.8, 0.0], 0.1)
    TURNED = Ball([1.8 * math.cos(0.5), 1.8 * math.sin(0.5)], 0.1)

    @pytest.mark.parametrize("supports, samples, pair", [
        ([FAR, WIDE, TINY], 200, "1 and 2"),
        ([FAR, NEAR, TURNED, TINY], 1000, "1 and 2"),
        ([NEAR, FAR, TURNED], 1000, "0 and 2"),
    ], ids=["j-below-i", "j-above-i-two-candidates", "j-above-i-skipping-one"])
    def test_overlap_message_matches_all_pairs(self, supports, samples, pair):
        disc = Ball([0.0, 0.0], 1.0)
        msg = exact_outcome(disc, supports)
        assert msg == sampled_overlap(disc, supports, samples, np.random.default_rng(0))
        assert msg == f"interaction regions {pair} overlap"

    def test_ball_touching_draw_box_without_hits(self):
        # a reach ball of radius 1.1 over the outer corner of the box of
        # NEAR's lens draws that misses the lens
        disc = Ball([0.0, 0.0], 1.0)
        touch = Ball([1.0 + 1.05 / math.sqrt(2), 0.54 + 1.05 / math.sqrt(2)], 0.1)
        pts = rejection_lens(disc, Ball(self.NEAR.center, 1.1), 1000, np.random.default_rng(0))
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        gap = np.linalg.norm(np.maximum(lo - touch.center, 0.0)
                             + np.maximum(touch.center - hi, 0.0))
        assert gap < 1.1 <= np.linalg.norm(pts - touch.center, axis=1).min()
        supports = [self.NEAR, touch]
        assert exact_outcome(disc, supports) is None
        assert sampled_overlap(disc, supports, 1000, np.random.default_rng(0)) is None

    def test_empty_lens_passes(self):
        # B(0,1) cap B((3,0), 1.1) is empty
        disc = Ball([0.0, 0.0], 1.0)
        supports = [Ball([3.0, 0.0], 0.1), self.NEAR, self.FAR]
        assert exact_outcome(disc, supports) is None
        assert sampled_overlap(disc, supports, 1000, np.random.default_rng(0)) is None
