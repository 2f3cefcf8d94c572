import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwlab import geometry
from pwlab.geometry import (
    Ball,
    LENS_MAX_ROUNDS,
    GeometryError,
    HPolytope,
    Product,
    Pyramid,
    VPolytope,
    body_from_json,
    body_to_json,
    box,
    chebyshev_ball,
    check_ball_interactions_disjoint,
    disc_containment_check,
    polar_dual,
    pyramid_ball_check,
    sample_ball_lens,
    solve_certificate,
    to_hpolytope,
    unit_box,
    vertex_enumerate,
)
from pwlab.calibration import DEFAULT_CALIBRATION
from pwlab.nehari import build_bumps, pack_boundary_disc


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


class TestHull:
    def test_flat_facets_merged(self):
        # the cube's corners plus its centre and an edge midpoint: six facets,
        # though the hull triangulates each square face
        pts = np.vstack([vertex_enumerate(unit_box(3)), [[0.5, 0.5, 0.5], [0.5, 0.0, 0.0]]])
        h = to_hpolytope(VPolytope(pts))
        assert geometry._facet_keys(h) == geometry._facet_keys(unit_box(3))
        assert h.normals.shape == (6, 3)

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
        calls = counting(monkeypatch, "vertex_enumerate")
        boxes = [right_triangle.bounding_box() for _ in range(5)]
        assert len(calls) == 1
        for lo, hi in boxes:
            assert np.allclose(lo, [0.0, 0.0]) and np.allclose(hi, [1.0, 1.0])

    @pytest.mark.parametrize("h, match", [
        (HPolytope([[-1, 0], [0, -1]], [0, 0]), "unbounded"),
        (HPolytope([[0, 1], [0, -1], [1, 0], [-1, 0]], [0, 0, 1, 0]), "empty interior"),
    ])
    def test_unbounded_or_flat_raise_every_call(self, monkeypatch, h, match):
        calls = counting(monkeypatch, "vertex_enumerate")
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


class TestChebyshevBall:
    def test_cube_center(self):
        c, r = chebyshev_ball(box([-1, -1, -1], [1, 1, 1]))
        assert np.allclose(c, 0.0, atol=1e-9)
        assert abs(r - 1.0) < 1e-9

    def test_triangle_incircle(self, right_triangle):
        c, r = chebyshev_ball(right_triangle)
        assert abs(r - (1 - math.sqrt(2) / 2)) < 1e-9

    def test_thin_box(self):
        eps = 1e-3
        _, r = chebyshev_ball(box([0, 0], [eps, 1.0]))
        assert abs(r - eps / 2) < 1e-12

    def test_ball_inside_body(self, right_triangle):
        c, r = chebyshev_ball(right_triangle)
        dists = (right_triangle.offsets - right_triangle.normals @ c) \
            / np.linalg.norm(right_triangle.normals, axis=1)
        assert np.all(dists >= r - 1e-9)


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


class TestDiscContainment:
    def test_zero_violations_at_calibrated_constant(self):
        C = DEFAULT_CALIBRATION.containment_c
        assert disc_containment_check(C, 0.1, 100_000, seed=5) == 0
        assert disc_containment_check(C, 0.05, 100_000, seed=5) == 0

    def test_violations_outside_regime(self):
        assert disc_containment_check(10.0, 0.5, 100_000, seed=5) > 0

    def test_halved_constant_still_passes(self):
        C = DEFAULT_CALIBRATION.containment_c / 2
        assert disc_containment_check(C, 0.1, 50_000, seed=5) == 0

    def test_doubled_constant_fails(self):
        # doubling crosses the lens-corner threshold 1/(4 + eps^2)
        C = DEFAULT_CALIBRATION.containment_c * 2
        assert disc_containment_check(C, 0.1, 10 ** 6, seed=5) > 0

    def test_rejection_rounds_capped(self, monkeypatch):
        # 10^6 samples take two rounds of at most 10^6 draws each
        C = DEFAULT_CALIBRATION.containment_c * 2
        uncapped = disc_containment_check(C, 0.1, 10 ** 6, seed=5)
        monkeypatch.setattr(geometry, "CONTAINMENT_MAX_ROUNDS", 2)
        assert disc_containment_check(C, 0.1, 10 ** 6, seed=5) == uncapped
        monkeypatch.setattr(geometry, "CONTAINMENT_MAX_ROUNDS", 1)
        with pytest.raises(GeometryError, match="rejection rounds"):
            disc_containment_check(C, 0.1, 10 ** 6, seed=5)

    def test_high_dimension_stops(self):
        # the ball fills about 2.5e-8 of its bounding box in dimension 20
        C = DEFAULT_CALIBRATION.containment_c
        with pytest.raises(GeometryError, match="rejection rounds"):
            disc_containment_check(C, 0.1, 100, seed=5, dim=20)


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
        text = body_to_json(right_triangle)
        back = body_from_json(text)
        assert np.array_equal(back.normals, right_triangle.normals)
        assert np.array_equal(back.offsets, right_triangle.offsets)

    def test_vpolytope_roundtrip(self):
        v = VPolytope([[0.1234567890123456, 2.0], [1e-17, -1.0], [3.0, 0.5]])
        back = body_from_json(body_to_json(v))
        assert np.array_equal(back.vertices, v.vertices)

    def test_schema_fields(self, right_triangle):
        import json
        doc = json.loads(body_to_json(right_triangle))
        assert doc["dim"] == 2
        assert set(doc["halfspaces"][0]) == {"normal", "offset"}


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


class CountingRng:
    """A generator that records the leading size of every uniform draw; the
    lens sampler draws the axial and the transverse coordinates of each
    round's candidates in two such calls."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def uniform(self, lo, hi, size):
        self.sizes.append(int(np.atleast_1d(size)[0]))
        return self.rng.uniform(lo, hi, size=size)

    @property
    def rounds(self):
        return len(self.sizes) // 2

    @property
    def candidates(self):
        return sum(self.sizes[::2])


LENS_3D = (Ball([0.0, 0.0, 0.2], 1.0), Ball([0.9, -0.6, 0.7], 0.8))


class TestBallLens:
    @pytest.mark.parametrize("a, b", [
        thin_boundary_lens(),
        # the lens holds the centre of a, so its widest section is a's own
        (Ball([0.3, -0.2], 1.0), Ball([1.1, 0.3], 1.6)),
        LENS_3D,
    ], ids=["thin-boundary", "contains-centre", "3d"])
    def test_matches_plain_rejection(self, a, b):
        count = 20_000
        lens = sample_ball_lens(a, b, count, np.random.default_rng(31))
        ref = rejection_lens(a, b, count, np.random.default_rng(32))
        assert lens.shape == (count, a.dim)
        assert np.all(a.contains_batch(lens) & b.contains_batch(lens))
        mid = 0.5 * (ref.min(axis=0) + ref.max(axis=0))
        for stat in (lambda z: z, lambda z: (z - mid) ** 2):
            u, v = stat(lens), stat(ref)
            se = np.sqrt(u.var(axis=0) / count + v.var(axis=0) / count)
            assert np.all(np.abs(u.mean(axis=0) - v.mean(axis=0)) <= 3.0 * se)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_thin_lens_takes_one_round(self, seed):
        a, b = thin_boundary_lens()
        rng = CountingRng(seed)
        assert sample_ball_lens(a, b, 10_000, rng).shape == (10_000, 2)
        assert rng.rounds == 1
        assert rng.candidates <= 2 * 10_000

    def test_3d_lens_fills_its_count_within_the_cap(self):
        rng = CountingRng(31)
        assert sample_ball_lens(*LENS_3D, 20_000, rng).shape == (20_000, 3)
        assert rng.rounds < LENS_MAX_ROUNDS

    def test_empty_lens_gives_no_points(self):
        pts = sample_ball_lens(Ball([0.0, 0.0], 1.0), Ball([3.1, 0.0], 2.1), 100,
                               np.random.default_rng(0))
        assert pts.shape == (0, 2)

    def test_rejection_rounds_capped(self):
        class EdgeOnly:
            # every draw lands on the lens's far face, outside the open balls
            def uniform(self, lo, hi, size):
                return np.full(size, hi, dtype=float)

        with pytest.raises(GeometryError, match="rejection rounds"):
            sample_ball_lens(Ball([0.0, 0.0], 1.0), Ball([1.5, 0.0], 1.0), 10, EdgeOnly())

    def test_disjoint_and_overlapping_regions(self):
        body = Ball([0.0, 0.0], 1.0)
        apart = [Ball([1.8, 0.0], 0.1), Ball([-1.8, 0.0], 0.1)]
        check_ball_interactions_disjoint(body, apart, 1000, seed=0)
        with pytest.raises(GeometryError, match="overlap"):
            check_ball_interactions_disjoint(body, [apart[0], apart[0]], 1000, seed=0)

    def test_non_ball_body_rejected(self):
        with pytest.raises(GeometryError, match="ball bodies"):
            check_ball_interactions_disjoint(unit_box(2), [Ball([1.8, 0.0], 0.1)], 10, seed=0)


def all_pairs_disjoint(body, supports, samples, seed):
    """Reference check: every draw of each lens against every other reach ball."""
    reaches = [Ball(s.center - body.center, s.radius + body.radius) for s in supports]
    centers = np.array([r.center for r in reaches])
    radii = np.array([r.radius for r in reaches])
    rng = np.random.default_rng(seed)
    for i, reach in enumerate(reaches):
        pts = sample_ball_lens(body, reach, samples, rng)
        hit = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2) < radii
        hit[:, i] = False
        if np.any(hit):
            j = int(np.argmax(hit.any(axis=0)))
            raise GeometryError(
                f"interaction regions {i} and {j} overlap "
                f"({int(np.count_nonzero(hit[:, j]))} of {samples} sampled points)")


def disjointness_outcome(check, supports, samples):
    try:
        check(Ball([0.0, 0.0], 1.0), supports, samples, 0)
    except GeometryError as err:
        return str(err)
    return None


class TestPrunedDisjointness:
    # on the unit disc: FAR sits opposite the others, WIDE's lens covers most
    # of the disc, TINY's is a sliver at (1, 0) inside WIDE's and NEAR's,
    # and TURNED's lens overlaps NEAR's; TINY is thin enough that WIDE's 200
    # draws miss it whatever the stream (at radius 0.005 some 15 % of seeds
    # hit it)
    FAR = Ball([-1.8, 0.0], 0.1)
    WIDE = Ball([0.5, 0.0], 0.1)
    TINY = Ball([1.999, 0.0], 0.0005)
    NEAR = Ball([1.8, 0.0], 0.1)
    TURNED = Ball([1.8 * math.cos(0.5), 1.8 * math.sin(0.5)], 0.1)

    @pytest.mark.parametrize("supports, samples, pair", [
        ([FAR, WIDE, TINY], 200, "2 and 1"),
        ([FAR, NEAR, TURNED, TINY], 1000, "1 and 2"),
        ([NEAR, FAR, TURNED], 1000, "0 and 2"),
    ], ids=["j-below-i", "j-above-i-two-candidates", "j-above-i-skipping-one"])
    def test_overlap_message_matches_all_pairs(self, supports, samples, pair):
        msg = disjointness_outcome(check_ball_interactions_disjoint, supports, samples)
        assert msg == disjointness_outcome(all_pairs_disjoint, supports, samples)
        assert msg.startswith(f"interaction regions {pair} overlap")

    def test_ball_touching_draw_box_without_hits(self):
        # a reach ball of radius 1.1 over the outer corner of NEAR's draw box
        touch = Ball([1.0 + 1.05 / math.sqrt(2), 0.54 + 1.05 / math.sqrt(2)], 0.1)
        pts = sample_ball_lens(Ball([0.0, 0.0], 1.0), Ball(self.NEAR.center, 1.1), 1000,
                               np.random.default_rng(0))
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        gap = np.linalg.norm(np.maximum(lo - touch.center, 0.0)
                             + np.maximum(touch.center - hi, 0.0))
        assert gap < 1.1 <= np.linalg.norm(pts - touch.center, axis=1).min()
        supports = [self.NEAR, touch]
        assert disjointness_outcome(check_ball_interactions_disjoint, supports, 1000) is None
        assert disjointness_outcome(all_pairs_disjoint, supports, 1000) is None

    def test_empty_lens_passes(self):
        # B(0,1) cap B((3,0), 1.1) is empty
        supports = [Ball([3.0, 0.0], 0.1), self.NEAR, self.FAR]
        assert disjointness_outcome(check_ball_interactions_disjoint, supports, 1000) is None
        assert disjointness_outcome(all_pairs_disjoint, supports, 1000) is None
