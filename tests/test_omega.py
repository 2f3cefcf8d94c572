import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.spatial
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.spatial import ConvexHull, HalfspaceIntersection, QhullError

import pwlab

from pwlab import checks, geometry, omega
from pwlab.geometry import AffineImage, Ball, GeometryError, Product, unit_box
from pwlab.omega import (
    OmegaEvaluator,
    disc_lens,
    omega_ball,
    omega_box,
    omega_inverse_integral,
    omega_mc,
    omega_polytope_exact,
    sublevel_fit,
    unit_ball_omega_batch,
    unit_ball_volume,
)


class TestOmegaBall:
    def test_center_value_is_area(self):
        assert abs(omega_ball(2, 1.0, [0.0, 0.0]) - math.pi) < 1e-10

    def test_lens_anchor(self):
        expected = 2 * math.pi / 3 - math.sqrt(3) / 2
        assert abs(omega_ball(2, 1.0, [1.0, 0.0]) - expected) < 1e-10

    def test_support_boundary(self):
        assert omega_ball(2, 1.0, [2.0, 0.0]) == 0.0

    def test_one_dimensional_tent(self):
        # omega of (-r, r) is the tent 2r - |x|
        assert abs(omega_ball(1, 0.5, [0.3]) - 0.7) < 1e-12

    def test_batch_matches_quadrature(self):
        for n in (1, 2, 3, 4):
            s = np.linspace(0, 2.1, 13)
            batch = unit_ball_omega_batch(n, s)
            quad = [omega_ball(n, 1.0, np.append(si, np.zeros(n - 1))) for si in s]
            assert np.allclose(batch, quad, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_betainc_and_adaptive_quadrature(self, n):
        # criterion 2's radii; the fixed rule shares no formula with betainc,
        # and quad integrates the slice in t rather than in theta
        radii = np.linspace(0.0, 1.999, 100)
        rule = np.array([omega_ball(n, 1.0, np.append(s, np.zeros(n - 1))) for s in radii])
        adaptive = [integrate.quad(lambda t: (1 - t * t) ** ((n - 1) / 2), s / 2, 1,
                                   epsabs=1e-14, epsrel=1e-12)[0] for s in radii]
        assert np.max(np.abs(rule - unit_ball_omega_batch(n, radii))) < 1e-13
        assert np.max(np.abs(rule - 2 * unit_ball_volume(n - 1) * np.array(adaptive))) < 1e-13

    def test_radius_scaling(self):
        assert abs(omega_ball(2, 2.0, [1.0, 0.0]) - 4 * omega_ball(2, 1.0, [0.5, 0.0])) < 1e-10

    def test_batch_keeps_relative_accuracy_up_to_the_boundary(self):
        # closed forms: 2 - s on the line, (pi/12)(4 + s)(2 - s)^2 in space;
        # 1 - I_{z^2}(a, b) cancels to nothing at 2 - s = 1e-8 in 3-D
        s = np.concatenate([np.linspace(0.0, 1.99, 400), 2.0 - np.geomspace(1e-10, 1e-2, 60)])
        for n, exact in ((1, 2.0 - s), (3, math.pi / 12.0 * (4.0 + s) * (2.0 - s) ** 2)):
            assert np.max(np.abs(unit_ball_omega_batch(n, s) / exact - 1.0)) < 1e-13


class TestOmegaBox:
    def test_full_overlap_at_double_center(self):
        assert omega_box([1, 1], [1, 1]) == 1.0

    def test_half_overlap(self):
        assert omega_box([1, 1], [0.5, 1.0]) == 0.5

    def test_outside_support(self):
        assert omega_box([1, 1], [2.5, 1.0]) == 0.0


class TestOmegaPolytope:
    def test_square_matches_box(self, unit_square, rng):
        for p in rng.uniform(-0.5, 2.5, size=(50, 2)):
            assert abs(omega_polytope_exact(unit_square, p) - omega_box([1, 1], p)) < 1e-10

    def test_cube_full_overlap(self):
        assert abs(omega_polytope_exact(unit_box(3), [1, 1, 1]) - 1.0) < 1e-10

    def test_triangle_against_mc(self, right_triangle):
        x = np.array([2 / 3, 2 / 3])
        exact = omega_polytope_exact(right_triangle, x)
        est, se = omega_mc(right_triangle, x, 10 ** 6, seed=42)
        assert abs(exact - est) <= 3 * se

    def test_empty_intersection(self, right_triangle):
        assert omega_polytope_exact(right_triangle, [5.0, 5.0]) == 0.0

    def test_dimension_above_three_raises(self):
        with pytest.raises(GeometryError, match="dim <= 3"):
            omega_polytope_exact(unit_box(4), [1, 1, 1, 1])

    @pytest.mark.parametrize("x", [[math.nan, 0.2], [0.2, math.inf]])
    def test_non_finite_point_raises(self, right_triangle, x):
        with pytest.raises(GeometryError, match="not finite"):
            omega_polytope_exact(right_triangle, x)

    @pytest.mark.parametrize("name", ["triangle", "square", "pyramid"])
    def test_just_inside_a_vertex_of_the_doubled_body(self, name):
        P = geometry.BUILTIN_BODIES[name]()
        verts = geometry.vertex_enumerate(P)
        centre = 2 * verts.mean(axis=0)
        for v in 2 * verts:
            x = v + 1e-13 * (centre - v) / np.linalg.norm(centre - v)
            w = omega_polytope_exact(P, x)
            assert np.isfinite(w) and w >= 0.0
            assert abs(OmegaEvaluator(P)(x) - w) <= 1e-12

    def test_enumeration_failure_propagates(self, right_triangle, monkeypatch):
        def fail(*args, **kwargs):
            raise QhullError("initial simplex is flat")
        monkeypatch.setattr(scipy.spatial, "HalfspaceIntersection", fail)
        # outside 2P, and inside it but within the zero band of the facet
        # x + y < 2, the value is 0.0 without a Qhull call
        band = np.array([1.0, 1.0 - 1e-14])
        assert np.all(right_triangle.normals @ band < 2 * right_triangle.offsets)
        assert omega_polytope_exact(right_triangle, [5.0, 5.0]) == 0.0
        assert omega_polytope_exact(right_triangle, band) == 0.0
        with pytest.raises(GeometryError, match="initial simplex is flat"):
            omega_polytope_exact(right_triangle, [2 / 3, 2 / 3])

    def test_interval_is_the_tent(self):
        for x in np.linspace(-0.5, 3.5, 41):
            assert abs(omega_polytope_exact(geometry.box([0.0], [1.5]), [x])
                       - omega_box([1.5], [x])) <= 1e-15

    def test_matches_the_batch_where_vertices_meet(self):
        # at a vertex sum a vertex of x - P lies on a vertex of P, where
        # near-singular plane triples meet
        H = random_hull(np.random.default_rng(859), 3, 8)
        verts = geometry.vertex_enumerate(H)
        pts = (verts[:, None] + verts[None]).reshape(-1, 3)
        ref = OmegaEvaluator(H).batch(pts)
        got = np.array([omega_polytope_exact(H, x) for x in pts])
        assert H.normals.shape[0] == 12 and np.any(ref > 0)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, ref))


def random_hull(rng, dim: int, count: int) -> geometry.HPolytope:
    return geometry.to_hpolytope(geometry.VPolytope(rng.uniform(-1, 1, size=(count, dim))))


def probe_points(rng, ev: OmegaEvaluator, H: geometry.HPolytope) -> np.ndarray:
    """Random points of the support box, the vertices of 2H, random points on
    the facets of 2H, and the origin."""
    lo, hi = ev.support_box()
    verts, incidence = geometry.vertex_incidence(H)
    on_facets = [rng.dirichlet(np.ones(len(idx))) @ (2 * verts[idx])
                 for idx in map(np.flatnonzero, incidence.T) if len(idx) >= H.dim]
    return np.vstack([rng.uniform(lo, hi, size=(20, H.dim)), 2 * verts, on_facets,
                      np.zeros((1, H.dim))])


def best_time(run, repeats: int = 3) -> float:
    """Shortest wall time of a few calls of run()."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return min(times)


class TestPolytopeBatch:
    """The evaluator's batch over all points at once against the per-point
    oracle omega_polytope_exact."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([2, 3]),
           count=st.integers(4, 12), form=st.sampled_from(["H", "V", "affine"]))
    def test_matches_oracle(self, seed, dim, count, form):
        rng = np.random.default_rng(seed)
        H = random_hull(rng, dim, count)
        if form == "H":
            body, image = H, H
        elif form == "V":
            body, image = geometry.VPolytope(geometry.vertex_enumerate(H)), H
        else:
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
            mat = q @ np.diag(rng.uniform(0.5, 2.0, size=dim))
            shift = rng.uniform(-1, 1, size=dim)
            body = AffineImage(base=H, matrix=mat, shift=shift)
            pulled = H.normals @ np.linalg.inv(mat)
            image = geometry.HPolytope(pulled, H.offsets + pulled @ shift)
        ev = OmegaEvaluator(body)
        pts = probe_points(rng, ev, image)
        got = ev.batch(pts)
        ref = np.array([omega_polytope_exact(image, x) for x in pts])
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([2, 3]),
           count=st.integers(4, 12))
    @example(seed=43, dim=3, count=11)
    @example(seed=53, dim=3, count=12)
    @example(seed=259, dim=3, count=11)
    def test_matches_halfspace_intersection_where_vertices_meet(self, seed, dim, count):
        # at x = v + u a vertex of x - H lies on the vertex v of H, and many
        # planes meet there; scipy's halfspace intersection is the reference
        H = random_hull(np.random.default_rng(seed), dim, count)
        verts = geometry.vertex_enumerate(H)
        pts = (verts[:, None] + verts[None]).reshape(-1, dim)
        pts = pts[np.all(pts @ H.normals.T < 2 * H.offsets - 1e-6, axis=1)]
        got = OmegaEvaluator(H).batch(pts)
        planes = np.vstack([H.normals, -H.normals])
        for x, w in zip(pts, got):
            offsets = np.concatenate([H.offsets, H.offsets - H.normals @ x])
            hs = HalfspaceIntersection(np.hstack([planes, -offsets[:, None]]), x / 2)
            ref = ConvexHull(hs.intersections).volume
            assert abs(w - ref) <= 1e-12 * max(1.0, ref)

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([2, 3]),
           count=st.integers(4, 12))
    @example(seed=9, dim=3, count=9)
    @example(seed=27, dim=3, count=12)
    @example(seed=51, dim=3, count=11)
    def test_invariant_under_row_scaling(self, seed, dim, count):
        # {s_i a_i . y <= s_i b_i} is the same polytope for every s_i > 0
        rng = np.random.default_rng(seed)
        H = random_hull(rng, dim, count)
        s = 10.0 ** rng.uniform(-3, 3, size=H.offsets.size)
        scaled = geometry.HPolytope(H.normals * s[:, None], H.offsets * s)
        lo, hi = OmegaEvaluator(H).support_box()
        verts = geometry.vertex_enumerate(H)
        i, j = np.triu_indices(verts.shape[0])
        pts = np.vstack([rng.uniform(lo, hi, size=(20, dim)), verts[i] + verts[j]])
        for evaluate in (lambda P: OmegaEvaluator(P).batch(pts),
                         lambda P: np.array([omega_polytope_exact(P, x) for x in pts])):
            w = evaluate(H)
            assert np.all(np.abs(evaluate(scaled) - w) <= 1e-12 * np.maximum(1.0, w))

    @pytest.mark.parametrize("step", [0.0, 1e-12])
    def test_nearly_coplanar_facets(self, step):
        # facets 1 and 4 of this hull are 7.7e-5 rad apart, and at x true
        # vertices of the intersection lie about 1e-12 apart; an on-plane
        # distance window gave 1.013145 at x and 0.933313 one step away
        H = random_hull(np.random.default_rng(27), 3, 12)
        x = np.array([-0.25918592739057633, 0.2120067281258592, -0.8102766622563293]) + step
        w = omega_polytope_exact(H, x)
        assert abs(OmegaEvaluator(H)(x) - w) <= 1e-12 * max(1.0, w)

    @pytest.mark.parametrize("s", [1e-6, 1e-8, 1e-10, 1e-12])
    @pytest.mark.parametrize("name", ["triangle", "square", "cube", "pyramid"])
    def test_scale_free(self, name, s):
        # w_{sP}(s x) = s^n w_P(x), and sP has the offsets s b
        P = geometry.BUILTIN_BODIES[name]()
        ev = OmegaEvaluator(P)
        lo, hi = ev.support_box()
        pts = np.random.default_rng(4).uniform(lo, hi, size=(200, P.dim))
        w = ev.batch(pts)
        small = OmegaEvaluator(geometry.HPolytope(P.normals, s * P.offsets))
        assert np.any(w > 0)
        assert np.all(np.abs(small.batch(s * pts) / s ** P.dim - w) <= 1e-12 * w)

    def test_small_square(self):
        # the square (0, s)^2 at s = 1e-8: a feasibility window of 1e-12 |a|,
        # absolute, is 4.4e-5 of the body's width and let a spurious vertex
        # in, 8.9e-5 off the exact value
        s = 1e-8
        P = geometry.HPolytope(unit_box(2).normals, s * unit_box(2).offsets)
        w = OmegaEvaluator(P)(s * np.array([0.79363361, 1.00004425]))
        assert abs(w / s ** 2 - 0.7935984917127575) <= 1e-12

    @pytest.mark.parametrize("name", ["cube", "pyramid"])
    def test_repeated_and_redundant_rows(self, name):
        # two rows again, scaled by 3, and a halfspace that cuts nothing give
        # the same body; the quarter grid of 2P holds the points where planes
        # of P and of x - P coincide
        P = geometry.BUILTIN_BODIES[name]()
        more = geometry.HPolytope(np.vstack([P.normals, 3 * P.normals[:2], [[1.0, 2.0, 3.0]]]),
                                  np.concatenate([P.offsets, 3 * P.offsets[:2], [100.0]]))
        ev = OmegaEvaluator(P)
        lo, hi = P.bounding_box()
        steps = np.stack(np.meshgrid(*[np.arange(9)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
        grid = 2 * lo + steps * (hi - lo) / 4
        pts = np.vstack([np.random.default_rng(5).uniform(*ev.support_box(), size=(200, 3)), grid])
        w = ev.batch(pts)
        assert np.any(w[200:] > 0)
        assert np.all(np.abs(OmegaEvaluator(more).batch(pts) - w) <= 1e-15)

    def test_coincident_planes_count_once(self):
        # where x_i = 1 the facets y_i <= 1 of the cube and y_i <= x_i of
        # x - cube coincide, and so do y_i >= 0 and y_i >= x_i - 1
        pts = np.array([[1.0, 0.7, 1.2], [1.0, 1.0, 0.4], [1.0, 1.0, 1.0], [0.3, 1.0, 1.9]])
        got = OmegaEvaluator(unit_box(3)).batch(pts)
        assert np.allclose(got, [omega_box([1, 1, 1], p) for p in pts], rtol=0, atol=1e-15)

    def test_interval_is_the_tent(self):
        pts = np.linspace(-0.5, 3.5, 41)[:, None]
        got = OmegaEvaluator(geometry.box([0.0], [1.5])).batch(pts)
        assert np.allclose(got, [omega_box([1.5], p) for p in pts], rtol=0, atol=1e-15)

    def test_exact_zero_off_the_interior_of_the_doubled_body(self, shifted_pyramid):
        ev = OmegaEvaluator(shifted_pyramid)
        verts = geometry.vertex_enumerate(shifted_pyramid)
        far = 2 * verts + 0.5 * (verts - verts.mean(axis=0))
        assert np.all(ev.batch(np.vstack([2 * verts, far])) == 0.0)

    def test_triangle_throughput(self, right_triangle):
        ev = OmegaEvaluator(right_triangle)
        lo, hi = ev.support_box()
        pts = np.random.default_rng(1).uniform(lo, hi, size=(100_000, 2))
        assert pts.shape[0] / best_time(lambda: ev.batch(pts)) >= 1e5

    @pytest.mark.parametrize("name", ["square", "triangle", "cube", "pyramid", "hull"])
    def test_matches_the_pointwise_oracle(self, name):
        rng = np.random.default_rng(3)
        P = random_hull(rng, 3, 10) if name == "hull" else geometry.BUILTIN_BODIES[name]()
        ev = OmegaEvaluator(P)
        pts = probe_points(rng, ev, P)
        ref = np.array([omega_polytope_exact(P, x) for x in pts])
        assert np.all(np.abs(ev.batch(pts) - ref) <= 1e-12 * np.maximum(1.0, ref))

    def test_independent_of_blas_threads(self):
        script = (
            "import hashlib, numpy as np\n"
            "from pwlab import geometry, omega\n"
            "rng = np.random.default_rng(5)\n"
            "for name in ('triangle', 'square', 'cube', 'pyramid'):\n"
            "    ev = omega.OmegaEvaluator(geometry.BUILTIN_BODIES[name]())\n"
            "    lo, hi = ev.support_box()\n"
            "    w = ev.batch(rng.uniform(lo, hi, size=(20000, ev.body.dim)))\n"
            "    print(name, hashlib.sha256(w.tobytes()).hexdigest())\n")
        src = str(Path(pwlab.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            outs.append(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                       capture_output=True, text=True, timeout=600).stdout)
        assert outs[0] == outs[1] and outs[0].count("\n") == 4


class TestOmegaMC:
    def test_disc_center(self, disc):
        est, se = omega_mc(disc, [0.0, 0.0], 10 ** 6, seed=1)
        assert abs(est - math.pi) <= 3 * se

    def test_far_outside(self, disc):
        est, _ = omega_mc(disc, [10.0, 0.0], 10_000, seed=1)
        assert est == 0.0

    def test_deterministic(self, disc):
        a = omega_mc(disc, [0.5, 0.2], 100_000, seed=9)
        b = omega_mc(disc, [0.5, 0.2], 100_000, seed=9)
        assert a == b

    @pytest.mark.parametrize("samples", [0, -5])
    def test_sample_count_below_one_raises(self, right_triangle, samples):
        with pytest.raises(GeometryError, match="at least 1 sample"):
            omega_mc(right_triangle, [0.6, 0.6], samples, seed=0)

    def test_non_finite_point_raises(self, right_triangle):
        with pytest.raises(GeometryError, match="not finite"):
            omega_mc(right_triangle, [math.nan, 0.2], 1000, seed=0)

    @pytest.mark.parametrize("name, x, samples, seed", [
        ("triangle", [2 / 3, 2 / 3], 1_200_000, 42),
        ("triangle", [0.3, 1.1], 200_000, 7),
        ("pyramid", [0.2, -0.1, 0.4], 300_000, 3),
        ("pyramid", [0.0, 0.0, 1.2], 300_000, 11),
    ])
    def test_matches_reflection_of_every_draw(self, name, x, samples, seed):
        body = geometry.BUILTIN_BODIES[name]()
        if name == "pyramid":
            body = geometry.VPolytope(geometry.vertex_enumerate(body))
        x = np.asarray(x, dtype=float)
        lo, hi = body.bounding_box()
        c, half = 0.5 * (lo + hi), 0.5 * (hi - lo) * omega.BOX_INFLATION
        lo, hi = c - half, c + half
        rng = np.random.default_rng(seed)
        hits, done = 0, 0
        while done < samples:
            batch = min(samples - done, 1_000_000)
            pts = rng.uniform(lo, hi, size=(batch, body.dim))
            hits += int(np.count_nonzero(body.contains_batch(pts)
                                         & body.contains_batch(x - pts)))
            done += batch
        assert hits > 0
        p = hits / samples
        vol_box = float(np.prod(hi - lo))
        ref = (vol_box * p, vol_box * math.sqrt(p * (1.0 - p) / samples))
        assert omega_mc(body, x, samples, seed) == ref


QUADRANT = geometry.HPolytope([[-1, 0], [0, -1]], [0, 0])
WEDGE = geometry.HPolytope([[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, 0]], [0, 0, 0, 1])
FLAT = geometry.HPolytope([[0, 1], [0, -1], [1, 0], [-1, 0]], [0, 0, 1, 0])
CUBE4_VERTICES = np.array(list(itertools.product([0.0, 1.0], repeat=4)))


class TestEvaluator:
    @pytest.mark.parametrize("body", [
        unit_box(4),
        geometry.VPolytope(CUBE4_VERTICES),
        Product((Ball([0.5], 0.5), unit_box(4))),
        AffineImage(base=unit_box(4), matrix=2 * np.eye(4), shift=np.zeros(4)),
        QUADRANT,
        WEDGE,
        FLAT,
    ], ids=["box4", "vcube4", "product4", "affine4", "quadrant", "wedge", "flat"])
    def test_bodies_without_an_exact_path_raise_at_construction(self, body):
        with pytest.raises(GeometryError):
            OmegaEvaluator(body)

    @pytest.mark.parametrize("body", [
        unit_box(2),
        Ball(np.zeros(3), 1.0),
        Product((Ball([0.5], 0.5), unit_box(2))),
        AffineImage(base=unit_box(2), matrix=2 * np.eye(2), shift=np.zeros(2)),
    ], ids=["square", "ball3", "product3", "affine2"])
    def test_points_of_another_dimension_raise(self, body):
        ev = OmegaEvaluator(body)
        for m in (body.dim - 1, body.dim + 1):
            message = f"{m}-D points? for a {body.dim}-D body"
            with pytest.raises(GeometryError, match=message):
                ev.batch(np.full((4, m), 0.5))
            with pytest.raises(GeometryError, match=message):
                ev(np.full(m, 0.5))
            with pytest.raises(GeometryError, match=message):
                omega_mc(body, np.full(m, 0.5), 1000, seed=0)

    @pytest.mark.parametrize("body", [
        unit_box(2),
        Ball(np.zeros(3), 1.0),
        Product((Ball([0.5], 0.5), unit_box(2))),
        AffineImage(base=unit_box(2), matrix=2 * np.eye(2), shift=np.zeros(2)),
    ], ids=["square", "ball3", "product3", "affine2"])
    def test_non_finite_points_raise(self, body):
        ev = OmegaEvaluator(body)
        pts = np.full((4, body.dim), 0.5)
        for bad in (math.nan, math.inf):
            pts[2, -1] = bad
            with pytest.raises(GeometryError, match="points must be finite"):
                ev.batch(pts)
            with pytest.raises(GeometryError, match="points must be finite"):
                ev(pts[2])

    @pytest.mark.parametrize("body", [QUADRANT, WEDGE], ids=["quadrant", "wedge"])
    def test_monte_carlo_oracle_rejects_unbounded_polytopes(self, body):
        with pytest.raises(GeometryError, match="unbounded"):
            omega_mc(body, np.full(body.dim, 0.3), 1000, seed=0)

    def test_modes_agree_with_mc(self, rng):
        bodies = [Ball(np.zeros(2), 1.0),
                  Product((Ball([0.5], 0.5), Ball([0.5], 0.5)))]
        for body in bodies:
            ev = OmegaEvaluator(body)
            lo, hi = ev.support_box()
            for p in rng.uniform(lo, hi, size=(20, body.dim)):
                est, se = omega_mc(body, p, 200_000, seed=4)
                assert abs(ev(p) - est) <= max(3 * se, 1e-12)

    def test_affine_pullback(self, disc):
        mat = np.array([[1.5, 0.3], [0.0, 0.8]])
        shift = np.array([0.4, -0.2])
        img = AffineImage(base=disc, matrix=mat, shift=shift)
        ev = OmegaEvaluator(img)
        x = np.array([0.7, 0.1])
        est, se = omega_mc(img, x, 400_000, seed=6)
        assert abs(ev(x) - est) <= 3 * se

    def test_invertibility_is_scale_free(self):
        # det = 1e-15, but the matrix is as well conditioned as the identity
        img = AffineImage(base=unit_box(3), matrix=1e-5 * np.eye(3), shift=np.zeros(3))
        pts = np.random.default_rng(0).uniform(-0.5e-5, 2.5e-5, size=(20, 3))
        ref = [1e-15 * omega_box([1, 1, 1], p / 1e-5) for p in pts]
        assert np.allclose(OmegaEvaluator(img).batch(pts), ref, rtol=1e-12, atol=0.0)
        # rank 2; its determinant rounds to 6.7e-16, not to zero
        with pytest.raises(GeometryError, match="invertible"):
            AffineImage(base=unit_box(3), matrix=np.arange(1.0, 10.0).reshape(3, 3),
                        shift=np.zeros(3))

    def test_bound_by_body_measure(self, rng, disc):
        ev = OmegaEvaluator(disc)
        pts = rng.uniform(-2.2, 2.2, size=(500, 2))
        assert np.all(ev.batch(pts) <= np.pi + 1e-9)   # m(disc) = pi

    def test_support_properties(self, rng, disc):
        ev = OmegaEvaluator(disc)
        inner = rng.uniform(-0.6, 0.6, size=(100, 2))  # deep inside 2 Omega
        assert np.all(ev.batch(inner) > 0)
        outer = rng.uniform(2.5, 3.5, size=(100, 2))
        assert np.all(ev.batch(outer) == 0.0)

    def test_symmetry_about_double_center(self, rng):
        body = Ball(np.array([0.3, -0.1]), 0.8)
        ev = OmegaEvaluator(body)
        u = rng.uniform(-1, 1, size=(50, 2))
        c2 = 2 * body.center
        assert np.allclose(ev.batch(c2 + u), ev.batch(c2 - u), atol=1e-9)


    @pytest.mark.parametrize("body", [
        Ball(np.array([0.3, -0.1]), 0.8),
        geometry.box([0.0, -1.0], [2.0, 0.5]),
        Product((Ball([0.5], 0.5), Ball([0.2, 0.1], 0.7))),
        AffineImage(base=Ball(np.zeros(2), 1.0), matrix=np.array([[1.5, 0.3], [0.0, 0.8]]),
                    shift=np.array([0.4, -0.2])),
        geometry.VPolytope([[0.0, 0.0], [1.0, 0.0], [0.2, 0.9]]),
    ], ids=["ball", "box", "product", "affine", "vpolytope"])
    def test_scalar_equals_batch(self, body, rng):
        ev = OmegaEvaluator(body)
        lo, hi = ev.support_box()
        for x in rng.uniform(lo, hi, size=(5, body.dim)):
            assert ev(x) == pytest.approx(ev.batch(x[None])[0], rel=1e-12, abs=1e-15)


class TestInvariances:
    """Inclusion, concavity, translation, dilation and product properties of
    w, each at seed 0, and the affine covariance over random bodies."""

    def test_monotone_under_inclusion(self):
        rng = np.random.default_rng(0)
        inner = OmegaEvaluator(Ball([0.5, 0.5], 0.45))
        for p in rng.uniform(0, 2, size=(20, 2)):
            assert inner(p) <= omega_box([1, 1], p) + 1e-12

    def test_square_root_concave_on_support(self, disc):
        # w^(1/n) is concave where w > 0 (Brunn-Minkowski), n = 2
        rng = np.random.default_rng(0)
        ev = OmegaEvaluator(disc)
        for _ in range(50):
            x, y = rng.uniform(-2, 2, size=(2, 2))
            wx, wy = ev(x), ev(y)
            if min(wx, wy) <= 0:
                continue
            th = rng.uniform(0, 1)
            wmid = ev(th * x + (1 - th) * y)
            assert wmid ** 0.5 >= th * wx ** 0.5 + (1 - th) * wy ** 0.5 - 1e-8

    def test_translation_covariance(self, disc):
        # w_{Omega + v}(x) = w_Omega(x - 2v)
        rng = np.random.default_rng(0)
        shift = np.array([0.3, -0.2])
        moved = AffineImage(base=disc, matrix=np.eye(2), shift=shift)
        probes = rng.uniform(-2, 2, size=(20, 2))
        dev = OmegaEvaluator(moved).batch(probes) - OmegaEvaluator(disc).batch(probes - 2 * shift)
        assert np.max(np.abs(dev)) < 1e-9

    def test_dilation_scaling(self, disc):
        # w_{lam Omega}(x) = lam^n w_Omega(x / lam)
        rng = np.random.default_rng(0)
        lam = 1.7
        probes = rng.uniform(-2, 2, size=(20, 2))
        dev = (OmegaEvaluator(Ball([0.0, 0.0], lam)).batch(probes)
               - lam ** 2 * OmegaEvaluator(disc).batch(probes / lam))
        assert np.max(np.abs(dev)) < 1e-9

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([2, 3]),
           count=st.integers(4, 12), log_scale=st.floats(-3, 3), shear=st.booleans())
    def test_affine_covariance(self, seed, dim, count, log_scale, shear):
        # w_{lam M P + v}(x) = |det lam M| w_P(M^{-1}(x - 2v)/lam) for a
        # rotation or a shear M, on the batch through AffineImage and on the
        # oracle through the pulled-back H-form
        rng = np.random.default_rng(seed)
        H = random_hull(rng, dim, count)
        lam = 10.0 ** log_scale
        if shear:
            M = np.eye(dim) + np.triu(rng.uniform(-1, 1, size=(dim, dim)), 1)
        else:
            M, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        mat, v = lam * M, lam * rng.uniform(-1, 1, size=dim)
        ev = OmegaEvaluator(H)
        lo, hi = ev.support_box()
        verts = geometry.vertex_enumerate(H)
        i, j = np.triu_indices(verts.shape[0])
        u = np.vstack([rng.uniform(lo, hi, size=(10, dim)), verts[i] + verts[j]])
        x = u @ mat.T + 2 * v
        det = abs(np.linalg.det(mat))
        ref = det * ev.batch(u)
        tol = 1e-12 * np.maximum(det, ref)
        pulled = H.normals @ np.linalg.inv(mat)
        image = geometry.HPolytope(pulled, H.offsets + pulled @ v)
        assert np.all(np.abs(OmegaEvaluator(AffineImage(H, mat, v)).batch(x) - ref) <= tol)
        assert np.all(np.abs([omega_polytope_exact(image, p) for p in x] - ref) <= tol)

    def test_product_rule(self):
        rng = np.random.default_rng(0)
        ev = OmegaEvaluator(Product((Ball([0.5], 0.5), Ball([0.5], 0.5))))
        for a, b in rng.uniform(0, 2, size=(50, 2)):
            assert abs(ev([a, b]) - omega_box([1], [a]) * omega_box([1], [b])) < 1e-9


class TestSublevel:
    def test_interval_exponent_exact_tent(self):
        # m({tent < t}) = 2t exactly, so the fitted slope must be 1
        iv = Ball([0.5], 0.5)
        est = sublevel_fit(iv, 1e-3, 1e-1, 8, 4 * 10 ** 6, seed=12)
        assert abs(est.fitted_exponent - 1.0) < 0.02
        assert np.all(np.diff(est.measures) >= 0)

    def test_square_exponent_above_two_thirds(self):
        sq = Product((Ball([0.5], 0.5), Ball([0.5], 0.5)))
        est = sublevel_fit(sq, 1e-4, 1e-2, 8, 10 ** 6, seed=13)
        # polytopes live in the t log(1/t) regime, recorded but only bounded below
        assert est.fitted_exponent > 0.75

    @pytest.mark.parametrize("name, t_min, t_max, samples", [
        ("square", 1e-4, 1e-2, 2 * 10 ** 5), ("cube", 1e-3, 1e-1, 3 * 10 ** 4)])
    def test_unit_box_law(self, name, t_min, t_max, samples):
        # w(x) = prod (1 - |x_i - 1|) on (0, 2)^n, so exactly
        # m{w < t} = 2^n t sum_{k<n} log^k(1/t) / k!: the polytope batch's
        # sampled measures lie within 4 standard errors of it
        box = geometry.BUILTIN_BODIES[name]()
        est = sublevel_fit(box, t_min, t_max, 8, samples, seed=11)
        n, t = box.dim, est.t_values
        law = 2 ** n * t * sum(np.log(1.0 / t) ** k / math.factorial(k) for k in range(n))
        assert np.all(est.stderrs > 0)
        assert np.all(np.abs(est.measures - law) <= 4.0 * est.stderrs)

    def test_all_zero_raises(self):
        iv = Ball([0.5], 0.5)
        with pytest.raises(GeometryError):
            sublevel_fit(iv, 1e-12, 1e-11, 6, 1000, seed=1)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_sample_count_below_one_raises(self, samples):
        with pytest.raises(GeometryError, match="at least 1 sample"):
            sublevel_fit(Ball([0.5], 0.5), 1e-3, 1e-1, 8, samples, seed=1)


class TestInverseIntegral:
    def test_non_finite_d_raises(self, disc):
        with pytest.raises(GeometryError, match="must be finite"):
            omega_inverse_integral(disc, math.nan)

    @pytest.mark.parametrize("n, volume", [(1, 2.0), (2, math.pi), (3, 4.0 * math.pi / 3.0)])
    @pytest.mark.parametrize("radius", [1.0, 0.37])
    def test_fubini_identities(self, n, volume, radius):
        # int_{2 Omega} w^0 = m(2 Omega) and int w = m(Omega)^2
        ball = Ball(np.full(n, 0.3), radius)
        vol = volume * radius ** n
        assert omega_inverse_integral(ball, 0.0) == pytest.approx(2 ** n * vol, rel=1e-12, abs=0)
        assert omega_inverse_integral(ball, -1.0) == pytest.approx(vol * vol, rel=1e-12, abs=0)

    @pytest.mark.parametrize("radius, d", [(0.5, 0.5), (0.3, 0.7), (2.0, -0.4), (1.0, 0.999)])
    def test_interval(self, radius, d):
        # w = 2 rho - |x - 2c| on (2c - 2 rho, 2c + 2 rho)
        expected = 2.0 * (2.0 * radius) ** (1.0 - d) / (1.0 - d)
        assert omega_inverse_integral(Ball([1.0], radius), d) == pytest.approx(
            expected, rel=1e-12, abs=0)

    def test_product_multiplies_its_factors(self):
        a, b = Ball([0.5], 0.5), Ball([-1.0], 0.8)
        for d in (-1.0, 0.0, 0.3, 0.6):
            expected = omega_inverse_integral(a, d) * omega_inverse_integral(b, d)
            assert omega_inverse_integral(Product((a, b)), d) == pytest.approx(
                expected, rel=1e-14, abs=0)
        cylinder = Product((Ball(np.zeros(2), 1.0), Ball([0.0], 1.0)))
        assert math.isfinite(omega_inverse_integral(cylinder, 0.66))
        assert omega_inverse_integral(cylinder, 2.0 / 3.0) == math.inf

    def test_affine_image_scales_by_the_determinant(self, disc):
        T = np.array([[1.3, 0.4], [-0.2, 0.7]])
        det = abs(np.linalg.det(T))
        ellipse = AffineImage(disc, T, [0.3, -0.1])
        for d in (0.2, 0.5, 0.6):
            expected = det ** (1.0 - d) * omega_inverse_integral(disc, d)
            assert omega_inverse_integral(ellipse, d) == pytest.approx(expected, rel=1e-14, abs=0)
        # the Fubini identities of the ellipse itself, of area det * pi
        assert omega_inverse_integral(ellipse, 0.0) == pytest.approx(4 * det * math.pi, rel=1e-12)
        assert omega_inverse_integral(ellipse, -1.0) == pytest.approx((det * math.pi) ** 2,
                                                                      rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_infinite_from_the_threshold_on(self, n):
        ball = Ball(np.zeros(n), 1.0)
        threshold = 2.0 / (n + 1)
        for d in (threshold, threshold + 1e-9, 1.2 * threshold, 1.5, 4.0):   # 0.8 on the disc
            assert omega_inverse_integral(ball, d) == math.inf
        assert math.isfinite(omega_inverse_integral(ball, threshold - 1e-3))

    def test_a_finite_integral_past_the_float_range_raises(self, disc):
        # w <= pi, so at d = -1000 the integral is finite, near 10^497
        with pytest.warns(RuntimeWarning):
            with pytest.raises(GeometryError, match="overflows at d = -1000.0"):
                omega_inverse_integral(disc, -1000.0)

    def test_polytopes_and_other_bodies_raise(self, unit_square, right_triangle):
        # the corner family of hardy decides polytopes
        bodies = [unit_square, right_triangle, geometry.VPolytope([[0, 0], [1, 0], [0, 1]]),
                  Product((Ball([0.5], 0.5), unit_box(1))),
                  AffineImage(unit_square, np.eye(2), [0.0, 0.0])]
        for body in bodies:
            with pytest.raises(GeometryError, match="no closed-form inverse-power integral"):
                omega_inverse_integral(body, 0.5)

    def test_disc_against_a_midpoint_grid(self, disc):
        # the grid oracle: midpoint cells of [-2, 2]^2, 1024 a side
        h = 4.0 / 1024
        axis = -2.0 + (np.arange(1024) + 0.5) * h
        s = np.hypot(*np.meshgrid(axis, axis, indexing="ij"))
        s = s[s < 2.0]
        w = 2.0 * np.arccos(s / 2.0) - (s / 2.0) * np.sqrt(4.0 - s * s)
        grid = float(np.sum(w ** -0.3)) * h * h
        assert abs(grid / omega_inverse_integral(disc, 0.3) - 1.0) < 0.005

    @pytest.mark.parametrize("d", [0.3, 0.5, 0.6])
    def test_disc_against_the_criterion_oracle(self, disc, d):
        assert omega_inverse_integral(disc, d) == pytest.approx(
            checks.disc_inverse_integral(d), rel=1e-8, abs=0)

    def test_ball3_against_its_polynomial_lens(self):
        # w = (pi/12)(4 + s)(2 - s)^2 exactly; u = 2 - s = v^(1/(1 - 2d)) takes
        # the (2 - s)^(-2d) singularity out, and Gauss-Legendre the rest
        d = 0.4
        t, weights = np.polynomial.legendre.leggauss(200)
        beta = 1.0 - 2.0 * d
        v = 2.0 ** beta * (t + 1.0) / 2.0
        u = v ** (1.0 / beta)
        w = math.pi / 12.0 * (6.0 - u) * u * u
        radial = 2.0 ** beta / 2.0 * float(weights @ (w ** -d * (2.0 - u) ** 2 * u / (beta * v)))
        ball3 = geometry.BUILTIN_BODIES["ball3"]()
        assert omega_inverse_integral(ball3, d) == pytest.approx(4.0 * math.pi * radial,
                                                                 rel=1e-10, abs=0)


class TestSizeGuards:
    # Each test stops the call before its first large allocation, so a
    # broken guard fails the test instead of allocating.
    def test_support_grid_refuses_above_the_cap(self, monkeypatch):
        # a 1024^3 grid: 25.8 GB of coordinates in 3-D
        def reached(self):
            raise AssertionError("the grid was about to be built")

        monkeypatch.setattr(OmegaEvaluator, "support_box", reached)
        ev = OmegaEvaluator(geometry.BUILTIN_BODIES["ball3"]())
        assert 1024 ** 3 > omega.MAX_GRID_NODES
        with pytest.raises(GeometryError, match=r"per_axis = 1024 gives 1073741824 grid nodes"):
            ev.support_grid(1024)

    def test_support_grid_at_a_lowered_cap(self, disc, monkeypatch):
        monkeypatch.setattr(omega, "MAX_GRID_NODES", 100)
        ev = OmegaEvaluator(disc)
        assert ev.support_grid(10)[0].shape == (100, 2)
        with pytest.raises(GeometryError, match="per_axis = 11 gives 121 grid nodes"):
            ev.support_grid(11)
