import math

import numpy as np
import pytest

from pwlab import geometry, omega
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
)


def lens_closed_form(s):
    # area of the intersection of two unit discs at center distance s
    return 2 * math.acos(s / 2) - (s / 2) * math.sqrt(4 - s * s)


class TestOmegaBall:
    def test_center_value_is_area(self):
        assert abs(omega_ball(2, 1.0, [0.0, 0.0]) - math.pi) < 1e-10

    def test_lens_anchor(self):
        expected = 2 * math.pi / 3 - math.sqrt(3) / 2
        assert abs(omega_ball(2, 1.0, [1.0, 0.0]) - expected) < 1e-10

    def test_support_boundary(self):
        assert omega_ball(2, 1.0, [2.0, 0.0]) == 0.0

    def test_matches_lens_closed_form_everywhere(self):
        for s in np.linspace(0, 1.999, 100):
            assert abs(omega_ball(2, 1.0, [s, 0.0]) - lens_closed_form(s)) < 1e-8

    def test_one_dimensional_tent(self):
        # omega of (-r, r) is the tent 2r - |x|
        assert abs(omega_ball(1, 0.5, [0.3]) - 0.7) < 1e-12

    def test_batch_matches_quadrature(self):
        for n in (1, 2, 3, 4):
            s = np.linspace(0, 2.1, 13)
            batch = unit_ball_omega_batch(n, s)
            quad = [omega_ball(n, 1.0, np.append(si, np.zeros(n - 1))) for si in s]
            assert np.allclose(batch, quad, atol=1e-12)

    def test_radius_scaling(self):
        assert abs(omega_ball(2, 2.0, [1.0, 0.0]) - 4 * omega_ball(2, 1.0, [0.5, 0.0])) < 1e-10


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


class TestEvaluator:
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

    def test_bound_by_body_measure(self, rng, disc):
        ev = OmegaEvaluator(disc)
        pts = rng.uniform(-2.2, 2.2, size=(500, 2))
        assert np.all(ev.batch(pts) <= ev.body_measure() + 1e-9)

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
    w, each at seed 0."""

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

    def test_all_zero_raises(self):
        iv = Ball([0.5], 0.5)
        with pytest.raises(GeometryError):
            sublevel_fit(iv, 1e-12, 1e-11, 6, 1000, seed=1)


class TestInverseIntegral:
    def test_d_zero_gives_support_measure(self, disc):
        vals = omega_inverse_integral(disc, 0.0, levels=2, base_per_axis=128, floor=0.0)
        assert abs(vals[-1] - 4 * math.pi) < 0.05

    def test_integrable_stabilizes_with_floor(self, disc):
        vals = omega_inverse_integral(disc, 0.5, levels=3, base_per_axis=256, floor=1e-3)
        rel = abs(vals[-1] - vals[-2]) / vals[-1]
        assert rel < 0.01

    def test_divergent_grows_raw(self, disc):
        vals = omega_inverse_integral(disc, 0.8, levels=3, base_per_axis=128, floor=1e-12)
        assert (vals[1] - vals[0]) / vals[1] > 0.10
        assert (vals[2] - vals[1]) / vals[2] > 0.10
