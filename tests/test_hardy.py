import itertools
import math

import numpy as np
import pytest

from pwlab.fourier import ConvergenceError
from pwlab.geometry import Ball, GeometryError, Product, VPolytope, box, unit_box
from pwlab.hardy import (
    adjusted_integrability_report,
    canonical_bump_l1,
    corner_family_ratio,
    corner_family_sweep,
    extremal_halfline_pair,
    halfline_ratio,
    random_halfline_pair,
    tent_ratio,
    unit_box_corner,
)
from pwlab.omega import omega_inverse_integral


class TestTentRatio:
    def test_d_zero(self):
        # int |fhat| = 1 per axis, so the ratio collapses to 1/||f||_1 per axis
        assert abs(tent_ratio(1, d=0.0) - 1.0) < 0.01

    def test_divergent_d(self):
        with pytest.raises(GeometryError):
            tent_ratio(1, d=2.0)

    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
    def test_non_finite_d_raises(self, d):
        with pytest.raises(GeometryError, match="must be finite"):
            tent_ratio(1, d=d)


class TestHalflineRatio:
    def test_random_pairs_below_pi(self, rng):
        for _ in range(25):
            g, h = random_halfline_pair(rng)
            assert halfline_ratio(g, h, freq_points=g.size) <= math.pi * 1.02

    def test_single_bump_pair(self):
        from pwlab.fourier import bump_profile
        xs = (np.arange(400) + 0.5) / 400
        g = bump_profile((xs - 0.5) / 0.1).astype(complex)
        val = halfline_ratio(g, g, freq_points=400)
        assert 0 < val < math.pi

    def test_scaling_invariance(self, rng):
        g, h = random_halfline_pair(rng)
        a = halfline_ratio(g, h, freq_points=g.size)
        b = halfline_ratio(3.7 * g, h, freq_points=g.size)
        assert abs(a - b) < 1e-9 * a

    def test_extremal_reaches_two(self):
        g, h = extremal_halfline_pair()
        val = halfline_ratio(g, h, freq_points=g.size, box_halfwidth=64.0,
                             max_doublings=7)
        assert 2.0 <= val <= math.pi * 1.02


    def test_alias_half_period_raises(self, rng):
        # 40 samples on (0, 1) alias beyond |t| = 20, inside the first box
        g, h = random_halfline_pair(rng, freq_points=40)
        with pytest.raises(ConvergenceError, match="alias half period"):
            halfline_ratio(g, h, freq_points=40, box_halfwidth=32.0)


class TestCornerFamily:
    def test_d_one_constant_in_t(self):
        # exact scaling: substituting the doubled ball makes the d=1 ratio
        # independent of t on the square
        r1 = corner_family_ratio(1.0, 1e-1)
        r2 = corner_family_ratio(1.0, 1e-3)
        assert abs(r1 - r2) < 1e-6 * r1

    def test_slopes(self):
        assert abs(corner_family_sweep(1.5).slope + 0.5) < 0.02
        assert abs(corner_family_sweep(0.5).slope - 0.5) < 0.02
        assert corner_family_sweep(1.0).max_over_min <= 1.0 + 1e-9

    def test_t_out_of_range(self):
        with pytest.raises(GeometryError):
            corner_family_ratio(1.0, 1.5)

    @pytest.mark.parametrize("d", [math.nan, math.inf])
    def test_non_finite_d_raises(self, d):
        with pytest.raises(GeometryError, match="must be finite"):
            corner_family_ratio(d, 1e-2)

    def test_monotone_in_d_at_fixed_t(self):
        # on the unit-volume square w <= 1, so w^{-d} grows pointwise with d
        t = 1e-2
        vals = [corner_family_ratio(d, t) for d in (0.5, 0.8, 1.0, 1.3)]
        assert np.all(np.diff(vals) > 0)

    def test_bump_l1_cached(self):
        a = canonical_bump_l1()
        b = canonical_bump_l1()
        assert a == b and a > 0


class TestIntegrabilityReport:
    def test_square_verdicts(self):
        rows = adjusted_integrability_report(unit_box(2), [1.0, 1.5])
        verdicts = {r.d: r.verdict for r in rows}
        assert verdicts[1.0] == "holds-evidence"
        assert verdicts[1.5] == "fails-evidence"

    def test_only_the_square_among_polytopes(self):
        # the corner family is the unit square's, in H- or V-form alike
        square = VPolytope([[0, 0], [1, 0], [1, 1], [0, 1]])
        assert adjusted_integrability_report(square, [1.5])[0].verdict == "fails-evidence"
        for other in (VPolytope([[0, 0], [1, 0], [0, 1]]), box([1, 1], [2, 2]), unit_box(3)):
            with pytest.raises(GeometryError, match="unit square"):
                adjusted_integrability_report(other, [1.5])

    def test_ball_verdicts(self, disc):
        # finite below 2/3, 0.6 included; divergence from there on decides
        # nothing, at d > 1 too
        rows = adjusted_integrability_report(disc, [0.5, 0.6, 0.8, 1.5])
        assert [r.verdict for r in rows] == ["holds-evidence"] * 2 + ["inconclusive"] * 2
        assert rows[0].evidence == {"integral": omega_inverse_integral(disc, 0.5)}
        assert rows[1].evidence["integral"] == pytest.approx(103.508090782, rel=1e-10)
        assert rows[2].evidence == rows[3].evidence == {"integral": None}

    def test_other_bodies(self):
        # the unit square as a product of intervals takes the closed form,
        # 4^2 at d = 1/2, and diverges from d = 1 on
        square = Product((Ball([0.5], 0.5), Ball([0.5], 0.5)))
        row, = adjusted_integrability_report(square, [0.5])
        assert row.verdict == "holds-evidence" and row.evidence["integral"] == pytest.approx(16.0)
        assert adjusted_integrability_report(square, [1.0])[0].verdict == "inconclusive"
        ball3 = Ball(np.zeros(3), 1.0)
        assert [r.verdict for r in adjusted_integrability_report(ball3, [0.4, 0.5])] == [
            "holds-evidence", "inconclusive"]


class TestUnitBoxCorner:
    def test_translates_of_the_unit_box(self):
        assert np.array_equal(unit_box_corner(unit_box(2)), [0.0, 0.0])
        cube = VPolytope(np.array(list(itertools.product([0, 1], repeat=3))) + [2, -1, 0.5])
        assert np.allclose(unit_box_corner(cube), [2.0, -1.0, 0.5], rtol=0, atol=1e-12)
        assert np.array_equal(unit_box_corner(Ball(np.array([0.5]), 0.5)), [0.0])
        assert np.array_equal(unit_box_corner(Product((Ball([1.5], 0.5), Ball([0.5], 0.5)))),
                              [1.0, 0.0])

    def test_other_bodies(self):
        for body in (box([0, 0], [2, 1]), VPolytope([[0, 0], [1, 0], [0, 1]]),
                     Ball(np.zeros(1), 1.0), Ball(np.zeros(2), 0.5)):
            assert unit_box_corner(body) is None
