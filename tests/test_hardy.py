import itertools
import math

import numpy as np
import pytest

from pwlab import hardy
from pwlab.fourier import (
    ConvergenceError,
    GridFunction,
    GridSpec,
    _l1_by_doubling,
    fft_convolve,
    synthesize_on_grid,
)
from pwlab.geometry import Ball, GeometryError, Product, VPolytope, box, unit_box
from pwlab.hardy import (
    HALFLINE_FREQ_POINTS,
    HALFLINE_POINTS_PER_UNIT,
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


    def test_alias_half_period_raises(self, monkeypatch):
        # 40 samples on (0, 1) alias beyond |t| = 20, inside the first box
        from pwlab.fourier import bump_profile
        boxes = count_syntheses(monkeypatch)
        xs = (np.arange(40) + 0.5) / 40
        g = bump_profile((xs - 0.5) / 0.2).astype(complex)
        with pytest.raises(ConvergenceError, match="alias half period"):
            halfline_ratio(g, g, freq_points=40, box_halfwidth=32.0)
        assert boxes == []

    @pytest.mark.parametrize("kwargs, name", [
        ({"box_halfwidth": math.nan}, "box_halfwidth"),
        ({"box_halfwidth": math.inf}, "box_halfwidth"),
        ({"box_halfwidth": 0.0}, "box_halfwidth"),
        ({"box_halfwidth": -32.0}, "box_halfwidth"),
        ({"max_doublings": 0}, "max_doublings"),
        ({"max_doublings": -1}, "max_doublings")])
    def test_bad_box_arguments_raise_before_any_synthesis(self, monkeypatch, kwargs, name):
        boxes = count_syntheses(monkeypatch)
        g, h = random_halfline_pair(np.random.default_rng(3))
        with pytest.raises(GeometryError, match=name):
            halfline_ratio(g, h, freq_points=g.size, **kwargs)
        assert boxes == []

    @pytest.mark.parametrize("freq_points", [0, -3, 2.5])
    def test_bad_freq_points_raise_before_any_synthesis(self, monkeypatch, freq_points):
        boxes = count_syntheses(monkeypatch)
        g, h = random_halfline_pair(np.random.default_rng(3))
        with pytest.raises(GeometryError, match="freq_points"):
            halfline_ratio(g, h, freq_points=freq_points)
        with pytest.raises(GeometryError, match="freq_points"):
            halfline_ratio(g[:0], h[:0], freq_points=freq_points)
        assert boxes == []

    def test_zero_product_raises(self):
        # ||g h||_1 = 0 on every box: the ratio is undefined, not an alias
        zero = np.zeros(HALFLINE_FREQ_POINTS)
        g, _ = random_halfline_pair(np.random.default_rng(3))
        for ghat in (zero, g):
            with pytest.raises(GeometryError, match="undefined"):
                halfline_ratio(ghat, zero, freq_points=HALFLINE_FREQ_POINTS)


def count_syntheses(monkeypatch) -> list[int]:
    """Route hardy's synthesis through a wrapper; the list it returns grows
    by the node count of each spatial grid synthesized."""
    boxes = []

    def counted(fhat, spatial):
        boxes.append(spatial.npts[0])
        return synthesize_on_grid(fhat, spatial)

    monkeypatch.setattr(hardy, "synthesize_on_grid", counted)
    return boxes


def per_box_halfline_ratio(ghat_vals, hhat_vals, K, box_halfwidth=32.0, max_doublings=5):
    """The half-line ratio with g and h synthesized afresh on every box, the
    loop halfline_ratio ran before its boxes shared a synthesis.  Box d is
    the midpoint grid of m0 2^d nodes on [-L0 2^d, L0 2^d]."""
    h = 1.0 / K
    conv = fft_convolve(ghat_vals, hhat_vals) * h
    xs = (np.arange(conv.size) + 1.0) * h
    numerator = float(np.sum(np.abs(conv) / xs) * h)
    spec = GridSpec(lower=[0.0], upper=[1.0], npts=(K,))
    ghat = GridFunction(spec=spec, values=ghat_vals)
    hhat = GridFunction(spec=spec, values=hhat_vals)
    m0 = 2 * math.ceil(box_halfwidth * HALFLINE_POINTS_PER_UNIT)

    def box_total(L):
        spatial = GridSpec(lower=[-L], upper=[L], npts=(m0 * round(L / box_halfwidth),))
        g = synthesize_on_grid(ghat, spatial)
        hh = synthesize_on_grid(hhat, spatial)
        return float(np.sum(np.abs(g * hh)) * spatial.weight)

    total, _ = _l1_by_doubling(box_total, box_halfwidth, 0.5 * K, max_doublings)
    return numerator / total


def same_ratio(value):
    return pytest.approx(value, rel=1e-13, abs=0.0)


class TestHalflineBoxes:
    @pytest.mark.parametrize("L0", [32.0, 64.0])
    def test_nested_grids_are_the_per_box_grids_of_the_callers(self, L0):
        # 2 L0 HALFLINE_POINTS_PER_UNIT is an even integer for both callers,
        # so box d has ceil(2 L HALFLINE_POINTS_PER_UNIT) nodes, as each box
        # had when it was synthesized on its own
        m0 = 2 * math.ceil(L0 * HALFLINE_POINTS_PER_UNIT)
        for d in range(8):
            assert m0 * 2 ** d == math.ceil(2 * L0 * 2 ** d * HALFLINE_POINTS_PER_UNIT)

    def test_random_pairs_match_per_box_synthesis(self):
        rng = np.random.default_rng(28)
        for _ in range(3):
            g, h = random_halfline_pair(rng)
            assert halfline_ratio(g, h, freq_points=g.size) == same_ratio(
                per_box_halfline_ratio(g, h, g.size))

    def test_extremal_pair_matches_per_box_synthesis(self):
        g, h = extremal_halfline_pair()
        assert halfline_ratio(g, h, freq_points=g.size, box_halfwidth=64.0,
                              max_doublings=7) == same_ratio(
            per_box_halfline_ratio(g, h, g.size, box_halfwidth=64.0, max_doublings=7))

    def test_fractional_halfwidth_reads_the_documented_grid(self, monkeypatch):
        # 2 * 33.3 * 24 = 1598.4 nodes round up to the even m0 = 1600; the
        # boxes are the centre windows of the box synthesized two doublings
        # ahead, here capped at box 2 by the alias half period 200
        boxes = count_syntheses(monkeypatch)
        g, h = random_halfline_pair(np.random.default_rng(5))
        val = halfline_ratio(g, h, freq_points=g.size, box_halfwidth=33.3)
        assert boxes == [6400, 6400]
        monkeypatch.undo()
        assert val == same_ratio(per_box_halfline_ratio(g, h, g.size, box_halfwidth=33.3))

    def test_extremal_pair_synthesizes_each_function_twice(self, monkeypatch):
        # boxes 0-2 read the synthesis on box 2, boxes 3-5 the one on box 5,
        # 98 304 nodes, the widest box the loop asks for
        boxes = count_syntheses(monkeypatch)
        g, h = extremal_halfline_pair()
        halfline_ratio(g, h, freq_points=g.size, box_halfwidth=64.0, max_doublings=7)
        assert boxes == [12_288, 12_288, 98_304, 98_304]


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

    @pytest.mark.parametrize("d, ratio", [(100.0, "inf"), (-200.0, "0.0")])
    def test_ratio_beyond_float_range_raises(self, d, ratio):
        # w^(-d) overflows from d = 58.75 and underflows to 0 at d = -200
        with pytest.raises(GeometryError, match=rf"corner ratio {ratio} at d={d}:"):
            corner_family_sweep(d)

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
