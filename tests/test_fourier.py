import math

import numpy as np
import pytest
import scipy.fft
from scipy import signal
from scipy.integrate import quad

from pwlab import fourier, hardy
from pwlab.fourier import (
    ConvergenceError,
    GridFunction,
    GridSpec,
    _axis_transform,
    _l1_by_doubling,
    bump_profile,
    fft_convolve,
    smooth_step,
    synthesize_l1,
    synthesize_on_grid,
)
from pwlab.geometry import GeometryError


class TestBump:
    def test_plateau(self):
        assert bump_profile(0.3) == 1.0
        assert bump_profile(np.hypot(0.3, 0.2)) == 1.0

    def test_outside_support(self):
        assert bump_profile(1.2) == 0.0

    def test_midpoint_symmetry(self):
        # T(1/2) = 1/2 since g(u)/(g(u)+g(1-u)) is symmetric
        assert abs(bump_profile(0.75) - 0.5) < 1e-14

    def test_radially_nonincreasing(self, rng):
        r = np.sort(rng.uniform(0, 1.5, size=10_000))
        vals = bump_profile(r)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all(vals[r <= 0.5] == 1.0)
        assert np.all(vals[r >= 1.0] == 0.0)

    def test_smooth_step_limits(self):
        assert smooth_step(np.array([-1.0, 0.0]))[0] == 0.0
        assert smooth_step(np.array([1.0, 2.0]))[1] == 1.0


class TestGrids:
    def test_midpoint_nodes(self):
        spec = GridSpec(lower=[0.0], upper=[1.0], npts=(4,))
        assert np.allclose(spec.axis_nodes(0), [0.125, 0.375, 0.625, 0.875])
        assert abs(spec.weight - 0.25) < 1e-15

    def test_gridfunction_shape_validation(self):
        spec = GridSpec(lower=[0, 0], upper=[1, 1], npts=(4, 4))
        with pytest.raises(GeometryError):
            GridFunction(spec=spec, values=np.zeros((3, 4)))


class TestSynthesis:
    def test_tent_gives_sinc_squared(self):
        spec = GridSpec(lower=[-1.0], upper=[1.0], npts=(2000,))
        tent = GridFunction.from_function(spec, lambda p: np.maximum(0, 1 - np.abs(p[:, 0])))
        spatial = GridSpec(lower=[-3.0], upper=[3.0], npts=(101,))
        f = synthesize_on_grid(tent, spatial)
        t = spatial.axis_nodes(0)
        assert np.max(np.abs(f - np.sinc(t) ** 2)) < 1e-4

    def test_tent_l1_matches_quadrature_oracle(self):
        spec = GridSpec(lower=[-1.0], upper=[1.0], npts=(4000,))
        tent = GridFunction.from_function(spec, lambda p: np.maximum(0, 1 - np.abs(p[:, 0])))
        l1, tail = synthesize_l1(tent, box_halfwidth=4.0)
        # independent oracle: adaptive quadrature of sinc^2 over the final box
        oracle, _ = quad(lambda t: np.sinc(t) ** 2, 0, 64, limit=400)
        assert abs(l1 - 2 * oracle) < 0.005
        assert abs(l1 + tail - 1.0) < 0.01

    def test_tent_boxes_match_long_double_sums(self):
        # the doubling settles at L = 32, so the tail is box(32) - box(16);
        # nodes, phases and sums in long double on the exact midpoint grids
        spec = GridSpec(lower=[-1.0], upper=[1.0], npts=(4000,))
        tent = GridFunction.from_function(spec, lambda p: np.maximum(0, 1 - np.abs(p[:, 0])))
        total, tail = synthesize_l1(tent, box_halfwidth=4.0)
        F = tent.values.real.astype(np.longdouble) / 2000
        xs = -1 + (np.arange(4000, dtype=np.longdouble) + 0.5) / 2000
        two_pi = 4 * np.arcsin(np.longdouble(1))

        def box(L):
            ts = -L + (np.arange(40 * L, dtype=np.longdouble) + 0.5) / 20
            phases = [two_pi * np.outer(t, xs) for t in np.split(ts, 8)]
            f = [np.hypot(np.cos(ph) @ F, np.sin(ph) @ F) for ph in phases]
            return np.sum(np.concatenate(f)) / 20

        box16, box32 = box(16), box(32)
        assert total == pytest.approx(float(box32), rel=1e-13, abs=0.0)
        assert tail == pytest.approx(float(box32 - box16), rel=1e-13, abs=0.0)

    def test_l1_dominates_frequency_values(self):
        # |fhat(x)| <= ||f||_1 pointwise; the bump peaks at fhat(0) = 1
        spec = GridSpec(lower=[-1.0, -1.0], upper=[1.0, 1.0], npts=(64, 64))
        gf = GridFunction.from_function(
            spec, lambda p: bump_profile(np.linalg.norm(p, axis=1)))
        l1, _ = synthesize_l1(gf, box_halfwidth=4.0, points_per_unit=10.0)
        assert l1 >= 1.0 - 0.01

    def test_modulation_invariance(self):
        spec = GridSpec(lower=[-1.0], upper=[1.0], npts=(2000,))
        tent = GridFunction.from_function(spec, lambda p: np.maximum(0, 1 - np.abs(p[:, 0])))
        l1, _ = synthesize_l1(tent, box_halfwidth=4.0)
        shifted_spec = GridSpec(lower=[-1.0 + 5.0], upper=[1.0 + 5.0], npts=(2000,))
        shifted = GridFunction(spec=shifted_spec, values=tent.values.copy())
        l1s, _ = synthesize_l1(shifted, box_halfwidth=4.0)
        # a shift only modulates f, and the data are synthesized about the
        # centre of their box, so the two norms are one computation
        assert l1s == l1

    def test_budget_exhaustion_raises(self):
        spec = GridSpec(lower=[-1.0], upper=[1.0], npts=(500,))
        tent = GridFunction.from_function(spec, lambda p: np.maximum(0, 1 - np.abs(p[:, 0])))
        with pytest.raises(ConvergenceError):
            synthesize_l1(tent, box_halfwidth=0.25, max_doublings=1)


    @pytest.mark.parametrize("kwargs, name", [
        ({"box_halfwidth": np.nan}, "box_halfwidth"),
        ({"box_halfwidth": np.inf}, "box_halfwidth"),
        ({"box_halfwidth": 0.0}, "box_halfwidth"),
        ({"box_halfwidth": -4.0}, "box_halfwidth"),
        ({"box_halfwidth": 4.0, "max_doublings": 0}, "max_doublings"),
        ({"box_halfwidth": 4.0, "max_doublings": -1}, "max_doublings")])
    def test_bad_box_arguments_raise_before_any_synthesis(self, monkeypatch, kwargs, name):
        calls = []
        monkeypatch.setattr(fourier, "synthesize_on_grid", lambda *a: calls.append(a))
        spec = GridSpec(lower=[-1.0], upper=[1.0], npts=(500,))
        tent = GridFunction.from_function(spec, lambda p: np.maximum(0, 1 - np.abs(p[:, 0])))
        with pytest.raises(GeometryError, match=name):
            synthesize_l1(tent, **kwargs)
        assert calls == []

    def test_alias_half_period_raises(self):
        # spacing 0.2 puts the alias half period at 2.5, inside the box
        spec = GridSpec(lower=[-1.0], upper=[1.0], npts=(10,))
        tent = GridFunction.from_function(spec, lambda p: np.maximum(0, 1 - np.abs(p[:, 0])))
        with pytest.raises(ConvergenceError, match="alias half period"):
            synthesize_l1(tent, box_halfwidth=4.0)


def tent_data(K):
    spec = GridSpec(lower=[-1.0], upper=[1.0], npts=(K,))
    return GridFunction.from_function(spec, lambda p: np.maximum(0, 1 - np.abs(p[:, 0])))


def planar_bump_data(npts=96, edge=1.05):
    """The frequency data of hardy.canonical_bump_l1 at the defaults."""
    spec = GridSpec(lower=[-edge, -edge], upper=[edge, edge], npts=(npts, npts))
    return GridFunction.from_function(spec, lambda p: bump_profile(np.linalg.norm(p, axis=1)))


def per_box_l1(fhat, box_halfwidth, points_per_unit=20.0, max_doublings=4):
    """synthesize_l1 as it ran before its boxes were nested: the box of
    half-width L synthesized afresh on ceil(2 L ppu) nodes a side."""
    n = fhat.spec.dim
    maxfreq = float(np.max(np.abs(np.concatenate([fhat.spec.lower, fhat.spec.upper]))))
    ppu = max(points_per_unit, 8.0 * max(maxfreq, 0.25))

    def box_total(L):
        m = math.ceil(2 * L * ppu)
        spatial = GridSpec(lower=[-L] * n, upper=[L] * n, npts=(m,) * n)
        return float(np.sum(np.abs(synthesize_on_grid(fhat, spatial))) * spatial.weight)

    half_period = 0.5 / float(np.max(fhat.spec.spacing))
    return _l1_by_doubling(box_total, box_halfwidth, half_period, max_doublings)


def count_syntheses(monkeypatch) -> list[tuple]:
    """Route fourier's synthesis through a wrapper; the list it returns
    grows by the node counts of each spatial grid synthesized."""
    boxes = []

    def counted(fhat, spatial):
        boxes.append(spatial.npts)
        return synthesize_on_grid(fhat, spatial)

    monkeypatch.setattr(fourier, "synthesize_on_grid", counted)
    return boxes


class TestNestedBoxes:
    # 4 * 20 and 8 * 10 nodes per half-width are integers, so every box is
    # the grid it had when each box was synthesized on its own
    @pytest.mark.parametrize("K", [20_000, 2000])
    def test_tent_matches_per_box_synthesis(self, K):
        total, tail = synthesize_l1(tent_data(K), box_halfwidth=4.0)
        ref_total, ref_tail = per_box_l1(tent_data(K), 4.0)
        assert total == pytest.approx(ref_total, rel=1e-13, abs=0.0)
        assert tail == pytest.approx(ref_tail, rel=0.0, abs=1e-13 * ref_total)

    def test_planar_bump_matches_per_box_synthesis(self):
        # 96 nodes on 2.1 do not meet the FFT route: the matrix route
        total, tail = synthesize_l1(planar_bump_data(), box_halfwidth=8.0,
                                    points_per_unit=10.0)
        ref_total, ref_tail = per_box_l1(planar_bump_data(), 8.0, points_per_unit=10.0)
        assert total == pytest.approx(ref_total, rel=1e-13, abs=0.0)
        assert tail == pytest.approx(ref_tail, rel=0.0, abs=1e-13 * ref_total)

    @pytest.mark.parametrize("n, K", [(1, 20_000), (2, 20_000), (1, 2000)])
    def test_tent_ratio_synthesizes_twice(self, monkeypatch, n, K):
        # boxes 0-2 (L = 4, 8, 16) read the synthesis on box 2; box 3 asks
        # for box 5, capped at the budget's box 4 (L = 64); it settles at 3
        boxes = count_syntheses(monkeypatch)
        hardy.tent_ratio(n, freq_points=K)
        assert boxes == [(640,), (2560,)]

    def test_canonical_bump_synthesizes_once(self, monkeypatch):
        # box 2 (L = 32) lies beyond the alias half period 22.9, so the
        # lookahead stops at box 1, where the integral settles
        boxes = count_syntheses(monkeypatch)
        hardy.canonical_bump_l1.cache_clear()
        try:
            hardy.canonical_bump_l1()
        finally:
            hardy.canonical_bump_l1.cache_clear()
        assert boxes == [(320, 320)]

    def test_lookahead_shrinks_to_the_node_cap(self, monkeypatch):
        # m0 = 80 at L0 = 4; the alias half period 16 allows box 2, 320^2
        # nodes, which a cap of 160^2 shrinks to box 1; box 2, once asked
        # for, is synthesized whole
        bump = planar_bump_data(npts=64, edge=1.0)
        boxes = count_syntheses(monkeypatch)
        free, _ = synthesize_l1(bump, box_halfwidth=4.0, points_per_unit=10.0)
        assert boxes == [(320, 320)]
        monkeypatch.setattr(fourier, "MAX_GRID_NODES", 160 ** 2)
        capped, _ = synthesize_l1(bump, box_halfwidth=4.0, points_per_unit=10.0)
        assert boxes[1:] == [(160, 160), (320, 320)]
        assert capped == pytest.approx(free, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_zero_function_settles_at_zero(self, dim):
        spec = GridSpec(lower=[-1.0] * dim, upper=[1.0] * dim, npts=(40,) * dim)
        zero = GridFunction(spec=spec, values=np.zeros((40,) * dim))
        assert synthesize_l1(zero, box_halfwidth=1.0) == (0.0, 0.0)

    def test_loop_settles_on_two_zero_boxes(self):
        boxes = []
        assert _l1_by_doubling(lambda L: boxes.append(L) or 0.0, 1.0, 100.0, 4) == (0.0, 0.0)
        assert boxes == [1.0, 2.0]


def axis_nodes(lo, hi, m):
    return GridSpec(lower=[lo], upper=[hi], npts=(m,)).axis_nodes(0)


def direct_transform(F, axis, xs, ts):
    """The matrix exp(2 pi i t_j x_k) contracted with axis `axis` of F."""
    E = np.exp(2j * np.pi * np.outer(ts, xs))
    return np.moveaxis(np.tensordot(E, F, axes=(1, axis)), 0, axis)


SHAPES = [((None,), 0), ((None, 3), 0), ((3, None), 1)]


@pytest.fixture
def ifft_calls(monkeypatch):
    """Record the length of every FFT `_axis_transform` takes: it imports
    scipy.fft.ifft when it calls it, so the spy sits on scipy's module."""
    calls, ifft = [], scipy.fft.ifft

    def counted(x, n, **kwargs):
        calls.append(n)
        return ifft(x, n, **kwargs)

    monkeypatch.setattr(scipy.fft, "ifft", counted)
    return calls


def check_axis_transform(xs, ts, shape, axis):
    K = xs.size
    rng = np.random.default_rng(K * 10_000 + ts.size)
    dims = tuple(K if s is None else s for s in shape)
    F = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    got, ref = _axis_transform(F, axis, xs, ts), direct_transform(F, axis, xs, ts)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def fft_lengths(K, M):
    """The FFTs taken on K nodes of (0, 1) and M nodes of (-31, 33): there
    dt hx = 64/(M K), so one of length N = M K/64 when that is an integer
    N >= K."""
    return [M * K // 64] if K > 1 and M >= 64 and M * K % 64 == 0 else []


class TestAxisTransform:
    # an off-centre box, so that t_0/dt is not a half integer; up to 2^21
    # matrix entries here, more in the next test, where K = 2049, M = 1025
    # takes the direct matrix in two row blocks
    @pytest.mark.parametrize("K", [1, 2, 7, 400, 401])
    @pytest.mark.parametrize("M", [1, 5, 1536, 3072])
    @pytest.mark.parametrize("shape, axis", SHAPES)
    def test_dense_branch_matches_direct_matrix(self, K, M, shape, axis, ifft_calls):
        assert K * M <= 1 << 21
        check_axis_transform(axis_nodes(0.0, 1.0, K), axis_nodes(-31.0, 33.0, M), shape, axis)
        assert ifft_calls == fft_lengths(K, M)

    @pytest.mark.parametrize("K", [2048, 2049])
    @pytest.mark.parametrize("M", [1025, 1536])
    @pytest.mark.parametrize("shape, axis", SHAPES)
    def test_chirp_z_branch_matches_direct_matrix(self, K, M, shape, axis, ifft_calls):
        assert 1 << 21 < K * M <= 3_200_000
        check_axis_transform(axis_nodes(0.0, 1.0, K), axis_nodes(-31.0, 33.0, M), shape, axis)
        assert ifft_calls == fft_lengths(K, M)

    @pytest.mark.parametrize("shape, axis", SHAPES)
    def test_box_wider_than_the_period_wraps(self, shape, axis, ifft_calls):
        # dt = 1/4 and hx = 1/64 give N = 256 < M = 600 spatial nodes
        check_axis_transform(axis_nodes(0.0, 1.0, 64), axis_nodes(-74.0, 76.0, 600),
                             shape, axis)
        assert ifft_calls == [256]

    @pytest.mark.parametrize("xs, ts", [
        # dt hx 1e-10 off 1/9600
        (axis_nodes(0.0, 1.0, 400), axis_nodes(-31.0, 33.0, 1536) * (1.0 + 1e-10)),
        (axis_nodes(0.0, 1.0, 400), axis_nodes(-49.0, 51.0, 50)),      # N = 200 < K
        (axis_nodes(-1.05, 1.05, 96), axis_nodes(-8.0, 8.0, 160))])    # the planar bump
    @pytest.mark.parametrize("shape, axis", SHAPES)
    def test_other_grids_take_the_direct_matrix(self, xs, ts, shape, axis, ifft_calls):
        check_axis_transform(xs, ts, shape, axis)
        assert ifft_calls == []


def direct_convolution(a, b):
    """The full linear convolution as an O(size(a) size(b)) sum of shifted copies."""
    out = np.zeros(tuple(m + n - 1 for m, n in zip(a.shape, b.shape)),
                   dtype=np.result_type(a, b))
    for idx in np.ndindex(*a.shape):
        out[tuple(slice(i, i + n) for i, n in zip(idx, b.shape))] += a[idx] * b
    return out


class TestConvolution:
    @pytest.mark.parametrize("m", [1, 7, 400])
    @pytest.mark.parametrize("n", [1, 7, 400])
    def test_complex_1d_matches_direct_sum(self, m, n):
        rng = np.random.default_rng(100 * m + n)
        a = rng.normal(size=m) + 1j * rng.normal(size=m)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        got, ref = fft_convolve(a, b), direct_convolution(a, b)
        assert got.shape == ref.shape == (m + n - 1,)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.array_equal(got, signal.fftconvolve(a, b))

    @pytest.mark.parametrize("shape", [(1, 9), (13, 17), (6, 7, 8), (1, 5, 4)])
    def test_masks_count_pairs_exactly(self, shape):
        mask = (np.random.default_rng(len(shape)).random(shape) < 0.6).astype(float)
        got = fft_convolve(mask, mask)
        assert np.array_equal(np.rint(got), direct_convolution(mask, mask))
        assert np.array_equal(got, signal.fftconvolve(mask, mask))

