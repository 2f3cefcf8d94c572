import numpy as np
import pytest
from scipy import signal
from scipy.integrate import quad

from pwlab import fourier
from pwlab.fourier import (
    ConvergenceError,
    GridFunction,
    GridSpec,
    _axis_transform,
    bump_profile,
    dilate_toward,
    fft_convolve,
    smooth_step,
    synthesize_l1,
    synthesize_on_grid,
)
from pwlab.geometry import Ball, GeometryError


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

    def test_frequency_support_enforced(self):
        spec = GridSpec(lower=[-2, -2], upper=[2, 2], npts=(16, 16))
        with pytest.raises(GeometryError):
            GridFunction.from_function(spec, lambda p: np.ones(p.shape[0]),
                                       support=Ball(np.zeros(2), 1.0))


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
        assert abs(l1s - l1) < 1e-6 * l1

    def test_budget_exhaustion_raises(self):
        spec = GridSpec(lower=[-1.0], upper=[1.0], npts=(500,))
        tent = GridFunction.from_function(spec, lambda p: np.maximum(0, 1 - np.abs(p[:, 0])))
        with pytest.raises(ConvergenceError):
            synthesize_l1(tent, box_halfwidth=0.25, max_doublings=1)


    def test_alias_half_period_raises(self):
        # spacing 0.2 puts the alias half period at 2.5, inside the box
        spec = GridSpec(lower=[-1.0], upper=[1.0], npts=(10,))
        tent = GridFunction.from_function(spec, lambda p: np.maximum(0, 1 - np.abs(p[:, 0])))
        with pytest.raises(ConvergenceError, match="alias half period"):
            synthesize_l1(tent, box_halfwidth=4.0)


def axis_nodes(lo, hi, m):
    return GridSpec(lower=[lo], upper=[hi], npts=(m,)).axis_nodes(0)


def direct_transform(F, axis, xs, ts):
    """The matrix exp(2 pi i t_j x_k) contracted with axis `axis` of F."""
    E = np.exp(2j * np.pi * np.outer(ts, xs))
    return np.moveaxis(np.tensordot(E, F, axes=(1, axis)), 0, axis)


SHAPES = [((None,), 0), ((None, 3), 0), ((3, None), 1)]


@pytest.fixture
def ifft_calls(monkeypatch):
    """Record the length of every FFT `_axis_transform` takes."""
    calls, ifft = [], fourier.ifft

    def counted(x, n, **kwargs):
        calls.append(n)
        return ifft(x, n, **kwargs)

    monkeypatch.setattr(fourier, "ifft", counted)
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


class TestDilation:
    def test_identity_limit(self):
        spec = GridSpec(lower=[-1.0], upper=[1.0], npts=(100,))
        tent = GridFunction.from_function(spec, lambda p: np.maximum(0, 1 - np.abs(p[:, 0])))
        d = dilate_toward(tent, z=[0.0], r=0.999999)
        assert np.allclose(d.spec.lower, tent.spec.lower, atol=1e-5)

    def test_support_scaling(self):
        spec = GridSpec(lower=[-1.0], upper=[1.0], npts=(100,))
        tent = GridFunction.from_function(spec, lambda p: np.maximum(0, 1 - np.abs(p[:, 0])))
        d = dilate_toward(tent, z=[0.0], r=0.5)
        assert np.allclose([d.spec.lower[0], d.spec.upper[0]], [-0.5, 0.5])

    def test_l1_invariance(self):
        spec = GridSpec(lower=[-1.0], upper=[1.0], npts=(4000,))
        tent = GridFunction.from_function(spec, lambda p: np.maximum(0, 1 - np.abs(p[:, 0])))
        l1, _ = synthesize_l1(tent, box_halfwidth=4.0)
        d = dilate_toward(tent, z=[0.3], r=0.5)
        l1d, _ = synthesize_l1(d, box_halfwidth=8.0)
        assert abs(l1d - l1) < 0.01 * l1

    def test_r_out_of_range(self):
        spec = GridSpec(lower=[-1.0], upper=[1.0], npts=(10,))
        tent = GridFunction.from_function(spec, lambda p: np.maximum(0, 1 - np.abs(p[:, 0])))
        with pytest.raises(GeometryError):
            dilate_toward(tent, z=[0.0], r=1.5)

    def test_ball_support_maps(self):
        spec = GridSpec(lower=[-1.0], upper=[1.0], npts=(64,))
        gf = GridFunction.from_function(spec, lambda p: bump_profile(p[:, 0]),
                                        support=Ball(np.zeros(1), 1.0))
        d = dilate_toward(gf, z=[0.5], r=0.5)
        assert isinstance(d.support, Ball)
        assert abs(d.support.radius - 0.5) < 1e-12
        assert abs(d.support.center[0] - 0.5) < 1e-12
