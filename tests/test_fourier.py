import numpy as np
import pytest
from scipy import signal
from scipy.integrate import quad

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


class TestAxisTransform:
    @pytest.mark.parametrize("K", [1, 2, 7, 400, 401])
    @pytest.mark.parametrize("M", [1, 5, 1536])
    @pytest.mark.parametrize("shape, axis", [((None,), 0), ((None, 3), 0), ((3, None), 1)])
    def test_dense_branch_matches_direct_matrix(self, K, M, shape, axis):
        xs = GridSpec(lower=[0.0], upper=[1.0], npts=(K,)).axis_nodes(0)
        # off-centre box, so that a single spatial node is not t = 0
        ts = GridSpec(lower=[-31.0], upper=[33.0], npts=(M,)).axis_nodes(0)
        assert K * M <= 1 << 21
        rng = np.random.default_rng(K * 10_000 + M)
        dims = tuple(K if s is None else s for s in shape)
        F = rng.normal(size=dims) + 1j * rng.normal(size=dims)
        got = _axis_transform(F, axis, xs, ts)
        E = np.exp(2j * np.pi * np.outer(ts, xs))
        ref = np.moveaxis(np.tensordot(E, F, axes=(1, axis)), 0, axis)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("K", [2048, 2049])
    @pytest.mark.parametrize("M", [1025, 1536])
    @pytest.mark.parametrize("shape, axis", [((None,), 0), ((None, 3), 0), ((3, None), 1)])
    def test_chirp_z_branch_matches_direct_matrix(self, K, M, shape, axis):
        xs = GridSpec(lower=[0.0], upper=[1.0], npts=(K,)).axis_nodes(0)
        ts = GridSpec(lower=[-31.0], upper=[33.0], npts=(M,)).axis_nodes(0)
        # past the dense branch, with a reference matrix of at most 3.2e6 entries
        assert 1 << 21 < K * M <= 3_200_000
        rng = np.random.default_rng(K * 10_000 + M)
        dims = tuple(K if s is None else s for s in shape)
        F = rng.normal(size=dims) + 1j * rng.normal(size=dims)
        got = _axis_transform(F, axis, xs, ts)
        E = np.exp(2j * np.pi * np.outer(ts, xs))
        ref = np.moveaxis(np.tensordot(E, F, axes=(1, axis)), 0, axis)
        assert got.shape == ref.shape
        # the chirp w^(k^2/2) carries the rounding of |w| to powers ~k^2/2
        assert np.max(np.abs(got - ref)) <= 2e-10 * np.max(np.abs(ref))


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
