import math

import numpy as np
import pytest

from pwlab.calibration import DEFAULT_CALIBRATION
from pwlab.fourier import ConvergenceError, GridFunction, GridSpec, synthesize_l1
from pwlab.geometry import Ball, GeometryError
from pwlab.nehari import (
    BumpFamily,
    NehariConfig,
    _envelope_at,
    _phase_sum_at,
    build_bumps,
    check_interaction_disjointness,
    denominator_term,
    eq5_ratio,
    modulated_sum_l1,
    pack_boundary_disc,
    reference_bump_power_integral,
    sweep_and_fit,
)

CAL = DEFAULT_CALIBRATION


class TestPacking:
    def test_half_gives_five(self):
        # chord at N=6 is exactly 1.0, which fails the strict inequality
        assert pack_boundary_disc(0.5).shape[0] == 5

    def test_small_eps_count(self):
        assert pack_boundary_disc(0.05).shape[0] == 62

    def test_asymptotic_pi_over_eps(self):
        for eps in (0.02, 0.01):
            N = pack_boundary_disc(eps).shape[0]
            assert abs(N - math.pi / eps) <= 2

    def test_min_distance_strict(self):
        for eps in (0.4, 0.2, 0.1, 0.05):
            y = pack_boundary_disc(eps)
            d = np.linalg.norm(y[:, None] - y[None, :], axis=2)
            np.fill_diagonal(d, np.inf)
            assert d.min() > 2 * eps

    def test_eps_range(self):
        with pytest.raises(GeometryError):
            pack_boundary_disc(1.0)


class TestBumpFamily:
    def build(self, eps=0.2, K=33) -> BumpFamily:
        return build_bumps(pack_boundary_disc(eps), eps, CAL.containment_c,
                           CAL.bump_c1, local_grid_points=K)

    def test_center_value_one(self):
        fam = self.build()
        for i in (0, fam.count // 2):
            assert fam.symbol(i)(fam.freq_centers[i][None, :])[0] == 1.0

    def test_supports_disjoint_and_inside(self):
        fam = self.build()
        R = fam.support_radius
        reach = np.linalg.norm(fam.freq_centers, axis=1) + R
        assert np.all(reach < 2.0)
        d = np.linalg.norm(fam.freq_centers[:, None] - fam.freq_centers[None, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() > 2 * R

    def test_grid_resolves_bumps(self):
        fam = self.build(K=33)
        h = fam.offsets_axes[0][1] - fam.offsets_axes[0][0]
        assert fam.r > 2 * h

    def test_interaction_regions_disjoint(self):
        fam = self.build(eps=0.3)
        check_interaction_disjointness(fam)

    @pytest.mark.parametrize("eps", NehariConfig(p=6.0).epsilons)
    def test_default_sweep_families_disjoint(self, eps):
        check_interaction_disjointness(self.build(eps=eps))

    def test_overlapping_interactions_detected(self):
        # two copies of the same boundary point give identical D regions
        y = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(GeometryError):
            build_bumps(y, 0.2, CAL.containment_c, CAL.bump_c1)

    def test_calibration_violation_detected(self):
        with pytest.raises(GeometryError):
            build_bumps(pack_boundary_disc(0.3), 0.3, containment_c := 0.0001,
                        2.0)  # huge C1 pushes supports past 2 Omega


def envelope_oracle(points, family):
    """Direct complex sum E(t) = h^2 sum_kl v_kl e^{2 pi i (t_1 xi_k + t_2 xi_l)}."""
    a1 = np.exp(2j * np.pi * np.outer(points[:, 0], family.offsets_axes[0]))
    a2 = np.exp(2j * np.pi * np.outer(points[:, 1], family.offsets_axes[1]))
    return np.einsum("pi,ij,pj->p", a1, family.values.astype(complex), a2,
                     optimize=True) * family.local_weight


def phase_sum_oracle(points, freq_centers):
    """Direct complex sum S(t) = sum_i e^{2 pi i <c_i, t>}."""
    return np.exp(2j * np.pi * points @ freq_centers.T).sum(axis=1)


def kernel_points(family, count=3000):
    """Seeded t spread over the largest box modulated_sum_l1 may integrate
    (the alias half period), plus the origin where |E| peaks."""
    spacing_u = (family.offsets_axes[0][1] - family.offsets_axes[0][0]) / family.support_radius
    T = 0.5 / spacing_u / family.support_radius
    pts = np.random.default_rng(17).uniform(-T, T, size=(count, 2))
    return np.vstack([np.zeros((1, 2)), pts])


class TestKernels:
    @pytest.mark.parametrize("eps", [0.4, 0.05])
    @pytest.mark.parametrize("K", [69, 68])
    def test_envelope_matches_complex_sum(self, eps, K):
        fam = build_bumps(pack_boundary_disc(eps), eps, CAL.containment_c,
                          CAL.bump_c1, local_grid_points=K)
        pts = kernel_points(fam)
        ref = envelope_oracle(pts, fam)
        scale = np.abs(ref).max()
        assert np.abs(ref.imag).max() < 1e-12 * scale
        assert np.abs(_envelope_at(pts, fam) - ref).max() < 1e-10 * scale

    @pytest.mark.parametrize("eps", [0.4, 0.05])
    @pytest.mark.parametrize("K", [69, 68])
    def test_envelope_rotation_within_rounding(self, eps, K):
        # the cosines come from a rotation recurrence, whose error grows with
        # the offset index; it must stay at rounding level over the box
        fam = build_bumps(pack_boundary_disc(eps), eps, CAL.containment_c,
                          CAL.bump_c1, local_grid_points=K)
        pts = kernel_points(fam)
        ref = envelope_oracle(pts, fam)
        assert np.abs(_envelope_at(pts, fam) - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("eps", [0.4, 0.05])
    def test_phase_sum_matches_complex_sum(self, eps):
        fam = build_bumps(pack_boundary_disc(eps), eps, CAL.containment_c, CAL.bump_c1)
        pts = kernel_points(fam)
        ref = phase_sum_oracle(pts, fam.freq_centers)
        assert np.abs(_phase_sum_at(pts, fam.freq_centers) - ref).max() \
            < 1e-10 * np.abs(ref).max()


class TestTwoScaleIntegral:
    def test_single_bump_matches_synthesize_l1(self):
        fam = build_bumps(pack_boundary_disc(0.4), 0.4, CAL.containment_c, CAL.bump_c1)
        two_scale, _ = modulated_sum_l1(fam, which=np.array([0]), seed=3)
        offsets = fam.offsets_axes[0]
        half = offsets[-1] + 0.5 * (offsets[1] - offsets[0])
        c = fam.freq_centers[0]
        bump = GridFunction(spec=GridSpec(lower=c - half, upper=c + half, npts=(offsets.size,) * 2),
                            values=fam.values.astype(complex),
                            support=Ball(c, fam.support_radius))
        direct, _ = synthesize_l1(bump, box_halfwidth=8.0 / fam.support_radius,
                                  points_per_unit=0.25 / fam.support_radius)
        assert abs(two_scale - direct) < 0.02 * direct

    def test_alias_half_period_raises(self):
        # a 9-point local grid aliases at about 2.1 envelope units, inside the box
        fam = build_bumps(pack_boundary_disc(0.4), 0.4, CAL.containment_c,
                          CAL.bump_c1, local_grid_points=9)
        with pytest.raises(ConvergenceError, match="alias half period"):
            modulated_sum_l1(fam)

    def test_seed_determinism(self):
        fam = build_bumps(pack_boundary_disc(0.4), 0.4, CAL.containment_c, CAL.bump_c1)
        a = modulated_sum_l1(fam, seed=5)
        b = modulated_sum_l1(fam, seed=5)
        assert a == b


class TestRatioRow:
    def test_row_properties(self):
        cfg = NehariConfig(p=6.0)
        row = eq5_ratio(cfg, 0.3)
        assert row.N == 10
        assert row.min_pair_distance > 2 * 0.3
        assert row.a_max <= CAL.omega_c2 * 0.3 ** 3
        assert row.psi_l1_tail <= 0.01 * row.psi_l1
        assert row.ratio > 0 and np.isfinite(row.ratio)

    def test_numerator_exact_scaling(self):
        cfg = NehariConfig(p=6.0)
        row = eq5_ratio(cfg, 0.3, check_disjointness=False)
        r = CAL.bump_c1 * 0.3 ** 2
        assert abs(row.numerator - row.N * (2 * r) ** 2 * reference_bump_power_integral(2)) < 1e-12

    def test_triangle_inequality(self):
        cfg = NehariConfig(p=6.0)
        fam = build_bumps(pack_boundary_disc(0.3), 0.3, CAL.containment_c, CAL.bump_c1)
        single, _ = modulated_sum_l1(fam, which=np.array([0]), seed=cfg.seed)
        row = eq5_ratio(cfg, 0.3, check_disjointness=False)
        assert row.psi_l1 <= row.N * single * 1.001

    def test_denominator_bound_by_sup(self):
        # || phihat w^(1/p) ||_{p'}^p <= a_max * (int phihat^{p'})^{p/p'}
        fam = build_bumps(pack_boundary_disc(0.3), 0.3, CAL.containment_c, CAL.bump_c1)
        from pwlab.nehari import bump_sup_omega
        term = denominator_term(fam, 6.0)
        pc = 1.2
        v = fam.support_radius ** 2 * reference_bump_power_integral(pc)
        assert term <= bump_sup_omega(fam) * v ** (6.0 / pc) * (1 + 1e-9)

    def test_grid_self_consistency(self):
        # the N=1 single-bump ratio reproduces within 1% across resolutions
        vals = []
        for K in (69, 99):
            fam = build_bumps(pack_boundary_disc(0.4), 0.4, CAL.containment_c,
                              CAL.bump_c1, K)
            l1, _ = modulated_sum_l1(fam, which=np.array([0]), seed=NehariConfig.seed)
            term = denominator_term(fam, 6.0)
            num = fam.support_radius ** 2 * reference_bump_power_integral(2)
            vals.append(num / (l1 * term ** (1 / 6.0)))
        assert abs(vals[0] - vals[1]) < 0.01 * max(vals)


class TestSweep:
    def test_eps_outside_regime_rejected(self):
        with pytest.raises(GeometryError):
            NehariConfig(p=6.0, epsilons=(0.5, 0.3))

    def test_too_few_rows(self):
        with pytest.raises(GeometryError):
            sweep_and_fit(NehariConfig(p=6.0, epsilons=(0.4, 0.3, 0.2)),
                          check_disjointness=False)

    def test_short_sweep_slopes(self):
        eps = (0.4, 0.3, 0.2, 0.15)
        r6 = sweep_and_fit(NehariConfig(p=6.0, epsilons=eps), check_disjointness=False)
        r2 = sweep_and_fit(NehariConfig(p=2.0, epsilons=eps), check_disjointness=False)
        # the supercritical sweep must sit strictly above the p=2 one
        assert r6.slope > r2.slope
        doc = r6.as_dict()
        assert len(doc["rows"]) == 4
        assert "calibration" in doc
