import math

import mpmath
import numpy as np
import pytest

from pwlab import nehari
from pwlab.calibration import DEFAULT_CALIBRATION
from pwlab.fourier import (
    L1_REL_TOL,
    ConvergenceError,
    GridFunction,
    GridSpec,
    _l1_by_doubling,
    synthesize_l1,
)
from pwlab.geometry import Ball, GeometryError
from pwlab.nehari import (
    ENVELOPE_CELLS,
    ENVELOPE_DOUBLINGS,
    ENVELOPE_HALFWIDTH,
    ENVELOPE_SAMPLES,
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

    @pytest.mark.parametrize("eps", [0.4, 0.05])
    def test_counts_cover_every_cell(self, monkeypatch, eps):
        fam = build_bumps(pack_boundary_disc(eps), eps, CAL.containment_c, CAL.bump_c1)
        first, shell = recorded_counts(monkeypatch, fam, seed=1)
        assert first.size == ENVELOPE_CELLS ** 2
        assert shell.size == ENVELOPE_CELLS ** 2 - (ENVELOPE_CELLS // 2) ** 2
        assert first.min() >= 1 and shell.min() >= 1
        assert abs(first.mean() - ENVELOPE_SAMPLES) < 1.0
        # the shell's envelope is small, so it gets few samples a cell
        assert shell.mean() < 0.25 * first.mean()

    def test_counts_independent_of_seed_and_which(self, monkeypatch):
        fam = build_bumps(pack_boundary_disc(0.1), 0.1, CAL.containment_c, CAL.bump_c1)
        ref = recorded_counts(monkeypatch, fam, seed=1)
        for kwargs in ({"seed": 2}, {"seed": 1, "which": np.array([0])},
                       {"seed": 3, "which": np.arange(5)}):
            got = recorded_counts(monkeypatch, fam, **kwargs)
            assert len(got) == len(ref)
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))

    @pytest.mark.parametrize("eps", [0.4, 0.05])
    def test_mean_agrees_with_uniform_oracle(self, eps):
        fam = build_bumps(pack_boundary_disc(eps), eps, CAL.containment_c, CAL.bump_c1)
        new = np.array([modulated_sum_l1(fam, seed=s)[0] for s in range(1, 9)])
        old = np.array([uniform_l1_oracle(fam, s) for s in range(101, 109)])
        se = math.sqrt(new.var(ddof=1) / new.size + old.var(ddof=1) / old.size)
        assert abs(new.mean() - old.mean()) <= 3.0 * se


def recorded_counts(monkeypatch, family, **kwargs) -> list[np.ndarray]:
    """The per-cell sample counts of each box of one modulated_sum_l1 call."""
    seen = []
    real = nehari._stratum_counts

    def spy(*args):
        counts, scale = real(*args)
        seen.append(counts)
        return counts, scale

    monkeypatch.setattr(nehari, "_stratum_counts", spy)
    modulated_sum_l1(family, **kwargs)
    monkeypatch.undo()
    return seen


def uniform_l1_oracle(family, seed):
    """The two-scale L1 integral with 32 uniform samples in every cell of
    each box, whatever the envelope there: the stratified estimator that
    the envelope allocation replaced."""
    R = family.support_radius
    spacing_u = (family.offsets_axes[0][1] - family.offsets_axes[0][0]) / R
    rng = np.random.default_rng(seed)
    boxes = []

    def box_total(U):
        T = U / R
        edges = np.linspace(-T, T, ENVELOPE_CELLS + 1)
        w = edges[1] - edges[0]
        base = np.stack(np.meshgrid(edges[:-1], edges[:-1], indexing="ij"), axis=-1)
        base = base.reshape(-1, 2)
        if boxes:
            inner = np.all((base >= -T / 2 - 1e-12 * T) & (base + w <= T / 2 + 1e-12 * T),
                           axis=1)
            base = base[~inner]
        pts = (np.repeat(base, 32, axis=0)
               + rng.uniform(0.0, w, size=(base.shape[0] * 32, 2)))
        vals = np.abs(_envelope_at(pts, family) * _phase_sum_at(pts, family.freq_centers))
        boxes.append(vals.mean() * base.shape[0] * w * w)
        return sum(boxes)

    return _l1_by_doubling(box_total, ENVELOPE_HALFWIDTH, 0.5 / spacing_u,
                           ENVELOPE_DOUBLINGS)[0]


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
        row = eq5_ratio(cfg, 0.3)
        r = CAL.bump_c1 * 0.3 ** 2
        assert abs(row.numerator - row.N * (2 * r) ** 2 * reference_bump_power_integral(2)) < 1e-12

    def test_triangle_inequality(self):
        cfg = NehariConfig(p=6.0)
        fam = build_bumps(pack_boundary_disc(0.3), 0.3, CAL.containment_c, CAL.bump_c1)
        single, _ = modulated_sum_l1(fam, which=np.array([0]), seed=cfg.seed)
        row = eq5_ratio(cfg, 0.3)
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


class TestBumpPowerIntegral:
    @pytest.mark.parametrize("power", [1.2, 1.5, 2.0, 3.0, 6.0])
    def test_matches_mpmath(self, power):
        # the bump profile from its definition, integrated over all of [0, 1]
        def phi(s):
            u = 2 * (1 - s)
            if u >= 1:
                return mpmath.mpf(1)
            if u <= 0:
                return mpmath.mpf(0)
            g, g1 = mpmath.exp(-1 / u), mpmath.exp(-1 / (1 - u))
            return g / (g + g1)

        with mpmath.workdps(30):
            exact = 2 * mpmath.pi * mpmath.quad(lambda s: phi(s) ** power * s, [0, 0.5, 0.75, 1])
        assert abs(reference_bump_power_integral(power) / float(exact) - 1) < 1e-13


class TestSweep:
    def test_eps_outside_regime_rejected(self):
        with pytest.raises(GeometryError):
            NehariConfig(p=6.0, epsilons=(0.5, 0.3))

    @pytest.mark.parametrize("p", [0.5, math.nan])
    def test_schatten_exponent_below_one_or_nan_rejected(self, p):
        with pytest.raises(GeometryError, match="p >= 1"):
            NehariConfig(p=p)

    def test_too_few_rows(self):
        with pytest.raises(GeometryError):
            sweep_and_fit(NehariConfig(p=6.0, epsilons=(0.4, 0.3, 0.2)))

    @pytest.mark.parametrize("eps", [(0.4, 0.4, 0.4, 0.4), (0.4, 0.39, 0.38, 0.37)])
    def test_too_few_distinct_n_raises_before_any_row(self, monkeypatch, eps):
        computed = []
        monkeypatch.setattr(nehari, "eq5_ratio", lambda *a, **k: computed.append(a))
        with pytest.raises(GeometryError, match="at least 4 distinct N"):
            sweep_and_fit(NehariConfig(p=6.0, epsilons=eps))
        assert computed == []

    def test_orthogonality_grid_cap_raises_before_any_row(self, monkeypatch):
        # at eps = 0.1 the spot check's grid, spacing r/3, has 3536^2 nodes
        def no_row(*args, **kwargs):
            raise AssertionError("a sweep row ran")
        monkeypatch.setattr(nehari, "eq5_ratio", no_row)
        cfg = NehariConfig(p=6.0, epsilons=(0.1, 0.07, 0.05, 0.04))
        with pytest.raises(GeometryError, match="12503296 grid nodes, above the cap"):
            sweep_and_fit(cfg, orthogonality_eps=0.1)

    def test_short_sweep_slopes(self):
        eps = (0.4, 0.3, 0.2, 0.15)
        r6 = sweep_and_fit(NehariConfig(p=6.0, epsilons=eps))
        r2 = sweep_and_fit(NehariConfig(p=2.0, epsilons=eps))
        # the supercritical sweep must sit strictly above the p=2 one
        assert r6.slope > r2.slope
        doc = r6.as_dict()
        assert len(doc["rows"]) == 4
        assert "calibration" in doc


SPREAD_SEEDS = range(1, 9)


@pytest.fixture(scope="module")
def default_sweeps():
    """The default p = 6 sweep at each of seeds 1-8."""
    return [sweep_and_fit(NehariConfig(p=6.0, seed=s)) for s in SPREAD_SEEDS]


class TestSeedSpread:
    def test_tail_below_doubling_tolerance(self, default_sweeps):
        # the doubling loop returns only once the last shell is this small,
        # so the row carries no separate tail budget
        for report in default_sweeps:
            for row in report.rows:
                assert row.psi_l1_tail < L1_REL_TOL * row.psi_l1

    @pytest.mark.parametrize("eps", [0.4, 0.1, 0.05])
    def test_row_spread(self, default_sweeps, eps):
        vals = np.array([row.psi_l1 for report in default_sweeps
                         for row in report.rows if row.eps == eps])
        assert vals.size == len(SPREAD_SEEDS)
        assert vals.std(ddof=1) <= 0.012 * vals.mean()

    def test_slope_spread(self, default_sweeps):
        slopes = np.array([report.slope for report in default_sweeps])
        assert slopes.std(ddof=1) <= 0.005
