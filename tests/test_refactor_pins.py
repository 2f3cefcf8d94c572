"""Pinned values of the shared numerical paths: the box-doubling integrator,
the support-box grid, the omega dispatch and the local bump grids.

Each value was recorded once and is checked to 1e-12 relative, so any
restructuring of these paths must reproduce the same numbers.
"""

import numpy as np
import pytest

from pwlab import hankel, hardy, nehari, omega
from pwlab.calibration import DEFAULT_CALIBRATION as CAL
from pwlab.fourier import GridFunction, GridSpec, bump_hat_batch, synthesize_l1
from pwlab.geometry import BUILTIN_BODIES, Ball, VPolytope, vertex_enumerate


def pinned(value):
    return pytest.approx(value, rel=1e-12, abs=0.0)


def family(eps):
    return nehari.build_bumps(nehari.pack_boundary_disc(eps), eps, CAL.containment_c,
                              CAL.bump_c1, 69)


DISC = Ball(np.zeros(2), 1.0)


def disc_symbol(p):
    return (0.6 - 0.8j) * bump_hat_batch(p, center=[0.3, -0.2], radius=0.6)


def test_synthesize_l1_tent():
    spec = GridSpec(lower=[-1.0], upper=[1.0], npts=(4000,))
    tent = GridFunction.from_function(spec, lambda p: np.maximum(0.0, 1.0 - np.abs(p[:, 0])))
    total, tail = synthesize_l1(tent, box_halfwidth=4.0)
    # 1.2e-16 and 1.4e-14 relative off the long-double box sums of
    # tests/test_fourier.py::TestSynthesis::test_tent_boxes_match_long_double_sums
    assert total == pinned(0.9968325358791739)
    assert tail == pinned(0.0031645249291957223)


def test_halfline_ratio_seeded_pair():
    g, h = hardy.random_halfline_pair(np.random.default_rng(2024))
    assert hardy.halfline_ratio(g, h, freq_points=400) == pinned(0.355548542028312)


def test_modulated_sum_l1():
    total, tail = nehari.modulated_sum_l1(family(0.4), seed=7)
    assert total == pinned(6.3511227760329705)
    assert tail == pinned(0.024610246007489955)


def test_hs_identity_check():
    chk = hankel.hs_identity_check(DISC, disc_symbol, 0.05)
    assert chk.frobenius == pinned(1.1401423169411424)
    assert chk.integral == pinned(1.13614353342613)


def test_russo_bound_check():
    chk = hankel.russo_bound_check(DISC, disc_symbol, 0.1, 6.0, integral_pts=200)
    assert chk.lhs == pinned(0.6053021614116042)
    assert chk.rhs_mixed == pinned(0.7210917227370925)
    assert chk.rhs_continuum == pinned(0.7695455969129874)


def test_omega_inverse_integral():
    vals = omega.omega_inverse_integral(DISC, 0.5, levels=2, base_per_axis=64, floor=1e-3)
    assert vals == [pinned(29.191698997349178), pinned(28.58860632062724)]


def test_local_grids_and_bump_sup():
    fam = family(0.3)
    assert nehari.denominator_term(fam, 6.0) == pinned(1.23830396532635e-16)
    assert nehari.bump_sup_omega(fam) == pinned(0.026554529839395546)
    corner = hardy.corner_family_ratio(1.5, 1e-2) * hardy.canonical_bump_l1()
    assert corner == pinned(38.84047486764231)


def test_eq5_row():
    # one full sweep row at the fixed quadrature constants
    row = nehari.eq5_ratio(nehari.NehariConfig(p=6.0), 0.4)
    assert row.psi_l1 == pinned(6.3511227760329705)
    assert row.schatten_proxy == pinned(0.009296629732338066)
    assert row.ratio == pinned(0.5475666440209571)


def test_evaluator_scalar_disc():
    assert omega.OmegaEvaluator(DISC)(np.array([0.7, 0.3])) == pinned(1.6560928604827385)


def test_evaluator_scalar_vform_pyramid():
    shifted = BUILTIN_BODIES["pyramid"]()
    ev = omega.OmegaEvaluator(VPolytope(vertex_enumerate(shifted)))
    assert ev(np.array([0.1, -0.2, 0.2])) == pinned(0.5269999999999998)
