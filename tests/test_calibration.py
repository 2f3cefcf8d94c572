import math

from pwlab.calibration import (
    CALIBRATION_EPS,
    DEFAULT_CALIBRATION,
    SAFETY,
    calibrate,
    max_omega_over_bump_ratio,
)
from pwlab.geometry import disc_lens_reach

EPS_SWEEP = (0.4, 0.3, 0.2, 0.15, 0.1, 0.07, 0.05)


class TestFrozenBlock:
    def test_inner_radius_from_pyramid_formula(self):
        cal = DEFAULT_CALIBRATION
        assert abs(cal.bump_c1 - cal.containment_c / math.sqrt(2)) < 1e-15

    def test_ceiling_covers_sweep(self):
        cal = DEFAULT_CALIBRATION
        ratio = max_omega_over_bump_ratio(cal.containment_c, cal.bump_c1, EPS_SWEEP)
        assert ratio <= cal.omega_c2

    def test_regime_boundary(self):
        # the containment holds up to eps0 and fails just past sqrt(1/C - 4)
        cal = DEFAULT_CALIBRATION
        assert cal.containment_c < 1.0 / (4.0 + cal.eps0 ** 2)
        assert disc_lens_reach(cal.containment_c, cal.eps0) <= cal.eps0
        past = math.sqrt(1.0 / cal.containment_c - 4.0) * (1.0 + 1e-6)
        assert disc_lens_reach(cal.containment_c, past) > past


class TestCalibrateRun:
    def test_deterministic_and_consistent(self):
        a = calibrate()
        assert a == calibrate()
        c = SAFETY / (4.0 + CALIBRATION_EPS ** 2)
        assert a.containment_c == c
        assert abs(c - 0.2244389) < 1e-7
        assert a.bump_c1 == c / math.sqrt(2)
        assert a.omega_c2 == 1.02 * max_omega_over_bump_ratio(c, a.bump_c1, EPS_SWEEP)
        assert a.eps0 == math.sqrt(1.0 / c - 4.0)
        assert abs(a.eps0 - 0.674949) < 1e-6
        assert a.calibration_eps == CALIBRATION_EPS
        assert disc_lens_reach(c, CALIBRATION_EPS) < CALIBRATION_EPS
        inside, past = a.eps0 * (1.0 - 1e-9), a.eps0 * (1.0 + 1e-6)
        assert disc_lens_reach(c, inside) <= inside
        assert disc_lens_reach(c, past) > past
