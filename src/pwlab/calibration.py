"""Calibration of the disc-geometry constants used by the boundary-bump
experiments.

Three constants govern the shrinking-bump construction on the unit disc:

  C   -- containment: (2 cl(B((1-C e^2)y, C e^2)) - B) cap B stays in B(y, e);
  C1  -- inner radius: bumps of radius C1 e^2 fit inside the body, via the
         inscribed-pyramid ball formula with the disc's inscribed a = b = 1
         triangle, so C1 = C / sqrt(2);
  C2  -- autocorrelation ceiling: sup w over a bump support is <= C2 e^3.

The containment's lens reaches farthest from y at the rim where its two
spheres cross, at distance e exactly when C = 1/(4 + e^2), so it holds iff
C <= 1/(4 + e^2): geometry.disc_lens_reach decides it with no sampling.
calibrate() gives the constants in closed form; DEFAULT_CALIBRATION freezes
a block with a safety margin so downstream runs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .omega import disc_sup_on_ball

CALIBRATION_EPS = 0.1   # the eps at which the containment threshold is taken
SAFETY = 0.9            # the stored C is this share of the threshold


@dataclass(frozen=True)
class CalibrationBlock:
    containment_c: float
    bump_c1: float
    omega_c2: float
    eps0: float
    calibration_eps: float

    def as_dict(self) -> dict:
        return asdict(self)


# Frozen from a sampled calibration run (a bisection of C at 10^6 rejection
# samples, seed 20240601), rounded down.  That bisection landed 7.7 % above the
# exact threshold 1/(4 + eps^2) = 0.24938 at eps = 0.1, since the violating
# sliver there is a few-expected-hits event; with the safety factor and
# rounding the stored C = 0.24 sits below the threshold for every eps up to
# eps0 = 0.408 < sqrt(1/C - 4) = 0.40825: at eps0 it is 4.9e-5 relative below
# 1/(4 + eps0^2), and the exact reach of the lens is (1 - 2.5e-5) eps0.
DEFAULT_CALIBRATION = CalibrationBlock(
    containment_c=0.24,
    bump_c1=0.24 / math.sqrt(2.0),
    omega_c2=1.01,
    eps0=0.408,
    calibration_eps=CALIBRATION_EPS,
)


def max_omega_over_bump_ratio(C: float, C1: float, eps_list) -> float:
    """max over eps of sup w / eps^3 on the doubled bump supports 2B(x_eps, r).

    The supports are the balls of radius 2 C1 eps^2 centred at distance
    2(1 - C eps^2) from the origin.
    """
    return max((disc_sup_on_ball(2.0 * (1.0 - C * eps * eps), 2.0 * C1 * eps * eps) / eps ** 3
                for eps in eps_list), default=0.0)


def calibrate() -> CalibrationBlock:
    """The constants on the unit disc, in closed form.

    C is SAFETY times the containment threshold 1/(4 + eps^2) at
    CALIBRATION_EPS; C1 follows from the inscribed-pyramid formula; C2 is the
    measured maximum of sup w / eps^3 over the default eps sweep with 2%
    headroom; eps0 = sqrt(1/C - 4) is the largest eps at which the
    containment still holds for this C.
    """
    c = SAFETY / (4.0 + CALIBRATION_EPS ** 2)
    c1 = c / math.sqrt(2.0)
    eps_sweep = (0.4, 0.3, 0.2, 0.15, 0.1, 0.07, 0.05)
    c2 = 1.02 * max_omega_over_bump_ratio(c, c1, eps_sweep)
    return CalibrationBlock(containment_c=c, bump_c1=c1, omega_c2=c2,
                            eps0=math.sqrt(1.0 / c - 4.0), calibration_eps=CALIBRATION_EPS)
