"""Numerical experiments with convex-body autocorrelations, discretized
Hankel operators on Paley-Wiener spaces, and Hardy-type inequalities."""

__version__ = "0.1.0"

from .geometry import (
    AffineImage,
    Ball,
    CertificateSystem,
    ConvexBody,
    GeometryError,
    HPolytope,
    Product,
    Pyramid,
    VPolytope,
    body_from_json,
    box,
    disc_lens_reach,
    polar_dual,
    pyramid_ball_check,
    solve_certificate,
    to_hpolytope,
    unit_box,
    vertex_enumerate,
)

from .calibration import DEFAULT_CALIBRATION, CalibrationBlock, calibrate
from .fourier import GridFunction, GridSpec, synthesize_l1
from .hankel import HankelMatrix, schatten_norm
from .hardy import corner_family_sweep, halfline_ratio, tent_ratio
from .nehari import NehariConfig, pack_boundary_disc, sweep_and_fit
from .omega import OmegaEvaluator, omega_ball, omega_box, omega_mc, sublevel_fit
from .simplicial import build_approximation, simplicial_sequence
