"""Hardy-type ratio experiments: int |fhat| / w^d dx against ||f||_1.

Three families probe the inequality from different sides.  Tent functions on
intervals and boxes make both sides closed-form (the integrand is exactly one
on the support).  Products of half-line pieces test the constant pi.  A
corner family of affine bumps drives the ratio like t^(1-d) as the symbol
slides into a corner of 2P, separating d < 1, d = 1 and d > 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .fourier import (
    GridFunction,
    GridSpec,
    bump_profile,
    fft_convolve,
    nested_box_l1,
    smooth_step,
    synthesize_l1,
    synthesize_on_grid,
)
from .geometry import ConvexBody, GeometryError, HPolytope, VPolytope
from .omega import omega_inverse_integral

OMEGA_FLOOR = 1e-12
# Fixed quadrature of the three families, not options.
TENT_BOX_HALFWIDTH = 4.0        # first box of the tent's sinc^2 L1 norm
HALFLINE_POINTS_PER_UNIT = 24.0  # spatial nodes per unit length for |g h|
HALFLINE_PIECES = 3             # bumps in each random half-line factor
HALFLINE_FREQ_POINTS = 400      # frequency samples of each random half-line factor
EXTREMAL_FREQ_POINTS = 20_000
EXTREMAL_CUT = 0.0005           # the near-extremal pair vanishes below it
CORNER_QUAD_POINTS = 160        # midpoint cells a side over a corner bump


# ---------------------------------------------------------------------------
# exact tent anchor
# ---------------------------------------------------------------------------

def tent_ratio(n: int, d: float = 1.0, freq_points: int = 20_000) -> float:
    """The Hardy ratio for the tent on the n-cube.

    With fhat = prod (1-|x_i|)+ and w the product of tents, the d = 1
    integrand is identically one on (-1,1)^n, so the numerator is exactly
    2^n; the denominator factors across axes and each factor is the L1 norm
    of sinc^2 (exactly fhat(0) = 1), synthesized from freq_points samples
    of the tent.  For other d the numerator is the closed-form one-axis
    integral int (1-|x|)^(1-d) dx raised to the n-th power.
    """
    if n < 1:
        raise GeometryError("dimension must be >= 1")
    if not math.isfinite(d):
        raise GeometryError(f"weight exponent d must be finite, got {d}")
    if d >= 2.0:
        raise GeometryError("the one-axis tent integral diverges for d >= 2")
    numerator_axis = 2.0 / (2.0 - d)           # int_{-1}^{1} (1-|x|)^{1-d} dx
    spec = GridSpec(lower=[-1.0], upper=[1.0], npts=(freq_points,))
    tent = GridFunction.from_function(spec, lambda p: np.maximum(0.0, 1.0 - np.abs(p[:, 0])))
    l1_axis, _ = synthesize_l1(tent, box_halfwidth=TENT_BOX_HALFWIDTH)
    return (numerator_axis / l1_axis) ** n


# ---------------------------------------------------------------------------
# half-line products and the constant pi
# ---------------------------------------------------------------------------

def halfline_ratio(ghat_vals: np.ndarray, hhat_vals: np.ndarray, freq_points: int,
                   box_halfwidth: float = 32.0, max_doublings: int = 5) -> float:
    """int_0^inf |(ghat * hhat)(x)| / x dx over ||g h||_1.

    ghat, hhat: freq_points samples on the midpoint grid of (0,1); their
    convolution lands on the integer grid of (0,2), where w(x) = x.  The
    denominator is fourier.nested_box_l1 of |g h|; a zero g h raises.
    """
    ghat_vals = np.asarray(ghat_vals, dtype=complex).reshape(-1)
    hhat_vals = np.asarray(hhat_vals, dtype=complex).reshape(-1)
    K = ghat_vals.size
    if K < 1 or freq_points != K or hhat_vals.size != K:
        raise GeometryError(f"freq_points {freq_points} is not the positive count of both samples")
    h = 1.0 / K
    conv = fft_convolve(ghat_vals, hhat_vals) * h     # values at x = (k+l+1) h
    xs = (np.arange(conv.size) + 1.0) * h
    numerator = float(np.sum(np.abs(conv) / xs) * h)

    spec = GridSpec(lower=[0.0], upper=[1.0], npts=(K,))
    ghat = GridFunction(spec=spec, values=ghat_vals)
    hhat = GridFunction(spec=spec, values=hhat_vals)
    total, _ = nested_box_l1(
        lambda s: np.abs(synthesize_on_grid(ghat, s) * synthesize_on_grid(hhat, s)),
        1, box_halfwidth, HALFLINE_POINTS_PER_UNIT, 0.5 * K, max_doublings)
    if total == 0.0:
        raise GeometryError("g h vanishes on every box, so the half-line ratio is undefined")
    return numerator / total


def random_halfline_pair(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Random smooth frequency data supported in (0,1), HALFLINE_FREQ_POINTS
    samples each: a few bumps with random centers, widths and complex
    amplitudes."""
    xs = (np.arange(HALFLINE_FREQ_POINTS) + 0.5) / HALFLINE_FREQ_POINTS

    def one() -> np.ndarray:
        vals = np.zeros(HALFLINE_FREQ_POINTS, dtype=complex)
        for _ in range(HALFLINE_PIECES):
            width = rng.uniform(0.05, 0.2)
            center = rng.uniform(width + 0.02, 0.98 - width)
            amp = rng.normal() + 1j * rng.normal()
            vals += amp * bump_profile((xs - center) / width)
        return vals

    return one(), one()


def extremal_halfline_pair() -> tuple[np.ndarray, np.ndarray]:
    """A near-extremal pair: ghat = hhat ~ x^(-1/2) spread over (EXTREMAL_CUT, 1),
    smoothly ramped at both ends.  Pushes the ratio toward pi."""
    cut = EXTREMAL_CUT
    xs = (np.arange(EXTREMAL_FREQ_POINTS) + 0.5) / EXTREMAL_FREQ_POINTS
    ramp_in = smooth_step((xs - cut) / cut)              # 0 below cut, 1 above 2 cut
    ramp_out = smooth_step((0.95 - xs) / 0.45)           # 1 below 0.5, 0 above 0.95
    vals = np.where(xs > cut, xs ** -0.5, 0.0) * ramp_in * ramp_out
    return vals.astype(complex), vals.astype(complex)


# ---------------------------------------------------------------------------
# corner blow-up family
# ---------------------------------------------------------------------------

@dataclass
class CornerFamilyResult:
    t_values: np.ndarray
    ratios: np.ndarray
    slope: float
    max_over_min: float


def corner_family_ratio(d: float, t: float) -> float:
    """One member of the corner family on the unit square P = (0,1)^2.

    x_t = 2v - sqrt(t) (1,1) at the corner v = (1,1) has w(x_t) = t exactly;
    the inscribed ball of P cap (x_t - P) = [1-sqrt(t), 1]^2 has center c and
    radius sqrt(t)/2, and the bump is planted on the doubled ball B(2c,
    sqrt(t)), where w is comparable to t.  ||phi_t||_1 = ||phi||_1 by affine
    invariance, so the returned ratio scales like t^(1-d).
    """
    if not (0.0 < t < 1.0):
        raise GeometryError("corner parameter t must lie in (0, 1)")
    if not math.isfinite(d):
        raise GeometryError(f"weight exponent d must be finite, got {d}")
    root = math.sqrt(t)
    center = 2.0 * (1.0 - root / 2.0) * np.ones(2)   # doubled Chebyshev center
    grid = GridSpec(lower=[-1.0, -1.0], upper=[1.0, 1.0], npts=CORNER_QUAD_POINTS)
    u = grid.nodes()
    x = center + root * u
    w = np.prod(np.maximum(0.0, 1.0 - np.abs(x - 1.0)), axis=1)   # w of P = (0, 1)^2
    vals = bump_profile(np.linalg.norm(u, axis=1))
    mask = (vals > 0.0) & (w > OMEGA_FLOOR)
    cell = (root * float(grid.spacing[0])) ** 2
    with np.errstate(over="ignore"):    # an overflow is refused below
        numerator = float(np.sum(vals[mask] * w[mask] ** (-d)) * cell)
    ratio = numerator / canonical_bump_l1()
    if not (math.isfinite(ratio) and ratio > 0.0):
        raise GeometryError(f"corner ratio {ratio} at d={d}: w^(-d) leaves the float range")
    return ratio


@functools.cache
def canonical_bump_l1() -> float:
    """||phi||_1 of the canonical planar bump, synthesized once and memoized."""
    spec = GridSpec(lower=[-1.05, -1.05], upper=[1.05, 1.05], npts=(96, 96))
    gf = GridFunction.from_function(spec, lambda p: bump_profile(np.linalg.norm(p, axis=1)))
    val, _ = synthesize_l1(gf, box_halfwidth=8.0, points_per_unit=10.0)
    return val


def corner_family_sweep(d: float) -> CornerFamilyResult:
    """Ratios over a sweep of t from 1e-3 to 1e-1 with the fitted log-log slope."""
    t_values = np.geomspace(1e-3, 1e-1, 7)
    ratios = np.array([corner_family_ratio(d, t) for t in t_values])
    slope = float(np.polyfit(np.log(t_values), np.log(ratios), 1)[0])
    return CornerFamilyResult(t_values=t_values, ratios=ratios, slope=slope,
                              max_over_min=float(ratios.max() / ratios.min()))


# ---------------------------------------------------------------------------
# integrability verdicts
# ---------------------------------------------------------------------------

@dataclass
class IntegrabilityRow:
    d: float
    verdict: str
    evidence: dict = field(default_factory=dict)


def unit_box_corner(body: ConvexBody) -> np.ndarray | None:
    """The corner c of a body that is the box c + (0, 1)^n, else None: its
    bounding box has unit sides, and the body holds each corner of that box
    moved DEDUP_TOL inward, so, being convex, it fills the box."""
    lo, hi = body.bounding_box()
    tol, n = geometry.DEDUP_TOL, body.dim
    corners = lo + tol + (1.0 - 2 * tol) * np.indices((2,) * n).reshape(n, -1).T
    if np.all(np.abs(hi - lo - 1.0) <= tol) and np.all(body.contains_batch(corners)):
        return lo
    return None


def adjusted_integrability_report(body: ConvexBody, d_list) -> list[IntegrabilityRow]:
    """Numerical evidence table for the weight exponent d.

    Polytopes: the corner family decides (bounded ratios for d <= 1,
    negative slope meaning blow-up for d > 1).  That family lives in a
    corner of the unit square, so any other polytope raises GeometryError.
    Other bodies: omega_inverse_integral gives int_{2 Omega} w^{-d} in
    closed form.  When it is finite, |fhat| <= ||f||_1 bounds the ratio by
    it, so the row holds; when it diverges (d >= 2/(n+1) for a ball), that
    alone proves nothing and the row is inconclusive.  The evidence is the
    integral, None where it diverges.
    Verdicts are evidence labels, never proofs.
    """
    rows = []
    is_polytope = isinstance(body, (HPolytope, VPolytope))
    if is_polytope:
        corner = unit_box_corner(body)
        if body.dim != 2 or corner is None or np.any(np.abs(corner) > geometry.DEDUP_TOL):
            raise GeometryError("the integrability corner family covers only the unit square")
    for d in d_list:
        evidence: dict = {}
        if is_polytope:
            sweep = corner_family_sweep(d)
            evidence["corner_slope"] = sweep.slope
            evidence["corner_max_over_min"] = sweep.max_over_min
            if d <= 1.0 and sweep.slope > -0.1:
                verdict = "holds-evidence"
            elif d > 1.0 and sweep.slope < -0.1:
                verdict = "fails-evidence"
            else:
                verdict = "inconclusive"
        else:
            integral = omega_inverse_integral(body, d)           # math.inf if divergent
            evidence["integral"] = integral if integral < math.inf else None
            verdict = "holds-evidence" if integral < math.inf else "inconclusive"
        rows.append(IntegrabilityRow(d=float(d), verdict=verdict, evidence=evidence))
    return rows