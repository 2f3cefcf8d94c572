"""The autocorrelation function w(x) = m(Omega cap (x - Omega)) of a convex body.

Exact closed forms where they exist (balls via the slice integral, boxes and
products via tents, low-dimensional polytopes via intersection volumes), a
Monte Carlo estimator that serves as the oracle for every exact path, and
sublevel-set measurement utilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import betainc, gamma

from . import geometry
from .fourier import GridSpec
from .geometry import (
    AffineImage,
    Ball,
    ConvexBody,
    GeometryError,
    HPolytope,
    Product,
    VPolytope,
)

# Bounding boxes for sampling are inflated by this factor so that support
# boundaries never coincide with box faces.
BOX_INFLATION = 1.0 + 1e-12


def unit_ball_volume(n: int) -> float:
    """Volume of the unit n-ball; kappa_0 = 1 by convention."""
    return math.pi ** (n / 2) / gamma(n / 2 + 1)


def omega_ball(n: int, radius: float, x) -> float:
    """Autocorrelation of B(0, radius) in R^n at the point x.

    Uses the slice integral  2 kappa_{n-1} int_{s/2}^1 (1-t^2)^((n-1)/2) dt
    with s = |x|/radius, scaled by radius^n; adaptive quadrature to 1e-10
    relative accuracy.
    """
    if n < 1:
        raise GeometryError("dimension must be >= 1")
    s = float(np.linalg.norm(np.asarray(x, dtype=float))) / radius
    if s >= 2.0:
        return 0.0
    kappa = unit_ball_volume(n - 1)
    val, _ = integrate.quad(lambda t: (1.0 - t * t) ** ((n - 1) / 2.0),
                            s / 2.0, 1.0, epsabs=1e-14, epsrel=1e-12)
    return 2.0 * kappa * val * radius ** n


def disc_lens(s):
    """Closed-form autocorrelation of the unit disc: 2 acos(s/2) - (s/2) sqrt(4-s^2).

    Vectorized in s = |x|; zero for s >= 2.  This is the fast exact path for
    n = 2; omega_ball integrates the slice formula independently.
    """
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = s < 2.0
    si = np.clip(s[inside], 0.0, 2.0)
    out[inside] = 2.0 * np.arccos(si / 2.0) - (si / 2.0) * np.sqrt(4.0 - si * si)
    return out


def disc_sup_on_ball(center_norm: float, radius: float) -> float:
    """Exact sup of the unit-disc autocorrelation over a ball B(c, radius)
    with |c| = center_norm: w is radial and decreasing, so the sup sits at
    the point of the ball closest to the origin."""
    return float(disc_lens(np.array([center_norm - radius]))[0])


def unit_ball_omega_batch(n: int, s: np.ndarray) -> np.ndarray:
    """Vectorized unit-ball autocorrelation at radii s = |x|.

    The slice integral evaluates in closed form through the regularized
    incomplete beta function (substitute u = t^2); the plane keeps the lens
    expression.
    """
    if n == 2:
        return disc_lens(s)
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = s < 2.0
    z = np.clip(s[inside] / 2.0, 0.0, 1.0)
    a, b = 0.5, (n + 1) / 2.0
    full = math.gamma(a) * math.gamma(b) / math.gamma(a + b)  # Beta(a, b)
    tail = 0.5 * full * (1.0 - betainc(a, b, z * z))
    out[inside] = 2.0 * unit_ball_volume(n - 1) * tail
    return out


def omega_box(edges, x) -> float:
    """Autocorrelation of the box prod (0, L_i): a product of 1-D tents."""
    edges = np.asarray(edges, dtype=float).reshape(-1)
    x = np.asarray(x, dtype=float).reshape(-1)
    if edges.size != x.size:
        raise GeometryError("edge/point dimension mismatch")
    tents = np.maximum(0.0, edges - np.abs(x - edges))
    return float(np.prod(tents))


def omega_polytope_exact(P: HPolytope, x) -> float:
    """Exact m(P cap (x - P)) for a bounded H-polytope in dim <= 3; zero when
    the intersection is empty or has no interior."""
    if P.dim > 3:
        raise GeometryError("exact polytope autocorrelation restricted to dim <= 3")
    inter = geometry.intersect(P, geometry.reflect_translate(P, x))
    try:
        verts = geometry.vertex_enumerate(inter, check_bounded=False)
    except GeometryError:  # below dim 4 the only failure is an empty intersection
        return 0.0
    if verts.shape[0] <= P.dim:
        return 0.0
    return geometry.polytope_volume(inter, verts)


def omega_mc(body: ConvexBody, x, samples: int, seed: int) -> tuple[float, float]:
    """Hit-ratio estimate of m(Omega cap (x - Omega)) with its standard error.

    Points are drawn uniformly from the bounding box of Omega; a hit means the
    point is in Omega and its reflection x - point is too.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    lo, hi = body.bounding_box()
    c = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * BOX_INFLATION
    lo, hi = c - half, c + half
    vol_box = float(np.prod(hi - lo))
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < samples:
        batch = min(samples - done, 1_000_000)
        pts = rng.uniform(lo, hi, size=(batch, body.dim))
        inside = body.contains_batch(pts)
        hits += int(np.count_nonzero(inside & body.contains_batch(x - pts)))
        done += batch
    p = hits / samples
    est = vol_box * p
    se = vol_box * math.sqrt(max(p * (1.0 - p), 0.0) / samples)
    return est, se


# ---------------------------------------------------------------------------
# evaluator with per-body exact modes
# ---------------------------------------------------------------------------

class OmegaEvaluator:
    """Dispatches to the fastest exact autocorrelation path for a body.

    Balls use the closed form (the incomplete-beta slice integral, the lens
    expression in the plane), products multiply factor evaluators, polytopes
    in dim <= 3 use exact intersection volumes of their H-form, and affine
    images pull back through the covariance rule
    w_{A Omega + v}(x) = |det A| w_Omega(A^{-1}(x - 2v)).  The scalar call
    evaluates a batch of one, so every path has a single dispatch; omega_ball,
    the adaptive slice quadrature, stays separate as the ball path's oracle.
    """

    def __init__(self, body: ConvexBody, mc_samples: int = 200_000, mc_seed: int = 0):
        self.body = body
        self.mc_samples = mc_samples
        self.mc_seed = mc_seed
        self.mode = self._pick_mode(body)

    def _pick_mode(self, body) -> str:
        if isinstance(body, Ball):
            return "exact_ball"
        if isinstance(body, Product):
            self._factors = [OmegaEvaluator(f, self.mc_samples, self.mc_seed)
                             for f in body.factors]
            if all(f.mode.startswith("exact") for f in self._factors):
                return "exact_product"
            return "monte_carlo"
        if isinstance(body, AffineImage):
            self._base = OmegaEvaluator(body.base, self.mc_samples, self.mc_seed)
            if self._base.mode.startswith("exact"):
                return "exact_affine"
            return "monte_carlo"
        if isinstance(body, (HPolytope, VPolytope)) and body.dim <= 3:
            self._hform = body if isinstance(body, HPolytope) else geometry.to_hpolytope(body)
            return "exact_polytope"
        return "monte_carlo"

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float).reshape(-1)
        return float(self.batch(x[None])[0])

    def batch(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate on an (m, dim) array; vectorized for balls, products and
        affine images of those, pointwise for polytopes and Monte Carlo."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.mode == "exact_ball":
            b: Ball = self.body
            s = np.linalg.norm(pts - 2.0 * b.center, axis=1) / b.radius
            return unit_ball_omega_batch(b.dim, s) * b.radius ** b.dim
        if self.mode == "exact_product":
            val, k = np.ones(pts.shape[0]), 0
            for f in self._factors:
                val *= f.batch(pts[:, k:k + f.body.dim])
                k += f.body.dim
            return val
        if self.mode == "exact_affine":
            a: AffineImage = self.body
            u = np.linalg.solve(a.matrix, (pts - 2.0 * a.shift).T).T
            return abs(np.linalg.det(a.matrix)) * self._base.batch(u)
        if self.mode == "exact_polytope":
            return np.array([omega_polytope_exact(self._hform, p) for p in pts])
        return np.array([omega_mc(self.body, p, self.mc_samples, self.mc_seed)[0]
                         for p in pts])

    def support_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Inflated bounding box of 2 Omega, the support of the function."""
        lo, hi = self.body.bounding_box()
        c, half = lo + hi, (hi - lo) * BOX_INFLATION
        return c - half, c + half

    def support_grid(self, per_axis: int) -> tuple[np.ndarray, float, np.ndarray]:
        """Midpoint nodes of the support box with per_axis cells a side, the
        cell weight, and w at the nodes."""
        lo, hi = self.support_box()
        spec = GridSpec(lower=lo, upper=hi, npts=(per_axis,) * self.body.dim)
        nodes = spec.nodes()
        return nodes, spec.weight, self.batch(nodes)

    def body_measure(self) -> float:
        """m(Omega), an upper bound of w, for bodies with an exact mode."""
        if isinstance(self.body, Ball):
            return unit_ball_volume(self.body.dim) * self.body.radius ** self.body.dim
        if self.mode == "exact_polytope":
            return geometry.polytope_volume(self._hform)
        if self.mode == "exact_product":
            return float(np.prod([f.body_measure() for f in self._factors]))
        if self.mode == "exact_affine":
            return abs(np.linalg.det(self.body.matrix)) * self._base.body_measure()
        raise GeometryError("no exact measure for this body")


# ---------------------------------------------------------------------------
# sublevel-set measures and the inverse-power integral
# ---------------------------------------------------------------------------

@dataclass
class SublevelEstimate:
    t_values: np.ndarray
    measures: np.ndarray
    stderrs: np.ndarray
    fitted_exponent: float
    fit_residual: float
    samples: int
    seed: int


def sublevel_fit(body: ConvexBody, t_min: float, t_max: float, count: int,
                 samples: int, seed: int) -> SublevelEstimate:
    """Estimate m({x in 2 Omega : w(x) < t}) on a geometric grid of t values
    and fit the log-log slope.

    One shared sample cloud is used for every t, so the measured curve is
    nondecreasing in t by construction.  Requires a vectorizable exact mode.
    """
    if not (0 < t_min < t_max) or count < 5:
        raise GeometryError("need 0 < t_min < t_max and at least 5 grid points")
    ev = OmegaEvaluator(body)
    lo, hi = ev.support_box()
    vol_box = float(np.prod(hi - lo))
    rng = np.random.default_rng(seed)
    t_values = np.geomspace(t_min, t_max, count)
    counts = np.zeros(count, dtype=np.int64)
    done = 0
    while done < samples:
        batch = min(samples - done, 1_000_000)
        pts = rng.uniform(lo, hi, size=(batch, body.dim))
        w = ev.batch(pts)
        pos = w > 0.0
        for i, t in enumerate(t_values):
            counts[i] += int(np.count_nonzero(pos & (w < t)))
        done += batch
    p = counts / samples
    measures = vol_box * p
    stderrs = vol_box * np.sqrt(np.maximum(p * (1 - p), 0.0) / samples)
    mask = measures > 0
    if np.count_nonzero(mask) < 5:
        raise GeometryError("all sublevel estimates zero; t_min too small for the sample budget")
    logt, logm = np.log(t_values[mask]), np.log(measures[mask])
    coeffs, residuals, *_ = np.polyfit(logt, logm, 1, full=True)
    rms = math.sqrt(residuals[0] / logt.size) if len(residuals) else 0.0
    return SublevelEstimate(t_values=t_values, measures=measures, stderrs=stderrs,
                            fitted_exponent=float(coeffs[0]), fit_residual=rms,
                            samples=samples, seed=seed)


def omega_inverse_integral(body: ConvexBody, d: float, levels: int = 3,
                           base_per_axis: int = 256, floor: float = 0.0) -> list[float]:
    """Midpoint-rule values of int_{2 Omega} w(x)^{-d} dx at spacings
    h, h/2, h/4, ...; cells where w <= floor are skipped.

    A zero floor skips only the cells outside the support, so the raw sums
    chase the full integral; for singular integrands their boundary band
    converges like a small power of h and jitters with grid alignment.  A
    positive floor instead targets the truncated integral over {w > floor},
    which the grids resolve cleanly once the band width exceeds the spacing.
    Divergent integrands keep growing at a near-zero floor; integrable ones
    stabilize at a resolvable floor.  The caller inspects the sequence.
    """
    ev = OmegaEvaluator(body)
    values = []
    for level in range(levels):
        _, cell, w = ev.support_grid(base_per_axis * 2 ** level)
        keep = w > floor
        values.append(float(np.sum(w[keep] ** (-d)) * cell))
    return values
