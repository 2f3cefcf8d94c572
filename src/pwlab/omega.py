"""The autocorrelation function w(x) = m(Omega cap (x - Omega)) of a convex body.

Exact closed forms where they exist (balls via the slice integral, boxes and
products via tents, low-dimensional polytopes via intersection volumes), a
Monte Carlo estimator that serves as the oracle for every exact path, and
sublevel-set measurement utilities.

Polytopes in dim <= 3 are evaluated for a whole batch of points at once.  The
planes of P cap (x - P) are always [A; -A] and only their offsets [b; b - A x]
move with x, so the plane tuples that can meet in a vertex, and their
inverses, are worked out once per body; each point then costs a few small
array operations (geometry.tuple_vertices).  No distance decides incidence: a
vertex lies on the planes of the tuples that make it, and parallel planes with
the same vertices are one face.  omega_polytope_exact, Qhull's halfspace
intersection one point at a time, is the independent oracle of that batch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .fourier import GridSpec
from .geometry import (
    DEDUP_TOL,
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

SLICE_RULE = np.polynomial.legendre.leggauss(40)  # Gauss-Legendre on [-1, 1]
JACOBI_NODES = 40     # Gauss-Jacobi nodes of the radial inverse-power integral
MAX_GRID_NODES = 1 << 22  # most nodes of a grid: 2048 a side in 2-D, 161 in 3-D


def unit_ball_volume(n: int) -> float:
    """Volume of the unit n-ball; kappa_0 = 1 by convention."""
    from scipy.special import gamma
    return math.pi ** (n / 2) / gamma(n / 2 + 1)


def omega_ball(n: int, radius: float, x) -> float:
    """Autocorrelation of B(0, radius) in R^n at the point x.

    Uses the slice integral  2 kappa_{n-1} int_{s/2}^1 (1-t^2)^((n-1)/2) dt
    with s = |x|/radius, scaled by radius^n; t = cos(theta) makes it
    int_0^{acos(s/2)} sin(theta)^n dtheta, which SLICE_RULE takes to rounding.
    """
    if n < 1:
        raise GeometryError("dimension must be >= 1")
    s = float(np.linalg.norm(np.asarray(x, dtype=float))) / radius
    if s >= 2.0:
        return 0.0
    nodes, weights = SLICE_RULE
    half = math.acos(s / 2.0) / 2.0
    val = half * float(weights @ np.sin(half * (nodes + 1.0)) ** n)
    return 2.0 * unit_ball_volume(n - 1) * val * radius ** n


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
    expression.  For (s/2)^2 >= 1/2 the tail 1 - I_{z^2}(a, b) is I_{(1-z)(1+z)}(b, a),
    z = s/2, which keeps w's relative accuracy up to s = 2.
    """
    if n == 2:
        return disc_lens(s)
    from scipy.special import betainc
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = s < 2.0
    z = np.clip(s[inside] / 2.0, 0.0, 1.0)
    a, b = 0.5, (n + 1) / 2.0
    full = math.gamma(a) * math.gamma(b) / math.gamma(a + b)  # Beta(a, b)
    x = z * z
    tail = 0.5 * full * np.where(x < 0.5, 1.0 - betainc(a, b, x),
                                 betainc(b, a, (1.0 - z) * (1.0 + z)))
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


# Zero band of omega_polytope_exact at the boundary of 2P, in ulps.
ZERO_BAND_ULPS = 4096


def omega_polytope_exact(P: HPolytope, x) -> float:
    """Exact m(P cap (x - P)) for a bounded H-polytope in dim <= 3, one point
    at a time from Qhull's halfspace intersection: the batch's independent
    oracle.  The intersection is symmetric about x/2, which is interior for x
    in int 2P.  Zero where 2b_i - a_i . x <= ZERO_BAND_ULPS eps (|a_i . x| +
    2|b_i|) for a facet i, a scale-free band in which the intersection lies in
    a slab of width (2b_i - a_i . x)/|a_i|.  1-D bodies take the interval of
    the 2k planes; any other Qhull failure raises GeometryError."""
    if P.dim > 3:
        raise GeometryError("exact polytope autocorrelation restricted to dim <= 3")
    x = np.asarray(x, dtype=float).reshape(-1)
    if not np.all(np.isfinite(x)):
        raise GeometryError(f"point {x} is not finite")
    A, b = P.normals, P.offsets
    Ax = A @ x
    band = ZERO_BAND_ULPS * np.finfo(float).eps * (np.abs(Ax) + 2.0 * np.abs(b))
    if np.any(2.0 * b - Ax <= band):
        return 0.0
    planes = np.vstack([A, -A])
    offsets = np.concatenate([b, b - Ax])
    if P.dim == 1:
        ends = offsets / planes[:, 0]
        return float(ends[planes[:, 0] > 0].min() - ends[planes[:, 0] < 0].max())
    from scipy.spatial import HalfspaceIntersection, QhullError
    try:
        hs = HalfspaceIntersection(np.hstack([planes, -offsets[:, None]]), x / 2.0)
    except QhullError as err:
        raise GeometryError(f"halfspace intersection failed at x = {x}: {err}") from None
    return geometry.polytope_volume(hs.intersections)


# Points are evaluated in chunks of at most this many point x candidate x
# plane entries.
CHUNK_ENTRIES = 1 << 21
# Planes whose unit normals have a larger dot product may coincide.
PARALLEL_DOT = 1.0 - 1e-9


def _candidate_tuples(P: HPolytope) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plane tuples whose intersection points include every vertex of
    P cap (x - P), for every x, the inverses of their matrices, and the
    planes each tuple's point lies on.

    Planes 0..k-1 are those of P, planes k..2k-1 those of x - P (normals -A,
    offsets b - A x).  A vertex of the intersection is a vertex of P, a vertex
    of x - P, or a point where a ridge (an (n-2)-face: an edge in 3-D, a facet
    in 2-D) of one body meets a facet of the other.  Each vertex of P is taken
    once, through the best-conditioned dim-subset of its incident facets, and
    lies on every facet incident to it; a corner of x - P lies on the same
    facets shifted by k; a ridge x facet point lies on its own n planes.  The
    tuples come best-conditioned first, so that a vertex several tuples reach
    is kept at its most accurate candidate.
    """
    A = P.normals
    k, n = A.shape
    planes = np.vstack([A, -A])
    unit = planes / np.linalg.norm(planes, axis=1)[:, None]
    touch = P.incidence                                     # vertex x facet, cached
    corners = [min(itertools.combinations(np.flatnonzero(t), n),
                   key=lambda sub: np.linalg.cond(unit[list(sub)])) for t in touch]
    ridges = [] if n == 1 else [
        r for r in itertools.combinations(range(k), n - 1)
        if np.count_nonzero(touch[:, list(r)].all(axis=1)) >= 2]
    mixed = set()
    for r in ridges:
        for f in range(k):
            mixed.add(tuple(sorted(r + (f + k,))))
            mixed.add(tuple(sorted((f,) + tuple(i + k for i in r))))
    mixed = np.array(sorted(mixed), dtype=np.intp).reshape(-1, n)
    corners = np.array(corners, dtype=np.intp).reshape(-1, n)
    tuples = np.vstack([corners, corners + k, mixed])
    on = np.zeros((tuples.shape[0], 2 * k), dtype=bool)
    np.put_along_axis(on, tuples, True, axis=1)
    on[:len(touch), :k] = on[len(touch):2 * len(touch), k:] = touch
    keep = geometry.nonsingular(planes[tuples])
    tuples, on = tuples[keep], on[keep]
    order = np.argsort(np.linalg.cond(unit[tuples]), kind="stable")
    return tuples[order], np.linalg.inv(planes[tuples[order]]), on[order]


def _polygon_area(uv: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Areas of convex polygons given by unordered vertices: uv is (..., c, 2)
    and mask (..., c) marks the vertices of each polygon.

    The vertices are sorted by angle around their mean and the masked slots
    are overwritten with the first sorted vertex, which adds zero to the
    shoelace sum; repeated vertices add zero too."""
    count = np.maximum(mask.sum(axis=-1), 1)[..., None]
    mean = np.where(mask[..., None], uv, 0.0).sum(axis=-2) / count
    d = uv - mean[..., None, :]
    ang = np.where(mask, np.arctan2(d[..., 1], d[..., 0]), np.inf)
    order = np.argsort(ang, axis=-1)
    d = np.take_along_axis(d, order[..., None], axis=-2)
    keep = np.take_along_axis(mask, order, axis=-1)
    d = np.where(keep[..., None], d, d[..., :1, :])
    x, y = d[..., 0], d[..., 1]
    cross = x * np.roll(y, -1, axis=-1) - y * np.roll(x, -1, axis=-1)
    return 0.5 * np.abs(cross.sum(axis=-1))


def _box_mc(lo: np.ndarray, hi: np.ndarray, samples: int, seed: int, count_hits):
    """Monte Carlo measures of sets in the box [lo, hi], with binomial
    standard errors: `samples` seeded uniform draws, at most 10^6 at a time.
    count_hits(points) returns the hits of one chunk, an int for one set or
    an array of counts, one per set.  Returns (box volume x hit ratio,
    standard error), scalars or arrays as count_hits returns."""
    if samples < 1:
        raise GeometryError("the Monte Carlo estimate needs at least 1 sample")
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < samples:
        batch = min(samples - done, 1_000_000)
        hits += count_hits(rng.uniform(lo, hi, size=(batch, lo.size)))
        done += batch
    vol_box = float(np.prod(hi - lo))
    p = np.asarray(hits) / samples
    return vol_box * p, vol_box * np.sqrt(p * (1.0 - p) / samples)


def omega_mc(body: ConvexBody, x, samples: int, seed: int) -> tuple[float, float]:
    """Hit-ratio estimate of m(Omega cap (x - Omega)) with its standard error.

    Points are drawn uniformly from the bounding box of Omega; a hit means the
    point is in Omega and its reflection x - point is too.  The reflection is
    tested only on the draws inside Omega.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != body.dim:
        raise GeometryError(f"a {x.size}-D point for a {body.dim}-D body")
    if not np.all(np.isfinite(x)):
        raise GeometryError(f"point {x} is not finite")
    lo, hi = body.bounding_box()
    c = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * BOX_INFLATION

    def count_hits(pts: np.ndarray) -> int:
        inside = pts[body.contains_batch(pts)]
        return int(np.count_nonzero(body.contains_batch(x - inside)))

    est, se = _box_mc(c - half, c + half, samples, seed, count_hits)
    return float(est), float(se)


# ---------------------------------------------------------------------------
# the exact evaluator
# ---------------------------------------------------------------------------

class OmegaEvaluator:
    """Exact autocorrelation of a body, dispatched on its type.

    Balls use the closed form (the incomplete-beta slice integral, the lens
    expression in the plane), products multiply factor evaluators, bounded
    full-dimensional polytopes in dim <= 3 use exact intersection volumes of
    their H-form from candidate vertices precomputed per body, and affine
    images pull back through the covariance rule
    w_{A Omega + v}(x) = |det A| w_Omega(A^{-1}(x - 2v)).  Any other body,
    or a product or affine image containing one, raises GeometryError at
    construction, as does an unbounded or flat H-form.  The scalar call
    evaluates a batch of one, so every path has a single dispatch; omega_ball
    (the slice integral by a fixed Gauss-Legendre rule), omega_polytope_exact
    (Qhull's halfspace intersection) and omega_mc stay separate as oracles.
    """

    def __init__(self, body: ConvexBody):
        self.body = body
        if isinstance(body, Product):
            self._factors = [OmegaEvaluator(f) for f in body.factors]
        elif isinstance(body, AffineImage):
            self._base = OmegaEvaluator(body.base)
        elif isinstance(body, (HPolytope, VPolytope)):
            self._hform = body if isinstance(body, HPolytope) else body.hform
            self._setup_polytope()
        elif not isinstance(body, Ball):
            raise GeometryError(f"no exact autocorrelation for {type(body).__name__}")

    def _setup_polytope(self) -> None:
        """Per-body data of the exact polytope batch: the candidate tuples,
        their inverses and incidences, the planes [A; -A] of P cap (x - P),
        the radius and merge window of P, and in 3-D the in-plane bases and
        the pairs of planes with parallel normals."""
        A = self._hform.normals
        k = A.shape[0]
        self._tuples, self._inv, self._on = _candidate_tuples(self._hform)
        self._planes = np.vstack([A, -A])
        self._norms = np.linalg.norm(self._planes, axis=1)
        verts = self._hform._vertices
        self._radius = float(np.linalg.norm(verts, axis=1).max())
        self._merge_tol = DEDUP_TOL * float(np.linalg.norm(np.ptp(verts, axis=0)))
        if self._hform.dim != 3:
            return
        unit = self._planes / self._norms[:, None]
        u = np.zeros_like(unit)
        u[np.arange(2 * k), np.argmin(np.abs(unit), axis=1)] = 1.0
        e1 = np.cross(unit, u)
        e1 /= np.linalg.norm(e1, axis=1)[:, None]
        self._basis = np.stack([e1, np.cross(unit, e1)], axis=1)   # (2k, 2, 3)
        # a repeated row of A repeats a plane of P and of x - P for every x,
        # while a plane of x - P meets a parallel one of P only at some x
        self._parallel = list(zip(*np.nonzero(np.triu(unit @ unit.T > PARALLEL_DOT, 1))))

    def _polytope_batch(self, pts: np.ndarray) -> np.ndarray:
        """Exact w for every point at once: zero outside int 2P, else the
        volume of P cap (x - P) from its feasible candidate vertices."""
        A, b = self._hform.normals, self._hform.offsets
        k = A.shape[0]
        out = np.zeros(pts.shape[0])
        Ax = geometry._dot(pts, A)
        inside = np.flatnonzero(np.all(Ax < 2.0 * b, axis=1))
        step = max(1, CHUNK_ENTRIES // (self._tuples.shape[0] * 2 * k))
        for lo in range(0, inside.size, step):
            idx = inside[lo:lo + step]
            offsets = np.concatenate([np.broadcast_to(b, (idx.size, k)), b - Ax[idx]], axis=1)
            out[idx] = self._intersection_volume(offsets)
        return out

    def _intersection_volume(self, O: np.ndarray) -> np.ndarray:
        """Volumes of the polytopes {planes . y <= O[i]} for an (m, 2k)
        offset array, from geometry.tuple_vertices with the radius and merge
        window of P, which bound every P cap (x - P), and with the planes of
        each vertex where they are needed.  In 3-D the volume is
        V = 1/3 sum_f h_f area_f over the planes, h_f being the distance from
        the vertex mean to plane f and area_f that of the polygon of the
        vertices on f.  Of two planes with parallel normals and the same
        vertices only the first counts: sharing three vertices they coincide,
        and fewer span no area."""
        n = self._hform.dim
        C, feas, on = geometry.tuple_vertices(self._planes, O, self._tuples, self._inv,
                                              self._on if n == 3 else None, self._radius,
                                              self._merge_tol)
        count = feas.sum(axis=1)
        if n == 1:
            x = C[..., 0]
            vol = np.where(feas, x, -np.inf).max(axis=1) - np.where(feas, x, np.inf).min(axis=1)
        elif n == 2:
            vol = _polygon_area(C, feas)
        else:
            mask = (feas[:, :, None] & on).transpose(0, 2, 1)          # (m, 2k, c)
            uv = sum(C[:, None, :, d, None] * self._basis[None, :, None, :, d]
                     for d in range(3))                                # (m, 2k, c, 2)
            area = _polygon_area(uv, mask)
            centre = np.where(feas[..., None], C, 0.0).sum(axis=1) / np.maximum(count, 1)[:, None]
            h = (O - geometry._dot(centre, self._planes)) / self._norms
            counted = np.ones(O.shape, dtype=bool)
            for f, g in self._parallel:
                counted[:, g] &= np.any(mask[:, f] != mask[:, g], axis=1)
            vol = np.sum(h * area * counted, axis=1) / 3.0
        return np.where(count > n, vol, 0.0)

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float).reshape(-1)
        return float(self.batch(x[None])[0])

    def batch(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate on an (m, dim) array, vectorized on every path."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        body = self.body
        if pts.shape[1] != body.dim:
            raise GeometryError(f"{pts.shape[1]}-D points for a {body.dim}-D body")
        if not np.all(np.isfinite(pts)):
            raise GeometryError("points must be finite")
        if isinstance(body, Ball):
            s = np.linalg.norm(pts - 2.0 * body.center, axis=1) / body.radius
            return unit_ball_omega_batch(body.dim, s) * body.radius ** body.dim
        if isinstance(body, Product):
            return math.prod(f.batch(p) for f, p in zip(self._factors, body._split(pts)))
        if isinstance(body, AffineImage):
            u = np.linalg.solve(body.matrix, (pts - 2.0 * body.shift).T).T
            return abs(np.linalg.det(body.matrix)) * self._base.batch(u)
        return self._polytope_batch(pts)

    def support_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Inflated bounding box of 2 Omega, the support of the function."""
        lo, hi = self.body.bounding_box()
        c, half = lo + hi, (hi - lo) * BOX_INFLATION
        return c - half, c + half

    def support_grid(self, per_axis: int) -> tuple[np.ndarray, float, np.ndarray]:
        """Midpoint nodes of the support box with per_axis cells a side, the
        cell weight, and w at the nodes; more than MAX_GRID_NODES raise."""
        count = per_axis ** self.body.dim
        if count > MAX_GRID_NODES:
            raise GeometryError(f"per_axis = {per_axis} gives {count} grid nodes, "
                                f"above the cap of {MAX_GRID_NODES}")
        lo, hi = self.support_box()
        spec = GridSpec(lower=lo, upper=hi, npts=(per_axis,) * self.body.dim)
        nodes = spec.nodes()
        return nodes, spec.weight, self.batch(nodes)


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
    nondecreasing in t by construction.  A body OmegaEvaluator does not
    accept raises GeometryError.
    """
    if not (0 < t_min < t_max) or count < 5:
        raise GeometryError("need 0 < t_min < t_max and at least 5 grid points")
    ev = OmegaEvaluator(body)
    lo, hi = ev.support_box()
    t_values = np.geomspace(t_min, t_max, count)

    def count_below(pts: np.ndarray) -> np.ndarray:
        w = ev.batch(pts)
        pos = w > 0.0
        return np.array([np.count_nonzero(pos & (w < t)) for t in t_values])

    measures, stderrs = _box_mc(lo, hi, samples, seed, count_below)
    mask = measures > 0
    if np.count_nonzero(mask) < 5:
        raise GeometryError("all sublevel estimates zero; t_min too small for the sample budget")
    logt, logm = np.log(t_values[mask]), np.log(measures[mask])
    coeffs, residuals, *_ = np.polyfit(logt, logm, 1, full=True)
    rms = math.sqrt(residuals[0] / logt.size) if len(residuals) else 0.0
    return SublevelEstimate(t_values=t_values, measures=measures, stderrs=stderrs,
                            fitted_exponent=float(coeffs[0]), fit_residual=rms,
                            samples=samples, seed=seed)


def omega_inverse_integral(body: ConvexBody, d: float) -> float:
    """int_{2 Omega} w^{-d} dx in closed form, math.inf where it diverges.

    For a ball B(c, rho) in R^n it is rho^{n(1-d)} |S^{n-1}| int_0^2 W(s)^{-d}
    s^{n-1} ds, W the unit ball's w (|S^0| = 2).  W ~ (2 - s)^{(n+1)/2} at 2,
    so a JACOBI_NODES-node Gauss-Jacobi rule with weight (2 - s)^{-d(n+1)/2}
    takes the singularity; the integral is finite iff d < 2/(n+1).  Products
    multiply (w of A x B is w_A w_B on 2A x 2B), an affine image T Omega + v
    scales by |det T|^{1-d}, and polytopes or other bodies raise."""
    if not math.isfinite(d):
        raise GeometryError(f"weight exponent d must be finite, got {d}")
    if isinstance(body, Product):
        return math.prod(omega_inverse_integral(f, d) for f in body.factors)
    if isinstance(body, AffineImage):
        scale = abs(float(np.linalg.det(body.matrix))) ** (1.0 - d)
        return scale * omega_inverse_integral(body.base, d)
    if not isinstance(body, Ball):
        raise GeometryError(f"no closed-form inverse-power integral for {type(body).__name__}")
    n = body.dim
    if d * (n + 1) >= 2.0:
        return math.inf
    from scipy.special import roots_jacobi
    x, weights = roots_jacobi(JACOBI_NODES, -0.5 * d * (n + 1), 0.0)   # weight (1 - x)^alpha
    s = 1.0 + x     # 2 - s, not 1 - x, below: the rounding of s cancels against W(s)
    smooth = unit_ball_omega_batch(n, s) ** (-d) * s ** (n - 1) * (2.0 - s) ** (0.5 * d * (n + 1))
    value = float(body.radius ** (n * (1.0 - d)) * n * unit_ball_volume(n) * (weights @ smooth))
    if not math.isfinite(value):            # a finite integral past the float range
        raise GeometryError(f"the inverse-power integral overflows at d = {d}")
    return value
