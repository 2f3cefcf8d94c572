"""Convex body representations and low-dimensional polytope machinery.

Bodies are immutable tagged values (ball, H-polytope, V-polytope, product,
affine image) with a strict-inequality membership oracle.  Polytope
combinatorics are restricted to dimension <= 3 and desk scale by design:
convex hulls (H-forms of point sets, essential vertices, boundedness, hull
volumes) come from Qhull, and vertices of H-polytopes from a vectorized brute
force over facet subsets.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import optimize
from scipy.spatial import ConvexHull, QhullError

# Shared tolerances: vertex dedup and active-set tests are absolute 1e-9,
# near-singular facet systems are rejected below 1e-12.
DEDUP_TOL = 1e-9
FEAS_TOL = 1e-9
DET_TOL = 1e-12


class GeometryError(ValueError):
    """Raised for dimension mismatches, unbounded or degenerate polytopes."""


def _as_vector(x, dim: int) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.size != dim:
        raise GeometryError(f"expected vector of length {dim}, got {v.size}")
    return v


# ---------------------------------------------------------------------------
# body variants
# ---------------------------------------------------------------------------

class ConvexBody:
    """Base class; concrete bodies implement strict membership and a box."""

    dim: int

    def contains(self, x) -> bool:
        raise NotImplementedError

    def contains_batch(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized strict membership for an (m, dim) array of points."""
        raise NotImplementedError

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) corners of an axis-aligned box containing the body."""
        raise NotImplementedError


@dataclass(frozen=True)
class Ball(ConvexBody):
    center: np.ndarray
    radius: float
    dim: int = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float).reshape(-1)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "dim", c.size)
        if self.radius <= 0:
            raise GeometryError("ball radius must be positive")

    def contains(self, x) -> bool:
        x = _as_vector(x, self.dim)
        return float(np.linalg.norm(x - self.center)) < self.radius

    def contains_batch(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.linalg.norm(pts - self.center, axis=1) < self.radius

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius


@dataclass(frozen=True)
class HPolytope(ConvexBody):
    """Intersection of halfspaces {x : <a_i, x> <= b_i}; membership is strict."""

    normals: np.ndarray   # (m, dim)
    offsets: np.ndarray   # (m,)
    dim: int = field(init=False)

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.normals, dtype=float))
        b = np.asarray(self.offsets, dtype=float).reshape(-1)
        if a.shape[0] != b.size:
            raise GeometryError("normals/offsets length mismatch")
        object.__setattr__(self, "normals", a)
        object.__setattr__(self, "offsets", b)
        object.__setattr__(self, "dim", a.shape[1])

    def contains(self, x) -> bool:
        x = _as_vector(x, self.dim)
        return bool(np.all(self.normals @ x < self.offsets))

    def contains_batch(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.all(pts @ self.normals.T < self.offsets, axis=1)

    @cached_property
    def _vertices(self) -> np.ndarray:
        # enumerated once per instance; a raise caches nothing, so an
        # unbounded or flat H-form raises on every call
        return vertex_enumerate(self)

    def bounding_box(self):
        return self._vertices.min(axis=0), self._vertices.max(axis=0)


@dataclass(frozen=True)
class VPolytope(ConvexBody):
    vertices: np.ndarray  # (k, dim)
    dim: int = field(init=False)

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "dim", v.shape[1])

    @cached_property
    def hform(self) -> HPolytope:
        """The Qhull H-form, built once per instance."""
        return to_hpolytope(self)

    def contains(self, x) -> bool:
        return self.hform.contains(x)

    def contains_batch(self, pts):
        return self.hform.contains_batch(pts)

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)


@dataclass(frozen=True)
class Product(ConvexBody):
    factors: tuple
    dim: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "dim", sum(f.dim for f in self.factors))

    def _split(self, pts):
        out, k = [], 0
        for f in self.factors:
            out.append(pts[:, k:k + f.dim])
            k += f.dim
        return out

    def contains(self, x) -> bool:
        x = _as_vector(x, self.dim)
        return bool(self.contains_batch(x[None, :])[0])

    def contains_batch(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        ok = np.ones(pts.shape[0], dtype=bool)
        for f, block in zip(self.factors, self._split(pts)):
            ok &= f.contains_batch(block)
        return ok

    def bounding_box(self):
        los, his = zip(*(f.bounding_box() for f in self.factors))
        return np.concatenate(los), np.concatenate(his)


@dataclass(frozen=True)
class AffineImage(ConvexBody):
    """Image A*base + shift for an invertible matrix A."""

    base: ConvexBody
    matrix: np.ndarray
    shift: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        s = np.asarray(self.shift, dtype=float).reshape(-1)
        if a.shape != (self.base.dim, self.base.dim) or s.size != self.base.dim:
            raise GeometryError("affine image shape mismatch")
        if not nonsingular(a):
            raise GeometryError("affine image matrix must be invertible")
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "shift", s)
        object.__setattr__(self, "dim", self.base.dim)

    def _pull(self, pts):
        inv = np.linalg.inv(self.matrix)
        return (pts - self.shift) @ inv.T

    def contains(self, x) -> bool:
        x = _as_vector(x, self.dim)
        return self.base.contains(self._pull(x[None, :])[0])

    def contains_batch(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.base.contains_batch(self._pull(pts))

    def bounding_box(self):
        lo, hi = self.base.bounding_box()
        corners = np.array(list(itertools.product(*zip(lo, hi))))
        imgs = corners @ self.matrix.T + self.shift
        return imgs.min(axis=0), imgs.max(axis=0)


# ---------------------------------------------------------------------------
# convenience constructors
# ---------------------------------------------------------------------------

def box(lower, upper) -> HPolytope:
    lower = np.asarray(lower, dtype=float).reshape(-1)
    upper = np.asarray(upper, dtype=float).reshape(-1)
    n = lower.size
    eye = np.eye(n)
    return HPolytope(np.vstack([eye, -eye]), np.concatenate([upper, -lower]))


def unit_box(n: int) -> HPolytope:
    return box(np.zeros(n), np.ones(n))


@dataclass(frozen=True)
class Pyramid:
    """The pyramid with square (or segment) base of half-width alpha and apex
    height beta: |x_i| < alpha - (alpha/beta) x_n for i < n, 0 < x_n < beta.

    Realized as an H-polytope with 2(n-1)+1 facets; the top cap x_n <= beta
    is implied by the slanted facets and is not listed.
    """

    alpha: float
    beta: float
    dim: int = 2

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise GeometryError("pyramid parameters must be positive")
        if self.dim < 2:
            raise GeometryError("pyramid needs dim >= 2")

    def hpolytope(self) -> HPolytope:
        n, slope = self.dim, self.alpha / self.beta
        rows, offs = [], []
        for i in range(n - 1):
            for sign in (1.0, -1.0):
                a = np.zeros(n)
                a[i] = sign
                a[n - 1] = slope
                rows.append(a)
                offs.append(self.alpha)
        base = np.zeros(n)
        base[n - 1] = -1.0
        rows.append(base)
        offs.append(0.0)
        return HPolytope(np.array(rows), np.array(offs))

    def inscribed_ball_radius(self, t: float) -> float:
        """Radius alpha*(beta-t)/sqrt(alpha^2+beta^2) of the axis ball at height t."""
        return self.alpha * (self.beta - t) / math.hypot(self.alpha, self.beta)


def pyramid_ball_check(alpha: float, beta: float, t: float, tol: float = 1e-12) -> bool:
    """Check B((0,..,0,t), alpha*(beta-t)/sqrt(alpha^2+beta^2)) fits in the pyramid.

    Exact test: the distance from the center to every facet hyperplane must be
    at least the stated radius (up to tol).  Valid for t in (beta/2, beta).
    """
    if not (beta / 2 < t < beta):
        raise GeometryError("t must lie in (beta/2, beta)")
    pyr = Pyramid(alpha, beta, dim=2)
    h = pyr.hpolytope()
    center = np.array([0.0, t])
    rho = pyr.inscribed_ball_radius(t)
    dists = (h.offsets - h.normals @ center) / np.linalg.norm(h.normals, axis=1)
    return bool(np.all(dists >= rho - tol))


def _shifted_pyramid() -> HPolytope:
    pyr = Pyramid(1.0, 1.0, dim=3).hpolytope()
    shift = np.array([0.0, 0.0, -0.3])
    return HPolytope(pyr.normals, pyr.offsets + pyr.normals @ shift)


# Named bodies shared by the command line, the acceptance criteria and the
# tests.  The pyramid is shifted so the origin is interior, which the
# simplicial pipeline needs and the omega paths do not notice.
BUILTIN_BODIES = {
    "ball2": lambda: Ball(np.zeros(2), 1.0),
    "ball3": lambda: Ball(np.zeros(3), 1.0),
    "square": lambda: unit_box(2),
    "cube": lambda: unit_box(3),
    "triangle": lambda: HPolytope([[-1, 0], [0, -1], [1, 1]], [0, 0, 1]),
    "pyramid": _shifted_pyramid,
    "halfline-model": lambda: Ball(np.array([0.5]), 0.5),
}


# ---------------------------------------------------------------------------
# vertex enumeration (brute force) and hulls (Qhull), dim <= 3
# ---------------------------------------------------------------------------

def _dedupe_points(pts: np.ndarray, tol: float = DEDUP_TOL) -> np.ndarray:
    out: list[np.ndarray] = []
    for p in pts:
        if not any(np.linalg.norm(p - q) <= tol for q in out):
            out.append(p)
    return np.array(out) if out else np.zeros((0, pts.shape[1]))


def _hull(pts: np.ndarray) -> ConvexHull:
    try:
        return ConvexHull(pts)
    except QhullError:
        raise GeometryError("degenerate point set, no full-dimensional hull") from None


def _is_bounded(h: HPolytope) -> bool:
    """A polyhedron {A x <= b} with interior points is bounded iff no d != 0
    has A d <= 0, that is (Gordan) iff the origin lies strictly inside
    conv(rows of A); rows of rank < dim or affinely flat leave it unbounded."""
    A = h.normals
    if h.dim == 1:
        return bool(A.min() < 0.0 < A.max())
    try:
        offsets = ConvexHull(A).equations[:, -1]
    except QhullError:
        return False
    return bool(np.all(offsets < -DET_TOL * np.linalg.norm(A, axis=1).max()))


def nonsingular(mats: np.ndarray) -> np.ndarray:
    """Mask of the (..., n, n) facet systems whose determinant clears DET_TOL
    relative to the product of their row norms, its Hadamard bound, so the
    test does not change when a row is rescaled."""
    dets = np.abs(np.linalg.det(mats))
    return dets > DET_TOL * np.prod(np.linalg.norm(mats, axis=-1), axis=-1)


def vertex_enumerate(h: HPolytope) -> np.ndarray:
    """All vertices of a bounded H-polytope, dim <= 3, brute force over facet
    subsets.  Each vertex solves dim active facet equations and satisfies
    every halfspace a . x <= b within FEAS_TOL (|a| + |b|), a window that does
    not change when a row is rescaled; duplicates merged at DEDUP_TOL."""
    n = h.dim
    if n > 3:
        raise GeometryError("vertex enumeration restricted to dim <= 3")
    if not _is_bounded(h):
        raise GeometryError("polytope is unbounded")
    A, b = h.normals, h.offsets
    combos = np.array(list(itertools.combinations(range(A.shape[0]), n)))
    mats = A[combos]                               # (ncomb, n, n)
    rhs = b[combos]                                # (ncomb, n)
    good = nonsingular(mats)
    cands = np.linalg.solve(mats[good], rhs[good][..., None])[..., 0]
    scale = np.linalg.norm(A, axis=1) + np.abs(b)
    feas = np.all(cands @ A.T <= b + FEAS_TOL * scale, axis=1)
    verts = _dedupe_points(cands[feas])
    if verts.shape[0] == 0:
        raise GeometryError("polytope has empty interior or is infeasible")
    if not np.all(np.isfinite(verts)):
        raise GeometryError("polytope is unbounded")
    if verts.shape[0] <= n:
        # fewer than dim+1 vertices cannot enclose volume
        raise GeometryError("polytope has empty interior")
    return verts


def _facet_key(a: np.ndarray, b: float) -> tuple:
    nrm = np.linalg.norm(a)
    return tuple(np.round(np.append(a / nrm, b / nrm), 9))


def _facet_keys(h: HPolytope) -> set:
    return {_facet_key(a, b) for a, b in zip(h.normals, h.offsets)}


def to_hpolytope(v: VPolytope) -> HPolytope:
    """Convex hull of points in dim <= 3, returned as halfspaces.

    Qhull's facet rows n . x + c <= 0 become the halfspaces (n, -c); the
    triangles it splits a flat facet into merge back into one by _facet_key.
    """
    pts = v.vertices
    n = v.dim
    if n > 3:
        raise GeometryError("hull restricted to dim <= 3")
    if pts.shape[0] < n + 1:
        raise GeometryError("need at least dim+1 points for a full hull")
    if n == 1:
        lo, hi = pts.min(), pts.max()
        if lo == hi:
            raise GeometryError("degenerate point set, no full-dimensional hull")
        return HPolytope([[1.0], [-1.0]], [hi, -lo])
    facets: dict[tuple, np.ndarray] = {}
    for row in _hull(pts).equations:
        facets.setdefault(_facet_key(row[:-1], -row[-1]), row)
    rows = np.array(list(facets.values()))
    return HPolytope(rows[:, :-1], -rows[:, -1])


def facet_vertex_incidence(h: HPolytope, verts: np.ndarray) -> list[list[int]]:
    """Indices of the vertices verts lying on each facet hyperplane a . x = b,
    within FEAS_TOL (|a| + |b|) as in vertex_enumerate."""
    out = []
    for a, b in zip(h.normals, h.offsets):
        on = np.nonzero(np.abs(verts @ a - b) <= FEAS_TOL * (np.linalg.norm(a) + abs(b)))[0]
        out.append(list(on))
    return out


def polytope_volume(pts: np.ndarray) -> float:
    """Volume of the convex hull of points in dim 2 or 3, from Qhull; the
    volume step of omega_polytope_exact, which perfbench traces by name."""
    return float(_hull(pts).volume)


# ---------------------------------------------------------------------------
# polar duality
# ---------------------------------------------------------------------------

def _essential_vertices(pts: np.ndarray) -> np.ndarray:
    """The points that are vertices of their convex hull, in input order; of
    repeated vertices one copy stays."""
    if pts.shape[1] == 1:
        return pts[np.unique([pts.argmin(), pts.argmax()])]
    return pts[np.sort(_hull(pts).vertices)]


def polar_dual(body: ConvexBody) -> ConvexBody:
    """Polar body {y : <y, x> < 1 on the body}; needs 0 interior, dim <= 3.

    H-polytopes map to V-polytopes with vertices a_i/b_i, V-polytopes to
    H-polytopes with halfspaces <v_j, x> <= 1, so (P*)* = P on irredundant
    representations.
    """
    if isinstance(body, HPolytope):
        verts = vertex_enumerate(body)  # validates boundedness
        if len(_facet_keys(body)) < body.normals.shape[0]:
            raise GeometryError("duplicate halfspaces; normalize first")
        incidence = facet_vertex_incidence(body, verts)
        if np.any(body.offsets <= FEAS_TOL):
            raise GeometryError("origin not interior (some offset <= 0)")
        dual_pts = []
        for (a, b), idx in zip(zip(body.normals, body.offsets), incidence):
            if len(idx) >= body.dim:   # essential facet
                dual_pts.append(a / b)
        return VPolytope(np.array(dual_pts))
    if isinstance(body, VPolytope):
        verts = _essential_vertices(body.vertices)
        h = HPolytope(verts, np.ones(verts.shape[0]))
        # bounded iff (Gordan) the origin lies strictly inside conv(verts)
        if not _is_bounded(h):
            raise GeometryError("origin not interior to the polytope")
        return h
    raise GeometryError("polar dual implemented for polytopes only")


# ---------------------------------------------------------------------------
# inscribed balls
# ---------------------------------------------------------------------------

def chebyshev_ball(h: HPolytope) -> tuple[np.ndarray, float]:
    """Largest inscribed ball of a bounded H-polytope, by linear programming:
    maximize r subject to <a_i, c> + r|a_i| <= b_i."""
    n = h.dim
    norms = np.linalg.norm(h.normals, axis=1)
    A_ub = np.hstack([h.normals, norms[:, None]])
    c = np.zeros(n + 1)
    c[n] = -1.0
    res = optimize.linprog(c, A_ub=A_ub, b_ub=h.offsets,
                           bounds=[(None, None)] * n + [(0, None)], method="highs")
    if not res.success:
        raise GeometryError(f"chebyshev LP failed: {res.message}")
    center, radius = res.x[:n], float(res.x[n])
    if radius <= DET_TOL:
        raise GeometryError("polytope has empty interior")
    return center, radius


# ---------------------------------------------------------------------------
# boundary containment sampler (disc geometry)
# ---------------------------------------------------------------------------

# Rejection rounds the containment sampler may take before it gives up.  A
# round draws up to 10^6 points and keeps about pi/4 of them in the plane, so
# the cap admits some 5 * 10^7 samples per call there.
CONTAINMENT_MAX_ROUNDS = 64


def disc_containment_check(C: float, eps: float, samples: int, seed: int,
                           dim: int = 2) -> int:
    """Count sampled violations of the shrinking-disc containment

        (2 closure(B((1-C eps^2) x, C eps^2)) - B(0,1)) cap B(0,1)  subset  B(x, eps)

    at x = (1, 0, ..., 0).  The Minkowski combination on the left is the open
    ball B(2(1-C eps^2) x, 1 + 2C eps^2); points are drawn uniformly from it
    by rejection from its bounding box.  Returns the violation count.
    Raises GeometryError if CONTAINMENT_MAX_ROUNDS rounds do not yield
    `samples` points.
    """
    if C <= 0 or not (0 < eps < 1):
        raise GeometryError("need C > 0 and eps in (0,1)")
    q = C * eps * eps
    x = np.zeros(dim)
    x[0] = 1.0
    center = 2.0 * (1.0 - q) * x
    radius = 1.0 + 2.0 * q
    rng = np.random.default_rng(seed)
    violations = 0
    remaining = samples
    rounds = 0
    while remaining > 0:
        if rounds == CONTAINMENT_MAX_ROUNDS:
            raise GeometryError(f"containment sampler drew only {samples - remaining} of "
                                f"{samples} points in {CONTAINMENT_MAX_ROUNDS} rejection rounds")
        rounds += 1
        batch = min(4 * remaining, 1_000_000)
        pts = rng.uniform(center - radius, center + radius, size=(batch, dim))
        inside = pts[np.linalg.norm(pts - center, axis=1) < radius]
        take = inside[:remaining]
        remaining -= take.shape[0]
        in_unit = np.linalg.norm(take, axis=1) < 1.0
        far = np.linalg.norm(take - x, axis=1) >= eps
        violations += int(np.count_nonzero(in_unit & far))
    return violations


# ---------------------------------------------------------------------------
# interaction regions of ball bodies
# ---------------------------------------------------------------------------

# Rejection rounds the lens sampler may take before it gives up.
LENS_MAX_ROUNDS = 64


def sample_ball_lens(a: Ball, b: Ball, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points of the lens a cap b; an empty lens gives no points.

    Rejection runs in the exact bounding box of the lens in a frame along the
    line of centres: axially from max(-r_a, d - r_b) to min(r_a, d + r_b),
    and across up to the widest cross-section.  That is the crossing sphere
    of the two boundaries, unless the smaller ball's great section through
    its centre lies inside the other ball; then it is that section.  The
    acceptance rate therefore does not fall however thin the lens gets.

    Each round draws 8/5 of the points still needed, plus one.  A thin lens
    fills its box like two paraboloid caps: about 2/3 of it in the plane and
    pi/8 ~ 0.39 in space.  So a 2-D round yields about 16/15 of what it
    needs, eleven standard deviations above it at 10^4 points, and finishes
    in one round; a 3-D round leaves about 37 % of its need to the next.
    Raises GeometryError if LENS_MAX_ROUNDS rounds do not yield `count`
    points.
    """
    n = a.dim
    axis = b.center - a.center
    d = float(np.linalg.norm(axis))
    ra, rb = a.radius, b.radius
    if d >= ra + rb:
        return np.empty((0, n))
    e = axis / d if d > 0.0 else np.eye(n)[0]
    x_c = (d * d + ra * ra - rb * rb) / (2.0 * d) if d > 0.0 else 0.0
    half = math.sqrt(ra * ra - x_c * x_c) if 0.0 < x_c < d else min(ra, rb)
    x_lo, x_hi = max(-ra, d - rb), min(ra, d + rb)
    perp = np.linalg.svd(e[None, :])[2][1:]      # orthonormal complement of e
    out, need = [], count
    for _ in range(LENS_MAX_ROUNDS):
        m = need * 8 // 5 + 1
        xs = rng.uniform(x_lo, x_hi, size=m)
        ys = rng.uniform(-half, half, size=(m, n - 1))
        z = a.center + xs[:, None] * e + ys @ perp
        z = z[a.contains_batch(z) & b.contains_batch(z)][:need]
        out.append(z)
        need -= z.shape[0]
        if need == 0:
            return np.concatenate(out)
    raise GeometryError(f"lens sampler drew only {count - need} of {count} points "
                        f"in {LENS_MAX_ROUNDS} rejection rounds")


def check_ball_interactions_disjoint(body: ConvexBody, supports: list[Ball],
                                     samples: int, seed: int) -> None:
    """Raise GeometryError unless the interaction regions
    D_i = body cap (supp_i - body) are pairwise disjoint on `samples` exact
    draws from each D_i.

    For a ball body B(c, rho) and a support B(s, R), supp - body is the ball
    B(s - c, R + rho), so each D_i is a two-ball lens and membership in D_j
    is exact.  Only the supports whose reach ball comes within its radius
    (times 1 + 1e-9, against rounding) of the bounding box of D_i's draws can
    hold one of them, so the exact test runs on those candidates alone.
    """
    if not isinstance(body, Ball):
        raise GeometryError("interaction regions are computed for ball bodies only")
    reaches = [Ball(s.center - body.center, s.radius + body.radius) for s in supports]
    centers = np.array([r.center for r in reaches])
    radii = np.array([r.radius for r in reaches])
    rng = np.random.default_rng(seed)
    for i, reach in enumerate(reaches):
        pts = sample_ball_lens(body, reach, samples, rng)
        if pts.shape[0] == 0:
            continue
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        gap = np.linalg.norm(np.maximum(lo - centers, 0.0) + np.maximum(centers - hi, 0.0),
                             axis=1)
        near = gap < radii * (1.0 + 1e-9)
        near[i] = False
        cand = np.flatnonzero(near)
        hit = np.linalg.norm(pts[:, None, :] - centers[None, cand, :], axis=2) < radii[cand]
        if np.any(hit):
            k = int(np.argmax(hit.any(axis=0)))
            raise GeometryError(
                f"interaction regions {i} and {int(cand[k])} overlap "
                f"({int(np.count_nonzero(hit[:, k]))} of {samples} sampled points)")


# ---------------------------------------------------------------------------
# vertex certificates (perturbed-hull linear systems)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificateSystem:
    """Solution of (I + Lambda - M^T Lambda) rho = e_target.

    lam is the diagonal of Lambda, mu the row-stochastic matrix M, rho the
    barycentric weights certifying that the target vertex lies in the hull of
    the perturbed vertices.
    """

    lam: np.ndarray
    mu: np.ndarray
    rho: np.ndarray
    target_index: int

    def residual(self) -> float:
        k = self.lam.size
        A = np.eye(k) + np.diag(self.lam) - self.mu.T @ np.diag(self.lam)
        e = np.zeros(k)
        e[self.target_index] = 1.0
        return float(np.linalg.norm(A @ self.rho - e))


def solve_certificate(lam, mu, target: int) -> CertificateSystem:
    """Solve the k x k certificate system for one target vertex.

    Preconditions: 0 <= lam_i < 1/k and mu row-stochastic with entries in
    (0, 1).  Under them the solution is positive and sums to one (strictly
    positive when all lam_i > 0); both facts are asserted after the solve.
    """
    lam = np.asarray(lam, dtype=float).reshape(-1)
    mu = np.atleast_2d(np.asarray(mu, dtype=float))
    k = lam.size
    if mu.shape != (k, k):
        raise GeometryError("mu must be k x k")
    if np.any(lam < 0):
        raise GeometryError("lambda entries must be nonnegative")
    if k * lam.max(initial=0.0) >= 1.0:
        raise GeometryError("precondition k * max(lambda) < 1 violated; system may be singular")
    if np.any(mu <= 0) or np.any(mu >= 1) or not np.allclose(mu.sum(axis=1), 1.0, atol=1e-12):
        raise GeometryError("mu must be row-stochastic with entries in (0,1)")
    if not 0 <= target < k:
        raise GeometryError("target index out of range")
    A = np.eye(k) + np.diag(lam) - mu.T @ np.diag(lam)
    e = np.zeros(k)
    e[target] = 1.0
    rho = np.linalg.solve(A, e)
    if abs(rho.sum() - 1.0) > 1e-10:
        raise GeometryError("certificate sum deviates from 1")
    positive = rho > 0 if lam.min() > 0 else rho >= -1e-15
    if not np.all(positive):
        raise GeometryError("certificate solution not positive")
    return CertificateSystem(lam=lam, mu=mu, rho=rho, target_index=target)


# ---------------------------------------------------------------------------
# polytope JSON schema
# ---------------------------------------------------------------------------

def body_to_json(body: ConvexBody) -> str:
    """Serialize a polytope to the {"dim", "halfspaces"|"vertices"} schema.
    Floats round-trip exactly (repr uses shortest form, <= 17 significant digits)."""
    if isinstance(body, HPolytope):
        doc = {"dim": body.dim,
               "halfspaces": [{"normal": list(a), "offset": float(b)}
                              for a, b in zip(body.normals, body.offsets)]}
    elif isinstance(body, VPolytope):
        doc = {"dim": body.dim, "vertices": [list(v) for v in body.vertices]}
    else:
        raise GeometryError("JSON schema covers polytopes only")
    return json.dumps(doc)


def body_from_json(text: str) -> ConvexBody:
    doc = json.loads(text)
    dim = int(doc["dim"])
    if "halfspaces" in doc:
        normals = np.array([hs["normal"] for hs in doc["halfspaces"]], dtype=float)
        offsets = np.array([hs["offset"] for hs in doc["halfspaces"]], dtype=float)
        h = HPolytope(normals, offsets)
        if h.dim != dim:
            raise GeometryError("dim field inconsistent with halfspaces")
        return h
    if "vertices" in doc:
        v = VPolytope(np.array(doc["vertices"], dtype=float))
        if v.dim != dim:
            raise GeometryError("dim field inconsistent with vertices")
        return v
    raise GeometryError("polytope JSON needs 'halfspaces' or 'vertices'")
