"""Convex body representations and low-dimensional polytope machinery.

Bodies are immutable tagged values (ball, H-polytope, V-polytope, product,
affine image) with a strict-inequality membership oracle.  Polytope
combinatorics are restricted to dimension <= 3 and desk scale by design:
Qhull gives hulls (H-forms, facet incidences, essential vertices, volumes)
and boundedness; tuple_vertices, shared with the exact polytope batch of
omega, gives the vertices of H-polytopes and the facets each lies on.
Whether interaction regions of a ball body meet, and how far the disc's
boundary lens reaches, are decided exactly.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Shared tolerances, each relative to the body: vertices closer than DEDUP_TOL
# times the diagonal of its bounding box are one, a vertex y satisfies a row
# a . y <= b within FEAS_TOL (|a| r + |b|) for r bounding |y|, and a facet
# system is singular below DET_TOL times its Hadamard bound.
DEDUP_TOL = 1e-9
FEAS_TOL = 1e-12
DET_TOL = 1e-12


class GeometryError(ValueError):
    """Raised for dimension mismatches, unbounded or degenerate polytopes."""


# ---------------------------------------------------------------------------
# body variants
# ---------------------------------------------------------------------------

class ConvexBody:
    """Base class; concrete bodies implement batched strict membership and a box."""

    dim: int

    def contains(self, x) -> bool:
        """Strict membership of one point, by contains_batch."""
        v = np.asarray(x, dtype=float).reshape(-1)
        if v.size != self.dim:
            raise GeometryError(f"expected vector of length {self.dim}, got {v.size}")
        return bool(self.contains_batch(v[None])[0])

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

    def contains_batch(self, pts):
        # one row at a time: k matrix-vector products beat one (m, k) product
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        ok = np.ones(pts.shape[0], dtype=bool)
        for a, b in zip(self.normals, self.offsets):
            ok &= pts @ a < b
        return ok

    @cached_property
    def _combinatorics(self) -> tuple[np.ndarray, np.ndarray]:
        # enumerated once per instance; a raise caches nothing, so an
        # unbounded or flat H-form raises on every call
        return vertex_incidence(self)

    @property
    def _vertices(self) -> np.ndarray:
        return self._combinatorics[0]

    @property
    def incidence(self) -> np.ndarray:
        """(vertex, facet) mask: which facets each cached vertex lies on."""
        return self._combinatorics[1]

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
    def _facets(self) -> tuple[np.ndarray, np.ndarray]:
        """Qhull's facet rows n . x + c <= 0, merged by _facet_key, and the
        (point, facet) mask of the corners of each facet's triangles."""
        pts = self.vertices
        if self.dim == 1:
            lo, hi = pts.min(), pts.max()
            if lo == hi:
                raise GeometryError("degenerate point set, no full-dimensional hull")
            return np.array([[1.0, -hi], [-1.0, lo]]), np.hstack([pts == hi, pts == lo])
        hull = _hull(pts)
        keys: dict[tuple, int] = {}
        label = np.array([keys.setdefault(_facet_key(row[:-1], -row[-1]), len(keys))
                          for row in hull.equations])
        incidence = np.zeros((pts.shape[0], len(keys)), dtype=bool)
        incidence[hull.simplices, label[:, None]] = True
        return hull.equations[np.unique(label, return_index=True)[1]], incidence

    @cached_property
    def hform(self) -> HPolytope:
        """The Qhull H-form, built once per instance."""
        return to_hpolytope(self)

    @property
    def incidence(self) -> np.ndarray:
        """(point, facet of hform) mask from Qhull's triangles."""
        return self._facets[1]

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

    def contains_batch(self, pts):
        blocks = self._split(np.atleast_2d(np.asarray(pts, dtype=float)))
        return np.logical_and.reduce([f.contains_batch(b) for f, b in zip(self.factors, blocks)])

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

    def contains_batch(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.base.contains_batch((pts - self.shift) @ np.linalg.inv(self.matrix).T)

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
        sides = np.stack([np.eye(n - 1, n), -np.eye(n - 1, n)], axis=1).reshape(-1, n)
        rows = np.vstack([sides + slope * np.eye(n)[-1], 0.0 - np.eye(n)[-1]])
        return HPolytope(rows, np.append(np.full(2 * n - 2, self.alpha), 0.0))

    def inscribed_ball_radius(self, t: float) -> float:
        """Radius alpha*(beta-t)/sqrt(alpha^2+beta^2) of the axis ball at height t."""
        return self.alpha * (self.beta - t) / math.hypot(self.alpha, self.beta)


def pyramid_ball_check(alpha: float, beta: float, t: float) -> bool:
    """Check B((0,..,0,t), alpha*(beta-t)/sqrt(alpha^2+beta^2)) fits in the pyramid.

    Exact test: the distance from the center to every facet hyperplane must be
    at least the stated radius (up to 1e-12).  Valid for t in (beta/2, beta).
    """
    if not (beta / 2 < t < beta):
        raise GeometryError("t must lie in (beta/2, beta)")
    pyr = Pyramid(alpha, beta, dim=2)
    h = pyr.hpolytope()
    center = np.array([0.0, t])
    rho = pyr.inscribed_ball_radius(t)
    dists = (h.offsets - h.normals @ center) / np.linalg.norm(h.normals, axis=1)
    return bool(np.all(dists >= rho - 1e-12))


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

def _hull(pts: np.ndarray):
    from scipy.spatial import ConvexHull, QhullError
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
    from scipy.spatial import ConvexHull, QhullError
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


def _dot(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """u @ rows.T over the last axis as explicit products, so the sums do not
    depend on the BLAS thread count."""
    return sum(u[..., d, None] * rows[:, d] for d in range(rows.shape[1]))


def _matvec(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """mats[c] @ vecs[m, c] for (c, n, n) matrices and (m, c, n) vectors, as
    explicit products like _dot."""
    return sum(mats[:, :, j] * vecs[:, :, None, j] for j in range(mats.shape[2]))


def tuple_vertices(planes: np.ndarray, O: np.ndarray, tuples: np.ndarray, inv: np.ndarray,
                   on: np.ndarray | None, radius: float | None = None,
                   merge_tol: float | None = None) -> tuple:
    """Vertices of the polytopes {y : planes . y <= O[i]} for an (m, p) offset
    array O, from candidate plane tuples: the (c, n) tuples, the inverses of
    their matrices and the (c, p) mask of the planes each tuple's point is on.

    A candidate solves its tuple through the inverse plus one step of
    iterative refinement, which brings ill-conditioned tuples to the accuracy
    of a direct solve.  It is feasible within FEAS_TOL (|a| r + |O|), where r
    is radius or else the candidate's own |y|.  Feasible candidates closer
    than merge_tol, else DEDUP_TOL times the diagonal of their bounding box,
    merge into the first, which lies on the planes of every tuple merged into
    it.  Returns the candidates (m, c', n), feasible ones first, the (m, c')
    mask of the kept ones and the (m, c', p) mask of their planes, or None if on is."""
    n = planes.shape[1]
    rhs = O[:, tuples]                                               # (m, c, n)
    C = _matvec(inv, rhs)
    C = C + _matvec(inv, rhs - _matvec(planes[tuples], C))
    r = np.linalg.norm(C, axis=2, keepdims=True) if radius is None else radius
    tol = FEAS_TOL * (np.linalg.norm(planes, axis=1) * r + np.abs(O)[:, None, :])
    feas = np.all(_dot(C, planes) <= O[:, None, :] + tol, axis=2)     # (m, c)
    # the feasible candidates first, without the columns no row needs
    order = np.argsort(~feas, axis=1, kind="stable")[:, :max(feas.sum(axis=1).max(), 1)]
    C = np.take_along_axis(C, order[..., None], axis=1)
    feas = np.take_along_axis(feas, order, axis=1)
    if merge_tol is None:
        lo = np.where(feas[..., None], C, np.inf).min(axis=1)
        hi = np.where(feas[..., None], C, -np.inf).max(axis=1)
        merge_tol = DEDUP_TOL * np.linalg.norm(hi - lo, axis=1)[:, None, None]
    gap = sum((C[:, :, None, d] - C[:, None, :, d]) ** 2 for d in range(n))
    near = (gap <= merge_tol ** 2) & feas[:, :, None] & feas[:, None, :]
    earlier = np.tril(np.ones(gap.shape[1:], dtype=bool), -1)
    kept = feas & ~np.any(near & earlier, axis=2)
    return C, kept, None if on is None else near.astype(float) @ on[order].astype(float) > 0


def vertex_incidence(h: HPolytope) -> tuple[np.ndarray, np.ndarray]:
    """The vertices of a bounded H-polytope in dim <= 3 and their (vertex,
    facet) incidence: tuple_vertices over every nonsingular dim-subset of
    the facets, in lexicographic order.  HPolytope caches this call."""
    n = h.dim
    if n > 3:
        raise GeometryError("vertex enumeration restricted to dim <= 3")
    if not _is_bounded(h):
        raise GeometryError("polytope is unbounded")
    A, b = h.normals, h.offsets
    combos = np.array(list(itertools.combinations(range(A.shape[0]), n)))
    combos = combos[nonsingular(A[combos])]
    on = np.any(combos[:, :, None] == np.arange(A.shape[0]), axis=1)
    C, kept, incidence = tuple_vertices(A, b[None], combos, np.linalg.inv(A[combos]), on)
    verts, incidence = C[0][kept[0]], incidence[0][kept[0]]
    if verts.shape[0] == 0:
        raise GeometryError("polytope has empty interior or is infeasible")
    if not np.all(np.isfinite(verts)):
        raise GeometryError("polytope is unbounded")
    if verts.shape[0] <= n:
        # fewer than dim+1 vertices cannot enclose volume
        raise GeometryError("polytope has empty interior")
    return verts, incidence


def vertex_enumerate(h: HPolytope) -> np.ndarray:
    """All vertices of a bounded H-polytope in dim <= 3 (vertex_incidence)."""
    return vertex_incidence(h)[0]


def _facet_key(a: np.ndarray, b: float) -> tuple:
    nrm = np.linalg.norm(a)
    return tuple(np.round(np.append(a / nrm, b / nrm), 9))


def to_hpolytope(v: VPolytope) -> HPolytope:
    """Convex hull of points in dim <= 3, returned as halfspaces: Qhull's
    merged facet rows n . x + c <= 0 (VPolytope._facets) become (n, -c)."""
    n = v.dim
    if n > 3:
        raise GeometryError("hull restricted to dim <= 3")
    if v.vertices.shape[0] < n + 1:
        raise GeometryError("need at least dim+1 points for a full hull")
    rows = v._facets[0]
    return HPolytope(rows[:, :-1], -rows[:, -1])


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

    H-polytopes map to V-polytopes with vertices a_i/b_i, one per distinct
    incidence column with at least dim vertices, so redundant and repeated
    rows drop; V-polytopes map to H-polytopes with halfspaces <v_j, x> <= 1.
    """
    if isinstance(body, HPolytope):
        incidence = body.incidence  # validates boundedness
        if np.any(body.offsets <= 0):
            raise GeometryError("origin not interior (some offset <= 0)")
        essential = np.flatnonzero(incidence.sum(axis=0) >= body.dim)
        first = np.unique(incidence[:, essential].T, axis=0, return_index=True)[1]
        facets = essential[np.sort(first)]
        return VPolytope(body.normals[facets] / body.offsets[facets, None])
    if isinstance(body, VPolytope):
        verts = _essential_vertices(body.vertices)
        h = HPolytope(verts, np.ones(verts.shape[0]))
        if not _is_bounded(h):          # the origin is not strictly inside conv(verts)
            raise GeometryError("origin not interior to the polytope")
        return h
    raise GeometryError("polar dual implemented for polytopes only")


# ---------------------------------------------------------------------------
# boundary containment (disc geometry)
# ---------------------------------------------------------------------------

def disc_lens_reach(C: float, eps: float, dim: int = 2) -> float:
    """Farthest distance from x = (1, 0, ..., 0) of the open lens

        (2 closure(B((1-q) x, q)) - B(0,1)) cap B(0,1) = B(2(1-q) x, 1 + 2q) cap B(0,1),

    q = C eps^2, so the lens lies in B(x, eps) iff the reach is at most eps.
    Both centres are on the axis through x, and on each sphere the distance
    from x grows with the angle to that axis.  So the farthest point is an
    on-axis point of one sphere that lies in the other closed ball or, for
    dim >= 2, a point of the rim where the spheres cross.
    """
    if C <= 0 or not (0 < eps < 1) or dim < 1:
        raise GeometryError("need C > 0, eps in (0,1) and dim >= 1")
    q = C * eps * eps
    a, R = 2.0 * (1.0 - q), 1.0 + 2.0 * q
    ends = ([p for p in (-1.0, 1.0) if abs(p - a) <= R]
            + [p for p in (a - R, a + R) if abs(p) <= 1.0])
    reach = max(abs(p - 1.0) for p in ends)
    if dim >= 2 and R - 1.0 < a:
        # the spheres cross unless the unit ball lies in the other (q >= 1/2),
        # at abscissa t = (a^2 + 1 - R^2) / (2a) and distance
        # sqrt((t - 1)^2 + 1 - t^2) = sqrt(2 - 2t) from x, which is this product
        reach = max(reach, math.sqrt((R + 1.0 - a) * (R - 1.0 + a) / a))
    return reach


# ---------------------------------------------------------------------------
# interaction regions of ball bodies
# ---------------------------------------------------------------------------

# Relative shrink of every radius in the three-ball test: regions that share
# only a thinner sliver count as disjoint, so regions that touch pass.
OVERLAP_MARGIN = 1e-9


def _three_balls_meet(centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Mask of the (m, 3, n) centre triples with (m, 3) radii whose open balls
    share a point.  Projecting onto a plane through the centres (1-D ones get
    a zero coordinate) moves no point farther from them, so the balls meet
    iff the discs there do, and then the discs have a lowest point: a disc's
    bottom or one of the six crossings of two circles.  These nine candidates
    are built for radii shrunk by OVERLAP_MARGIN; one that lies in all three
    discs shrunk by half that is a common point whatever rounding did."""
    m, n = centers.shape[0], centers.shape[2]
    spans = np.pad(np.swapaxes(centers[:, 1:] - centers[:, :1], 1, 2),
                   ((0, 0), (0, max(2 - n, 0)), (0, 0)))                 # (m, n, 2)
    P = np.concatenate([np.zeros((m, 1, 2)),
                        np.swapaxes(np.linalg.qr(spans, mode="r"), 1, 2)], axis=1)
    r = radii * (1.0 - OVERLAP_MARGIN)
    k, l = np.array([0, 0, 1]), np.array([1, 2, 2])
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.linalg.norm(P[:, l] - P[:, k], axis=2)
        e = (P[:, l] - P[:, k]) / d[..., None]
        along = (d * d + r[:, k] ** 2 - r[:, l] ** 2) / (2.0 * d)
        across = np.sqrt(r[:, k] ** 2 - along ** 2)     # NaN: the circles do not cross
        foot = P[:, k] + along[..., None] * e
        turn = across[..., None] * np.stack([-e[..., 1], e[..., 0]], axis=2)
        cand = np.concatenate([P - r[..., None] * np.array([0.0, 1.0]),
                               foot + turn, foot - turn], axis=1)      # (m, 9, 2)
        gap = np.sum((cand[:, :, None] - P[:, None]) ** 2, axis=3)
        inside = gap < (radii * (1.0 - OVERLAP_MARGIN / 2.0))[:, None] ** 2
    return np.any(np.all(inside, axis=2), axis=1)


def check_ball_interactions_disjoint(body: ConvexBody, supports: list[Ball]) -> None:
    """Raise GeometryError unless the interaction regions
    D_i = body cap (supp_i - body) are pairwise disjoint, naming the first
    pair i < j that meets.  For a ball body B(c, rho) and a support B(s, R),
    supp - body is the ball B(s - c, R + rho), so D_i cap D_j is the common
    part of three balls, which _three_balls_meet decides for all pairs."""
    if not isinstance(body, Ball):
        raise GeometryError("interaction regions are computed for ball bodies only")
    centers = np.array([body.center] + [s.center - body.center for s in supports])
    radii = np.array([body.radius] + [s.radius + body.radius for s in supports])
    i, j = np.triu_indices(len(supports), 1)
    triples = np.stack([np.zeros_like(i), i + 1, j + 1], axis=1)
    meet = np.flatnonzero(_three_balls_meet(centers[triples], radii[triples]))
    if meet.size:
        raise GeometryError(f"interaction regions {i[meet[0]]} and {j[meet[0]]} overlap")


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
# polytope JSON reader
# ---------------------------------------------------------------------------

def body_from_json(text: str) -> ConvexBody:
    """A polytope from {"dim", "halfspaces": [{"normal", "offset"}]} or {"dim", "vertices"}."""
    doc = json.loads(text)
    if "halfspaces" in doc:
        key = "halfspaces"
        body = HPolytope([hs["normal"] for hs in doc[key]], [hs["offset"] for hs in doc[key]])
    elif "vertices" in doc:
        key = "vertices"
        body = VPolytope(doc[key])
    else:
        raise GeometryError("polytope JSON needs 'halfspaces' or 'vertices'")
    if body.dim != int(doc["dim"]):
        raise GeometryError(f"dim field inconsistent with {key}")
    return body
