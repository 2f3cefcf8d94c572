"""Simplicial outer approximation of a polytope by vertex perturbation.

Each vertex x_i of P slides outward along its support cone to
y_i = x_i - lambda_i (c_i - x_i), where c_i is a jittered interior point
written as a convex combination of the vertices.  For lambda below 1/k the
perturbed hull strictly contains P, certified per vertex by the linear
system (I + Lambda - M^T Lambda) rho = e_i whose solution is a positive
barycentric representation of x_i in the new vertices.  Jitter makes every
(dim+1)-subset affinely independent, so the hull is simplicial; shrinking
lambda with eps yields a decreasing family squeezing down to P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from . import geometry
from .geometry import GeometryError, HPolytope, VPolytope, polar_dual, solve_certificate


def _polytope_vertices(P) -> np.ndarray:
    if isinstance(P, HPolytope):
        return P._vertices
    if isinstance(P, VPolytope):
        return geometry._essential_vertices(P.vertices)
    raise GeometryError("expected a polytope")


@dataclass
class Perturbation:
    vertices: np.ndarray          # x_i of P
    perturbed: np.ndarray         # y_{x_i}
    lam: np.ndarray               # lambda_i
    mu: np.ndarray                # row-stochastic M, row i giving c_i
    certificates: list

    @cached_property
    def hull(self) -> VPolytope:
        return VPolytope(self.perturbed)


def perturb_vertices(P, eps: float, seed: int = 0) -> Perturbation:
    """Outward vertex perturbation with jittered interior targets.

    lambda_i is uniform, min(1/(2k), eps / (2 max_i |x_i - centroid|)).  The
    mu weights carry a relative jitter of at most 1e-3, which moves c_i off
    the centroid by at most 2.002e-3 times that spread, so every
    |y_i - x_i| <= 1.0021 eps/2.  The certificates solve the realized mu and
    must rebuild each x_i within FEAS_TOL max_i |y_i|.  One jitter draw is
    taken; if some (dim+1)-subset of perturbed points is affinely dependent,
    as when eps is too small to move P's coplanar vertices apart, it raises.
    """
    verts = _polytope_vertices(P)
    k, n = verts.shape
    centroid = verts.mean(axis=0)
    spread = float(np.max(np.linalg.norm(verts - centroid, axis=1)))
    lam_val = min(1.0 / (2 * k), eps / (2 * spread))
    if not lam_val > 0:
        raise GeometryError("lambda schedule out of the admissible range")
    lam = np.full(k, lam_val)
    rng = np.random.default_rng(seed)
    mu = (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, size=(k, k))) / k
    mu /= mu.sum(axis=1, keepdims=True)
    targets = mu @ verts                       # c_i, interior points
    perturbed = verts - lam[:, None] * (targets - verts)
    sub = perturbed[np.array(list(combinations(range(k), n + 1)))]
    if not np.all(geometry.nonsingular(sub[:, 1:] - sub[:, :1])):
        raise GeometryError("perturbed points are not affinely independent")
    certs = [solve_certificate(lam, mu, i) for i in range(k)]
    tol = geometry.FEAS_TOL * np.linalg.norm(perturbed, axis=1).max()
    for i, cert in enumerate(certs):
        if np.linalg.norm(cert.rho @ perturbed - verts[i]) > tol:
            raise GeometryError("certificate does not reproduce its vertex")
    return Perturbation(vertices=verts, perturbed=perturbed, lam=lam, mu=mu,
                        certificates=certs)


def _margins(Q: VPolytope, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The normalized margins (b - a . y) / |a| of points y on the facets of
    Q, and the feasibility window FEAS_TOL (r + |b| / |a|) of
    geometry.tuple_vertices, where r bounds |y|."""
    h = Q.hform
    norms = np.linalg.norm(h.normals, axis=1)
    margins = (h.offsets[None, :] - pts @ h.normals.T) / norms[None, :]
    r = np.linalg.norm(pts, axis=1).max()
    return margins, geometry.FEAS_TOL * (r + np.abs(h.offsets) / norms)


def verify_strict_containment(P, Q: VPolytope) -> tuple[bool, float]:
    """Every vertex of P inside every facet of Q by more than the window of
    _margins; returns the minimal normalized margin."""
    margins, window = _margins(Q, _polytope_vertices(P))
    return bool(np.all(margins > window)), float(margins.min())


def is_simplicial(Q: VPolytope) -> bool:
    """Every facet of the hull carries exactly dim vertices."""
    return bool(np.all(Q.incidence.sum(axis=0) == Q.dim))


@dataclass
class SimplicialApprox:
    epsilon: float
    perturbation: Perturbation
    contains_p: bool
    containment_margin: float
    within_eps: bool
    max_displacement: float
    simplicial: bool

    @property
    def hull(self) -> VPolytope:
        return self.perturbation.hull

    def all_checks_pass(self) -> bool:
        return self.contains_p and self.within_eps and self.simplicial


def build_approximation(P, eps: float, seed: int = 0) -> SimplicialApprox:
    if not math.isfinite(eps):
        raise GeometryError(f"eps must be finite, got {eps}")
    pert = perturb_vertices(P, eps, seed=seed)
    contains, margin = verify_strict_containment(P, pert.hull)
    disp = float(np.max(np.linalg.norm(pert.perturbed - pert.vertices, axis=1)))
    return SimplicialApprox(epsilon=eps, perturbation=pert, contains_p=contains,
                            containment_margin=margin, within_eps=disp <= eps,
                            max_displacement=disp, simplicial=is_simplicial(pert.hull))


def _hull_contains_points(Q: VPolytope, pts: np.ndarray) -> bool:
    """Every point inside Q or outside it within the window of _margins."""
    margins, window = _margins(Q, pts)
    return bool(np.all(margins >= -window))


def simplicial_sequence(P, eps_list, seed: int = 0) -> list[SimplicialApprox]:
    """Nested family Q_{eps_1} superset Q_{eps_2} superset ... superset P.

    One jitter draw is shared across the family, so shrinking lambda moves
    every perturbed vertex along a fixed outward ray and nesting follows
    from convexity.  A stage that fails a check or the nesting raises
    GeometryError.
    """
    if len(eps_list) == 0:
        raise GeometryError("simplicial sequence needs at least one eps")
    out: list[SimplicialApprox] = []
    for eps in sorted(eps_list, reverse=True):
        approx = build_approximation(P, eps, seed=seed)
        if not approx.all_checks_pass():
            raise GeometryError(f"simplicial checks failed at eps={eps}")
        if out and not _hull_contains_points(out[-1].hull, approx.perturbation.perturbed):
            raise GeometryError(f"nesting failed at eps={eps}")
        out.append(approx)
    return out


@dataclass
class DualityCheck:
    simplicial_primal: bool
    simple_dual: bool
    dual_vertex_facet_counts: list

    def ok(self) -> bool:
        return self.simplicial_primal and self.simple_dual


def dual_pipeline_check(P, eps: float, seed: int = 0) -> DualityCheck:
    """Polar-duality bridge: the simplicial hull's polar must be simple,
    every dual vertex lying on exactly dim facets."""
    approx = build_approximation(P, eps, seed=seed)
    Q = approx.hull
    dual = polar_dual(Q)            # HPolytope with facets <q_j, x> <= 1
    counts = simple_vertex_facet_counts(dual)
    simple = all(c == Q.dim for c in counts)
    return DualityCheck(simplicial_primal=approx.simplicial, simple_dual=simple,
                        dual_vertex_facet_counts=counts)


def simple_vertex_facet_counts(h: HPolytope) -> list:
    """Facet-incidence count of each vertex of an H-polytope."""
    return h.incidence.sum(axis=1).tolist()
