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

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from . import geometry
from .geometry import GeometryError, HPolytope, VPolytope, polar_dual, solve_certificate

CONTAINMENT_MARGIN = 1e-10


def _polytope_vertices(P) -> np.ndarray:
    if isinstance(P, HPolytope):
        return P._vertices
    if isinstance(P, VPolytope):
        return geometry._essential_vertices(P.vertices)
    raise GeometryError("expected a polytope")


def _all_subsets_affinely_independent(pts: np.ndarray, dim: int) -> bool:
    sub = pts[np.array(list(combinations(range(pts.shape[0]), dim + 1)))]
    return bool(np.all(geometry.nonsingular(sub[:, 1:] - sub[:, :1])))


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


def perturb_vertices(P, eps: float, seed: int = 0, max_retries: int = 1000,
                     lam_override: float | None = None) -> Perturbation:
    """Outward vertex perturbation with jittered interior targets.

    lambda_i is uniform, min(1/(2k), eps / (2 max_i |x_i - centroid|)), which
    keeps every |y_i - x_i| <= eps/2; the jitter lives in the mu weights so
    the certificate system uses exactly the realized construction.  Retries
    fresh jitter until every (dim+1)-subset of perturbed points passes the
    determinant test.
    """
    verts = _polytope_vertices(P)
    k, n = verts.shape
    centroid = verts.mean(axis=0)
    spread = float(np.max(np.linalg.norm(verts - centroid, axis=1)))
    lam_val = lam_override if lam_override is not None else min(1.0 / (2 * k), eps / (2 * spread))
    if not (0 < lam_val < 1.0 / k):
        raise GeometryError("lambda schedule out of the admissible range")
    lam = np.full(k, lam_val)
    rng = np.random.default_rng(seed)
    for _ in range(max_retries):
        mu = (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, size=(k, k))) / k
        mu /= mu.sum(axis=1, keepdims=True)
        targets = mu @ verts                       # c_i, interior points
        perturbed = verts - lam[:, None] * (targets - verts)
        if _all_subsets_affinely_independent(perturbed, n):
            certs = [solve_certificate(lam, mu, i) for i in range(k)]
            for i, cert in enumerate(certs):
                rebuilt = cert.rho @ perturbed
                if np.linalg.norm(rebuilt - verts[i]) > 1e-8:
                    raise GeometryError("certificate does not reproduce its vertex")
            return Perturbation(vertices=verts, perturbed=perturbed, lam=lam,
                                mu=mu, certificates=certs)
    raise GeometryError("jitter budget exhausted without affine independence")


def verify_strict_containment(P, Q: VPolytope) -> tuple[bool, float]:
    """Every vertex of P strictly inside every facet of Q; returns the
    minimal normalized margin."""
    verts = _polytope_vertices(P)
    h = Q.hform
    norms = np.linalg.norm(h.normals, axis=1)
    margins = (h.offsets[None, :] - verts @ h.normals.T) / norms[None, :]
    worst = float(margins.min())
    return worst > CONTAINMENT_MARGIN, worst


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


def build_approximation(P, eps: float, seed: int = 0,
                        lam_override: float | None = None) -> SimplicialApprox:
    pert = perturb_vertices(P, eps, seed=seed, lam_override=lam_override)
    contains, margin = verify_strict_containment(P, pert.hull)
    disp = float(np.max(np.linalg.norm(pert.perturbed - pert.vertices, axis=1)))
    return SimplicialApprox(epsilon=eps, perturbation=pert, contains_p=contains,
                            containment_margin=margin, within_eps=disp <= eps,
                            max_displacement=disp, simplicial=is_simplicial(pert.hull))


def _hull_contains_points(Q: VPolytope, pts: np.ndarray) -> bool:
    h = Q.hform
    return bool(np.all(pts @ h.normals.T <= h.offsets[None, :] + 1e-12))


def simplicial_sequence(P, eps_list, seed: int = 0,
                        max_halvings: int = 20) -> list[SimplicialApprox]:
    """Nested family Q_{eps_1} superset Q_{eps_2} superset ... superset P.

    One jitter draw is shared across the family, so shrinking lambda moves
    every perturbed vertex along a fixed outward ray and nesting follows
    from convexity; if a numerical check still fails, lambda is halved.
    """
    eps_sorted = sorted(eps_list, reverse=True)
    out: list[SimplicialApprox] = []
    prev_hull: VPolytope | None = None
    for eps in eps_sorted:
        lam = None
        for _ in range(max_halvings):
            approx = build_approximation(P, eps, seed=seed, lam_override=lam)
            ok = approx.all_checks_pass()
            nested = prev_hull is None or _hull_contains_points(
                prev_hull, approx.perturbation.perturbed)
            if ok and nested:
                break
            lam = (approx.perturbation.lam[0] if lam is None else lam) / 2.0
        else:
            raise GeometryError(f"nesting failed at eps={eps} despite halvings")
        out.append(approx)
        prev_hull = approx.hull
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
