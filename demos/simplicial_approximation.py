#!/usr/bin/env python3
"""Simplicial outer approximations of a square pyramid.

Vertices slide outward along their support cones; the certificate system
(I + Lambda - M^T Lambda) rho = e_i proves strict containment, jitter makes
the hull simplicial, and polarity turns the family into inner simple
approximations of the dual.
"""

import numpy as np

from pwlab import geometry
from pwlab.geometry import solve_certificate
from pwlab.simplicial import dual_pipeline_check, simplicial_sequence

print("=== the certificate system on a 2x2 example ===")
cert = solve_certificate([0.1, 0.1], [[0.5, 0.5], [0.5, 0.5]], 0)
print(f"  rho = {cert.rho}  (21/22 and 1/22), residual {cert.residual():.2e}")

P = geometry.BUILTIN_BODIES["pyramid"]()
print()
print("=== square pyramid, apex height 1, shifted to contain the origin ===")
print(f"  vertices:\n{np.round(geometry.vertex_enumerate(P), 4)}")

print()
print("=== nested simplicial hulls at eps = 0.2, 0.1, 0.05 ===")
seq = simplicial_sequence(P, [0.2, 0.1, 0.05], seed=11)
for approx in seq:
    print(f"  eps = {approx.epsilon}: contains P (margin {approx.containment_margin:.2e}), "
          f"displacement {approx.max_displacement:.4f} <= eps, "
          f"simplicial = {approx.simplicial}")
worst = min(min(c.rho) for a in seq for c in a.perturbation.certificates)
print(f"  smallest certificate weight across the family: {worst:.2e} (all positive)")

print()
print("=== duality bridge: the polar of a simplicial hull is simple ===")
chk = dual_pipeline_check(P, 0.1, seed=11)
print(f"  primal simplicial: {chk.simplicial_primal}")
print(f"  dual vertex facet counts: {chk.dual_vertex_facet_counts} (all equal to 3)")
