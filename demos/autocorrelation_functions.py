#!/usr/bin/env python3
"""Tour of the autocorrelation function w(x) = m(Omega cap (x - Omega)).

Shows the exact evaluators against the Monte Carlo oracle, the boundary
decay exponent (n+1)/2 of smooth bodies, the sublevel-measure exponent
2/(n+1), and the integrability threshold for inverse powers of w.
"""

import numpy as np

from pwlab.geometry import Ball, HPolytope, Product, unit_box
from pwlab.omega import (
    OmegaEvaluator,
    disc_lens,
    omega_ball,
    omega_box,
    omega_inverse_integral,
    omega_mc,
    omega_polytope_exact,
    sublevel_fit,
)

print("=== exact values against the Monte Carlo oracle ===")
disc = Ball(np.zeros(2), 1.0)
for x in ([0.0, 0.0], [1.0, 0.0], [1.5, 0.5]):
    exact = omega_ball(2, 1.0, x)
    mc, se = omega_mc(disc, x, 10 ** 6, seed=1)
    print(f"  disc   w({x}) = {exact:.6f}   MC {mc:.6f} +- {se:.6f}")

square = unit_box(2)
for x in ([1.0, 1.0], [0.5, 1.0], [1.7, 0.3]):
    exact = omega_polytope_exact(square, x)
    tents = omega_box([1, 1], x)
    print(f"  square w({x}) = {exact:.6f}   product of tents {tents:.6f}")

print()
print("=== boundary decay of the disc: w ~ (4/3)(2-s)^(3/2) ===")
for s in (1.5, 1.8, 1.95, 1.99):
    ratio = disc_lens(np.array([s]))[0] / (2 - s) ** 1.5
    print(f"  s = {s}: w(s) / (2-s)^1.5 = {ratio:.5f}")

print()
print("=== sublevel measures m({w < t}) ~ t^(2/(n+1)) ===")
est = sublevel_fit(disc, 1e-4, 1e-2, 8, 10 ** 6, seed=11)
print(f"  disc n=2:  fitted exponent {est.fitted_exponent:.4f}  (2/(n+1) = 0.667)")
interval = Ball(np.array([0.5]), 0.5)
est = sublevel_fit(interval, 1e-3, 1e-1, 8, 10 ** 6, seed=12)
print(f"  interval:  fitted exponent {est.fitted_exponent:.4f}  (tent gives exactly 1)")
sq = Product((Ball([0.5], 0.5), Ball([0.5], 0.5)))
est = sublevel_fit(sq, 1e-4, 1e-2, 8, 10 ** 6, seed=13)
print(f"  square:    fitted exponent {est.fitted_exponent:.4f}  (t log(1/t) regime, "
      "recorded only)")

print()
print("=== inverse powers: int w^(-d) converges iff d < 2/(n+1) on the disc ===")
for d in (0.5, 0.8):
    value = omega_inverse_integral(disc, d)
    label = "integrable" if np.isfinite(value) else "divergent, 0.8 >= 2/3"
    print(f"  d = {d} ({label}): {value:.10f}")
