"""The paper's acceptance criteria, each defined once.

`criterion_NN(fast)` computes criterion NN and returns a CheckResult whose
detail string carries every margin.  The acceptance tests run each criterion
at the full budget; `pwlab verify` runs them with `fast=True`, which shrinks
one count in criteria 1, 6 and 9 to a prefix of the same seeded draws and
changes nothing else.  SUITES tags each criterion with the module it checks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import geometry, hankel, hardy, nehari, omega, simplicial
from .calibration import DEFAULT_CALIBRATION
from .fourier import bump_hat_batch
from .geometry import BUILTIN_BODIES, Ball, VPolytope, box


@dataclass
class CheckResult:
    num: int
    label: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        suffix = f"  [{self.detail}]" if self.detail else ""
        return f"[{tag}] criterion {self.num:2d}: {self.label}{suffix}"


def lens_closed_form(s: float) -> float:
    """Area of the intersection of two unit discs at centre distance s, the
    oracle of criterion 2, independent of `omega.disc_lens`."""
    return 2 * math.acos(s / 2) - (s / 2) * math.sqrt(4 - s * s)


def criterion_01(fast: bool = False) -> CheckResult:
    t0 = time.monotonic()
    rng = np.random.default_rng(100)
    square, cube = BUILTIN_BODIES["square"](), BUILTIN_BODIES["cube"]()
    dev = 0.0
    for p in rng.uniform(-0.5, 2.5, size=(25, 2)):
        dev = max(dev, abs(omega.omega_polytope_exact(square, p) - omega.omega_box([1, 1], p)))
    for p in rng.uniform(-0.5, 2.5, size=(25, 3)):
        dev = max(dev, abs(omega.omega_polytope_exact(cube, p) - omega.omega_box([1, 1, 1], p)))
    tri = BUILTIN_BODIES["triangle"]()
    mc_points = rng.uniform(-0.2, 1.4, size=(20, 2))[:5 if fast else 20]
    mc_ok = True
    for i, p in enumerate(mc_points):
        exact = omega.omega_polytope_exact(tri, p)
        est, se = omega.omega_mc(tri, p, 10 ** 6, seed=200 + i)
        mc_ok &= abs(exact - est) <= max(3 * se, 1e-12)
    elapsed = time.monotonic() - t0
    note = f", fast: first {len(mc_points)} of 20 MC points" if fast else ""
    return CheckResult(1, "box/cube volumes to 1e-10 and triangle MC within 3 sigma",
                       dev < 1e-10 and mc_ok and elapsed < 10.0,
                       f"max dev {dev:.1e}, {elapsed:.1f}s{note}")


def criterion_02(fast: bool = False) -> CheckResult:
    radii = np.linspace(0.0, 1.999, 100)
    dev = max(abs(omega.omega_ball(2, 1.0, [s, 0.0]) - lens_closed_form(s)) for s in radii)
    ratio = omega.omega_ball(2, 1.0, [1.95, 0.0]) / (2 - 1.95) ** 1.5
    ratio_ok = abs(ratio - 4 / 3) <= 0.05 * 4 / 3
    return CheckResult(2, "slice quadrature matches the lens form, 4/3 asymptotic",
                       dev < 1e-8 and ratio_ok, f"dev {dev:.1e}, ratio {ratio:.4f}")


def criterion_03(fast: bool = False) -> CheckResult:
    t0 = time.monotonic()
    ball = BUILTIN_BODIES["ball2"]()
    est = omega.sublevel_fit(ball, 1e-4, 1e-2, 8, 10 ** 6, seed=11)
    ball_ok = abs(est.fitted_exponent - 0.667) <= 0.07
    interval = BUILTIN_BODIES["halfline-model"]()
    est_i = omega.sublevel_fit(interval, 1e-3, 1e-1, 8, 4 * 10 ** 6, seed=12)
    int_ok = abs(est_i.fitted_exponent - 1.0) <= 0.02
    elapsed = time.monotonic() - t0
    return CheckResult(3, "sublevel exponents 2/(n+1) for the disc and the interval",
                       ball_ok and int_ok and elapsed < 60.0,
                       f"disc {est.fitted_exponent:.4f}, interval {est_i.fitted_exponent:.4f}, "
                       f"{elapsed:.0f}s")


CANONICAL_SYMBOLS = [((0.0, 0.0), 0.8), ((0.4, 0.2), 0.5), ((-0.5, 0.5), 0.4),
                     ((0.9, 0.0), 0.45), ((0.3, -0.7), 0.35)]


def criterion_04(fast: bool = False) -> CheckResult:
    disc = BUILTIN_BODIES["ball2"]()
    ok = True
    worst = 0.0
    for center, radius in CANONICAL_SYMBOLS:
        sym = lambda p, c=center, r=radius: bump_hat_batch(p, center=list(c), radius=r)
        base = hankel.hs_identity_check(disc, sym, 0.05)
        half = hankel.hs_identity_check(disc, sym, 0.025)
        ok &= base.rel_err <= 0.02 and half.rel_err < base.rel_err
        worst = max(worst, base.rel_err)
    return CheckResult(4, "Hilbert-Schmidt identity at 2 percent, refining", ok,
                       f"worst base rel err {worst:.4f}")


def criterion_05(fast: bool = False) -> CheckResult:
    t0 = time.monotonic()
    disc = BUILTIN_BODIES["ball2"]()
    r = 0.08
    c = np.array([0.9, 0.0])
    chk = hankel.orthogonal_sum_check(
        disc,
        [lambda p: bump_hat_batch(p, center=2 * c, radius=2 * r),
         lambda p: bump_hat_batch(p, center=-2 * c, radius=2 * r)],
        [Ball(2 * c, 2 * r), Ball(-2 * c, 2 * r)],
        spacing=0.018)
    elapsed = time.monotonic() - t0
    return CheckResult(5, "singular-value multiset union for disjoint boundary bumps",
                       chk.ok and chk.max_rel_dev <= 1e-6 and max(chk.block_sizes) <= 2000
                       and elapsed < 30.0,
                       f"dev {chk.max_rel_dev:.1e}, blocks {chk.block_sizes}, {elapsed:.1f}s")


def criterion_06(fast: bool = False) -> CheckResult:
    disc = BUILTIN_BODIES["ball2"]()
    rng = np.random.default_rng(600)
    count = 5 if fast else 50
    ok = True
    for _ in range(count):
        center = rng.uniform(-0.6, 0.6, size=2)
        radius = rng.uniform(0.25, 0.8)
        amp = rng.normal() + 1j * rng.normal()
        sym = lambda p, c=center, r=radius, a=amp: a * bump_hat_batch(p, center=c, radius=r)
        for p in (3.0, 6.0):
            chk = hankel.russo_bound_check(disc, sym, 0.1, p, integral_pts=200)
            ok &= chk.holds
    return CheckResult(6, "mixed-norm Schatten bound with 1e-9 slack, 50 symbols, p in {3,6}",
                       ok, f"fast: first {count} of 50 symbols" if fast else "")


def criterion_07(fast: bool = False) -> CheckResult:
    # The full ladder even when fast: the slope signs need N = 7..62.
    t0 = time.monotonic()
    rep6 = nehari.sweep_and_fit(nehari.NehariConfig(p=6.0), orthogonality_eps=None)
    rep3 = nehari.sweep_and_fit(nehari.NehariConfig(p=3.0))
    elapsed = time.monotonic() - t0
    counts = [row.N for row in rep6.rows]
    return CheckResult(7, "counterexample ratio grows for p=6 and decays for p=3",
                       min(counts) == 7 and max(counts) == 62
                       and rep6.slope >= 0.05 and rep3.slope <= -0.10 and elapsed < 600.0,
                       f"slopes {rep6.slope:+.3f}/{rep3.slope:+.3f}, "
                       f"N {min(counts)}..{max(counts)}, {elapsed:.0f}s")


def criterion_08(fast: bool = False) -> CheckResult:
    r1 = hardy.tent_ratio(1)
    r2 = hardy.tent_ratio(2)
    return CheckResult(8, "tent ratios hit the exact anchors 2 and 4",
                       abs(r1 - 2.0) <= 0.02 and abs(r2 - 4.0) <= 0.04,
                       f"{r1:.4f}, {r2:.4f}")


def criterion_09(fast: bool = False) -> CheckResult:
    rng = np.random.default_rng(900)
    count = 30 if fast else 999
    worst = 0.0
    ok = True
    for _ in range(count):
        g, h = hardy.random_halfline_pair(rng)
        val = hardy.halfline_ratio(g, h, freq_points=g.size)
        worst = max(worst, val)
        ok &= val <= math.pi * 1.02
    g, h = hardy.extremal_halfline_pair()
    extremal = hardy.halfline_ratio(g, h, freq_points=g.size, box_halfwidth=64.0,
                                    max_doublings=7)
    ok &= extremal <= math.pi * 1.02
    note = f", fast: first {count} of 999 pairs" if fast else ""
    return CheckResult(9, "half-line constant pi over 1000 products, extremal above 2",
                       ok and max(worst, extremal) >= 2.0,
                       f"max random {worst:.4f}, extremal {extremal:.4f}{note}")


def disc_inverse_integral(d: float) -> float:
    """int_{2D} w^{-d} on the unit disc D for d < 2/3, criterion 10's oracle:
    2 pi int_0^2 w(s)^{-d} s ds by 400-node Gauss-Legendre in v = (2 - s)^(1 - 3d/2),
    with the lens x - sin x, x = 4 asin(sqrt(2 - s)/2), by Taylor below 1e-2."""
    beta = 1.0 - 1.5 * d
    t, weights = np.polynomial.legendre.leggauss(400)
    v = 2.0 ** beta * (t + 1.0) / 2.0
    u = v ** (1.0 / beta)                                   # u = 2 - s
    x = 4.0 * np.arcsin(np.sqrt(u) / 2.0)
    taylor = x ** 3 / 6.0 * (1.0 - x * x / 20.0 * (1.0 - x * x / 42.0))
    lens = np.where(x < 1e-2, taylor, x - np.sin(x))
    return math.pi * 2.0 ** beta * float(weights @ (lens ** -d * (2.0 - u) * u / (beta * v)))


def criterion_10(fast: bool = False) -> CheckResult:
    res15 = hardy.corner_family_sweep(1.5)
    res10 = hardy.corner_family_sweep(1.0)
    half, high = hardy.adjusted_integrability_report(BUILTIN_BODIES["ball2"](), [0.5, 0.8])
    integral = half.evidence["integral"]
    dev = abs(integral - disc_inverse_integral(0.5)) / disc_inverse_integral(0.5)
    diverges = high.evidence["integral"] is None
    return CheckResult(10, "corner slopes, bounded d=1 ratios, integrability contrast",
                       abs(res15.slope + 0.5) <= 0.15 and res10.max_over_min <= 2.0
                       and dev <= 1e-8 and diverges,
                       f"slope {res15.slope:.3f}, max/min {res10.max_over_min:.3f}, "
                       f"d=0.5 integral {integral:.6f} (oracle dev {dev:.1e}), "
                       f"d=0.8 {'diverges' if diverges else 'finite'}")


def criterion_11(fast: bool = False) -> CheckResult:
    seq = simplicial.simplicial_sequence(BUILTIN_BODIES["pyramid"](), [0.2, 0.1, 0.05], seed=11)
    preds = all(a.all_checks_pass() for a in seq)
    nested = all(simplicial._hull_contains_points(seq[i].hull,
                                                  seq[i + 1].perturbation.perturbed)
                 for i in range(len(seq) - 1))
    certs = all((c.rho > 0).all() and abs(c.rho.sum() - 1) <= 1e-10
                for a in seq for c in a.perturbation.certificates)
    anchor = geometry.solve_certificate([0.1, 0.1], [[0.5, 0.5], [0.5, 0.5]], 0)
    anchor_ok = (abs(anchor.rho[0] - 21 / 22) <= 1e-12
                 and abs(anchor.rho[1] - 1 / 22) <= 1e-12)
    return CheckResult(11, "pyramid sequence: predicates, nesting, certificates, 2x2 anchor",
                       preds and nested and certs and anchor_ok)


def criterion_12(fast: bool = False) -> CheckResult:
    ok = True
    cube = box([-1, -1, -1], [1, 1, 1])
    back = geometry.polar_dual(geometry.polar_dual(cube))
    for p in geometry.vertex_enumerate(cube):
        ok &= np.min(np.linalg.norm(geometry.vertex_enumerate(back) - p, axis=1)) < 1e-9
    cross = VPolytope(np.vstack([np.eye(3), -np.eye(3)]))
    dd = geometry.polar_dual(geometry.polar_dual(cross))
    for p in cross.vertices:
        ok &= np.min(np.linalg.norm(dd.vertices - p, axis=1)) < 1e-9
    rng = np.random.default_rng(12)
    for _ in range(5):
        pts = rng.uniform(-1, 1, size=(3, 2))
        pts -= pts.mean(axis=0) * 1.2
        tri = VPolytope(pts)
        if not tri.contains([0.0, 0.0]):
            continue
        ddt = geometry.polar_dual(geometry.polar_dual(tri))
        for p in pts:
            ok &= np.min(np.linalg.norm(ddt.vertices - p, axis=1)) < 1e-9
    octa = geometry.polar_dual(cube)
    ok &= simplicial.is_simplicial(octa)
    ok &= all(c == 3 for c in simplicial.simple_vertex_facet_counts(cube))
    return CheckResult(12, "polar involution to 1e-9 and simplicial/simple duality", ok)


def criterion_13(fast: bool = False) -> CheckResult:
    ok = True
    for alpha in (0.5, 1.0, 2.0):
        for beta in (0.5, 1.0, 2.0):
            for t in np.linspace(beta / 2 + 1e-9, beta - 1e-9, 100):
                ok &= geometry.pyramid_ball_check(alpha, beta, float(t))
    C = DEFAULT_CALIBRATION.containment_c
    worst = max(geometry.disc_lens_reach(C, eps) / eps for eps in (0.1, 0.05, 0.01))
    return CheckResult(13, "pyramid inscribed balls and containment at the calibrated constant",
                       ok and worst <= 1.0, f"max reach/eps {worst:.6f}")


CRITERIA = {1: criterion_01, 2: criterion_02, 3: criterion_03, 4: criterion_04,
            5: criterion_05, 6: criterion_06, 7: criterion_07, 8: criterion_08,
            9: criterion_09, 10: criterion_10, 11: criterion_11, 12: criterion_12,
            13: criterion_13}

SUITES = {"omega": [1, 2, 3], "hankel": [4, 5, 6], "nehari": [7],
          "hardy": [8, 9, 10], "simplicial": [11], "geometry": [12, 13]}
