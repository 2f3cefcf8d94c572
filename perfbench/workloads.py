"""The four benchmark workloads and the item loop that counts failures.

Each builder takes the seed, generates every input up front (set-up), and
returns a warm-up item plus the items of one full pass.  An item runs one
piece of the lab and checks it against the lab's own oracle; it returns
True when the oracle holds.  The program only ever sees generated inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from pwlab import geometry, hankel, hardy, nehari, omega, simplicial
from pwlab.fourier import ConvergenceError, bump_hat_batch
from pwlab.geometry import Ball, GeometryError, HPolytope, VPolytope

# An item that raises one of these failed; any other exception is a crash.
FAILURES = (ConvergenceError, GeometryError, ValueError)


@dataclass
class Item:
    name: str
    run: Callable[[], bool]


@dataclass
class Workload:
    warmup: Item
    items: list
    # "module.func" names inside the items after whose calls a reference
    # gap runs (speed.py), for items too long for gaps between items alone.
    checkpoints: tuple = ()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def fail(self, name: str, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{name}: {reason}")


def run_item(item: Item, tally: Tally) -> None:
    tally.attempted += 1
    try:
        ok = item.run()
    except FAILURES as exc:
        tally.fail(item.name, f"{type(exc).__name__}: {exc}")
        return
    if not ok:
        tally.fail(item.name, "oracle miss")


# ---------------------------------------------------------------------------
# nehari_sweep: the paper's headline experiment, the default eps ladder
# ---------------------------------------------------------------------------

def nehari_sweep(seed: int) -> Workload:
    config = nehari.NehariConfig(p=6.0, seed=seed)
    c2 = config.calibration.omega_c2

    def rows_ok(rows) -> bool:
        return all(row.a_max <= c2 * row.eps ** 3 for row in rows)

    def sweep() -> bool:
        report = nehari.sweep_and_fit(config, check_disjointness=True)
        counts = [row.N for row in report.rows]
        return (report.slope >= 0.05 and min(counts) == 7 and max(counts) == 62
                and rows_ok(report.rows))

    def first_row() -> bool:
        return rows_ok([nehari.eq5_ratio(config, max(config.epsilons))])

    # One 26 s call: gaps run inside it too, after each of its 14 costly calls.
    return Workload(warmup=Item("eq5_ratio eps=0.4", first_row),
                    items=[Item("sweep_and_fit p=6", sweep)],
                    checkpoints=("nehari.check_interaction_disjointness",
                                 "nehari.modulated_sum_l1"))


# ---------------------------------------------------------------------------
# hardy_halfline: both transform branches of fourier.synthesize_on_grid
# ---------------------------------------------------------------------------

HALFLINE_PAIRS = 8          # random pairs at K = 400 take the dense branch
PI_CEILING = 1.02 * math.pi


def hardy_halfline(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    pairs = [hardy.random_halfline_pair(rng) for _ in range(HALFLINE_PAIRS)]
    g_ext, h_ext = hardy.extremal_halfline_pair()      # K = 20000: chirp-z branch
    hardy.canonical_bump_l1()                            # fill the lazy cache

    def pair_item(g, h):
        return lambda: hardy.halfline_ratio(g, h, freq_points=g.size) <= PI_CEILING

    def extremal() -> bool:
        val = hardy.halfline_ratio(g_ext, h_ext, freq_points=g_ext.size,
                                   box_halfwidth=64.0, max_doublings=7)
        return 2.0 <= val <= PI_CEILING

    items = [Item(f"halfline pair {i}", pair_item(g, h)) for i, (g, h) in enumerate(pairs)]
    items.append(Item("halfline extremal", extremal))
    items.append(Item("tent n=1", lambda: abs(hardy.tent_ratio(1) - 2.0) <= 0.02))
    items.append(Item("tent n=2", lambda: abs(hardy.tent_ratio(2) - 4.0) <= 0.04))
    return Workload(warmup=items[0], items=items)


# ---------------------------------------------------------------------------
# hankel_spectra: dense assembly and both spectrum routes
# ---------------------------------------------------------------------------

RUSSO_SYMBOLS = 2
HS_SYMBOLS = 2
DENSE_REAL_NODES = 2000     # real symmetric: eigvalsh route
DENSE_COMPLEX_SPACING = 0.05  # about 1256 nodes, complex: Gram route


def _frobenius_ok(H) -> bool:
    """The spectrum carries the Frobenius norm: sum sigma^2 = ||A||_F^2."""
    sv = H.singular_values
    frob2 = float(np.sum(np.abs(H.matrix) ** 2))
    return (bool(np.all(sv >= 0.0)) and bool(np.all(np.diff(sv) <= 0.0))
            and abs(float(np.sum(sv ** 2)) - frob2) <= 1e-9 * frob2)


def hankel_spectra(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    disc = Ball(np.zeros(2), 1.0)

    def bump(center, radius, amp=1.0):
        return lambda p: amp * bump_hat_batch(p, center=center, radius=radius)

    def complex_amp():
        return complex(rng.normal(), rng.normal())

    items = []
    for i in range(RUSSO_SYMBOLS):
        sym = bump(rng.uniform(-0.6, 0.6, size=2), rng.uniform(0.25, 0.8), complex_amp())
        for p in (3.0, 6.0):
            items.append(Item(f"russo {i} p={p:g}", lambda s=sym, p=p: hankel.russo_bound_check(
                disc, s, 0.1, p, integral_pts=200).holds))

    for i in range(HS_SYMBOLS):
        angle, reach = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 0.5)
        sym = bump(reach * np.array([math.cos(angle), math.sin(angle)]), rng.uniform(0.35, 0.8))

        def hs(s=sym) -> bool:
            base = hankel.hs_identity_check(disc, s, 0.05)
            half = hankel.hs_identity_check(disc, s, 0.025)
            return base.rel_err <= 0.02 and half.rel_err < base.rel_err
        items.append(Item(f"hs identity {i}", hs))

    angle = rng.uniform(0.0, 2.0 * math.pi)
    c = 0.9 * np.array([math.cos(angle), math.sin(angle)])
    r = 0.08
    ortho_seed = int(rng.integers(2 ** 31))

    def ortho() -> bool:
        chk = hankel.orthogonal_sum_check(
            disc, [bump(2 * c, 2 * r), bump(-2 * c, 2 * r)],
            [Ball(2 * c, 2 * r), Ball(-2 * c, 2 * r)], spacing=0.018, seed=ortho_seed)
        return chk.ok and chk.max_rel_dev <= 1e-6
    items.append(Item("orthogonal sum", ortho))

    real_sym = bump(rng.uniform(-0.35, 0.35, size=2), rng.uniform(0.4, 0.8))
    complex_sym = bump(rng.uniform(-0.35, 0.35, size=2), rng.uniform(0.4, 0.8), complex_amp())
    real_spacing = math.sqrt(math.pi / DENSE_REAL_NODES)
    items.append(Item("dense real", lambda: _frobenius_ok(
        hankel.HankelMatrix.build(disc, real_spacing, real_sym))))
    items.append(Item("dense complex", lambda: _frobenius_ok(
        hankel.HankelMatrix.build(disc, DENSE_COMPLEX_SPACING, complex_sym))))
    return Workload(warmup=items[0], items=items)


# ---------------------------------------------------------------------------
# polytope_omega: exact autocorrelations and polytope combinatorics
# ---------------------------------------------------------------------------

POINTS = {"square": 400, "triangle": 400, "cube": 200, "pyramid": 300}
V_POINTS = 40               # V-form evaluation re-derives the hull per point
MC_POINTS = 3               # per body, checked against omega_mc
MC_SAMPLES = 200_000
SIMPLICIAL_EPS = (0.2, 0.1, 0.05)


def shifted_pyramid() -> HPolytope:
    pyr = geometry.Pyramid(1.0, 1.0, dim=3).hpolytope()
    shift = np.array([0.0, 0.0, -0.3])
    return HPolytope(pyr.normals, pyr.offsets + pyr.normals @ shift)


def _points_in_doubled(P: HPolytope, ev, count: int, rng) -> np.ndarray:
    """Uniform points of 2P = P + P, where w_P is positive."""
    doubled = HPolytope(P.normals, 2.0 * P.offsets)
    lo, hi = ev.support_box()
    out = np.zeros((0, P.dim))
    while out.shape[0] < count:
        pts = rng.uniform(lo, hi, size=(4 * count, P.dim))
        out = np.vstack([out, pts[doubled.contains_batch(pts)]])
    return out[:count]


def _mc_agrees(P, x, exact: float, seeds) -> bool:
    """exact within 3 sigma of omega_mc.  A miss is confirmed with an
    independent draw before it counts, so a correct evaluator fails about
    once in 1.4e5 checks instead of once in 370."""
    for s in seeds:
        est, se = omega.omega_mc(P, x, MC_SAMPLES, seed=s)
        if abs(exact - est) <= max(3.0 * se, 1e-12):
            return True
    return False


def polytope_omega(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    bodies = {"square": geometry.unit_box(2),
              "triangle": HPolytope([[-1, 0], [0, -1], [1, 1]], [0, 0, 1]),
              "cube": geometry.unit_box(3),
              "pyramid": shifted_pyramid()}
    evals = {name: omega.OmegaEvaluator(P) for name, P in bodies.items()}
    points = {name: _points_in_doubled(P, evals[name], POINTS[name], rng)
              for name, P in bodies.items()}
    v_bodies = {name: VPolytope(geometry.vertex_enumerate(bodies[name]))
                for name in ("triangle", "pyramid")}
    v_evals = {name: omega.OmegaEvaluator(V) for name, V in v_bodies.items()}
    mc_seeds = {name: rng.integers(2 ** 31, size=(MC_POINTS, 2)).tolist()
                for name in ("triangle", "pyramid")}
    simplicial_seed = int(rng.integers(2 ** 31))

    def box_item(name, edges):
        def run() -> bool:
            w = evals[name].batch(points[name])
            ref = np.array([omega.omega_box(edges, x) for x in points[name]])
            return float(np.max(np.abs(w - ref))) <= 1e-10
        return run

    def mc_item(name):
        def run() -> bool:
            w = evals[name].batch(points[name])
            P = bodies[name]
            return bool(np.all(w > 0.0)) and all(
                _mc_agrees(P, points[name][k], w[k], mc_seeds[name][k])
                for k in range(MC_POINTS))
        return run

    def v_item(name):
        def run() -> bool:
            pts = points[name][:V_POINTS]
            w = v_evals[name].batch(pts)
            ref = np.array([omega.omega_polytope_exact(bodies[name], x) for x in pts])
            return float(np.max(np.abs(w - ref))) <= 1e-10
        return run

    def simplicial_item() -> bool:
        seq = simplicial.simplicial_sequence(bodies["pyramid"], list(SIMPLICIAL_EPS),
                                             seed=simplicial_seed)
        preds = all(a.all_checks_pass() for a in seq)
        nested = all(simplicial._hull_contains_points(seq[i].hull,
                                                      seq[i + 1].perturbation.perturbed)
                     for i in range(len(seq) - 1))
        certs = all((c.rho > 0).all() and abs(c.rho.sum() - 1) <= 1e-10
                    for a in seq for c in a.perturbation.certificates)
        return preds and nested and certs

    def polar_item() -> bool:
        P = bodies["pyramid"]
        back = geometry.polar_dual(geometry.polar_dual(P))
        verts, back_verts = geometry.vertex_enumerate(P), geometry.vertex_enumerate(back)
        involution = all(np.min(np.linalg.norm(back_verts - v, axis=1)) < 1e-9 for v in verts)
        return involution and simplicial.dual_pipeline_check(P, 0.1, seed=simplicial_seed).ok()

    items = [Item("square vs omega_box", box_item("square", [1.0, 1.0])),
             Item("cube vs omega_box", box_item("cube", [1.0, 1.0, 1.0])),
             Item("triangle vs omega_mc", mc_item("triangle")),
             Item("pyramid vs omega_mc", mc_item("pyramid")),
             Item("V-triangle vs H-form", v_item("triangle")),
             Item("V-pyramid vs H-form", v_item("pyramid")),
             Item("simplicial pyramid", simplicial_item),
             Item("polar duality pyramid", polar_item)]
    return Workload(warmup=items[0], items=items)


BUILDERS = {
    "nehari_sweep": nehari_sweep,
    "hardy_halfline": hardy_halfline,
    "hankel_spectra": hankel_spectra,
    "polytope_omega": polytope_omega,
}
