"""The shrinking-bump counterexample machinery on the unit disc.

Boundary points are packed at mutual distance > 2 eps, bump symbols of radius
r = C1 eps^2 are planted at x_i = (1 - C eps^2) y_i, and the ratio

    sum_i ||phihat_i||_2^2  /  ( ||psi_N||_1 * (sum_i ||phihat_i w^(1/p)||_p'^p)^(1/p) )

is swept over eps.  Its growth in N for p above the critical exponent is the
finite-size echo of the failure of bounded-symbol extension; below it the
ratio decays.

Every discretized bump shares one local frequency grid translated to its
center 2 x_i, so the synthesized sum factors exactly as psi(t) = E(t) S(t)
with a common envelope E and the phase sum S(t) = sum_i e^{2 pi i <2 x_i, t>}.
The L1 norm is integrated by a two-scale rule: cells on the envelope scale,
and inside each cell seeded uniform samples for the oscillatory |S|, as many
as the cell's mean |E| calls for (at least one), so the m x N phase sum is
evaluated where the envelope carries the integral.

Both factors are evaluated in real arithmetic.  The local offsets are
symmetric and the bump is even in each axis, so E is a real cosine sum over
the non-negative half of the offset grid (off-centre offsets weighted by 2).
Those offsets are uniform, so each axis's cosines follow from one
angle-addition rotation per point, and one real matrix product combines the
two axes.  S is the cosine sum plus i times the sine sum of one real phase
matrix 2 pi t . 2 x_i.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import hankel
from .calibration import DEFAULT_CALIBRATION
from .fourier import GridSpec, _l1_by_doubling, bump_hat_batch, bump_profile
from .geometry import Ball, GeometryError, check_ball_interactions_disjoint
from .omega import disc_lens, disc_sup_on_ball

# Fixed quadrature of the sweep, not options.  The local frequency grid of a
# bump has LOCAL_GRID_POINTS nodes a side over SUPPORT_PAD times its support;
# the two-scale L1 rule starts at ENVELOPE_HALFWIDTH envelope units with
# ENVELOPE_CELLS cells a side, ENVELOPE_SAMPLES seeded samples a cell on
# average over the first box, placed where the envelope is, and at most
# ENVELOPE_DOUBLINGS doublings of the box.
LOCAL_GRID_POINTS = 69
SUPPORT_PAD = 1.05
ENVELOPE_CELLS = 48         # a multiple of 4: the previous box's edges are cell edges
ENVELOPE_SAMPLES = 8
ENVELOPE_HALFWIDTH = 8.0
ENVELOPE_DOUBLINGS = 4
DENOMINATOR_PTS = 128       # midpoint cells a side for the denominator term
BUMP_RULE = np.polynomial.legendre.leggauss(80)  # Gauss-Legendre on [-1, 1]


@dataclass(frozen=True)
class NehariConfig:
    p: float
    epsilons: tuple = (0.4, 0.3, 0.2, 0.15, 0.1, 0.07, 0.05)
    seed: int = 7
    calibration = DEFAULT_CALIBRATION   # not a field: every sweep has these constants

    def __post_init__(self):
        if not self.p >= 1:             # NaN fails too
            raise GeometryError("Schatten exponent must satisfy p >= 1")
        bad = [e for e in self.epsilons if not (0 < e < DEFAULT_CALIBRATION.eps0)]
        if bad:
            raise GeometryError(f"eps values {bad} outside the calibrated regime "
                                f"(eps0 = {DEFAULT_CALIBRATION.eps0})")


def pack_boundary_disc(eps: float) -> np.ndarray:
    """Equally spaced unit vectors with neighbor chords strictly above 2 eps.

    Starts from floor(pi / arcsin(eps)) points and decrements until the chord
    2 sin(pi/N) clears 2 eps strictly.
    """
    if not (0 < eps < 1):
        raise GeometryError("packing needs eps in (0, 1)")
    N = int(math.floor(math.pi / math.asin(eps)))
    while N > 1 and 2.0 * math.sin(math.pi / N) <= 2.0 * eps:
        N -= 1
    angles = 2.0 * np.pi * np.arange(N) / N
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


@dataclass
class BumpFamily:
    """N translated copies of one local-grid bump, phihat_i(x) = phi((x-2x_i)/2r)."""

    eps: float
    r: float
    boundary_points: np.ndarray   # y_i on the unit circle
    centers: np.ndarray           # x_i = (1 - C eps^2) y_i
    freq_centers: np.ndarray      # 2 x_i
    local_grid: GridSpec          # offsets from a centre, over SUPPORT_PAD times a support
    values: np.ndarray            # bump samples on the local grid

    @property
    def count(self) -> int:
        return self.centers.shape[0]

    @property
    def support_radius(self) -> float:
        return 2.0 * self.r

    def supports(self) -> list[Ball]:
        return [Ball(c, self.support_radius) for c in self.freq_centers]

    def symbol(self, i: int):
        c, R = self.freq_centers[i], self.support_radius
        return lambda pts: bump_hat_batch(pts, center=c, radius=R)


def build_bumps(y_list: np.ndarray, eps: float, C: float, C1: float,
                local_grid_points: int = LOCAL_GRID_POINTS) -> BumpFamily:
    """Plant one bump per boundary point; raises if a support leaves 2 Omega
    or if two supports touch."""
    y = np.atleast_2d(np.asarray(y_list, dtype=float))
    r = C1 * eps * eps
    centers = (1.0 - C * eps * eps) * y
    freq_centers = 2.0 * centers
    R = 2.0 * r
    reach = np.linalg.norm(freq_centers, axis=1) + R
    if np.any(reach >= 2.0):
        raise GeometryError("bump support exits 2 Omega; calibration violated")
    if y.shape[0] > 1:
        dist = np.linalg.norm(freq_centers[:, None, :] - freq_centers[None, :, :], axis=2)
        np.fill_diagonal(dist, np.inf)
        if dist.min() <= 2.0 * R:
            raise GeometryError("bump supports overlap")
    n = y.shape[1]
    grid = GridSpec(lower=[-SUPPORT_PAD * R] * n, upper=[SUPPORT_PAD * R] * n,
                    npts=local_grid_points)
    values = bump_profile(np.linalg.norm(grid.nodes(), axis=1) / R).reshape(grid.npts)
    return BumpFamily(eps=eps, r=r, boundary_points=y, centers=centers,
                      freq_centers=freq_centers, local_grid=grid, values=values)


# ---------------------------------------------------------------------------
# two-scale L1 integration of the modulated bump sum
# ---------------------------------------------------------------------------

def _envelope_at(points: np.ndarray, family: BumpFamily) -> np.ndarray:
    """E(t) = sum_k v_k e^{2 pi i <xi_k, t>} * h^n at an (m, 2) array of t.

    The offsets are symmetric and the bump is even in each axis, so E is the
    real sum of v_kl cos(2 pi t_1 xi_k) cos(2 pi t_2 xi_l) over the
    non-negative offsets, each off-centre offset weighted by 2.  Each axis's
    cosines come from `_uniform_cosines`; one real GEMM and a contraction
    over the offsets finish the sum.
    """
    grid = family.local_grid
    K = grid.npts[0]
    half = slice(K // 2, None)
    w = np.full(K - K // 2, 2.0)
    if K % 2:
        w[0] = 1.0                                  # the centre offset is its own mirror
    c1 = _uniform_cosines(2.0 * np.pi * points[:, 0], grid.axis_nodes(0)[half])
    c2 = _uniform_cosines(2.0 * np.pi * points[:, 1], grid.axis_nodes(1)[half])
    v = w[:, None] * family.values[half, half] * w[None, :]
    return np.einsum("jp,jp->p", v.T @ c1, c2) * grid.weight


def _uniform_cosines(angles: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """The (J, m) matrix cos(angles_p xi_j) for uniform xi_j = xi_0 + j h.

    One rotation per point steps e^{i angles xi_j} to e^{i angles xi_{j+1}}
    by the angle-addition pair (a complex product), so a point costs four
    transcendentals instead of J.  The step is h = (xi_{J-1} - xi_0) / (J - 1):
    the phase multiplies the rounding of h by j, and that of xi_1 - xi_0 would
    be J times larger.  Against the direct complex sum the envelope is then
    within 2e-15 of max|E| at K = 69; the three-term Chebyshev recurrence
    c_{j+1} = 2 cos(angles h) c_j - c_{j-1} was 1.1e-14 off.
    """
    h = (xi[-1] - xi[0]) / max(xi.size - 1, 1)
    z = np.exp(1j * (angles * xi[0]))
    rot = np.exp(1j * (angles * h))
    out = np.empty((xi.size, angles.size))
    out[0] = z.real
    for j in range(1, xi.size):
        z *= rot
        out[j] = z.real
    return out


def _phase_sum_at(points: np.ndarray, freq_centers: np.ndarray) -> np.ndarray:
    """S(t) = sum_i e^{2 pi i <c_i, t>} from the cosines and sines of one
    real phase matrix.

    Scaling the points by 2 pi before the product rounds the phases exactly
    as the complex form exp((2 pi i t) @ c^T) does.
    """
    ph = (2.0 * np.pi * points) @ freq_centers.T
    return np.cos(ph).sum(axis=1) + 1j * np.sin(ph).sum(axis=1)


def _stratum_counts(family: BumpFamily, base: np.ndarray, cell_w: float,
                    scale: float | None = None) -> tuple[np.ndarray, float]:
    """Samples per cell [base, base + cell_w]^2: max(1, round(scale * ebar)),
    with ebar the mean |E| at the cell's 2x2 sub-cell midpoints.

    Without a scale, one is chosen so that the counts average
    ENVELOPE_SAMPLES a cell before rounding; returns (counts, scale).  The
    counts depend on the family alone, never on the draws or on `which`.
    """
    sub = GridSpec(lower=[0.0, 0.0], upper=[cell_w, cell_w], npts=2).nodes()
    probes = (base[:, None, :] + sub[None, :, :]).reshape(-1, 2)
    ebar = np.abs(_envelope_at(probes, family)).reshape(base.shape[0], -1).mean(axis=1)
    if scale is None:
        scale = ENVELOPE_SAMPLES * ebar.size / ebar.sum()
    return np.maximum(1, np.rint(scale * ebar)).astype(np.int64), scale


def modulated_sum_l1(family: BumpFamily, which: np.ndarray | None = None,
                     seed: int = NehariConfig.seed) -> tuple[float, float]:
    """L1 norm of the synthesized psi = sum_i phi_i by stratified two-scale
    quadrature; returns (integral, tail estimate from the last doubling).

    Each cell of a box is a stratum: its mean of |E S| over seeded uniform
    samples, times its area, summed over cells.  The samples follow the
    envelope (Neyman allocation with |E| for the spread): the first box
    fixes the scale that gives its cells ENVELOPE_SAMPLES samples on
    average, and each doubling shell reuses that scale, so cells where |E|
    is negligible get one sample.

    The box halfwidth is measured in envelope units u = 2r t and doubled
    until the increment drops below fourier.L1_REL_TOL.  The discrete
    envelope is periodic with period K / (2 pad) in those units, so the box
    may never exceed the half period K / (4 pad): 16.4 at K = 69 and 23.6 at
    K = 99.  From ENVELOPE_HALFWIDTH = 8 at most two boxes fit, and
    ENVELOPE_DOUBLINGS never binds at these grids; a finer local grid buys
    more room.
    """
    centers = family.freq_centers if which is None else family.freq_centers[which]
    spacing_u = family.local_grid.spacing[0] / family.support_radius
    rng = np.random.default_rng(seed)
    total = 0.0
    scale = None

    def box_total(U: float) -> float:
        nonlocal total, scale
        T = U / family.support_radius
        edges = np.linspace(-T, T, ENVELOPE_CELLS + 1)
        cell_w = edges[1] - edges[0]
        lo1, lo2 = np.meshgrid(edges[:-1], edges[:-1], indexing="ij")
        base = np.stack([lo1.ravel(), lo2.ravel()], axis=1)
        if scale is not None:
            # only the shell outside the previous box; quarters align exactly
            inner = np.all((base >= -T / 2 - 1e-12 * T)
                           & (base + cell_w <= T / 2 + 1e-12 * T), axis=1)
            base = base[~inner]
        counts, scale = _stratum_counts(family, base, cell_w, scale)
        pts = (np.repeat(base, counts, axis=0)
               + rng.uniform(0.0, cell_w, size=(int(counts.sum()), 2)))
        vals = np.abs(_envelope_at(pts, family) * _phase_sum_at(pts, centers))
        cell_sums = np.add.reduceat(vals, np.cumsum(counts) - counts)
        total += float(np.sum(cell_sums / counts) * cell_w ** 2)
        return total

    return _l1_by_doubling(box_total, ENVELOPE_HALFWIDTH, 0.5 / spacing_u, ENVELOPE_DOUBLINGS)


# ---------------------------------------------------------------------------
# the Eq.-style ratio and the sweep
# ---------------------------------------------------------------------------

def reference_bump_power_integral(power: float) -> float:
    """int_{B(0,1)} phi(|u|)^power du for the unit-scale bump.  phi is 1 on
    [0, 1/2], so this is 2 pi (1/8 + int_{1/2}^1 phi(s)^power s ds); the
    fixed 80-node Gauss-Legendre rule BUMP_RULE takes the second term."""
    nodes, weights = BUMP_RULE
    s = 0.75 + 0.25 * nodes
    return 2.0 * math.pi * (0.125 + 0.25 * float(weights @ (bump_profile(s) ** power * s)))


def bump_sup_omega(family: BumpFamily) -> float:
    """Exact sup of the disc autocorrelation over a bump support."""
    return disc_sup_on_ball(float(np.linalg.norm(family.freq_centers[0])),
                            family.support_radius)


def denominator_term(family: BumpFamily, p: float) -> float:
    """||phihat_1 w^(1/p)||_{p'}^p by the midpoint rule with DENOMINATOR_PTS
    cells a side on the square about the first support, with the
    closed-form disc autocorrelation as the weight."""
    pc = hankel.conjugate_exponent(p)
    R = family.support_radius
    grid = GridSpec(lower=[-1.0, -1.0], upper=[1.0, 1.0], npts=DENOMINATOR_PTS)
    u = grid.nodes()                                 # x = 2 x_1 + R u
    w = disc_lens(np.linalg.norm(family.freq_centers[0] + R * u, axis=1))
    integrand = bump_profile(np.linalg.norm(u, axis=1)) ** pc * w ** (pc / p)
    inner = float(np.sum(integrand) * (R * float(grid.spacing[0])) ** 2)
    return inner ** (p / pc)


def check_interaction_disjointness(family: BumpFamily) -> None:
    """Raise unless the regions D_i = Omega cap (supp_i - Omega) on the unit
    disc are pairwise disjoint, by the exact three-ball test of geometry."""
    check_ball_interactions_disjoint(Ball(np.zeros(2), 1.0), family.supports())


@dataclass
class SweepRow:
    eps: float
    N: int
    r: float
    numerator: float
    psi_l1: float
    psi_l1_tail: float
    schatten_proxy: float
    ratio: float
    a_max: float
    min_pair_distance: float

    def as_dict(self) -> dict:
        return asdict(self)


def eq5_ratio(config: NehariConfig, eps: float, check_disjointness: bool = True) -> SweepRow:
    """One row of the counterexample ratio at a given eps.

    The numerator uses the exact scaling ||phihat_i||_2^2 = (2r)^n ||phi||_2^2;
    the L1 norm comes from the two-scale integral of |E S|; the Schatten proxy
    is (N ||phihat_1 w^(1/p)||_{p'}^p)^(1/p) with all N terms equal by the
    rotational symmetry of the construction.
    """
    cal = DEFAULT_CALIBRATION
    y = pack_boundary_disc(eps)
    family = build_bumps(y, eps, cal.containment_c, cal.bump_c1)
    N = family.count
    if check_disjointness:
        check_interaction_disjointness(family)
    numerator = N * family.support_radius ** 2 * reference_bump_power_integral(2)
    psi_l1, tail = modulated_sum_l1(family, seed=config.seed)
    term = denominator_term(family, config.p)
    proxy = (N * term) ** (1.0 / config.p)
    a_max = bump_sup_omega(family)
    if a_max > cal.omega_c2 * eps ** 3:
        raise GeometryError("sup of w over a bump support exceeds the calibrated C2 eps^3")
    pc = hankel.conjugate_exponent(config.p)
    v_bump = family.support_radius ** 2 * reference_bump_power_integral(pc)
    bound_term = a_max * v_bump ** (config.p / pc)
    if term > bound_term * (1.0 + 1e-9):
        raise GeometryError("denominator term exceeds its analytic ceiling")
    dists = np.linalg.norm(y[:, None, :] - y[None, :, :], axis=2)
    np.fill_diagonal(dists, np.inf)
    ratio = numerator / (psi_l1 * proxy)
    return SweepRow(eps=eps, N=N, r=family.r, numerator=numerator, psi_l1=psi_l1,
                    psi_l1_tail=tail, schatten_proxy=proxy, ratio=ratio,
                    a_max=a_max, min_pair_distance=float(dists.min()))


@dataclass
class SweepReport:
    config: NehariConfig
    rows: list
    slope: float
    intercept: float
    orthogonality: hankel.OrthoCheck | None = None

    def as_dict(self) -> dict:
        doc = {
            "p": self.config.p,
            "epsilons": list(self.config.epsilons),
            "seed": self.config.seed,
            "calibration": DEFAULT_CALIBRATION.as_dict(),
            "grid": {
                "local_grid_points": LOCAL_GRID_POINTS,
                "support_pad": SUPPORT_PAD,
                "envelope_cells": ENVELOPE_CELLS,
                "envelope_samples": ENVELOPE_SAMPLES,
                "envelope_halfwidth": ENVELOPE_HALFWIDTH,
                "denominator_pts": DENOMINATOR_PTS,
            },
            "rows": [row.as_dict() for row in self.rows],
            "log_ratio_vs_log_N_slope": self.slope,
            "intercept": self.intercept,
        }
        if self.orthogonality is not None:
            doc["orthogonality_check"] = {
                "ok": self.orthogonality.ok,
                "max_rel_dev": self.orthogonality.max_rel_dev,
                "block_sizes": self.orthogonality.block_sizes,
            }
        return doc


def orthogonality_spot_check(eps: float) -> hankel.OrthoCheck:
    """Delegate the orthogonal-sum law to the Hankel module for two antipodal
    bumps of the eps family, at a third of the bump radius r."""
    cal = DEFAULT_CALIBRATION
    y = pack_boundary_disc(eps)
    family = build_bumps(y, eps, cal.containment_c, cal.bump_c1)
    pick = np.array([0, family.count // 2])
    supports = [family.supports()[i] for i in pick]
    symbols = [family.symbol(i) for i in pick]
    body = Ball(np.zeros(2), 1.0)
    return hankel.orthogonal_sum_check(body, symbols, supports, family.r / 3.0)


def sweep_and_fit(config: NehariConfig, check_disjointness: bool = True,
                  orthogonality_eps: float | None = None) -> SweepReport:
    """Run eq5_ratio over the eps list and fit log ratio against log N.

    The fit needs at least 4 distinct N; the packing counts them before any
    row is computed.  The orthogonality spot check, which draws nothing,
    runs before the rows too, so a grid it refuses fails the sweep at once.
    """
    counts = sorted({pack_boundary_disc(eps).shape[0] for eps in config.epsilons})
    if len(counts) < 4:
        raise GeometryError(f"need at least 4 distinct N for a slope fit, "
                            f"the eps list gives N in {counts}")
    ortho = None
    if orthogonality_eps is not None:
        ortho = orthogonality_spot_check(orthogonality_eps)
    rows = [eq5_ratio(config, eps, check_disjointness=check_disjointness)
            for eps in config.epsilons]
    logN = np.log([row.N for row in rows])
    logR = np.log([row.ratio for row in rows])
    slope, intercept = np.polyfit(logN, logR, 1)
    return SweepReport(config=config, rows=rows, slope=float(slope),
                       intercept=float(intercept), orthogonality=ortho)