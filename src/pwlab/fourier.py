"""Midpoint tensor grids, smooth bump profiles, and Fourier synthesis.

Functions with compactly supported frequency data are synthesized as plain
trigonometric sums over midpoint grids, axis by axis (one inverse FFT when
the two node steps multiply to 1/N for an integer N, else the exponential
matrix itself); the spatial box for L1 norms grows by doublings until the
captured mass settles.  No windowing is needed because every frequency
function used here vanishes inside its grid box.

The full linear convolution `fft_convolve` is written on `scipy.fft` with
scipy.signal's own formulas: the numbers are scipy's, but `import pwlab`
skips `scipy.signal` and the `scipy.stats` it loads, which were half of the
package's start-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import fftn, ifft, ifftn, irfftn, next_fast_len, rfftn

from .geometry import AffineImage, Ball, ConvexBody, GeometryError


# A box integral has settled once a doubling adds less than this share of it.
L1_REL_TOL = 0.005


class ConvergenceError(RuntimeError):
    """Raised when a truncation budget is exhausted before the tolerance."""


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Uniform midpoint grid on a box: nodes x_k = lower + (k + 1/2) h."""

    lower: np.ndarray
    upper: np.ndarray
    npts: tuple
    dim: int = field(init=False)

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float).reshape(-1)
        hi = np.asarray(self.upper, dtype=float).reshape(-1)
        npts = tuple(int(m) for m in (self.npts if np.iterable(self.npts)
                                      else [self.npts] * lo.size))
        if lo.size != hi.size or len(npts) != lo.size:
            raise GeometryError("grid corner/count mismatch")
        if np.any(hi <= lo) or any(m < 1 for m in npts):
            raise GeometryError("grid box must be nondegenerate")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "npts", npts)
        object.__setattr__(self, "dim", lo.size)

    @property
    def spacing(self) -> np.ndarray:
        return (self.upper - self.lower) / np.array(self.npts, dtype=float)

    @property
    def weight(self) -> float:
        """Quadrature weight per node, prod of spacings."""
        return float(np.prod(self.spacing))

    def axis_nodes(self, i: int) -> np.ndarray:
        return self.lower[i] + (np.arange(self.npts[i]) + 0.5) * self.spacing[i]

    def nodes(self) -> np.ndarray:
        """All nodes as an (N, dim) array in row-major axis order."""
        grids = np.meshgrid(*[self.axis_nodes(i) for i in range(self.dim)],
                            indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)


@dataclass
class GridFunction:
    """Complex frequency-side samples of a function on a GridSpec.

    The data may declare the convex body supporting them, in which case
    values at nodes outside the body must vanish to 1e-14.
    """

    spec: GridSpec
    values: np.ndarray
    support: ConvexBody | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != tuple(self.spec.npts):
            raise GeometryError(f"values shape {vals.shape} != grid {self.spec.npts}")
        if not np.all(np.isfinite(vals.view(float))):
            raise GeometryError("grid function has non-finite values")
        self.values = vals
        if self.support is not None:
            outside = ~self.support.contains_batch(self.spec.nodes())
            if np.any(np.abs(vals.ravel()[outside]) > 1e-14):
                raise GeometryError("frequency data does not vanish outside its declared support")

    @classmethod
    def from_function(cls, spec: GridSpec, fn,
                      support: ConvexBody | None = None) -> "GridFunction":
        vals = np.asarray(fn(spec.nodes()), dtype=complex).reshape(spec.npts)
        return cls(spec=spec, values=vals, support=support)


# ---------------------------------------------------------------------------
# the canonical smooth bump
# ---------------------------------------------------------------------------

def smooth_step(u):
    """g(u)/(g(u)+g(1-u)) with g(s) = exp(-1/s) for s > 0: the standard
    C-infinity step, 0 for u <= 0 and 1 for u >= 1."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    lowmask, highmask = u <= 0.0, u >= 1.0
    out[lowmask], out[highmask] = 0.0, 1.0
    mid = ~(lowmask | highmask)
    um = u[mid]
    with np.errstate(over="ignore"):
        g = np.exp(-1.0 / um)
        g1 = np.exp(-1.0 / (1.0 - um))
    out[mid] = g / (g + g1)
    return out


def bump_profile(rho):
    """Radial profile of the canonical bump: 1 on [0, 1/2], 0 on [1, inf),
    smooth-step transition in between; value 1/2 at rho = 3/4 by symmetry."""
    rho = np.abs(np.asarray(rho, dtype=float))
    return smooth_step(2.0 * (1.0 - rho))


def bump_hat_batch(pts: np.ndarray, center=None, radius: float = 1.0) -> np.ndarray:
    """Vectorized bump supported on B(center, radius)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    c = np.zeros(pts.shape[1]) if center is None else np.asarray(center, dtype=float)
    return bump_profile(np.linalg.norm(pts - c, axis=1) / radius)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def scaled_ball_grid(center, radius: float, per_axis: int
                     ) -> tuple[np.ndarray, np.ndarray, float]:
    """Midpoint grid of the cube around B(center, radius), per_axis cells a side.

    Returns the nodes as a (dim, per_axis, ..., per_axis) array, their
    scaled distances |x - center| / radius, and the cell weight.
    """
    center = np.asarray(center, dtype=float).reshape(-1)
    n = center.size
    h = 2.0 / per_axis
    u = -1.0 + (np.arange(per_axis) + 0.5) * h
    grids = np.meshgrid(*([u] * n), indexing="ij")
    rho = np.sqrt(sum(g * g for g in grids))
    nodes = center.reshape((n,) + (1,) * n) + radius * np.stack(grids)
    return nodes, rho, (radius * h) ** n


# ---------------------------------------------------------------------------
# synthesis and L1 norms
# ---------------------------------------------------------------------------

def fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two arrays with the same number of axes.

    The path of scipy.signal.fftconvolve(a, b, mode="full"): on the axes where
    both inputs are longer than one, pad to next_fast_len of the full size,
    rfftn/irfftn for real inputs or fftn/ifftn for complex, then slice; the
    other axes broadcast.
    """
    a, b = np.asarray(a), np.asarray(b)
    axes = [i for i in range(a.ndim) if a.shape[i] > 1 and b.shape[i] > 1]
    if not axes:
        return a * b
    full = tuple(slice(m + n - 1) for m, n in zip(a.shape, b.shape))
    real = not (np.iscomplexobj(a) or np.iscomplexobj(b))
    fshape = [next_fast_len(full[i].stop, real) for i in axes]
    forward, inverse = (rfftn, irfftn) if real else (fftn, ifftn)
    out = inverse(forward(a, fshape, axes=axes) * forward(b, fshape, axes=axes),
                  fshape, axes=axes)
    return out[full]


def _axis_transform(F: np.ndarray, axis: int, xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Contract axis `axis` of F with the matrix exp(2 pi i t_j x_k).

    With uniform nodes x_k = x_0 + k hx, t_j = t_0 + j dt (steps from the end
    nodes) and dt hx = 1/N for an integer N >= K, the phase t_j x_k is
    t_j x_0 + (t_0/dt) k/N + j k/N: one length-N inverse DFT, read at j mod N,
    between two diagonal factors.  Other grids take the matrix itself, in row
    blocks of at most 2^21 entries.
    """
    K, M = xs.size, ts.size
    if K > 1 and M > 1:
        hx = (xs[-1] - xs[0]) / (K - 1)
        dt = (ts[-1] - ts[0]) / (M - 1)
        N = round(1.0 / (dt * hx))
        # 1/N stands in for dt hx, which moves the phase of entry (j, k) by
        # j k |N dt hx - 1| cycles: only a rounding-level mismatch is allowed
        if N >= K and abs(N * dt * hx - 1.0) <= 16 * np.finfo(float).eps:
            pre = np.exp(2j * np.pi * (ts[0] / dt) * np.arange(K) / N)
            S = ifft(np.moveaxis(F, axis, -1) * pre, n=N, norm="forward")
            out = S[..., np.arange(M) % N] * np.exp(2j * np.pi * ts * xs[0])
            return np.moveaxis(out, -1, axis)
    rows = max(1, (1 << 21) // K)
    out = np.concatenate([np.tensordot(np.exp(2j * np.pi * np.outer(ts[i:i + rows], xs)),
                                       F, axes=(1, axis)) for i in range(0, M, rows)])
    return np.moveaxis(out, 0, axis)


def synthesize_on_grid(fhat: GridFunction, spatial: GridSpec) -> np.ndarray:
    """Evaluate f(t) = sum_k fhat(x_k) e^{+2 pi i <x_k, t>} h^n on a spatial grid.

    Separable: one uniform-node transform per axis, applied in turn.
    """
    n = fhat.spec.dim
    if spatial.dim != n:
        raise GeometryError("spatial grid dimension mismatch")
    F = fhat.values * fhat.spec.weight
    for axis in range(n):
        F = _axis_transform(F, axis, fhat.spec.axis_nodes(axis),
                            spatial.axis_nodes(axis))
    return F


def _l1_by_doubling(box_total, halfwidth: float, half_period: float,
                   max_doublings: int) -> tuple[float, float]:
    """Grow a box integral by doublings of its half-width until it settles.

    box_total(L) is the integral over the box of half-width L.  The loop
    stops once the increment over the previous box falls below L1_REL_TOL
    of the total and returns (total, increment).  Trig sums are periodic, so a
    box beyond the alias half period would integrate alias copies instead of
    tails; that, a non-finite total and an exhausted budget raise
    ConvergenceError.
    """
    L = float(halfwidth)
    prev = None
    for _ in range(max_doublings + 1):
        if L > half_period * (1.0 + 1e-9):
            raise ConvergenceError(
                f"box half-width {L:.3g} exceeds the alias half period {half_period:.3g}; "
                "refine the frequency grid")
        total = box_total(L)
        if not math.isfinite(total):
            raise ConvergenceError("box integral is not finite")
        if prev is not None:
            increment = total - prev
            if increment < L1_REL_TOL * total:
                return total, max(increment, 0.0)
        prev = total
        L *= 2.0
    raise ConvergenceError(
        f"L1 box integral did not settle within {max_doublings} doublings "
        f"(last value {prev:.6g})")


def synthesize_l1(fhat: GridFunction, box_halfwidth: float, points_per_unit: float = 20.0,
                  max_doublings: int = 4) -> tuple[float, float]:
    """L1 norm of the synthesized f over [-L, L]^n, L doubled until the
    increment falls below L1_REL_TOL of the accumulated mass.

    Returns (box integral, tail estimate); the tail estimate is the last
    increment.  Raises ConvergenceError if max_doublings is exhausted first.
    """
    n = fhat.spec.dim
    maxfreq = float(np.max(np.abs(np.concatenate([fhat.spec.lower, fhat.spec.upper]))))
    ppu = max(points_per_unit, 8.0 * max(maxfreq, 0.25))

    def box_total(L: float) -> float:
        m = int(math.ceil(2 * L * ppu))
        spatial = GridSpec(lower=-L * np.ones(n), upper=L * np.ones(n), npts=(m,) * n)
        return float(np.sum(np.abs(synthesize_on_grid(fhat, spatial))) * spatial.weight)

    half_period = 0.5 / float(np.max(fhat.spec.spacing))
    return _l1_by_doubling(box_total, box_halfwidth, half_period, max_doublings)


def dilate_toward(fhat: GridFunction, z, r: float) -> GridFunction:
    """Frequency data of f_r, where fhat_r(x) = fhat((x - 2(1-r)z)/r).

    The grid maps affinely, so the samples are reused exactly; the spatial L1
    norm is invariant analytically.  Support contracts toward z: the new
    support is r * old + 2(1-r) z.
    """
    if not (0.0 < r < 1.0):
        raise GeometryError("dilation parameter must lie in (0, 1)")
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.size != fhat.spec.dim:
        raise GeometryError("dilation center dimension mismatch")
    shift = 2.0 * (1.0 - r) * z
    spec = GridSpec(lower=r * fhat.spec.lower + shift,
                    upper=r * fhat.spec.upper + shift,
                    npts=fhat.spec.npts)
    support = fhat.support
    if isinstance(support, Ball):
        support = Ball(r * support.center + shift, r * support.radius)
    elif support is not None:
        support = AffineImage(base=support, matrix=r * np.eye(fhat.spec.dim),
                              shift=shift)
    return GridFunction(spec=spec, values=fhat.values.copy(), support=support)
