"""Discretized Hankel operators with kernel phihat(x+y) on Omega x Omega.

The matrix A[i][j] = phihat(x_i + x_j) h^n over midpoint nodes strictly
inside Omega is the integral operator with piecewise-constant kernel, so its
singular values, Schatten norms and mixed norms discretize the continuum
quantities with the quadrature weight folded in once.

`singular_values` first splits a matrix into the blocks its exact zero
pattern decouples, as for the orthogonal sums of symbols with disjoint
interaction regions.  Every such matrix is symmetric, so it reads the
spectrum of a real block from one symmetric eigensolve.  A complex block of
one phase, a complex constant times a real matrix, is rotated to real first
and takes the same eigensolve; only a block whose phase varies pays for a
full SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fourier import GridSpec, fft_convolve
from .geometry import Ball, ConvexBody, GeometryError, check_ball_interactions_disjoint
from .omega import MAX_GRID_NODES, OmegaEvaluator

SV_FLOOR_REL = 1e-12  # singular values below this times sigma_max count as zero
# imaginary part, relative to max|A|, below which a rotated matrix counts as real
ONE_PHASE_TOL = 4.0 * np.finfo(float).eps
RUSSO_SLACK = 1e-9    # relative slack of the discrete Russo bound
ORTHO_REL_TOL = 1e-6  # largest accepted spectral deviation of an orthogonal sum
MAX_MATRIX_BYTES = 1 << 29  # largest kernel matrix HankelMatrix.build gathers
HS_INTEGRAL_PTS = 400  # midpoint cells a side of the Hilbert-Schmidt integral


def schatten_norm(sv, p: float) -> float:
    """(sum sigma^p)^(1/p); p = inf gives the largest singular value."""
    if not p >= 1:                      # NaN fails too
        raise GeometryError("Schatten exponent must satisfy p >= 1")
    sv = np.asarray(sv, dtype=float)
    if sv.size == 0:
        return 0.0
    if math.isinf(p):
        return float(sv.max())
    return float(np.sum(sv ** p) ** (1.0 / p))


def conjugate_exponent(p: float) -> float:
    if p == 1:
        return math.inf
    return p / (p - 1.0)


def _inside_mask(body: ConvexBody, spacing: float) -> tuple[np.ndarray, GridSpec]:
    """Strict membership on the bounding-box midpoint grid, shaped like it;
    a grid of more than MAX_GRID_NODES nodes raises."""
    lo, hi = body.bounding_box()
    npts = tuple(int(math.ceil((hi[i] - lo[i]) / spacing)) for i in range(body.dim))
    if math.prod(npts) > MAX_GRID_NODES:
        raise GeometryError(f"spacing {spacing} gives {math.prod(npts)} grid nodes, "
                            f"above the cap of {MAX_GRID_NODES}")
    spec = GridSpec(lower=lo, upper=lo + spacing * np.array(npts), npts=npts)
    return body.contains_batch(spec.nodes()).reshape(npts), spec


def grid_nodes_inside(body: ConvexBody, spacing: float) -> tuple[np.ndarray, GridSpec]:
    """Midpoint nodes of the bounding-box grid that lie strictly inside Omega."""
    mask, spec = _inside_mask(body, spacing)
    return spec.nodes()[mask.ravel()], spec


def _symbol_on_sums(spec: GridSpec, mask: np.ndarray, spacing: float,
                    symbol) -> tuple[np.ndarray, np.ndarray]:
    """The symbol at every node sum x_k + x_l of the grid nodes in mask, once per sum.

    Node sums live at 2*lower + (k+l+1) h per axis, k+l = 0 .. 2K-2.  The
    pair counts c = mask * mask (the integer convolution of the mask, by FFT,
    rounded back to integers) mark the lattice points some pair reaches, and
    only those are evaluated.  Returns the values and the counts, both over
    the lattice in row-major order, with value 0 where no pair reaches.
    """
    weights = mask.astype(float)
    counts = np.rint(fft_convolve(weights, weights)).astype(np.int64)
    sum_axes = [2.0 * spec.lower[i] + (np.arange(2 * spec.npts[i] - 1) + 1.0) * spacing
                for i in range(spec.dim)]
    grids = np.meshgrid(*sum_axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    nz = counts.ravel() > 0
    vals = np.zeros(pts.shape[0], dtype=complex)
    vals[nz] = np.asarray(symbol(pts[nz]), dtype=complex)
    return vals, counts


def singular_values(A: np.ndarray) -> np.ndarray:
    """Nonincreasing singular values of A, solved block by block.

    A square A is split into the connected components of its symmetrised
    nonzero pattern (A != 0) | (A^T != 0), found by breadth-first search.
    Permuting rows and columns alike to those components makes A block
    diagonal; the permutation is unitary, so the spectrum is the union of
    the blocks' spectra.  The zero test is exact, so any nonzero entry
    between two index sets joins them.  A row and column with no
    off-diagonal nonzero gives |A_ii| directly, 0 for a zero row; a matrix
    that is one block is solved in place, with no copy.  Each block, and a
    non-square A whole, takes a route of _block_singular_values.
    """
    if A.shape[0] != A.shape[1]:
        return np.sort(_block_singular_values(A))[::-1]
    isolated, blocks = _connected_blocks(A)
    parts = [np.abs(A.diagonal()[isolated])]
    for idx in blocks:
        block = A if idx.size == A.shape[0] else A[np.ix_(idx, idx)]
        parts.append(_block_singular_values(block))
    return np.sort(np.concatenate(parts))[::-1]


def _connected_blocks(A: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The rows of a square A with no off-diagonal nonzero, as a mask, and
    the index sets of the connected components of the other rows in the
    pattern (A != 0) | (A^T != 0).  Each component grows from its first
    row by breadth-first search, one front of rows at a time.  The m^2
    pattern lives here only, so it is freed before any block is solved."""
    m = A.shape[0]
    nz = A != 0
    nz |= nz.T
    np.fill_diagonal(nz, False)
    unseen = nz.any(axis=0)
    isolated = ~unseen
    blocks = []
    while unseen.any():
        block = np.zeros(m, dtype=bool)
        front = np.zeros(m, dtype=bool)
        front[np.argmax(unseen)] = True
        while front.any():
            block |= front
            front = nz[front].any(axis=0) & ~block
        unseen &= ~block
        blocks.append(np.flatnonzero(block))
    return isolated, blocks


def _block_singular_values(A: np.ndarray) -> np.ndarray:
    """Singular values of A, unsorted, by one of three routes.

    - Real with A = A^T exactly: one symmetric eigensolve, sigma = |eig(A)|.
      Exact equality, unlike a closeness test, does not depend on the scale
      of A; HankelMatrix.build gathers A[i][j] and A[j][i] from one value.
    - Complex of one phase, A = u R with |u| = 1 and R real: rotated to
      R = Re(conj(u) A) and routed as real.  u is the phase of the
      largest-modulus entry; the rotation is taken when every
      |Im(conj(u) A)| <= ONE_PHASE_TOL * max|A|.  It is exact for the
      spectrum, since u I is unitary and conj(u) scales A[i][j] and A[j][i]
      alike, and by Weyl's inequality the dropped imaginary part moves each
      sigma by at most m * ONE_PHASE_TOL * max|A| <= m * ONE_PHASE_TOL * sigma_1.
      Each block of singular_values takes its own phase.
    - Everything else (a varying phase, or no exact symmetry):
      scipy.linalg.svdvals.
    """
    if np.iscomplexobj(A) and A.size:
        modulus = np.abs(A)
        k = np.argmax(modulus)
        amax = modulus.flat[k]
        u = A.flat[k] / amax if amax > 0 else 1.0
        if np.max(np.abs(u.real * A.imag - u.imag * A.real)) <= ONE_PHASE_TOL * amax:
            A = u.real * A.real + u.imag * A.imag
    if np.isrealobj(A) and np.array_equal(A, A.T):
        return np.abs(np.linalg.eigvalsh(A))
    from scipy.linalg import svdvals
    return svdvals(A)


@dataclass
class HankelMatrix:
    """Kernel matrix of a Hankel operator on PW(Omega), with cached spectrum."""

    matrix: np.ndarray
    _sv: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def build(cls, body: ConvexBody, spacing: float, symbol,
              keep: np.ndarray | None = None) -> "HankelMatrix":
        """Assemble A[i][j] = symbol(x_i + x_j) * spacing^dim.

        symbol is a callable mapping an (m, dim) array of frequency points to
        complex values.  It is evaluated once per node sum, and the matrix is
        gathered from those values.  keep, a boolean mask over the inside
        nodes, keeps only the rows/columns where the kernel can be nonzero.
        The matrix is float64 when every imaginary part is exactly zero and
        complex otherwise, however small its imaginary part.  A matrix that
        could exceed MAX_MATRIX_BYTES as complex raises before the symbol runs.
        """
        mask, spec = _inside_mask(body, spacing)
        if keep is not None:
            inside = np.flatnonzero(mask)
            mask = np.zeros_like(mask)
            mask.flat[inside[keep]] = True
        m = int(np.count_nonzero(mask))
        if 16 * m * m > MAX_MATRIX_BYTES:
            raise GeometryError(f"spacing {spacing} gives a {m} x {m} kernel matrix, "
                                f"above the cap of {MAX_MATRIX_BYTES} bytes")
        vals, counts = _symbol_on_sums(spec, mask, spacing, symbol)
        S = vals * spacing ** body.dim
        if not np.any(S.imag):
            S = S.real
        flat = np.ravel_multi_index(np.nonzero(mask), counts.shape)
        A = S[flat[:, None] + flat[None, :]]
        return cls(matrix=A)

    @property
    def singular_values(self) -> np.ndarray:
        if self._sv is None:
            self._sv = singular_values(self.matrix)
        return self._sv

    def significant_singular_values(self) -> np.ndarray:
        sv = self.singular_values
        if sv.size == 0 or sv[0] == 0.0:
            return sv[:0]
        return sv[sv > SV_FLOOR_REL * sv[0]]

    def schatten(self, p: float) -> float:
        return schatten_norm(self.singular_values, p)


# ---------------------------------------------------------------------------
# Hilbert-Schmidt identity
# ---------------------------------------------------------------------------

@dataclass
class HSCheck:
    frobenius: float
    integral: float
    rel_err: float


def hs_identity_check(body: ConvexBody, symbol, spacing: float) -> HSCheck:
    """Compare the discrete Frobenius norm with (int |phihat|^2 w)^(1/2).

    The Frobenius side never materializes the matrix: with x_i + x_j living
    on a shifted lattice, sum |A_ij|^2 equals h^{2n} sum_u |phihat(u)|^2 c(u)
    where c counts the node pairs with sum u.  The integral takes
    HS_INTEGRAL_PTS midpoint cells a side of the support of w.
    """
    n = body.dim
    mask, spec = _inside_mask(body, spacing)
    vals, counts = _symbol_on_sums(spec, mask, spacing, symbol)
    frob = math.sqrt(float(np.sum(np.abs(vals) ** 2 * counts.ravel())) * spacing ** (2 * n))

    ipts, cell, w = OmegaEvaluator(body).support_grid(HS_INTEGRAL_PTS)
    f2 = np.abs(np.asarray(symbol(ipts), dtype=complex)) ** 2
    integral = math.sqrt(float(np.sum(f2 * w)) * cell)
    rel = abs(frob - integral) / integral if integral > 0 else float(frob > 0)
    return HSCheck(frobenius=frob, integral=integral, rel_err=rel)


# ---------------------------------------------------------------------------
# Russo's mixed-norm bound
# ---------------------------------------------------------------------------

@dataclass
class RussoCheck:
    lhs: float
    rhs_mixed: float
    rhs_continuum: float
    holds: bool


def russo_bound_check(body: ConvexBody, symbol, spacing: float, p: float,
                      integral_pts: int = 400) -> RussoCheck:
    """Check ||H||_{S^p} <= ||kernel||_{p',p} <= ||phihat w^{1/p}||_{p'} discretely.

    The first inequality holds exactly for the discretized operator (the
    matrix is an integral operator with piecewise-constant kernel); the
    second is the continuum bound evaluated by quadrature with exact w.
    Requires p > 2.
    """
    if p <= 2:
        raise GeometryError("the mixed-norm bound needs p > 2")
    pc = conjugate_exponent(p)
    H = HankelMatrix.build(body, spacing, symbol)
    lhs = H.schatten(p)
    n = body.dim
    weight = spacing ** n
    kernel_abs = np.abs(H.matrix) / weight
    inner = np.sum(kernel_abs ** pc, axis=0) * weight        # over x, per y
    rhs_mixed = float(np.sum(inner ** (p / pc)) * weight) ** (1.0 / p)

    ipts, cell, w = OmegaEvaluator(body).support_grid(integral_pts)
    f = np.abs(np.asarray(symbol(ipts), dtype=complex))
    rhs_cont = float(np.sum(f ** pc * w ** (pc / p)) * cell) ** (1.0 / pc)
    holds = lhs <= min(rhs_mixed, rhs_cont) * (1.0 + RUSSO_SLACK)
    return RussoCheck(lhs=lhs, rhs_mixed=rhs_mixed, rhs_continuum=rhs_cont, holds=holds)


# ---------------------------------------------------------------------------
# orthogonal sums for symbols with disjoint interaction regions (ball bodies)
# ---------------------------------------------------------------------------

@dataclass
class OrthoCheck:
    ok: bool
    max_rel_dev: float
    block_sizes: list


def check_disjoint_interactions(body: ConvexBody, supports: list[Ball]) -> None:
    """Raise unless the regions D = Omega cap (supp - Omega) of a ball body
    Omega are pairwise disjoint, decided exactly; non-ball bodies raise."""
    check_ball_interactions_disjoint(body, supports)


def orthogonal_sum_check(body: ConvexBody, symbols: list, supports: list[Ball],
                         spacing: float, seed: int = 0) -> OrthoCheck:
    """Singular values of H_{sum phi_i} must equal the sorted multiset union
    of the individual spectra when the interaction regions are disjoint.

    The body must be a ball, where the interaction region of a support
    B(s, R) is exactly the node set within R + rho of s - c.  All operators
    are assembled on the same node cloud, restricted per symbol to its
    interaction region; entries below SV_FLOOR_REL * sigma_max are ignored
    in the comparison.  singular_values splits the union's matrix into
    blocks that are bitwise the parts' own blocks and solves them by the
    same calls, so the deviation of an exact sum is 0.0 at any BLAS thread
    count.  seed is read by nothing, since the disjointness test draws no
    points; it stays for callers that still pass it.
    """
    check_disjoint_interactions(body, supports)
    nodes, _ = grid_nodes_inside(body, spacing)
    block_masks = [np.linalg.norm(nodes - (supp.center - body.center), axis=1)
                   < body.radius + supp.radius for supp in supports]
    union_mask = np.logical_or.reduce(block_masks)

    def total_symbol(pts):
        return sum(np.asarray(s(pts), dtype=complex) for s in symbols)

    H_all = HankelMatrix.build(body, spacing, total_symbol, keep=union_mask)
    sv_all = H_all.significant_singular_values()
    parts = [HankelMatrix.build(body, spacing, sym, keep=keep).significant_singular_values()
             for sym, keep in zip(symbols, block_masks)]
    sizes = [int(np.count_nonzero(keep)) for keep in block_masks]
    sv_union = np.sort(np.concatenate(parts))[::-1]
    pad = max(sv_all.size, sv_union.size)
    a, b = (np.pad(sv, (0, pad - sv.size)) for sv in (sv_all, sv_union))
    scale = max(a[0], b[0], np.finfo(float).tiny)
    dev = float(np.max(np.abs(a - b)) / scale)
    return OrthoCheck(ok=dev <= ORTHO_REL_TOL, max_rel_dev=dev,
                      block_sizes=sizes + [int(np.count_nonzero(union_mask))])
