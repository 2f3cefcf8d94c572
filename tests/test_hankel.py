import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import svdvals

from pwlab import checks, hankel
from pwlab.fourier import bump_hat_batch
from pwlab.geometry import BUILTIN_BODIES, Ball, GeometryError, unit_box
from pwlab.hankel import (
    HankelMatrix,
    conjugate_exponent,
    grid_nodes_inside,
    hs_identity_check,
    orthogonal_sum_check,
    russo_bound_check,
    schatten_norm,
)


def centered_bump(center, radius):
    c = np.asarray(center, dtype=float)
    return lambda pts: bump_hat_batch(pts, center=c, radius=radius)


class TestSchattenNorm:
    def test_pythagoras(self):
        assert schatten_norm([3.0, 4.0], 2) == 5.0

    def test_identity_matrix(self):
        for p in (1, 2, 3, 7):
            assert abs(schatten_norm(np.ones(6), p) - 6 ** (1 / p)) < 1e-12

    def test_rank_one(self, rng):
        u = rng.normal(size=5)
        v = rng.normal(size=5)
        sv = np.linalg.svd(np.outer(u, v), compute_uv=False)
        expected = np.linalg.norm(u) * np.linalg.norm(v)
        for p in (1, 2, 4):
            assert abs(schatten_norm(sv[sv > 1e-12 * sv[0]], p) - expected) < 1e-9

    def test_monotone_in_p(self, rng):
        sv = np.sort(rng.uniform(0.1, 2, size=10))[::-1]
        vals = [schatten_norm(sv, p) for p in (1, 1.5, 2, 4, 16, math.inf)]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_p_below_one_rejected(self):
        with pytest.raises(GeometryError):
            schatten_norm([1.0], 0.5)

    def test_nan_p_rejected(self):
        with pytest.raises(GeometryError, match="p >= 1"):
            schatten_norm([1.0], math.nan)

    def test_conjugate(self):
        assert conjugate_exponent(2.0) == 2.0
        assert conjugate_exponent(1.0) == math.inf
        assert abs(conjugate_exponent(6.0) - 1.2) < 1e-15


def pairwise_oracle(body, spacing, symbol, keep=None):
    """The kernel matrix by one symbol call per node pair, in row chunks:
    A[i][j] = symbol(x_i + x_j) * spacing^dim, real when its imaginary part
    is exactly 0."""
    nodes, _ = grid_nodes_inside(body, spacing)
    if keep is not None:
        nodes = nodes[keep]
    m = nodes.shape[0]
    A = np.empty((m, m), dtype=complex)
    chunk = max(1, int(2e6 // max(m, 1)))
    for start in range(0, m, chunk):
        block = nodes[start:start + chunk, None, :] + nodes[None, :, :]
        vals = np.asarray(symbol(block.reshape(-1, body.dim)), dtype=complex)
        A[start:start + chunk] = vals.reshape(-1, m) * spacing ** body.dim
    if not np.any(A.imag):
        A = A.real.astype(float)
    return A


# body, spacing, and a symbol centre inside the body's sum set 2*Omega
BUILD_CASES = {
    "disc": ("ball2", 0.07, [0.2, -0.1]),
    "square": ("square", 0.05, [1.1, 0.9]),
    "triangle": ("triangle", 0.04, [0.6, 0.5]),
    "ball3": ("ball3", 0.25, [0.1, 0.2, -0.1]),
}


def case_symbol(center, kind):
    center = np.asarray(center, dtype=float)
    bump = centered_bump(center, 0.8)
    if kind == "real":
        return bump
    if kind == "tiny phase":
        # an imaginary part far below any absolute tolerance must survive
        return lambda p: np.exp(1e-6j * p[:, 0]) * bump(p)
    # a phase that varies over the frequency plane, not one shared phase
    freq = np.arange(1.0, center.size + 1.0)
    return lambda p: np.exp(1j * (p @ freq)) * bump(p)


class TestMatrixBuild:
    @pytest.mark.parametrize("case", sorted(BUILD_CASES))
    @pytest.mark.parametrize("kind", ["real", "complex", "tiny phase"])
    @pytest.mark.parametrize("subset", ["all", "random keep"])
    def test_matches_pairwise_oracle(self, case, kind, subset):
        name, spacing, center = BUILD_CASES[case]
        body = BUILTIN_BODIES[name]()
        sym = case_symbol(center, kind)
        keep = None
        if subset != "all":
            m = grid_nodes_inside(body, spacing)[0].shape[0]
            keep = np.random.default_rng(sorted(BUILD_CASES).index(case)).random(m) < 0.4
        H = HankelMatrix.build(body, spacing, sym, keep=keep)
        ref = pairwise_oracle(body, spacing, sym, keep)
        assert H.matrix.dtype == ref.dtype
        assert H.matrix.dtype == (np.float64 if kind == "real" else np.complex128)
        assert H.matrix.shape == ref.shape and ref.shape[0] > 50
        assert np.max(np.abs(H.matrix - ref)) <= 1e-13 * np.max(np.abs(ref))
        nodes, _ = grid_nodes_inside(body, spacing)
        assert np.array_equal(H.nodes, nodes if keep is None else nodes[keep])

    @pytest.mark.parametrize("case", sorted(BUILD_CASES))
    def test_symbol_sees_each_reached_sum_once(self, case):
        name, spacing, center = BUILD_CASES[case]
        body = BUILTIN_BODIES[name]()
        seen = []

        def counting_symbol(pts):
            seen.append(np.array(pts))
            return centered_bump(center, 0.8)(pts)
        H = HankelMatrix.build(body, spacing, counting_symbol)
        nodes, spec = grid_nodes_inside(body, spacing)
        pts = np.concatenate(seen)
        # lattice index of a sum: x_k + x_l = 2 lower + (k + l + 1) h
        lattice = lambda x: np.rint((x - 2.0 * spec.lower) / spacing - 1.0).astype(int)
        evaluated = lattice(pts)
        pair_sums = lattice((nodes[:, None, :] + nodes[None, :, :]).reshape(-1, body.dim))
        reached = np.unique(pair_sums, axis=0)
        assert len(seen) == 1
        assert np.unique(evaluated, axis=0).shape[0] == evaluated.shape[0]
        assert np.array_equal(np.unique(evaluated, axis=0), reached)
        assert pts.shape[0] <= math.prod(2 * k - 1 for k in spec.npts)
        assert pts.shape[0] < H.matrix.size

    def test_symmetry(self, disc):
        H = HankelMatrix.build(disc, 0.2, centered_bump([0, 0], 0.8))
        assert np.allclose(H.matrix, H.matrix.T)

    def test_frobenius_matches_schatten_two(self, disc):
        H = HankelMatrix.build(disc, 0.12, centered_bump([0.2, 0.1], 0.7))
        frob2 = float(np.sum(np.abs(H.matrix) ** 2))
        assert abs(schatten_norm(H.singular_values, 2) ** 2 - frob2) <= 1e-8 * frob2

    def test_complex_symbol(self, disc):
        sym = lambda p: (1 + 0.5j) * bump_hat_batch(p, center=[0.1, 0.0], radius=0.6)
        H = HankelMatrix.build(disc, 0.2, sym)
        sv = H.singular_values
        assert np.all(sv >= 0) and np.all(np.diff(sv) <= 1e-14)

    def test_refuses_a_matrix_above_the_byte_cap(self, disc):
        # the symbol raises if it ever runs, so a broken guard stops before
        # the lattice values and the gather instead of allocating
        def reached(pts):
            raise AssertionError("the symbol ran")

        m = grid_nodes_inside(disc, 0.02)[0].shape[0]
        assert 16 * m * m > hankel.MAX_MATRIX_BYTES
        with pytest.raises(GeometryError, match=f"spacing 0.02 gives a {m} x {m} kernel matrix"):
            HankelMatrix.build(disc, 0.02, reached)
        # the cap counts the kept nodes only
        keep = np.zeros(m, dtype=bool)
        keep[:100] = True
        H = HankelMatrix.build(disc, 0.02, centered_bump([0.0, 0.0], 0.5), keep=keep)
        assert H.matrix.shape == (100, 100)

    def test_refuses_a_grid_above_the_node_cap(self, disc, monkeypatch):
        def reached(*args, **kwargs):
            raise AssertionError("the grid was about to be built")

        monkeypatch.setattr(hankel, "GridSpec", reached)
        for call in (lambda: grid_nodes_inside(disc, 1e-4),
                     lambda: hs_identity_check(disc, centered_bump([0.0, 0.0], 0.5), 1e-4),
                     lambda: HankelMatrix.build(disc, 1e-4, centered_bump([0.0, 0.0], 0.5))):
            with pytest.raises(GeometryError, match=r"spacing 0.0001 gives \d+ grid nodes, "
                                                    r"above the cap of 4194304"):
                call()


class TestSingularValues:
    @pytest.fixture(scope="class")
    def A0(self):
        return HankelMatrix.build(BUILTIN_BODIES["ball2"](), 0.1,
                                  centered_bump([0.0, 0.0], 0.8)).matrix

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(theta=st.floats(0.0, 2 * math.pi, exclude_max=True),
           log_lam=st.floats(-9.0, 9.0))
    @example(theta=math.pi / 2, log_lam=-7.0)
    def test_scale_and_phase(self, A0, theta, log_lam):
        # sigma(lam e^{i theta} A0) = lam sigma(A0), at every scale of the body
        lam = 10.0 ** log_lam
        ref = hankel.singular_values(A0)
        got = hankel.singular_values(lam * np.exp(1j * theta) * A0)
        assert np.max(np.abs(got - lam * ref)) <= 1e-13 * lam * ref[0]

    def test_small_nonsymmetric_matrix(self, rng):
        A = 1e-9 * rng.normal(size=(50, 50))
        ref = svdvals(A)
        assert np.max(np.abs(hankel.singular_values(A) - ref)) <= 1e-13 * ref[0]

    def test_empty_and_zero(self):
        for dtype in (float, complex):
            assert hankel.singular_values(np.zeros((0, 0), dtype=dtype)).size == 0
            sv = hankel.singular_values(np.zeros((4, 4), dtype=dtype))
            assert sv.shape == (4,) and np.all(sv == 0.0)

    @pytest.mark.parametrize("phase", [[0.0, 0.0], [3.0, -2.0]],
                             ids=["one phase", "varying phase"])
    def test_complex_spectrum_matches_svdvals(self, disc, phase):
        bump = centered_bump([0.6, 0.2], 0.5)
        sym = lambda p: (0.6 - 0.8j) * np.exp(1j * (p @ np.array(phase))) * bump(p)
        A = HankelMatrix.build(disc, 0.05, sym).matrix
        ref = svdvals(A)
        assert A.dtype == np.complex128 and A.shape[0] > 1000
        assert np.max(np.abs(hankel.singular_values(A) - ref)) <= 1e-13 * ref[0]


# sizes of the blocks of block_matrix, and of its zero and diagonal-only rows
BLOCK_SIZES = (40, 2, 25, 60)
ZERO_ROWS = 3
DIAGONAL_ROWS = 4


def block_matrix(rng, kind):
    """A matrix that is block diagonal after a random symmetric permutation:
    blocks of BLOCK_SIZES, ZERO_ROWS zero rows and DIAGONAL_ROWS rows whose
    only nonzero is on the diagonal, all indices interleaved.  Returns the
    matrix and the index set of each block."""
    m = sum(BLOCK_SIZES) + ZERO_ROWS + DIAGONAL_ROWS
    perm = rng.permutation(m)
    A = np.zeros((m, m), dtype=float if kind == "real" else complex)
    blocks, start = [], 0
    for n in BLOCK_SIZES:
        idx = np.sort(perm[start:start + n])
        G = rng.normal(size=(n, n))
        B = G + G.T
        if kind == "phase per block":
            B = np.exp(1j * rng.uniform(0.0, 2 * np.pi)) * B
        elif kind == "varying phase":
            B = B * np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=(n, n)))
        A[np.ix_(idx, idx)] = B
        blocks.append(idx)
        start += n
    diag = perm[start + ZERO_ROWS:]
    A[diag, diag] = rng.uniform(0.5, 2.0, size=DIAGONAL_ROWS)
    return A, blocks


def full_solve(A):
    """The spectrum of the unsplit matrix."""
    if np.isrealobj(A) and np.array_equal(A, A.T):
        return np.sort(np.abs(np.linalg.eigvalsh(A)))[::-1]
    return svdvals(A)


def solved_block_sizes(monkeypatch, A):
    """singular_values(A) and the sizes of the blocks it solved."""
    sizes = []
    solve = hankel._block_singular_values

    def recording(B):
        sizes.append(B.shape[0])
        return solve(B)
    monkeypatch.setattr(hankel, "_block_singular_values", recording)
    return hankel.singular_values(A), sorted(sizes)


class TestBlockSplit:
    @pytest.mark.parametrize("kind", ["real", "phase per block", "varying phase"])
    def test_blocks_match_the_full_solve(self, monkeypatch, kind):
        rng = np.random.default_rng(["real", "phase per block", "varying phase"].index(kind))
        A, blocks = block_matrix(rng, kind)
        sv, sizes = solved_block_sizes(monkeypatch, A)
        ref = full_solve(A)
        assert sizes == sorted(BLOCK_SIZES)
        assert sv.shape == (A.shape[0],) and np.all(np.diff(sv) <= 0.0)
        assert np.max(np.abs(sv - ref)) <= 1e-13 * ref[0]
        # zero rows give exact zeros, diagonal-only rows their |A_ii| exactly
        assert np.count_nonzero(sv == 0.0) == ZERO_ROWS
        isolated = np.setdiff1d(np.arange(A.shape[0]), np.concatenate(blocks))
        assert np.all(np.isin(np.abs(A[isolated, isolated]), sv))

    def test_one_tiny_cross_entry_merges_two_blocks(self, monkeypatch):
        A, blocks = block_matrix(np.random.default_rng(3), "real")
        A[blocks[0][0], blocks[2][-1]] = 1e-30 * np.max(np.abs(A))
        sv, sizes = solved_block_sizes(monkeypatch, A)
        ref = svdvals(A)
        assert sizes == sorted([BLOCK_SIZES[0] + BLOCK_SIZES[2], BLOCK_SIZES[1], BLOCK_SIZES[3]])
        assert np.max(np.abs(sv - ref)) <= 1e-13 * ref[0]

    def test_connected_matrix_is_solved_uncopied(self, monkeypatch):
        A = HankelMatrix.build(BUILTIN_BODIES["ball2"](), 0.1,
                               centered_bump([0.1, 0.0], 0.8)).matrix
        seen = []
        monkeypatch.setattr(hankel, "_block_singular_values",
                            lambda B: seen.append(B) or np.abs(np.linalg.eigvalsh(B)))
        hankel.singular_values(A)
        assert len(seen) == 1 and seen[0] is A

    def test_output_length_is_m(self, rng):
        for m in (1, 2, 7):
            for density in (0.0, 0.2, 1.0):
                A = rng.normal(size=(m, m)) * (rng.random((m, m)) < density)
                sv = hankel.singular_values(A)
                assert sv.shape == (m,)
                assert np.max(np.abs(sv - svdvals(A))) <= 1e-13 * max(sv[0], 1.0)

    def test_non_square_takes_svdvals_whole(self, monkeypatch):
        A = np.zeros((6, 4))
        A[0, 0], A[5, 3] = 2.0, -1.0
        sv, sizes = solved_block_sizes(monkeypatch, A)
        assert sizes == [6] and np.max(np.abs(sv - [2.0, 1.0, 0.0, 0.0])) <= 1e-15


class TestHSIdentity:
    def test_base_accuracy_and_refinement(self, disc):
        sym = centered_bump([0, 0], 0.8)
        base = hs_identity_check(disc, sym, 0.05)
        half = hs_identity_check(disc, sym, 0.025)
        assert base.rel_err <= 0.02
        assert half.rel_err < base.rel_err

    def test_zero_symbol(self, disc):
        chk = hs_identity_check(disc, lambda p: np.zeros(len(p)), 0.2)
        assert chk.frobenius == 0.0 and chk.integral == 0.0

    def test_scaling_homogeneity(self, disc):
        sym = centered_bump([0.3, 0.0], 0.6)
        scaled = lambda p: 2.5 * sym(p)
        a = hs_identity_check(disc, sym, 0.1)
        b = hs_identity_check(disc, scaled, 0.1)
        assert abs(b.frobenius - 2.5 * a.frobenius) < 1e-9 * b.frobenius
        assert abs(b.integral - 2.5 * a.integral) < 1e-9 * b.integral

    @pytest.mark.parametrize("name", ["ball2", "square", "triangle"])
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(log_mod=st.floats(-6.0, 6.0), theta=st.floats(0.0, 2 * math.pi, exclude_max=True))
    def test_symbol_scaling(self, name, log_mod, theta):
        # both sides are homogeneous of degree one in the symbol, so c phi
        # scales them by |c| and leaves the relative error where it was
        body, sym = BUILTIN_BODIES[name](), centered_bump([0.6, 0.5], 0.6)
        c = 10.0 ** log_mod * np.exp(1j * theta)
        a = hs_identity_check(body, sym, 0.1, integral_pts=100)
        b = hs_identity_check(body, lambda p: c * sym(p), 0.1, integral_pts=100)
        assert abs(b.frobenius - abs(c) * a.frobenius) <= 1e-14 * abs(c) * a.frobenius
        assert abs(b.integral - abs(c) * a.integral) <= 1e-14 * abs(c) * a.integral
        assert abs(b.rel_err - a.rel_err) < 1e-12

    def test_fft_path_equals_direct(self, disc):
        # the mask-autocorrelation Frobenius must equal the materialized matrix
        sym = centered_bump([0.2, -0.1], 0.7)
        spacing = 0.15
        H = HankelMatrix.build(disc, spacing, sym)
        direct = math.sqrt(float(np.sum(np.abs(H.matrix) ** 2)))
        chk = hs_identity_check(disc, sym, spacing)
        assert abs(chk.frobenius - direct) < 1e-10 * max(direct, 1.0)


class TestRussoBound:
    def test_random_symbols(self, disc, rng):
        for _ in range(5):
            c = rng.uniform(-0.5, 0.5, size=2)
            rad = rng.uniform(0.3, 0.8)
            for p in (3.0, 6.0):
                chk = russo_bound_check(disc, centered_bump(c, rad), 0.1, p)
                assert chk.holds
                assert chk.lhs <= chk.rhs_mixed * (1 + 1e-9)
                assert chk.rhs_mixed <= chk.rhs_continuum * (1 + 0.05)

    def test_constant_kernel_mixed_norm_is_one(self):
        sq = unit_box(2)
        H = HankelMatrix.build(sq, 0.05, lambda p: np.ones(len(p)))
        pc = conjugate_exponent(6.0)
        w = 0.05 ** 2
        inner = np.sum((np.abs(H.matrix) / w) ** pc, axis=0) * w
        mixed = float(np.sum(inner ** (6.0 / pc)) * w) ** (1 / 6.0)
        assert abs(mixed - 1.0) < 1e-12

    def test_zero_symbol(self, disc):
        chk = russo_bound_check(disc, lambda p: np.zeros(len(p)), 0.2, 4.0)
        assert chk.holds and chk.lhs == 0.0

    def test_p_at_most_two_rejected(self, disc):
        with pytest.raises(GeometryError):
            russo_bound_check(disc, centered_bump([0, 0], 0.5), 0.2, 2.0)


class TestOrthogonalSum:
    def test_antipodal_bumps_multiset(self, disc):
        r = 0.08
        c = np.array([0.9, 0.0])
        chk = orthogonal_sum_check(
            disc,
            [centered_bump(2 * c, 2 * r), centered_bump(-2 * c, 2 * r)],
            [Ball(2 * c, 2 * r), Ball(-2 * c, 2 * r)],
            spacing=0.03)
        assert chk.ok
        # the union's blocks are bitwise the part matrices, solved alike
        assert chk.max_rel_dev == 0.0
        assert chk.block_sizes == [320, 324, 644]

    def test_criterion_five_deviation_is_exactly_zero(self):
        res = checks.criterion_05()
        assert res.passed and res.detail.startswith("dev 0.0e+00,")

    def test_single_symbol_trivial(self, disc):
        r = 0.1
        c = np.array([0.8, 0.0])
        chk = orthogonal_sum_check(disc, [centered_bump(2 * c, 2 * r)],
                                   [Ball(2 * c, 2 * r)], spacing=0.04)
        assert chk.ok
        assert chk.block_sizes == [390, 390]

    def test_overlapping_supports_rejected(self, disc):
        r = 0.1
        c = np.array([0.8, 0.0])
        # overlapping regions fail on the geometry, before any matrix is built
        with pytest.raises(GeometryError, match="interaction regions 0 and 1 overlap"):
            orthogonal_sum_check(
                disc,
                [centered_bump(2 * c, 2 * r), centered_bump(2 * c, 2 * r)],
                [Ball(2 * c, 2 * r), Ball(2 * c, 2 * r)],
                spacing=0.04)


    def test_empty_interaction_region(self, disc):
        # the first support is too far for its region to meet the disc
        hankel.check_disjoint_interactions(
            disc, [Ball([5.0, 0.0], 0.1), Ball([-1.9, 0.0], 0.05)])

    def test_non_ball_body_rejected_at_entry(self):
        with pytest.raises(GeometryError, match="ball bodies"):
            orthogonal_sum_check(unit_box(2), [centered_bump([1.8, 1.0], 0.1)],
                                 [Ball([1.8, 1.0], 0.1)], spacing=0.1)
