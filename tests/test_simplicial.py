import numpy as np
import pytest

from pwlab import geometry
from pwlab.geometry import GeometryError, VPolytope, box
from pwlab.simplicial import (
    build_approximation,
    dual_pipeline_check,
    is_simplicial,
    perturb_vertices,
    simple_vertex_facet_counts,
    simplicial_sequence,
    verify_strict_containment,
    _hull_contains_points,
)


class TestPerturbation:
    def test_pyramid_determinants_pass(self, shifted_pyramid):
        pert = perturb_vertices(shifted_pyramid, 0.1, seed=11)
        assert pert.perturbed.shape == (5, 3)
        assert len(pert.certificates) == 5

    def test_certificates_reproduce_vertices(self, shifted_pyramid):
        pert = perturb_vertices(shifted_pyramid, 0.1, seed=11)
        for i, cert in enumerate(pert.certificates):
            assert np.all(cert.rho > 0)
            assert abs(cert.rho.sum() - 1) <= 1e-10
            assert np.linalg.norm(cert.rho @ pert.perturbed - pert.vertices[i]) < 1e-8

    def test_lambda_shrinks_displacement(self, shifted_pyramid):
        big = perturb_vertices(shifted_pyramid, 0.2, seed=11)
        small = perturb_vertices(shifted_pyramid, 2e-6, seed=11)
        d_big = np.linalg.norm(big.perturbed - big.vertices, axis=1).max()
        d_small = np.linalg.norm(small.perturbed - small.vertices, axis=1).max()
        assert d_small < 1e-5 and d_small < d_big

    @pytest.mark.parametrize("name", ["triangle", "square", "cube", "pyramid"])
    def test_displacement_bound(self, name):
        # the jittered targets sit off the centroid, so a vertex may move a
        # little more than eps/2, but never more than 1.0021 eps/2
        P = geometry.BUILTIN_BODIES[name]()
        for eps in (0.2, 0.05, 1e-3):
            for seed in range(20):
                pert = perturb_vertices(P, eps, seed=seed)
                disp = np.linalg.norm(pert.perturbed - pert.vertices, axis=1).max()
                assert disp <= 1.0021 * eps / 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dependent_points_raise_at_once(self, seed):
        # at eps = 1e-8 no jitter moves the +-1 cube's coplanar corners
        # apart; the one draw is checked and the error is immediate
        cube = box([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
        with pytest.raises(GeometryError, match="not affinely independent"):
            perturb_vertices(cube, 1e-8, seed=seed)

    def test_simplex_stays_simplicial(self):
        simplex = VPolytope([[0.4, 0.4], [-0.8, 0.2], [0.1, -0.7]])
        approx = build_approximation(simplex, 0.1, seed=3)
        assert approx.all_checks_pass()
        assert approx.hull.vertices.shape[0] == 3


class TestContainment:
    def test_perturbed_square_contains(self):
        sq = box([-0.5, -0.5], [0.5, 0.5])
        approx = build_approximation(sq, 0.1, seed=2)
        ok, margin = verify_strict_containment(sq, approx.hull)
        assert ok and margin > 1e-10

    def test_equal_hull_fails(self):
        sq = box([-0.5, -0.5], [0.5, 0.5])
        same = VPolytope(geometry.vertex_enumerate(sq))
        ok, margin = verify_strict_containment(sq, same)
        assert not ok

    def test_shrunk_hull_fails(self):
        sq = box([-0.5, -0.5], [0.5, 0.5])
        small = VPolytope(0.9 * geometry.vertex_enumerate(sq))
        ok, _ = verify_strict_containment(sq, small)
        assert not ok


class TestSequence:
    def test_pyramid_nested_family(self, shifted_pyramid):
        seq = simplicial_sequence(shifted_pyramid, [0.2, 0.1, 0.05], seed=11)
        assert all(a.all_checks_pass() for a in seq)
        for a, b in zip(seq, seq[1:]):
            assert _hull_contains_points(a.hull, b.perturbation.perturbed)
        assert [a.epsilon for a in seq] == [0.2, 0.1, 0.05]

    def test_vertex_count_preserved(self, shifted_pyramid):
        seq = simplicial_sequence(shifted_pyramid, [0.1], seed=11)
        assert seq[0].hull.vertices.shape[0] == 5

    def test_huge_eps_single_stage(self, shifted_pyramid):
        seq = simplicial_sequence(shifted_pyramid, [5.0], seed=11)
        # lambda is capped at 1/(2k), so the hull still hugs the pyramid
        assert seq[0].contains_p and seq[0].simplicial

    def test_empty_eps_list_raises(self, shifted_pyramid):
        with pytest.raises(GeometryError, match="at least one eps"):
            simplicial_sequence(shifted_pyramid, [])

    def test_displacement_below_eps(self, shifted_pyramid):
        for approx in simplicial_sequence(shifted_pyramid, [0.2, 0.05], seed=4):
            assert approx.max_displacement <= approx.epsilon


class TestSmallBodies:
    @pytest.mark.parametrize("s", [1e-12, 1e-8, 1e-6, 1e-4, 1e-2, 1e8, 1e12])
    @pytest.mark.parametrize("name", ["triangle", "square", "cube", "pyramid"])
    def test_sequence_scales_with_the_body(self, name, s):
        # the affine-independence test and every containment window are
        # relative to the body, so sP accepts the jitter P accepts, passes
        # every check P passes, and its family and margins are s times P's
        P = geometry.BUILTIN_BODIES[name]()
        small = geometry.HPolytope(P.normals, s * P.offsets)
        eps = [0.2, 0.1, 0.05]
        seq = simplicial_sequence(small, [s * e for e in eps], seed=11)
        assert all(a.all_checks_pass() for a in seq)
        for a, b in zip(seq, simplicial_sequence(P, eps, seed=11)):
            assert np.allclose(a.perturbation.perturbed, s * b.perturbation.perturbed,
                               rtol=0, atol=1e-12 * s)
            assert abs(a.containment_margin / s - b.containment_margin) <= (
                1e-12 * b.containment_margin)


class TestDuality:
    def test_cube_octahedron_pair(self):
        cube = box([-1, -1, -1], [1, 1, 1])
        octa = geometry.polar_dual(cube)
        assert is_simplicial(octa)
        assert all(c == 3 for c in simple_vertex_facet_counts(cube))

    def test_perturbed_pyramid_dual_simple(self, shifted_pyramid):
        chk = dual_pipeline_check(shifted_pyramid, 0.1, seed=11)
        assert chk.ok()
        assert all(c == 3 for c in chk.dual_vertex_facet_counts)

    def test_simplex_self_dual_combinatorics(self):
        simplex = VPolytope([[0.5, 0.1], [-0.5, 0.4], [0.0, -0.6]])
        chk = dual_pipeline_check(simplex, 0.05, seed=1)
        assert chk.ok()
