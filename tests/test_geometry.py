import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lyocert.geometry as geo


def _rng(seed=0):
    return np.random.default_rng(seed)


def _exterior_power_reference(g, k):
    """One k x k minor determinant at a time, lexicographic subsets."""
    subsets = list(itertools.combinations(range(g.shape[0]), k))
    return np.array([[np.linalg.det(g[np.ix_(rows, cols)]) for cols in subsets]
                     for rows in subsets])


class TestMatrixTuple:
    def test_from_matrices_caches_norm_data(self):
        T = geo.MatrixTuple.from_matrices([np.diag([2.0, 0.5]), np.eye(2)])
        assert T.N == 2 and T.d == 2
        assert T.operator_norms == pytest.approx([2.0, 1.0])
        assert T.inverse_norms == pytest.approx([2.0, 1.0])
        assert T.eccentricities == pytest.approx([4.0, 1.0])
        assert T.ecc == 4.0
        assert T.determinants == pytest.approx([1.0, 1.0])

    def test_rejects_singular_matrix(self):
        with pytest.raises(geo.InvalidMatrixError):
            geo.MatrixTuple.from_matrices([[[1.0, 0.0], [0.0, 0.0]]])

    def test_rejects_non_square(self):
        with pytest.raises(geo.InvalidMatrixError):
            geo.MatrixTuple.from_matrices([np.ones((2, 3))])

    def test_rejects_empty_tuple(self):
        with pytest.raises(geo.InvalidMatrixError):
            geo.MatrixTuple.from_matrices([])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(geo.InvalidMatrixError):
            geo.MatrixTuple.from_matrices([np.eye(2), np.eye(3)])

    def test_ecc_invariant_under_scaling(self):
        T = geo.MatrixTuple.from_matrices([geo.sample_matrix(_rng(), 3)])
        assert T.scaled(3.0).ecc == pytest.approx(T.ecc)


class TestProjective:
    def test_canonical_sign_identifies_antipodes(self):
        u = geo.ProjectivePoint.from_vector([1.0, 2.0])
        v = geo.ProjectivePoint.from_vector([-1.0, -2.0])
        assert np.allclose(u.vector, v.vector)

    def test_fs_distance_is_sine_of_angle(self):
        u = geo.ProjectivePoint.from_angle(0.0)
        v = geo.ProjectivePoint.from_angle(0.3)
        assert geo.fs_distance(u, v) == pytest.approx(math.sin(0.3))

    def test_fs_distance_range(self):
        rng = _rng(1)
        for _ in range(50):
            a, b = geo.sample_directions(rng, 2, 4)
            d = geo.fs_distance_vec(a, b)
            assert 0.0 <= d <= 1.0 + 1e-12

    def test_projective_action_rotation(self):
        c, s = math.cos(0.4), math.sin(0.4)
        g = [[c, -s], [s, c]]
        v = geo.ProjectivePoint.from_angle(0.1)
        assert geo.projective_action(g, v).angle == pytest.approx(0.5)

    def test_log_norm_phi_diagonal(self):
        v = geo.ProjectivePoint.from_vector([1.0, 0.0])
        assert geo.log_norm_phi(np.diag([2.0, 0.5]), v) == pytest.approx(
            math.log(2.0))


class TestExteriorPower:
    def test_k1_is_identity_functor(self):
        g = geo.sample_matrix(_rng(2), 3)
        assert np.allclose(geo.exterior_power(g, 1), g)

    def test_top_power_is_determinant(self):
        g = geo.sample_matrix(_rng(3), 3)
        top = geo.exterior_power(g, 3)
        assert top.shape == (1, 1)
        assert top[0, 0] == pytest.approx(np.linalg.det(g))

    def test_multiplicativity(self):
        rng = _rng(4)
        g, h = geo.sample_matrix(rng, 4), geo.sample_matrix(rng, 4)
        lhs = geo.exterior_power(g @ h, 2)
        rhs = geo.exterior_power(g, 2) @ geo.exterior_power(h, 2)
        assert np.allclose(lhs, rhs, atol=1e-10 * np.abs(rhs).max())

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_stack_matches_per_matrix_calls(self, k):
        rng = _rng(7)
        gs = np.array([geo.sample_matrix(rng, 4) for _ in range(6)])
        stacked = geo.exterior_power(gs.reshape(2, 3, 4, 4), k)
        per = np.array([_exterior_power_reference(g, k) for g in gs])
        assert np.array_equal(stacked.reshape(per.shape), per)
        assert np.array_equal(geo.exterior_power(gs[0], k), per[0])

    def test_rejects_non_square_stack(self):
        with pytest.raises(geo.InvalidMatrixError):
            geo.exterior_power(np.ones((2, 3, 4)), 1)

    def test_wedge_vector_matches_action(self):
        rng = _rng(5)
        g = geo.sample_matrix(rng, 4)
        basis = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        lhs = geo.exterior_power(g, 2) @ geo.wedge_vector(basis)
        rhs = geo.wedge_vector(g @ basis)
        assert np.allclose(lhs, rhs, atol=1e-10 * np.abs(rhs).max())


class TestGrassmann:
    def test_from_basis_orthonormalizes(self):
        V = geo.GrassmannPoint.from_basis(_rng(6).standard_normal((4, 2)))
        assert np.allclose(V.basis.T @ V.basis, np.eye(2), atol=1e-12)
        assert np.linalg.norm(V.wedge) == pytest.approx(1.0)

    def test_distance_zero_for_same_plane(self):
        rng = _rng(7)
        b = rng.standard_normal((4, 2))
        V = geo.GrassmannPoint.from_basis(b)
        # Same plane, different spanning set.
        W = geo.GrassmannPoint.from_basis(b @ rng.standard_normal((2, 2)))
        assert geo.grassmann_distance(V, W) == pytest.approx(0.0, abs=1e-10)

    def test_distance_symmetry_and_triangle(self):
        rng = _rng(8)
        pts = [geo.GrassmannPoint.from_basis(rng.standard_normal((4, 2)))
               for _ in range(3)]
        a = geo.grassmann_distance(pts[0], pts[1])
        b = geo.grassmann_distance(pts[1], pts[2])
        c = geo.grassmann_distance(pts[0], pts[2])
        assert a == pytest.approx(geo.grassmann_distance(pts[1], pts[0]))
        assert c <= a + b + 1e-12

    def test_action_composes(self):
        rng = _rng(9)
        g, h = geo.sample_matrix(rng, 3), geo.sample_matrix(rng, 3)
        V = geo.GrassmannPoint.from_basis(rng.standard_normal((3, 2)))
        lhs = geo.grassmann_action(g @ h, V)
        rhs = geo.grassmann_action(g, geo.grassmann_action(h, V))
        assert geo.grassmann_distance(lhs, rhs) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_rank_deficient_basis(self):
        with pytest.raises(ValueError):
            geo.GrassmannPoint.from_basis(np.ones((3, 2)))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_sample_matrix_always_invertible(seed):
    g = geo.sample_matrix(np.random.default_rng(seed), 3)
    s = geo.singular_values(g)
    assert 0.2 - 1e-9 <= s[-1] and s[0] <= 5.0 + 1e-9


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_sample_directions_unit_norm(seed):
    rows = geo.sample_directions(np.random.default_rng(seed), 5, 4)
    assert np.allclose(np.linalg.norm(rows, axis=1), 1.0)
