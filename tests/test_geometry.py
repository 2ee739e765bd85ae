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
        scaled = geo.MatrixTuple.from_matrices([3.0 * A for A in T.matrices])
        assert scaled.ecc == pytest.approx(T.ecc)


class TestProjective:
    def test_fs_distance_is_sine_of_angle(self):
        u = np.array([math.cos(0.0), math.sin(0.0)])
        v = np.array([math.cos(0.3), math.sin(0.3)])
        assert geo.fs_distance_vec(u, v) == pytest.approx(math.sin(0.3))

    def test_fs_distance_range(self):
        rng = _rng(1)
        for _ in range(50):
            a, b = geo.sample_directions(rng, 2, 4)
            d = geo.fs_distance_vec(a, b)
            assert 0.0 <= d <= 1.0 + 1e-12

    def test_rotation_acts_on_lines(self):
        c, s = math.cos(0.4), math.sin(0.4)
        g = np.array([[c, -s], [s, c]])
        gv = g @ [math.cos(0.1), math.sin(0.1)]
        want = np.array([-math.cos(0.5), -math.sin(0.5)])  # the same line
        assert geo.fs_distance_vec(gv, want) == pytest.approx(0.0, abs=1e-15)


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
        # the expansion is elementwise: a matrix of a stack gets the bits
        # it gets on its own
        rng = _rng(7)
        gs = np.array([geo.sample_matrix(rng, 4) for _ in range(6)])
        stacked = geo.exterior_power(gs.reshape(2, 3, 4, 4), k)
        per = np.array([geo.exterior_power(g, k) for g in gs])
        minors = math.comb(4, k)
        assert per.shape == (6, minors, minors)
        assert np.array_equal(stacked.reshape(per.shape), per)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_minors_match_lapack_determinants(self, d):
        # Against one LAPACK det per minor, relative to the product of the
        # minor's row norms: the expansion's bound (k (k + 1) / 2) k^(k/2)
        # eps (see exterior_power) plus 4 k eps for the reference, which
        # numpy evaluates as sign * exp(log|det|). Rows are rescaled by up
        # to e^3 either way, so the scale is not that of one matrix.
        rng = _rng(20 + d)
        eps = np.finfo(float).eps
        for _ in range(20):
            g = (geo.sample_matrix(rng, d)
                 * np.exp(rng.uniform(-3.0, 3.0, (d, 1))))
            for k in range(1, d + 1):
                subsets = list(itertools.combinations(range(d), k))
                scale = np.array([[np.prod(np.linalg.norm(
                    g[np.ix_(rows, cols)], axis=1)) for cols in subsets]
                    for rows in subsets])
                err = np.abs(geo.exterior_power(g, k)
                             - _exterior_power_reference(g, k))
                tol = (k * (k + 1) / 2 * k ** (k / 2) + 4 * k) * eps
                assert np.max(err / scale) <= tol, (d, k)

    def test_rejects_non_square_stack(self):
        with pytest.raises(geo.InvalidMatrixError):
            geo.exterior_power(np.ones((2, 3, 4)), 1)


class TestGrassmann:
    def test_unit_wedge_matches_minor_determinants(self):
        # the closed-form minors against one np.linalg.det per lex pair of
        # rows, normalized
        bases = _rng(12).standard_normal((50, 3, 2))
        want = np.array([[np.linalg.det(b[list(rows)]) for rows in
                          itertools.combinations(range(3), 2)] for b in bases])
        want /= np.linalg.norm(want, axis=-1, keepdims=True)
        got = geo.unit_wedge(bases)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_unit_wedge_follows_exterior_power(self):
        # Lambda^2 g maps the wedge of V to a multiple of the wedge of g V
        rng = _rng(5)
        g = geo.sample_matrix(rng, 3)
        basis = rng.standard_normal((3, 2))
        lhs = geo.exterior_power(g, 2) @ geo.unit_wedge(basis)
        lhs /= np.linalg.norm(lhs)
        rhs = geo.unit_wedge(g @ basis)
        assert geo.wedge_distance(lhs, rhs) == pytest.approx(0.0, abs=1e-14)

    def test_unit_wedge_has_unit_norm(self):
        w = geo.unit_wedge(_rng(6).standard_normal((3, 2)))
        assert np.linalg.norm(w) == pytest.approx(1.0)

    def test_distance_zero_for_same_plane(self):
        rng = _rng(7)
        b = rng.standard_normal((3, 2))
        # Same plane, different spanning set.
        w = geo.unit_wedge(np.stack([b, b @ rng.standard_normal((2, 2))]))
        assert geo.wedge_distance(w[0], w[1]) == pytest.approx(0.0, abs=1e-10)

    def test_distance_symmetry_and_triangle(self):
        w = geo.unit_wedge(_rng(8).standard_normal((3, 3, 2)))
        a = geo.wedge_distance(w[0], w[1])
        b = geo.wedge_distance(w[1], w[2])
        c = geo.wedge_distance(w[0], w[2])
        assert a == pytest.approx(geo.wedge_distance(w[1], w[0]))
        assert c <= a + b + 1e-12

    def test_action_composes(self):
        # g acts on the plane h V, through an orthonormal basis of it
        rng = _rng(9)
        g, h = geo.sample_matrix(rng, 3), geo.sample_matrix(rng, 3)
        b = rng.standard_normal((3, 2))
        lhs = geo.unit_wedge((g @ h) @ b)
        rhs = geo.unit_wedge(g @ np.linalg.qr(h @ b)[0])
        assert geo.wedge_distance(lhs, rhs) == pytest.approx(0.0, abs=1e-9)

    def test_unit_wedge_of_raw_basis_matches_orthonormalized_plane(self):
        # B = QR: the wedge of B is det(R) times the wedge of Q
        bases = _rng(10).standard_normal((6, 3, 2))
        q, r = np.linalg.qr(bases)
        want = geo.unit_wedge(q) * np.sign(np.linalg.det(r))[:, None]
        assert np.max(np.abs(geo.unit_wedge(bases) - want)) <= 1e-14

    def test_accepts_small_independent_basis(self):
        # dependence is judged relative to the column lengths, not by size
        b = _rng(0).standard_normal((3, 2))
        assert np.max(np.abs(geo.unit_wedge(1e-13 * b)
                             - geo.unit_wedge(b))) <= 1e-15
        with pytest.raises(ValueError):
            geo.unit_wedge(1e-13 * np.outer(b[:, 0], [1.0, 2.0]))

    def test_rejects_rank_deficient_basis(self):
        with pytest.raises(ValueError):
            geo.unit_wedge(np.ones((3, 2)))
        with pytest.raises(ValueError):
            geo.unit_wedge(np.zeros((3, 2)))
        bases = _rng(11).standard_normal((3, 3, 2))
        bases[1, :, 1] = 2.0 * bases[1, :, 0]
        with pytest.raises(ValueError):
            geo.unit_wedge(bases)

    @pytest.mark.parametrize("shape", [(3, 2), (7, 3, 2), (4, 2, 3, 2)])
    def test_unit_wedge_and_distance_match_their_linalg_norm_forms(
            self, shape):
        # the sums of squares of unit_wedge and wedge_distance against
        # np.linalg.norm over the same axes, bit for bit
        rng = _rng(14)
        bases = rng.standard_normal(shape) * np.exp(
            rng.uniform(-5.0, 5.0, shape))
        (a0, b0), (a1, b1), (a2, b2) = np.moveaxis(bases, (-2, -1), (0, 1))
        w = np.stack([a0 * b1 - a1 * b0, a0 * b2 - a2 * b0,
                      a1 * b2 - a2 * b1], axis=-1)
        want = w / np.linalg.norm(w, axis=-1, keepdims=True)
        got = geo.unit_wedge(bases)
        assert got.tobytes() == want.tobytes()
        other = geo.unit_wedge(rng.standard_normal(shape))
        want = np.minimum(np.linalg.norm(got - other, axis=-1),
                          np.linalg.norm(got + other, axis=-1))
        assert np.asarray(geo.wedge_distance(got, other)).tobytes() \
            == np.asarray(want).tobytes()
        # the dependence test compares against the same column lengths
        lengths = np.prod(np.linalg.norm(bases, axis=-2), axis=-1)
        norm = np.linalg.norm(w, axis=-1)
        assert np.array_equal(geo._length(*np.moveaxis(w, -1, 0)), norm)
        assert np.array_equal(
            geo._length(a0, a1, a2) * geo._length(b0, b1, b2), lengths)

    @pytest.mark.parametrize("shape", [(3,), (2, 2), (3, 1), (3, 3),
                                       (4, 2), (5, 3, 2, 1)])
    def test_rejects_shapes_other_than_planes_in_r3(self, shape):
        with pytest.raises(ValueError, match="planes in R"):
            geo.unit_wedge(_rng(13).standard_normal(shape))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_sample_matrix_always_invertible(seed):
    g = geo.sample_matrix(np.random.default_rng(seed), 3)
    s = np.linalg.svd(g, compute_uv=False)
    assert 0.2 - 1e-9 <= s[-1] and s[0] <= 5.0 + 1e-9


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_sample_directions_unit_norm(seed):
    rows = geo.sample_directions(np.random.default_rng(seed), 5, 4)
    assert np.allclose(np.linalg.norm(rows, axis=1), 1.0)
