import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

import lyocert.geometry as geo
import lyocert.operator as op
import lyocert.oracles as orc
import lyocert.verification as ver


REFERENCE = ver.reference_tuple()
# diag(8, 1/8) and diag(4, 1/4) fix the angles 0 and pi/2: the leading
# eigenvalue is double on even grids and simple on odd ones.
DIAGONAL = geo.MatrixTuple.from_matrices([np.diag([8.0, 0.125]),
                                          np.diag([4.0, 0.25])])
P0 = (0.5, 0.5)
GRID = op.build_grid(200)
BASIS = op.TransferBasis(REFERENCE, GRID)


def _rotation(psi):
    c, s = math.cos(psi), math.sin(psi)
    return np.array([[c, -s], [s, c]])


@st.composite
def hyperbolic_pairs(draw):
    """Two matrices R_psi diag(a, 1/a) R_psi^T, a in [1.5, 4]. Each fixes
    the lines at psi and psi + pi/2; the two psi differ by at least 0.4 rad
    modulo pi/2, so the pair has no common invariant line."""
    psi = draw(st.floats(0.0, math.pi))
    delta = draw(st.floats(0.4, math.pi / 2 - 0.4))
    delta += draw(st.sampled_from([0.0, math.pi / 2]))
    mats = []
    for angle in (psi, psi + delta):
        a = draw(st.floats(1.5, 4.0))
        R = _rotation(angle)
        mats.append(R @ np.diag([a, 1.0 / a]) @ R.T)
    return geo.MatrixTuple.from_matrices(mats)


real_weights = st.floats(0.2, 0.8).map(lambda p: np.array([p, 1.0 - p]))
small_grids = st.integers(16, 64)


@st.composite
def complex_weights(draw):
    """p + t e^{i alpha} (1, -1): a point of the complex weight hyperplane
    within t <= 1e-2 of the real simplex."""
    p = draw(real_weights)
    t = draw(st.floats(1e-4, 1e-2))
    alpha = draw(st.floats(0.0, 2.0 * math.pi))
    return p + t * np.exp(1j * alpha) * np.array([1.0, -1.0])


class TestGrid:
    def test_nodes_and_spacing(self):
        g = op.build_grid(10)
        assert g.m == 10
        assert np.allclose(g.angles, np.arange(10) * math.pi / 10)
        assert np.allclose(np.diff(g.angles), math.pi / 10)
        assert np.allclose(g.nodes, np.column_stack([np.cos(g.angles),
                                                     np.sin(g.angles)]))

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            op.build_grid(7)


class TestAssembly:
    def test_real_weights_give_row_stochastic_matrix(self):
        M = op.assemble_operator(BASIS, P0).toarray()
        assert np.max(np.abs(M.sum(axis=1) - 1.0)) < 1e-12
        assert np.all(M.real >= -1e-15)

    def test_grid_aligned_rotation_is_permutation(self):
        # A rotation by one grid step maps each node exactly onto the next,
        # so every hat weight is concentrated on a single node.
        m = 20
        g = op.build_grid(m)
        T = geo.MatrixTuple.from_matrices([_rotation(math.pi / m)])
        M = op.assemble_operator(op.TransferBasis(T, g), [1.0]).toarray().real
        assert np.allclose(np.sort(M, axis=1)[:, -1], 1.0, atol=1e-12)
        assert np.allclose(M.sum(axis=0), 1.0, atol=1e-12)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            op.assemble_operator(BASIS, [0.7, 0.7])
        with pytest.raises(ValueError):
            op.assemble_operator(BASIS, [1.0])

    def test_rejects_higher_dimension(self):
        T = geo.MatrixTuple.from_matrices([np.eye(3)])
        with pytest.raises(ValueError):
            op.TransferBasis(T, GRID)

    def test_chain_operator_block_structure(self):
        P = [[0.7, 0.3], [0.4, 0.6]]
        M = op.assemble_chain_operator(P, BASIS)
        assert M.shape == (2 * GRID.m, 2 * GRID.m)
        assert np.max(np.abs(M.sum(axis=1) - 1.0)) < 1e-10

    def test_chain_rejects_bad_transition(self):
        with pytest.raises(ValueError):
            op.assemble_chain_operator([[0.5, 0.6], [0.4, 0.6]], BASIS)


def _reference_block(g, grid):
    """Hat-weight CSR matrix of v_j -> g v_j, exact-zero weights kept."""
    m = grid.m
    img = grid.nodes @ g.T
    ang = np.mod(np.arctan2(img[:, 1], img[:, 0]), math.pi)
    u = ang * (m / math.pi)
    j0 = np.floor(u).astype(int) % m
    w = u - np.floor(u)
    rows = np.arange(m)
    return scipy.sparse.csr_matrix(
        (np.concatenate([1.0 - w, w]),
         (np.concatenate([rows, rows]), np.concatenate([j0, (j0 + 1) % m]))),
        shape=(m, m))


def _reference_operator(T, z, grid, twist):
    """sum_i diag(z_i e^{twist phi_i}) T_i by sparse arithmetic."""
    z = np.asarray(z, dtype=complex)
    phis = op.log_stretch_table(T, grid)
    return sum(scipy.sparse.diags(z[i] * np.exp(twist * phis[i]))
               @ _reference_block(g, grid)
               for i, g in enumerate(T.matrices)).tocsr()


THREE = geo.MatrixTuple.from_matrices(
    [geo.sample_matrix(np.random.default_rng(3), 2) for _ in range(3)])
ALIGNED = geo.MatrixTuple.from_matrices([_rotation(math.pi / 20)])


class TestTransferBasis:
    @pytest.mark.parametrize("T, z, twist, m", [
        (REFERENCE, P0, 0.0, 200),
        (REFERENCE, [0.5 + 1e-3j, 0.5 - 1e-3j], 0.0, 601),
        (REFERENCE, P0, 1e-3, 200),
        (REFERENCE, [0.5 + 1e-3j, 0.5 - 1e-3j], -1e-3, 200),
        (THREE, [0.2, 0.3 + 0.01j, 0.5 - 0.01j], 0.0, 90),
        # every node maps exactly onto a node: half the hat weights are 0
        (ALIGNED, [1.0], 0.0, 20),
    ])
    def test_matches_sparse_sum_of_blocks(self, T, z, twist, m):
        grid = op.build_grid(m)
        basis = op.TransferBasis(T, grid)
        M = op.assemble_operator(basis, z, twist)
        ref = _reference_operator(T, z, grid, twist)
        assert np.array_equal(M.toarray(), ref.toarray())
        assert np.array_equal(M.indptr, ref.indptr)
        assert np.array_equal(M.indices, ref.indices)
        assert np.all(M.data != 0)
        for g, block in zip(T.matrices, basis.blocks):
            assert np.array_equal(block.toarray(),
                                  _reference_block(g, grid).toarray())
            assert np.all(block.data != 0)

    def test_chain_operator_matches_block_matrix(self):
        P = np.array([[0.7, 0.3], [0.4, 0.6]], dtype=complex)
        M = op.assemble_chain_operator(P, BASIS)
        blocks = [_reference_block(g, GRID) for g in REFERENCE.matrices]
        ref = scipy.sparse.bmat([[P[i, j] * blocks[j] for j in range(2)]
                                 for i in range(2)], format="csr")
        assert np.array_equal(M.toarray(), ref.toarray())
        # the block matrix keeps the exact-zero hat weights as entries
        assert np.count_nonzero(ref.data == 0) > 0
        ref.eliminate_zeros()
        assert np.array_equal(M.indptr, ref.indptr)
        assert np.array_equal(M.indices, ref.indices)
        assert np.all(M.data != 0)


class TestEigenExtraction:
    def test_leading_eigenvalue_is_one_for_stochastic(self):
        M = op.assemble_operator(BASIS, P0)
        mu, eta = op.leading_eigenpair(M)
        assert abs(mu - 1.0) < 1e-10
        assert complex(np.sum(eta)) == pytest.approx(1.0)
        # eta is the stationary functional: eta(M v) = eta(v).
        v = np.cos(3 * GRID.angles)
        assert np.dot(eta, M @ v) == pytest.approx(np.dot(eta, v), abs=1e-9)

    def test_single_rotation_has_uniform_functional(self):
        # An irrational rotation is uniquely ergodic: eta is uniform.
        T = geo.MatrixTuple.from_matrices([_rotation(1.0)])
        M = op.assemble_operator(op.TransferBasis(T, op.build_grid(64)), [1.0])
        _, eta = op.leading_eigenpair(M)
        assert np.allclose(eta.real, 1.0 / 64, atol=1e-8)

    def test_collision_detected_on_engineered_spectrum(self):
        # Two distinct eigenvalues of equal modulus on the leading shell.
        D = np.diag([1.0, -1.0, 0.5, 0.25]).astype(complex)
        with pytest.raises(op.EigenvalueCollisionError):
            op.leading_eigenpair(csr_array(D))

    def test_repeated_leading_eigenvalue_is_a_collision(self):
        # Equal values on the leading shell: the eigenvalue is not simple.
        D = np.diag([1.0, 1.0, 0.5, 0.25]).astype(complex)
        with pytest.raises(op.EigenvalueCollisionError, match="not simple"):
            op.leading_eigenpair(csr_array(D))

    @pytest.mark.parametrize("m, simple", [(200, False), (601, True)])
    def test_diagonal_pair_is_simple_only_on_odd_grids(self, m, simple,
                                                       monkeypatch):
        # On an even grid the fixed angles 0 and pi/2 are both nodes, and
        # each carries a stationary measure.
        M = op.assemble_operator(
            op.TransferBasis(DIAGONAL, op.build_grid(m)), P0)
        calls = []
        eigs = scipy.sparse.linalg.eigs
        monkeypatch.setattr(scipy.sparse.linalg, "eigs",
                            lambda *a, **kw: calls.append(1) or eigs(*a, **kw))
        if simple:
            mu, _ = op.leading_eigenpair(M)
            assert abs(mu - 1.0) < 1e-12
        else:
            with pytest.raises(op.EigenvalueCollisionError):
                op.leading_eigenpair(M)
        assert calls == [1]

    @pytest.mark.parametrize("z", [np.array(P0, dtype=complex),
                                   np.array(P0) + 0.1j * np.array([1, -1])])
    def test_leading_solve_matvec_budget(self, z):
        # ARPACK iterates on M^3: 38 steps here, so 114 products with M,
        # and 2 more for the read-back (Rayleigh quotients and residual),
        # for EIG_COUNT = 2 eigenpairs; 494-500 products for 8. The budget
        # separates the two.
        products = []

        class Counting:
            """M with a count of the vectors it is applied to."""

            def __init__(self, A):
                self.A, self.shape, self.dtype = A, A.shape, A.dtype

            @property
            def T(self):
                return Counting(self.A.T)

            def __matmul__(self, x):
                products.append(1 if x.ndim == 1 else x.shape[1])
                return self.A @ x

        M = op.assemble_operator(
            op.TransferBasis(REFERENCE, op.build_grid(2000)), z)
        op.leading_eigenpair(Counting(M))
        assert 0 < sum(products) <= 250

    def test_no_collision_for_conjugate_subleading_pair(self):
        # A complex-conjugate pair strictly inside the unit disc is fine.
        D = np.diag([1.0, 0.5 + 0.5j, 0.5 - 0.5j]).astype(complex)
        mu, _ = op.leading_eigenpair(csr_array(D))
        assert mu == pytest.approx(1.0)

    # The diagonal pair has rho2 = 0.039, so theta2 = rho2^3 = 6e-5 on M^3,
    # and the cube root turns ARPACK's accuracy on theta2 into an error in
    # rho2 larger by 1 / (3 rho2^2), about 220: 1.5e-11 was measured.
    @pytest.mark.parametrize("T, m, rho2_tol", [(REFERENCE, 90, 1e-12),
                                                (REFERENCE, 91, 1e-12),
                                                (DIAGONAL, 601, 1e-10)],
                             ids=["reference-90", "reference-91",
                                  "diagonal-601"])
    def test_sparse_solve_matches_dense(self, T, m, rho2_tol, monkeypatch):
        # ARPACK on the CSR operator against LAPACK on the same operator
        # densified: mu, eta (mass 1) and rho2 at real and complex weights,
        # at twists of +-1e-3 and for the chain block operator, and every
        # public value built on them, on even and odd grids and on the
        # diagonal pair, whose second eigenvalue is double and whose null
        # space is large.
        basis = op.TransferBasis(T, op.build_grid(m))
        z = np.array([0.5 + 0.01j, 0.5 - 0.01j])
        P = [[0.7, 0.3], [0.4, 0.6]]
        operators = {
            "real": lambda: op.assemble_operator(basis, P0),
            "complex": lambda: op.assemble_operator(basis, z),
            "twist+": lambda: op.assemble_operator(basis, P0, twist=1e-3),
            "twist-": lambda: op.assemble_operator(basis, P0, twist=-1e-3),
            "chain": lambda: op.assemble_chain_operator(P, basis),
        }

        def values():
            pairs = {}
            for name, assemble in operators.items():
                M = assemble()
                mu, eta = op.leading_eigenpair(M)
                pairs[name] = mu, eta, op.spectral_gap_measured(M)[0]
            public = [op.analytic_extension_value(basis, P0),
                      op.analytic_extension_value(basis, z),
                      op.lyapunov_via_log_deriv(basis, P0),
                      op.chain_extension_value(P, basis)]
            return pairs, public

        calls = []
        eigs = scipy.sparse.linalg.eigs
        monkeypatch.setattr(scipy.sparse.linalg, "eigs",
                            lambda *a, **kw: calls.append(1) or eigs(*a, **kw))
        sparse, sparse_public = values()
        # One solve per value; a repeat gives the same bits, since ARPACK
        # starts from a fixed vector.
        pairs, public = values()
        assert public == sparse_public
        for name, (mu, eta, rho2) in pairs.items():
            assert (mu, rho2) == sparse[name][::2]
            assert np.array_equal(eta, sparse[name][1])
        assert len(calls) == 2 * (2 * len(operators) + 5)

        def dense_top(M):
            with op._one_blas_thread():
                vals, vecs = scipy.linalg.eig(M.toarray())
            order = np.argsort(-np.abs(vals))[:op.EIG_COUNT]
            return vals[order], vecs[:, order]

        monkeypatch.setattr(op, "_top_eigenvalues", dense_top)
        pairs, public = values()
        for name, (mu, eta, rho2) in pairs.items():
            assert abs(mu - sparse[name][0]) <= 1e-12, name
            assert np.max(np.abs(eta - sparse[name][1])) <= 1e-12, name
            assert abs(rho2 - sparse[name][2]) <= rho2_tol, name
        assert np.max(np.abs(np.subtract(public, sparse_public))) <= 1e-12

    @pytest.mark.parametrize("m", [200, 201, 600, 601])
    @pytest.mark.parametrize("p", [(0.5, 0.5), (0.35, 0.65)])
    def test_real_arithmetic_matches_complex(self, p, m, monkeypatch):
        # Real weights give a float64 operator, solved by ARPACK's real
        # routines; the same matrix cast to complex goes through its complex
        # ones. mu, eta (mass 1), rho2 and the chain value agree, untwisted
        # and at twists of +-1e-3.
        basis = op.TransferBasis(REFERENCE, op.build_grid(m))
        for twist in (0.0, 1e-3, -1e-3):
            M = op.assemble_operator(basis, p, twist=twist)
            assert M.dtype == np.float64
            Mc = M.astype(complex)
            mu, eta = op.leading_eigenpair(M)
            mu_c, eta_c = op.leading_eigenpair(Mc)
            assert abs(mu - mu_c) <= 1e-12
            assert np.max(np.abs(eta - eta_c)) <= 1e-12
            rho2 = op.spectral_gap_measured(M)[0]
            assert abs(rho2 - op.spectral_gap_measured(Mc)[0]) <= 1e-12

        P = [[0.7, 0.3], [0.4, 0.6]]
        real_value = op.chain_extension_value(P, basis)
        chain = op.assemble_chain_operator
        assert chain(P, basis).dtype == np.float64
        monkeypatch.setattr(op, "assemble_chain_operator",
                            lambda P, basis: chain(P, basis).astype(complex))
        assert abs(real_value - op.chain_extension_value(P, basis)) <= 1e-12

    def test_arpack_no_convergence_falls_back_to_dense(self, monkeypatch):
        M = op.assemble_operator(
            op.TransferBasis(REFERENCE, op.build_grid(60)), P0)
        vals = scipy.linalg.eigvals(M.toarray())
        rho2_dense = np.sort(np.abs(vals))[-2]

        calls = []

        def no_convergence(A, k, ncv, maxiter, **kw):
            # Two partial pairs, the second far from any true eigenvalue.
            calls.append((k, ncv, maxiter))
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "no convergence", np.array([1.0, 0.9], dtype=complex),
                np.ones((A.shape[0], 2), dtype=complex))

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", no_convergence)
        rho2, _ = op.spectral_gap_measured(M)
        assert rho2 == pytest.approx(rho2_dense, abs=1e-12)
        # a capped attempt on SciPy's basis, one retry on the wider basis,
        # then the dense solve
        assert calls == [(op.EIG_COUNT, None, op.ARPACK_MAXITER),
                         (op.EIG_COUNT, op.RETRY_NCV, op.ARPACK_MAXITER)]
        assert abs(rho2 - 0.9) > 0.1

    @pytest.mark.parametrize("m, t", [(201, 0.8753), (601, 0.5),
                                      (601, 0.8753)])
    def test_stall_point_converges_without_the_dense_solve(
            self, m, t, monkeypatch, record_property):
        # rho2 and rho3 lie close here (1, 0.6340, 0.6317 at m = 201): on M
        # SciPy's 20-vector basis did not converge within ARPACK_MAXITER
        # restarts. On M^3 it converges in 73-157 steps; the retry on
        # RETRY_NCV vectors stays as a safety net. No dense solve runs.
        M = op.assemble_operator(
            op.TransferBasis(REFERENCE, op.build_grid(m)),
            np.array(P0) + t * 1j * np.array([1.0, -1.0]))
        with op._one_blas_thread():
            dense = np.sort(np.abs(scipy.linalg.eigvals(M.toarray())))[::-1]
        ncvs = []
        eigs = scipy.sparse.linalg.eigs

        def recording_eigs(*args, ncv, **kwargs):
            ncvs.append(ncv)
            return eigs(*args, ncv=ncv, **kwargs)

        def no_dense(*args, **kwargs):
            raise AssertionError("dense fallback used")

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", recording_eigs)
        monkeypatch.setattr(scipy.linalg, "eig", no_dense)
        vals, _ = op._top_eigenvalues(M.T)
        record_property("converged_ncv", ncvs[-1])
        assert np.max(np.abs(np.abs(vals) - dense[:2])) <= 1e-10

    @pytest.mark.parametrize("rho2, collides", [(1.0, True),
                                                (1.0 - 1e-6, False)])
    def test_collision_hidden_in_the_cube_is_detected(self, rho2, collides):
        # 1 and rho2 e^(2 pi i / 3) have cubes of equal or nearly equal
        # modulus and phase. ARPACK on M^3 may mix their eigenvectors, so a
        # Rayleigh quotient can read the second modulus low; the collision
        # is still reported, and the near collision is not.
        rng = np.random.default_rng(1)
        rest = 0.6 * np.sqrt(rng.random(298)) * np.exp(
            2j * math.pi * rng.random(298))
        M = scipy.sparse.diags(np.concatenate(
            [[1.0, rho2 * np.exp(2j * math.pi / 3)], rest])).tocsr()
        if collides:
            with pytest.raises(op.EigenvalueCollisionError):
                op.leading_eigenpair(M)
        else:
            mu, eta = op.leading_eigenpair(M)
            assert abs(mu - 1.0) <= 1e-12
            assert abs(eta[0] - 1.0) <= 1e-12
            assert op.spectral_gap_measured(M)[0] == pytest.approx(
                rho2, abs=1e-10)

    def test_wrong_leading_vector_goes_to_the_next_stage(self, monkeypatch):
        # An eigs that reports convergence but returns a wrong leading
        # vector: the residual against M rejects it, the retry runs, and
        # the caller gets the true pair.
        M = op.assemble_operator(BASIS, [0.5 + 1e-3j, 0.5 - 1e-3j])
        with op._one_blas_thread():
            vals, vecs = scipy.linalg.eig(M.toarray().T)
        lead = np.argmax(np.abs(vals))
        true_eta = vecs[:, lead] / vecs[:, lead].sum()
        ncvs = []
        eigs = scipy.sparse.linalg.eigs

        def corrupting_eigs(*args, ncv, **kwargs):
            ncvs.append(ncv)
            theta, x = eigs(*args, ncv=ncv, **kwargs)
            if ncv is None:
                x[:, np.argmax(np.abs(theta))] += 1e-6
            return theta, x

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", corrupting_eigs)
        mu, eta = op.leading_eigenpair(M)
        assert ncvs == [None, op.RETRY_NCV]
        assert abs(mu - vals[lead]) <= 1e-12
        assert np.max(np.abs(eta - true_eta)) <= 1e-12

    def test_measured_gap_reference(self):
        # Grid divisible by 3 aligns with the pi/3 conjugating rotation:
        # rho2 = p_max exactly.
        M = op.assemble_operator(
            op.TransferBasis(REFERENCE, op.build_grid(300)), P0)
        rho2, gap = op.spectral_gap_measured(M)
        assert rho2 == pytest.approx(0.5, abs=1e-8)
        assert gap == pytest.approx(0.5, abs=1e-8)


class TestRandomHyperbolicPairs:
    @settings(max_examples=25, deadline=None)
    @given(hyperbolic_pairs(), real_weights, small_grids)
    def test_real_weights_give_stochastic_operator_with_mu_one(self, T, p,
                                                                m):
        M = op.assemble_operator(op.TransferBasis(T, op.build_grid(m)), p)
        assert np.max(np.abs(M.sum(axis=1) - 1.0)) < 1e-12
        assert M.toarray().real.min() >= 0.0
        mu, eta = op.leading_eigenpair(M)
        assert abs(mu - 1.0) < 1e-12
        assert complex(eta.sum()) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(hyperbolic_pairs(), complex_weights(), small_grids)
    def test_extension_commutes_with_conjugation(self, T, z, m):
        basis = op.TransferBasis(T, op.build_grid(m))
        val = op.analytic_extension_value(basis, z)
        val_conj = op.analytic_extension_value(basis, z.conj())
        assert abs(val_conj - val.conjugate()) <= 1e-12 * max(1.0, abs(val))

    @settings(max_examples=25, deadline=None)
    @given(hyperbolic_pairs(), st.one_of(real_weights, complex_weights()),
           small_grids)
    def test_left_solve_matches_dense_eig_of_transpose(self, T, z, m):
        M = op.assemble_operator(op.TransferBasis(T, op.build_grid(m)), z)
        mu, eta = op.leading_eigenpair(M)
        vals, vecs = scipy.linalg.eig(M.T.toarray())
        j = np.argmin(np.abs(vals - mu))
        assert abs(np.abs(vals).max() - abs(vals[j])) <= 1e-12
        eta_dense = vecs[:, j] / vecs[:, j].sum()
        assert abs(mu - vals[j]) <= 1e-12
        assert np.max(np.abs(eta - eta_dense)) <= 1e-12


class TestExtensionValues:
    def test_extension_matches_monte_carlo(self):
        basis = op.TransferBasis(REFERENCE, op.build_grid(400))
        val = complex(op.analytic_extension_value(basis, P0)).real
        spec = orc.CocycleSpec.iid(REFERENCE, P0)
        lam, se = orc.estimate_top_exponent(spec, steps=20000, trials=8,
                                            seed=0)
        assert val == pytest.approx(lam, abs=max(3 * se, 1e-2))

    def test_grid_refinement_stability(self):
        vals = [complex(op.analytic_extension_value(
            op.TransferBasis(REFERENCE, op.build_grid(m)), P0)).real
                for m in (200, 400, 800)]
        assert abs(vals[2] - vals[1]) <= abs(vals[1] - vals[0]) + 1e-6
        assert abs(vals[2] - vals[1]) < 1e-3

    def test_log_deriv_matches_extension(self):
        basis = op.TransferBasis(REFERENCE, op.build_grid(400))
        val = complex(op.analytic_extension_value(basis, P0)).real
        ld = op.lyapunov_via_log_deriv(basis, P0, h=1e-3)
        assert ld == pytest.approx(val, abs=1e-3)

    def test_log_deriv_rejects_bad_step(self):
        with pytest.raises(ValueError):
            op.lyapunov_via_log_deriv(BASIS, P0, h=0.0)

    @pytest.mark.parametrize("P", [[[0.7, 0.3], [0.4, 0.6]],
                                   [[0.7 + 0.01j, 0.3 - 0.01j],
                                    [0.4, 0.6]]], ids=["real", "complex"])
    def test_chain_extension_is_the_blockwise_sum(self, P):
        # sum_{i,j} P_ij eta_i(phi_j), one block pair at a time
        _, eta = op.leading_eigenpair(op.assemble_chain_operator(P, BASIS))
        m = BASIS.grid.m
        want = sum(P[i][j] * np.dot(eta[i * m:(i + 1) * m], BASIS.phi[j])
                   for i in range(2) for j in range(2))
        got = op.chain_extension_value(P, BASIS)
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want))

    def test_chain_extension_identical_rows_reduces_to_iid(self):
        P = [[0.5, 0.5], [0.5, 0.5]]
        chain_val = op.chain_extension_value(P, BASIS).real
        iid_val = complex(op.analytic_extension_value(BASIS, P0)).real
        assert chain_val == pytest.approx(iid_val, abs=1e-8)


class TestTaylorCoefficients:
    def test_c0_is_extension_value(self):
        c = op.taylor_coefficients(BASIS, P0, [1.0, -1.0], order=2,
                                   contour_radius=1e-4, nodes=8)
        base = op.analytic_extension_value(BASIS, P0)
        assert abs(c[0] - base) < 1e-10

    def test_c1_matches_finite_difference(self):
        h = 1e-5
        u = np.array([1.0, -1.0])
        f = lambda t: complex(op.analytic_extension_value(
            BASIS, np.array(P0) + t * u)).real
        fd = (f(h) - f(-h)) / (2 * h)
        c = op.taylor_coefficients(BASIS, P0, u, order=2,
                                   contour_radius=1e-4, nodes=8)
        assert c[1].real == pytest.approx(fd, abs=1e-5 + 1e-3 * abs(fd))

    @pytest.mark.parametrize("nodes", [8, 9, 16])
    @pytest.mark.parametrize("radius", [1e-3, 0.05])
    def test_real_inputs_give_real_coefficients(self, radius, nodes):
        # Against the all-node sum over `nodes` direct solves. Both sums
        # round each of their n terms of size <= max|v|, so they agree to
        # n eps max|v| r^-j; measured worst 1.75 eps max|v| r^-j.
        order = nodes // 4
        u = np.array([1.0, -1.0])
        c = op.taylor_coefficients(BASIS, P0, u, order, radius, nodes)
        thetas = 2.0 * math.pi * np.arange(nodes) / nodes
        v = np.array([op.analytic_extension_value(
            BASIS, np.array(P0) + radius * np.exp(1j * t) * u)
            for t in thetas])
        js = np.arange(order + 1)
        want = (np.exp(-1j * np.outer(js, thetas)) @ v) / nodes / radius ** js
        assert np.all(c.imag == 0.0)
        bound = nodes * np.finfo(float).eps * np.abs(v).max() / radius ** js
        assert np.all(np.abs(c.real - want.real) <= bound)

    @pytest.mark.parametrize("nodes", [8, 9, 16])
    def test_one_solve_per_conjugate_pair_of_nodes(self, nodes, monkeypatch):
        calls = []
        top = op._top_eigenvalues
        monkeypatch.setattr(op, "_top_eigenvalues",
                            lambda M: calls.append(1) or top(M))
        op.taylor_coefficients(BASIS, P0, [1.0, -1.0], order=2,
                               contour_radius=1e-4, nodes=nodes)
        assert len(calls) == nodes // 2 + 1

    def test_rejects_non_zero_sum_direction(self):
        with pytest.raises(ValueError):
            op.taylor_coefficients(BASIS, P0, [1.0, 0.0], order=2,
                                   contour_radius=1e-4, nodes=8)

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValueError):
            op.taylor_coefficients(BASIS, P0, [1.0, -1.0], order=4,
                                   contour_radius=1e-4, nodes=8)


class TestSharpRadius:
    def test_geometric_series_radius(self):
        # c_j = r^-j has convergence radius exactly r.
        r = 0.37
        coeffs = r ** -np.arange(17.0)
        result = op.estimate_sharp_radius(coeffs)
        assert not result["indeterminate"]
        assert result["radius"] == pytest.approx(r, rel=0.05)

    def test_polynomial_is_indeterminate(self):
        coeffs = np.zeros(17)
        coeffs[:3] = [1.0, 2.0, 3.0]
        result = op.estimate_sharp_radius(coeffs)
        assert result["indeterminate"]
        assert result["radius"] == math.inf

    def test_needs_enough_coefficients(self):
        with pytest.raises(ValueError):
            op.estimate_sharp_radius(np.ones(5))


class TestHolomorphyChecks:
    def test_entire_function_has_tiny_residual(self):
        f = lambda t: np.exp(2.0 * t) + t ** 3
        assert op.cr_holomorphy_check(f, 0.1 + 0.2j, 1e-4) < 1e-6

    def test_antiholomorphic_function_flagged(self):
        f = lambda t: np.conj(t) ** 2
        t0 = 0.3 + 0.1j
        # d_x f + i d_y f = 2 dbar f = 4 conj(t0) for f = conj(t)^2.
        assert op.cr_holomorphy_check(f, t0, 1e-4) == pytest.approx(
            4 * abs(t0), rel=1e-4)

    def test_residual_scales_quadratically_for_smooth_f(self):
        f = lambda t: complex(op.analytic_extension_value(
            BASIS, np.array([0.6, 0.4]) + t * np.array([1.0, -1.0])))
        r1 = op.cr_holomorphy_check(f, 0.0, 1e-3)
        r2 = op.cr_holomorphy_check(f, 0.0, 5e-4)
        assert 3.0 <= r1 / r2 <= 5.0

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            op.cr_holomorphy_check(lambda t: t, 0.0, 1.0)


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS on two threads for the test, then as before."""
    controls = op._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded in this process")
    old = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(2)
    yield controls
    for (_, set_), n in zip(controls, old):
        set_(n)


class TestOneBlasThread:
    M601 = op.assemble_operator(op.TransferBasis(REFERENCE, op.build_grid(601)),
                                [0.5 + 1e-3j, 0.5 - 1e-3j])

    def _reading(self, monkeypatch, module, name, controls, seen):
        """Patch module.name to append the thread counts it runs under."""
        fn = getattr(module, name)

        def reading(*args, **kwargs):
            seen.append([get() for get, _ in controls])
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, reading)

    def test_solves_run_on_one_thread_and_restore_the_count(
            self, monkeypatch, two_blas_threads):
        controls = two_blas_threads
        seen = []
        for module, name in ((scipy.sparse.linalg, "eigs"),
                             (scipy.linalg, "eig"), (scipy.linalg, "solve"),
                             (np.linalg, "norm")):
            self._reading(monkeypatch, module, name, controls, seen)
        op.leading_eigenpair(self.M601)
        op.leading_eigenpair(csr_array(np.diag([1.0, 0.5, 0.25, 0.1])))
        op.neumann_criterion_check(BASIS, P0, [0.5 + 1e-4j, 0.5 - 1e-4j],
                                   rho_star=0.3, contour_nodes=2)
        # one ARPACK and one dense eigensolve, two solves and two norms
        assert seen == [[1] * len(controls)] * 6
        assert [get() for get, _ in controls] == [2] * len(controls)

    def test_count_is_restored_when_the_solve_raises(self, monkeypatch,
                                                      two_blas_threads):
        controls = two_blas_threads

        def failing(*args, **kwargs):
            assert [get() for get, _ in controls] == [1] * len(controls)
            raise RuntimeError("solver failed")

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", failing)
        with pytest.raises(RuntimeError, match="solver failed"):
            op.leading_eigenpair(self.M601)
        assert [get() for get, _ in controls] == [2] * len(controls)

    def test_without_openblas_solves_run_unchanged(self, monkeypatch,
                                                   two_blas_threads):
        # At m = 90 OpenBLAS splits no call across threads, so the bits
        # cannot depend on the count; the empty lookup leaves it at 2.
        basis = op.TransferBasis(REFERENCE, op.build_grid(90))
        z = np.array([0.5 + 0.01j, 0.5 - 0.01j])

        def values():
            M = op.assemble_operator(basis, z)
            return [op.leading_eigenpair(M)[1],
                    op.spectral_gap_measured(M)[0],
                    op.neumann_criterion_check(basis, P0, z, rho_star=0.3,
                                               contour_nodes=2)]

        scoped = values()
        monkeypatch.setattr(op, "_openblas_thread_controls", lambda: ())
        seen = []
        self._reading(monkeypatch, scipy.sparse.linalg, "eigs",
                      two_blas_threads, seen)
        unscoped = values()
        assert seen == [[2] * len(two_blas_threads)] * 2
        assert np.array_equal(unscoped[0], scoped[0])
        assert unscoped[1:] == scoped[1:]


class TestNeumannCheck:
    def test_zero_at_base_point(self):
        val = op.neumann_criterion_check(BASIS, P0, np.array(P0),
                                         rho_star=1e-3)
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_small_for_small_perturbation(self):
        z = np.array([0.5 + 1e-5, 0.5 - 1e-5], dtype=complex)
        val = op.neumann_criterion_check(BASIS, P0, z, rho_star=1e-3)
        assert 0.0 < val < 0.25

    def test_grows_with_perturbation(self):
        z1 = np.array([0.5 + 1e-5, 0.5 - 1e-5], dtype=complex)
        z2 = np.array([0.5 + 1e-3, 0.5 - 1e-3], dtype=complex)
        v1 = op.neumann_criterion_check(BASIS, P0, z1, rho_star=1e-3)
        v2 = op.neumann_criterion_check(BASIS, P0, z2, rho_star=1e-3)
        assert v2 > v1
