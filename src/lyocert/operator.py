"""Discretized projective transfer operators for d = 2 cocycles.

Real, complex-weight, twisted, and chain Markov operators on a uniform
angular grid over the projective line, stored as CSR matrices. Each of them
is a weighted sum of the same N hat-weight blocks T_i, one per matrix, so a
TransferBasis holds the blocks and the log stretch phi of one (tuple, grid)
and every operator on it fills one data array over a fixed CSR pattern;
real weights give a real operator, solved in real arithmetic. One left
eigensolve per operator gives the isolated leading eigenvalue mu and its
left functional eta (mass 1), from which the holomorphic extension, the
chain value and the contour Taylor coefficients are read. The blocks are
real, so the extension at conj(z) is the conjugate of that at z and the
contour quadrature solves one node of each conjugate pair. The Neumann
contraction criterion completes the module. SciPy is imported inside the
functions that use it, so commands that build no operator never load it.

ARPACK iterates on the cube M^3, applied as three CSR products. At these
sizes (m <= 2000, at most 4 nonzeros per row) an Arnoldi step costs several
CSR products, so the step count sets the time of a solve, and cubing cuts
it to a third to a half. M's own values are read back from the Ritz pairs
and checked against M (see _top_eigenvalues).

Every eigensolve and the Neumann check's dense solves run with each loaded
OpenBLAS set to one thread, and the old count is restored after the solve.
The vectors (m <= 2000) and matrices (300 x 300) are too small for a second
thread to pay: on a 2-core machine it doubled the CPU time of an ARPACK
solve without shortening its wall time, and one Neumann check at m = 300
took 0.55 s wall and 1.1 s CPU on two threads against 0.19 s on one. The
setting is process-global while a solve runs; lyocert solves from one
thread.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import MatrixTuple

MODULUS_SHELL = 1e-8
# Eigenpairs asked of each ARPACK solve: callers read the leading pair, and
# the second modulus gives rho2 and shows that the leading eigenvalue is
# simple. Each implicit restart costs more the more pairs are wanted.
EIG_COUNT = 2
# Restarts allowed to each ARPACK attempt. On M^EIG_POWER the benchmark
# workloads (seeds 1, 5) and the packaged commands converge within 3 (9 on
# M itself). Where the second and third moduli lie close, SciPy's 20-vector
# basis took hundreds to thousands on M, and the retry on a RETRY_NCV-vector
# basis 4-5.
ARPACK_MAXITER = 100
RETRY_NCV = 40
# ARPACK iterates on M^EIG_POWER (see _top_eigenvalues), and a leading pair
# whose relative residual against M itself exceeds RESIDUAL_BOUND counts as
# not converged.
EIG_POWER = 3
RESIDUAL_BOUND = 1e-10


class EigenvalueCollisionError(ArithmeticError):
    """A second eigenvalue shares the maximal modulus: isolation lost."""


class ContourTooLargeError(ArithmeticError):
    """A contour point left the region where the leading eigenvalue is simple."""


class ResolventSolveError(ArithmeticError):
    """A resolvent linear solve failed on the isolating circle."""


@dataclass(frozen=True)
class ProjectiveGrid:
    """Uniform angular grid on the projective line: angles j*pi/m."""

    m: int
    angles: np.ndarray
    nodes: np.ndarray  # (m, 2) unit vectors


def build_grid(m: int) -> ProjectiveGrid:
    """Uniform m-node grid; m >= 8."""
    if m < 8:
        raise ValueError(f"grid needs m >= 8 nodes, got {m}")
    angles = np.arange(m) * (math.pi / m)
    nodes = np.column_stack([np.cos(angles), np.sin(angles)])
    angles.setflags(write=False)
    nodes.setflags(write=False)
    return ProjectiveGrid(m=m, angles=angles, nodes=nodes)


def log_stretch_table(tuple_: MatrixTuple, grid: ProjectiveGrid) -> np.ndarray:
    """phi(A_i, v_j) = log ||A_i v_j|| on the grid, shape (N, m)."""
    out = np.empty((tuple_.N, grid.m))
    for i, g in enumerate(tuple_.matrices):
        img = grid.nodes @ g.T
        out[i] = 0.5 * np.log(np.einsum("ij,ij->i", img, img))
    return out


class TransferBasis:
    """The blocks of which every operator of one (tuple, grid) is a sum.

    Every operator is sum_i diag(z_i e^{s phi_i}) T_i, with T_i the
    row-stochastic CSR matrix of the grid dynamics v_j -> A_i v_j: the image
    angle is resolved onto its two neighboring nodes with periodic (period
    pi) linear hat weights, and exact-zero weights are left out. The basis
    holds phi (N, m), the T_i, the CSR pattern (indptr, indices) of their
    sum and the slot in it of each block entry, so that assemble_operator
    fills one data array and does no sparse arithmetic.
    """

    def __init__(self, tuple_: MatrixTuple, grid: ProjectiveGrid):
        if tuple_.d != 2:
            raise ValueError("operator discretization is implemented for "
                             "d = 2 only")
        import scipy.sparse
        m = grid.m
        self.tuple = tuple_
        self.grid = grid
        self.phi = log_stretch_table(tuple_, grid)
        self.blocks = []
        for g in tuple_.matrices:
            img = grid.nodes @ g.T
            ang = np.mod(np.arctan2(img[:, 1], img[:, 0]), math.pi)
            u = ang * (m / math.pi)
            j0 = np.floor(u).astype(int) % m
            w = u - np.floor(u)
            T = scipy.sparse.csr_matrix(
                (np.column_stack([1.0 - w, w]).ravel(),
                 np.column_stack([j0, (j0 + 1) % m]).ravel(),
                 np.arange(0, 2 * m + 1, 2)), shape=(m, m))
            T.sort_indices()
            T.eliminate_zeros()
            self.blocks.append(T)
        # The pattern, row order included, is that of the sparse sum of the
        # products I @ T_i. The CSR matvec adds each row in this order, so
        # M @ x, and every eigensolve of M, has the bits of a sparse sum.
        unit = scipy.sparse.identity(m, format="csr")
        pattern = sum(unit @ T for T in self.blocks)
        self.indptr, self.indices = pattern.indptr, pattern.indices
        # Stacked block entries, blocks in order 0..N-1: their row is their
        # index into phi.ravel(), and each has one slot in the pattern.
        stacked = scipy.sparse.vstack(self.blocks, format="csr")
        self._gather = np.repeat(np.arange(tuple_.N * m),
                                 np.diff(stacked.indptr))
        self._weights = stacked.data
        keys = np.repeat(np.arange(m), np.diff(self.indptr)) * m + self.indices
        order = np.argsort(keys)
        self._slot = order[np.searchsorted(
            keys, self._gather % m * m + stacked.indices, sorter=order)]
        for a in (self.phi, self.indptr, self.indices, self._slot,
                  self._gather, self._weights):
            a.setflags(write=False)


def assemble_operator(basis: TransferBasis, z,
                      twist: float = 0.0) -> scipy.sparse.csr_matrix:
    """Weighted (optionally twisted) projective Markov operator, as CSR.

    Row j carries sum_i z_i e^{twist * phi(A_i, v_j)} times the hat weights
    of the image angle of A_i v_j, the blocks added in order i = 0..N-1.
    For real simplex z and twist 0 the result is row-stochastic. Real z
    and twist give float64 data, so the eigensolve runs in real arithmetic;
    the entries are those of the complex fill, bit for bit.
    """
    import scipy.sparse
    N = basis.tuple.N
    z = np.asarray(z, dtype=complex)
    if z.shape != (N,):
        raise ValueError(f"need {N} weights, got shape {z.shape}")
    if abs(z.sum() - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {z.sum()}")
    if not np.any(z.imag):
        z = z.real
    scale = z[:, None] * np.exp(twist * basis.phi)
    data = np.zeros(len(basis.indices), dtype=scale.dtype)
    np.add.at(data, basis._slot, scale.ravel()[basis._gather]
              * basis._weights)
    m = basis.grid.m
    return scipy.sparse.csr_matrix((data, basis.indices, basis.indptr),
                                   shape=(m, m))


def assemble_chain_operator(P,
                            basis: TransferBasis) -> scipy.sparse.csr_matrix:
    """Block operator of the chain-driven cocycle: block (i,j) = P_ij T_{A_j}.

    Real P gives a float64 operator.
    """
    import scipy.sparse
    P = np.asarray(P, dtype=complex)
    if not np.any(P.imag):
        P = P.real
    N = basis.tuple.N
    if P.shape != (N, N):
        raise ValueError(f"transition matrix must be {N}x{N}")
    if np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12:
        raise ValueError("transition rows must sum to 1")
    return scipy.sparse.bmat([[P[i, j] * basis.blocks[j] for j in range(N)]
                              for i in range(N)], format="csr")


# ---------------------------------------------------------------------------
# One BLAS thread per solve.

@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS loaded in the process.

    A NumPy/SciPy wheel install loads two copies, NumPy's 64-bit-integer
    build and SciPy's own. They are found among the process's mapped files
    (Linux), and the lookup is cached, so it runs once, at the first solve,
    when both copies are loaded. Elsewhere it finds none and returns ().
    """
    import ctypes
    import os
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in maps
                            if "openblas" in line.lower()})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""),
                               ("", "64_"), ("", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}",
                          None)
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}",
                           None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                controls.append((get, set_))
                break
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with every loaded OpenBLAS on one thread, then restore.

    The count is process-global: it is 1 for every thread of the process
    while the body runs, and the old count is back when the body ends or
    raises. Where no OpenBLAS is found this does nothing.
    """
    controls = _openblas_thread_controls()
    old = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(controls, old):
            set_(n)


# ---------------------------------------------------------------------------
# Eigen extraction.

def _top_eigenvalues(M) -> tuple[np.ndarray, np.ndarray]:
    """EIG_COUNT largest-modulus eigenpairs (values desc by modulus, vectors).

    ARPACK on the sparse matrix; the dense LAPACK solve runs only where
    ARPACK cannot (EIG_COUNT >= n - 2) or did not converge, so partial
    eigenpairs are never used. ARPACK starts from a fixed seeded vector, so
    repeated solves give the same bits (its own random start changes per
    call).

    ARPACK iterates on M^EIG_POWER, applied as EIG_POWER products with M in
    M's dtype, so real operators stay on its real routines. |mu|^3 grows
    with |mu|, so the largest-modulus eigenvalues theta of M^3 are the cubes
    of M's and share their eigenvectors; cubing pushes the rest of the
    spectrum toward 0, and the leading pair separates in fewer steps: on
    the reference tuple 55 in place of 158 at m = 601 and 38 in place of
    124 at m = 2000, for about half the time per solve. An operator whose
    second modulus is already small (the contour diagonal pair, 21 steps
    either way) pays for the extra products. M's values are read back in
    two ways:

    - the leading value is the Rayleigh quotient x^H M x / x^H x of its
      Ritz vector x, since callers need mu itself and not its cube;
    - every other modulus is |theta|^(1/3), with the phase of its Ritz
      vector's Rayleigh quotient. An eigenvalue of modulus |mu| but another
      phase, e^(2 pi i / 3) mu say, has the same cube, so ARPACK may return
      vectors that mix the two, whose Rayleigh quotients read below the
      true modulus; theta cannot hide such a collision.

    The same product gives the leading pair's relative residual
    ||M x - mu x|| / (|mu| ||x||) against M itself. Above RESIDUAL_BOUND,
    the attempt counts as not converged (ARPACK's tol of 1e-12 bounds the
    residual on M^3 only), and the next stage runs. Over the packaged
    commands and the benchmark workloads the residual was at most 1e-14.

    Each ARPACK attempt stops after ARPACK_MAXITER restarts. A stalled one
    is retried once on a basis of RETRY_NCV vectors in place of SciPy's 20,
    and only a failed retry falls back to the dense solve. On M the
    20-vector basis crawled where the second and third moduli lie close
    (the reference tuple at m = 201, z = (1/2, 1/2) + 0.8753i (1, -1) took
    seconds); on M^3 they converge on it in 73-157 steps, and the retry
    stays as a safety net.

    Every solve runs on one OpenBLAS thread (_one_blas_thread). On a 2-core
    machine a complex ARPACK solve on the reference operator took 7.3 ms
    wall and 15.3 ms CPU on OpenBLAS's default two threads against 6.8 ms
    and 10.8 ms on one at m = 601, and 10.7 ms and 22.4 ms against 9.8 ms
    and 9.9 ms at m = 2000. The bits are those of a run under
    OPENBLAS_NUM_THREADS=1 on any core count; with two threads ARPACK's
    complex m = 601 solves differ from them in the last bits.
    """
    import scipy.linalg
    import scipy.sparse.linalg
    n = M.shape[0]
    with _one_blas_thread():
        if EIG_COUNT < n - 2:

            def apply_power(x):
                for _ in range(EIG_POWER):
                    x = M @ x
                return x

            power = scipy.sparse.linalg.LinearOperator(
                M.shape, matvec=apply_power, dtype=M.dtype)
            v0 = np.random.default_rng(0).random(n)
            for ncv in (None, min(n - 1, RETRY_NCV)):
                try:
                    theta, vecs = scipy.sparse.linalg.eigs(
                        power, k=EIG_COUNT, which="LM", v0=v0, ncv=ncv,
                        maxiter=ARPACK_MAXITER, tol=1e-12)
                except scipy.sparse.linalg.ArpackNoConvergence:
                    continue
                order = np.argsort(-np.abs(theta))
                theta, vecs = theta[order], vecs[:, order]
                images = M @ vecs
                squares = np.sum(np.abs(vecs) ** 2, axis=0)
                rayleigh = np.sum(vecs.conj() * images, axis=0) / squares
                mu = rayleigh[0]
                residual = images[:, 0] - mu * vecs[:, 0]
                if (np.vdot(residual, residual).real
                        <= (RESIDUAL_BOUND * abs(mu)) ** 2 * squares[0]):
                    vals = (np.abs(theta) ** (1.0 / EIG_POWER)
                            * np.exp(1j * np.angle(rayleigh)))
                    vals[0] = mu
                    return vals, vecs
        vals, vecs = scipy.linalg.eig(M.toarray())
    order = np.argsort(-np.abs(vals))[:EIG_COUNT]
    return vals[order], vecs[:, order]


def _require_simple(vals: np.ndarray) -> None:
    """Raise unless the leading eigenvalue is simple.

    vals are sorted by descending modulus. A second eigenvalue within
    MODULUS_SHELL of the maximal modulus collides with the first, whether
    the two are distinct or a repeated root.
    """
    mods = np.abs(vals)
    if len(vals) > 1 and mods[1] >= mods[0] - MODULUS_SHELL:
        raise EigenvalueCollisionError(
            f"maximal-modulus eigenvalues {vals[0]} and {vals[1]} "
            "collide: leading eigenvalue is not simple")


def leading_eigenpair(M) -> tuple[complex, np.ndarray]:
    """(mu, eta): the leading eigenvalue and its left eigenvector of M.

    One solve on M^T, whose spectrum is M's. eta is normalized to mass 1,
    so it maps the constant 1-vector to 1. Raises EigenvalueCollisionError
    unless the leading eigenvalue is simple.
    """
    vals, vecs = _top_eigenvalues(M.T)
    _require_simple(vals)
    left = vecs[:, 0]
    mass = left.sum()
    if abs(mass) < 1e-14:
        raise ResolventSolveError("left eigenvector has vanishing total mass")
    return complex(vals[0]), left / mass


def spectral_gap_measured(M) -> tuple[float, float]:
    """(second-largest eigenvalue modulus rho2, gap 1 - rho2)."""
    vals, _ = _top_eigenvalues(M)
    mods = np.sort(np.abs(vals))[::-1]
    rho2 = float(mods[1]) if len(mods) > 1 else 0.0
    return rho2, 1.0 - rho2


# ---------------------------------------------------------------------------
# Holomorphic extension values.

def analytic_extension_value(basis: TransferBasis, z) -> complex:
    """lambda~_+(z) = sum_i z_i eta_z(phi(A_i, .)) on the grid.

    At real weights the operator is real, so eta, the stationary measure,
    is real and so is the value.
    """
    _, eta = leading_eigenpair(assemble_operator(basis, z))
    return complex(np.dot(z, basis.phi @ eta))


def lyapunov_via_log_deriv(basis: TransferBasis, p,
                           h: float = 1e-3) -> float:
    """Log-derivative at s = 0 of the twisted leading eigenvalue.

    Central difference (log mu(h) - log mu(-h)) / (2h).
    """
    if not 0.0 < h <= 0.1:
        raise ValueError("twist step h must lie in (0, 0.1]")
    mu_plus, _ = leading_eigenpair(assemble_operator(basis, p, twist=h))
    mu_minus, _ = leading_eigenpair(assemble_operator(basis, p, twist=-h))
    return float((np.log(mu_plus) - np.log(mu_minus)).real / (2.0 * h))


def chain_extension_value(P, basis: TransferBasis) -> complex:
    """Chain Furstenberg-Khasminskii value from the block operator.

    Uses the leading left functional eta of the block operator, normalized to
    total mass 1; the value is sum_{i,j} P_ij eta_i(phi(A_j, .)).
    """
    _, eta = leading_eigenpair(assemble_chain_operator(P, basis))
    N, m = basis.tuple.N, basis.grid.m
    return complex(np.sum(np.asarray(P) * (eta.reshape(N, m) @ basis.phi.T)))


# ---------------------------------------------------------------------------
# Contour Taylor coefficients and sharp-radius surrogate.

def taylor_coefficients(basis: TransferBasis, p0, direction, order: int,
                        contour_radius: float, nodes: int) -> np.ndarray:
    """Coefficients c_0..c_order of t -> lambda~_+(p0 + t u), |t| = contour_radius.

    Trapezoid quadrature of the Cauchy integral with `nodes` equally spaced
    contour points; requires nodes >= 4 * order and a zero-sum direction.
    p0, u and the blocks are real, so the value at the node conj(t) is the
    conjugate of the value at t, and so is a collision. Only the nodes
    k = 0..nodes // 2 are solved, and the sum pairs node k with node
    nodes - k: c_j = [v_0 + (-1)^j v_(n/2) (even n) + 2 sum_(0<k<n/2)
    Re(v_k e^(-i j theta_k))] / (n r^j), which is real.
    """
    p0 = np.asarray(p0, dtype=float)
    u = np.asarray(direction, dtype=float)
    if np.allclose(u, 0.0):
        raise ValueError("direction must be nonzero")
    if abs(u.sum()) > 1e-12:
        raise ValueError("direction must be zero-sum to stay on the hyperplane")
    if nodes < 4 * order:
        raise ValueError(f"need >= {4 * order} contour nodes for order {order}")
    if contour_radius <= 0.0:
        raise ValueError("contour radius must be positive")
    thetas = 2.0 * math.pi * np.arange(nodes // 2 + 1) / nodes
    points = np.exp(1j * thetas)
    weights = np.full(len(thetas), 2.0)
    # the nodes on the real axis are their own conjugates, and are set
    # exactly real so that their solves are real
    points[0], weights[0] = 1.0, 1.0
    if nodes % 2 == 0:
        points[-1], weights[-1] = -1.0, 1.0
    try:
        values = np.array([analytic_extension_value(
            basis, p0 + contour_radius * w * u) for w in points])
    except EigenvalueCollisionError as exc:
        raise ContourTooLargeError(
            f"leading eigenvalue collided on the contour of radius "
            f"{contour_radius}: {exc}") from exc

    js = np.arange(order + 1)
    terms = (values * np.exp(-1j * np.outer(js, thetas))).real
    return (terms @ weights / nodes / contour_radius ** js).astype(complex)


def estimate_sharp_radius(coefficients) -> dict:
    """Finite-order Cauchy-Hadamard surrogate for the convergence radius.

    1 / max_{j >= J/2} |c_j|^{1/j}; flagged indeterminate when the whole tail
    sits below 1e-14 (polynomial-like coefficient decay).
    """
    c = np.asarray(coefficients, dtype=complex)
    if len(c) < 8:
        raise ValueError("need at least 8 coefficients")
    J = len(c) - 1
    tail = np.arange(math.ceil(J / 2), J + 1)
    mags = np.abs(c[tail])
    if np.all(mags < 1e-14):
        return {"radius": math.inf, "indeterminate": True}
    roots = mags[mags > 0] ** (1.0 / tail[mags > 0])
    return {"radius": float(1.0 / roots.max()), "indeterminate": False}


# ---------------------------------------------------------------------------
# Holomorphy and Neumann checks.

def cr_holomorphy_check(evaluator, t0: complex, h: float) -> float:
    """Cauchy-Riemann residual |d_x f - (1/i) d_y f| by central differences."""
    if not 1e-6 < h < 1e-2:
        raise ValueError("h must lie in (1e-6, 1e-2)")
    dfdx = (evaluator(t0 + h) - evaluator(t0 - h)) / (2.0 * h)
    dfdy = (evaluator(t0 + 1j * h) - evaluator(t0 - 1j * h)) / (2.0 * h)
    return float(abs(dfdx + 1j * dfdy))


def neumann_criterion_check(basis: TransferBasis, p0, z, rho_star: float,
                            contour_nodes: int = 8) -> float:
    """max over the isolating circle of ||(P_z - P_p0)(zeta I - P_p0)^{-1}||.

    zeta runs over contour_nodes points on |zeta - 1| = rho_star; the value
    reports the Neumann-series contraction factor of the perturbed resolvent.
    The dense solves and 2-norms run on one OpenBLAS thread.
    """
    import scipy.linalg
    M0 = assemble_operator(basis, p0).toarray()
    Dz = assemble_operator(basis, z).toarray() - M0
    m = basis.grid.m
    worst = 0.0
    with _one_blas_thread():
        for q in range(contour_nodes):
            zeta = 1.0 + rho_star * np.exp(
                2j * math.pi * (q + 0.5) / contour_nodes)
            S = zeta * np.eye(m) - M0
            try:
                X = scipy.linalg.solve(S.T, Dz.T).T
            except scipy.linalg.LinAlgError as exc:
                raise ResolventSolveError(
                    f"resolvent solve failed at zeta = {zeta}") from exc
            worst = max(worst, float(np.linalg.norm(X, 2)))
    return worst
