"""Matrices, projective and Grassmannian geometry, exterior powers.

Everything here is pure: the types are frozen after construction and the
operations allocate fresh arrays, so they can be shared freely across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


class InvalidMatrixError(ValueError):
    """Raised for singular or malformed matrix input."""


def _as_matrix(g) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise InvalidMatrixError(f"expected a square matrix, got shape {g.shape}")
    return g


def singular_values(g) -> np.ndarray:
    return np.linalg.svd(_as_matrix(g), compute_uv=False)


def operator_norm(g) -> float:
    return float(singular_values(g)[0])


def inverse_norm(g) -> float:
    s = singular_values(g)
    if s[-1] <= 0.0 or not np.isfinite(s[-1]):
        raise InvalidMatrixError("matrix is singular")
    return float(1.0 / s[-1])


def eccentricity(g) -> float:
    """Condition number sigma_1/sigma_d in the spectral norm (>= 1)."""
    s = singular_values(g)
    if s[-1] <= 0.0:
        raise InvalidMatrixError("matrix is singular")
    return float(s[0] / s[-1])


@dataclass(frozen=True)
class MatrixTuple:
    """A tuple of invertible d x d real matrices with cached norm data."""

    matrices: tuple  # of (d, d) ndarrays, read-only
    d: int
    N: int
    operator_norms: np.ndarray
    inverse_norms: np.ndarray
    determinants: np.ndarray
    eccentricities: np.ndarray

    @classmethod
    def from_matrices(cls, matrices) -> "MatrixTuple":
        mats = [_as_matrix(m) for m in matrices]
        if not mats:
            raise InvalidMatrixError("need at least one matrix")
        d = mats[0].shape[0]
        if d < 2:
            raise InvalidMatrixError("dimension must be >= 2")
        if any(m.shape[0] != d for m in mats):
            raise InvalidMatrixError("all matrices must share the same dimension")
        svals = [np.linalg.svd(m, compute_uv=False) for m in mats]
        smin = np.array([s[-1] for s in svals])
        if np.any(smin <= 0.0) or not np.all(np.isfinite(smin)):
            raise InvalidMatrixError("all matrices must be invertible")
        for m in mats:
            m.setflags(write=False)
        return cls(
            matrices=tuple(mats),
            d=d,
            N=len(mats),
            operator_norms=np.array([s[0] for s in svals]),
            inverse_norms=1.0 / smin,
            determinants=np.array([np.linalg.det(m) for m in mats]),
            eccentricities=np.array([s[0] / s[-1] for s in svals]),
        )

    @property
    def ecc(self) -> float:
        """Tuple-level eccentricity max_i ||A_i|| * ||A_i^-1||."""
        return float(self.eccentricities.max())

    @property
    def log_norm_sup(self) -> float:
        return float(np.log(self.operator_norms).max())

    def scaled(self, c: float) -> "MatrixTuple":
        return MatrixTuple.from_matrices([c * m for m in self.matrices])


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    nz = np.nonzero(np.abs(v) > 1e-14)[0]
    if nz.size and v[nz[0]] < 0:
        return -v
    return v


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of real projective space, stored as a canonical unit vector.

    The representative has unit norm and positive first nonzero coordinate,
    which makes equality and interpolation well-defined.
    """

    vector: np.ndarray

    @classmethod
    def from_vector(cls, v) -> "ProjectivePoint":
        v = np.asarray(v, dtype=float)
        n = np.linalg.norm(v)
        if n == 0.0 or not np.isfinite(n):
            raise ValueError("cannot projectivize the zero vector")
        v = _canonical_sign(v / n)
        v.setflags(write=False)
        return cls(v)

    @classmethod
    def from_angle(cls, phi: float) -> "ProjectivePoint":
        # d = 2 convenience: the line at angle phi (mod pi).
        return cls.from_vector([math.cos(phi), math.sin(phi)])

    @property
    def d(self) -> int:
        return self.vector.shape[0]

    @property
    def angle(self) -> float:
        if self.d != 2:
            raise ValueError("angle is defined only for d = 2")
        return float(math.atan2(self.vector[1], self.vector[0]) % math.pi)


def fs_distance(u: ProjectivePoint, v: ProjectivePoint) -> float:
    """Fubini-Study distance ||u ^ v|| / (||u|| ||v||); |sin(angle)| for d = 2."""
    if u.d != v.d:
        raise ValueError("dimension mismatch")
    return fs_distance_vec(u.vector, v.vector)


def fs_distance_vec(u: np.ndarray, v: np.ndarray) -> float:
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    dot = float(np.dot(u, v))
    # ||u ^ v||^2 = ||u||^2 ||v||^2 - <u, v>^2
    sq = max(nu * nu * nv * nv - dot * dot, 0.0)
    return math.sqrt(sq) / (nu * nv)


def projective_action(g, v: ProjectivePoint) -> ProjectivePoint:
    g = _as_matrix(g)
    return ProjectivePoint.from_vector(g @ v.vector)


def log_norm_phi(g, v: ProjectivePoint) -> float:
    """One-step log stretch phi(g, [v]) = log(||g v|| / ||v||) at unit v."""
    g = _as_matrix(g)
    return float(np.log(np.linalg.norm(g @ v.vector)))


def _lex_subsets(d: int, k: int):
    return list(itertools.combinations(range(d), k))


def exterior_power(g, k: int) -> np.ndarray:
    """Matrix of the k-th exterior power in the lexicographic wedge basis.

    Entry (I, J) is the k x k minor det(g[I, J]) with I, J sorted index
    tuples; this fixes all sign conventions.
    """
    g = _as_matrix(g)
    d = g.shape[0]
    if not 1 <= k <= d:
        raise ValueError(f"k = {k} out of range for d = {d}")
    subsets = _lex_subsets(d, k)
    n = len(subsets)
    out = np.empty((n, n))
    for a, rows in enumerate(subsets):
        gr = g[np.ix_(rows, range(d))]
        for b, cols in enumerate(subsets):
            out[a, b] = np.linalg.det(gr[:, cols])
    return out


def wedge_vector(basis: np.ndarray) -> np.ndarray:
    """k-fold wedge of the columns of a d x k matrix, lexicographic basis."""
    d, k = basis.shape
    subsets = _lex_subsets(d, k)
    return np.array([np.linalg.det(basis[list(rows), :]) for rows in subsets])


@dataclass(frozen=True)
class GrassmannPoint:
    """A k-plane in R^d: an orthonormal basis plus its unit wedge vector."""

    k: int
    d: int
    basis: np.ndarray  # (d, k), orthonormal columns
    wedge: np.ndarray  # (C(d, k),), unit norm, sign canonicalized

    @classmethod
    def from_basis(cls, basis) -> "GrassmannPoint":
        basis = np.asarray(basis, dtype=float)
        if basis.ndim != 2:
            raise ValueError("basis must be a d x k matrix of column vectors")
        d, k = basis.shape
        if not 1 <= k <= d - 1:
            raise ValueError(f"need 1 <= k <= d-1, got k={k}, d={d}")
        q, r = np.linalg.qr(basis)
        if np.min(np.abs(np.diag(r))) < 1e-12:
            raise ValueError("basis vectors are linearly dependent")
        w = wedge_vector(q)
        w = _canonical_sign(w / np.linalg.norm(w))
        q = np.ascontiguousarray(q)
        q.setflags(write=False)
        w.setflags(write=False)
        return cls(k=k, d=d, basis=q, wedge=w)


def grassmann_distance(V: GrassmannPoint, W: GrassmannPoint) -> float:
    """Chordal Fubini-Study distance min_sign ||v_V -/+ v_W|| on Gr(k, d)."""
    if (V.k, V.d) != (W.k, W.d):
        raise ValueError("mismatched (k, d)")
    return float(
        min(np.linalg.norm(V.wedge - W.wedge), np.linalg.norm(V.wedge + W.wedge))
    )


def grassmann_action(g, V: GrassmannPoint) -> GrassmannPoint:
    g = _as_matrix(g)
    return GrassmannPoint.from_basis(g @ V.basis)


# ---------------------------------------------------------------------------
# Random sampling helpers used by the lemma-checking suites.

def sample_directions(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n uniform-on-sphere unit vectors in R^d, as rows."""
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def sample_matrix(rng: np.random.Generator, d: int,
                  s_range=(0.2, 5.0)) -> np.ndarray:
    """R1 diag(s) R2 with random rotations and log-uniform singular values.

    Covers the eccentricity range up to (s_max/s_min) without degenerate
    input.
    """
    lo, hi = np.log(s_range[0]), np.log(s_range[1])
    s = np.exp(rng.uniform(lo, hi, size=d))
    return random_rotation(rng, d) @ np.diag(s) @ random_rotation(rng, d)
