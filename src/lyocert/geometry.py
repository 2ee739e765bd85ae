"""Matrices, projective and Grassmannian geometry, exterior powers.

Everything here is pure: the types are frozen after construction and the
operations allocate fresh arrays.
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
    """Flip each vector of a stack (..., n) so its first nonzero entry is > 0."""
    nz = np.abs(v) > 1e-14
    lead = np.take_along_axis(v, np.argmax(nz, axis=-1)[..., None], axis=-1)
    return np.where((lead < 0) & nz.any(axis=-1, keepdims=True), -v, v)


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


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """np.dot over the last axis of two stacks (..., d), pair by pair."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def fs_distance_vec(u: np.ndarray, v: np.ndarray):
    """Fubini-Study distance of matching vectors of two stacks (..., d)."""
    nu = np.sqrt(_dot(u, u))
    nv = np.sqrt(_dot(v, v))
    dot = _dot(u, v)
    # ||u ^ v||^2 = ||u||^2 ||v||^2 - <u, v>^2
    sq = np.maximum(nu * nu * nv * nv - dot * dot, 0.0)
    return np.sqrt(sq) / (nu * nv)


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
    tuples; this fixes all sign conventions. g may be a stack (..., d, d).
    """
    g = np.asarray(g, dtype=float)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
        raise InvalidMatrixError(f"expected square matrices, got shape {g.shape}")
    d = g.shape[-1]
    if not 1 <= k <= d:
        raise ValueError(f"k = {k} out of range for d = {d}")
    sub = np.array(_lex_subsets(d, k))
    return np.linalg.det(g[..., sub[:, None, :, None], sub[None, :, None, :]])


def wedge_vector(basis: np.ndarray) -> np.ndarray:
    """k-fold wedge of the columns of d x k matrices (..., d, k), lex basis."""
    d, k = basis.shape[-2:]
    return np.linalg.det(basis[..., np.array(_lex_subsets(d, k)), :])


def unit_plane(basis) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis and canonical unit wedge of the column span of a
    d x k matrix or a stack (..., d, k); ValueError on dependent columns."""
    q, r = np.linalg.qr(basis)
    if np.min(np.abs(np.diagonal(r, axis1=-2, axis2=-1))) < 1e-12:
        raise ValueError("basis vectors are linearly dependent")
    w = wedge_vector(q)
    return q, _canonical_sign(w / np.linalg.norm(w, axis=-1, keepdims=True))


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
        q, w = unit_plane(basis)
        q = np.ascontiguousarray(q)
        q.setflags(write=False)
        w.setflags(write=False)
        return cls(k=k, d=d, basis=q, wedge=w)


def grassmann_distance(V: GrassmannPoint, W: GrassmannPoint) -> float:
    """Chordal Fubini-Study distance min_sign ||v_V -/+ v_W|| on Gr(k, d)."""
    if (V.k, V.d) != (W.k, W.d):
        raise ValueError("mismatched (k, d)")
    return float(wedge_distance(V.wedge, W.wedge))


def wedge_distance(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """min_sign ||v -/+ w|| over the last axis of two stacks of unit wedges."""
    return np.minimum(np.linalg.norm(v - w, axis=-1),
                      np.linalg.norm(v + w, axis=-1))


def grassmann_action(g, V: GrassmannPoint) -> GrassmannPoint:
    g = _as_matrix(g)
    return GrassmannPoint.from_basis(g @ V.basis)


# ---------------------------------------------------------------------------
# Random sampling helpers used by the lemma-checking suites.

def sample_directions(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n uniform-on-sphere unit vectors in R^d, as rows."""
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def draw_matrix_sample(rng: np.random.Generator, d: int,
                       s_range=(0.2, 5.0)) -> tuple[np.ndarray, np.ndarray]:
    """The random draws of one sample_matrix call, in stream order: d
    log-uniform log singular values, then the normals of the two rotations."""
    lo, hi = np.log(s_range[0]), np.log(s_range[1])
    return rng.uniform(lo, hi, size=d), rng.standard_normal((2, d, d))


def matrix_from_draws(log_s: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """R1 diag(s) R2 from draw_matrix_sample outputs, stacked on leading axes:
    log_s (..., d) and normals (..., 2, d, d) give sign-fixed QR rotations."""
    q, r = np.linalg.qr(normals)
    rot = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    return (rot[..., 0, :, :] * np.exp(log_s)[..., None, :]) @ rot[..., 1, :, :]


def sample_matrix(rng: np.random.Generator, d: int,
                  s_range=(0.2, 5.0)) -> np.ndarray:
    """R1 diag(s) R2 with random rotations and log-uniform singular values.

    Covers the eccentricity range up to (s_max/s_min) without degenerate
    input.
    """
    return matrix_from_draws(*draw_matrix_sample(rng, d, s_range))
