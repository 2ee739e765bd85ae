"""Matrices, projective and Grassmannian geometry, exterior powers.

Everything here is pure: MatrixTuple is frozen after construction and the
operations allocate fresh arrays. Points of projective space are stacks of
vectors, measured by fs_distance_vec; planes in R^3, the one Grassmannian
the lemma suite samples, are stacks of unit wedges (their three 2 x 2
minors), measured by wedge_distance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


class InvalidMatrixError(ValueError):
    """Raised for singular or malformed matrix input."""


def _as_matrix(g) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise InvalidMatrixError(f"expected a square matrix, got shape {g.shape}")
    return g


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


def unit_wedge(basis) -> np.ndarray:
    """Unit wedge of the plane spanned by the columns a, b of a 3 x 2 matrix
    or a stack (..., 3, 2): the lex-ordered 2 x 2 minors
    (a0 b1 - a1 b0, a0 b2 - a2 b0, a1 b2 - a2 b1) over their norm.
    ValueError on any other shape and on dependent columns.

    The wedge norm is the area spanned by the columns, at most the product
    of their lengths (Hadamard); columns are dependent when it is not above
    1e-12 of that product, which takes in a zero column. No sign is fixed:
    wedge_distance identifies w with -w.
    """
    basis = np.asarray(basis, dtype=float)
    if basis.shape[-2:] != (3, 2):
        raise ValueError(f"expected planes in R^3 as (..., 3, 2), "
                         f"got shape {basis.shape}")
    (a0, b0), (a1, b1), (a2, b2) = np.moveaxis(basis, (-2, -1), (0, 1))
    w = np.stack([a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a1 * b2 - a2 * b1],
                 axis=-1)
    norm = np.linalg.norm(w, axis=-1, keepdims=True)
    lengths = np.prod(np.linalg.norm(basis, axis=-2), axis=-1)
    if not np.all(norm[..., 0] > 1e-12 * lengths):
        raise ValueError("basis vectors are linearly dependent")
    return w / norm


def wedge_distance(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Chordal Fubini-Study distance on the Grassmannian: min_sign
    ||v -/+ w|| over the last axis of two stacks of unit wedges."""
    return np.minimum(np.linalg.norm(v - w, axis=-1),
                      np.linalg.norm(v + w, axis=-1))


# ---------------------------------------------------------------------------
# Random sampling helpers used by the lemma-checking suites.

def sample_directions(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n uniform-on-sphere unit vectors in R^d, as rows."""
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# Singular-value range of sample_matrix: sigma_min >= 0.2, sigma_max <= 5.
SINGULAR_RANGE = (0.2, 5.0)


def _gram_schmidt(a: np.ndarray) -> np.ndarray:
    """Q of a = QR with R's diagonal positive, for a stack (..., d, d) of
    invertible matrices: Gram-Schmidt on the columns in order, each column
    orthogonalized twice against the ones before it. This is the Q of
    np.linalg.qr with the signs of R's diagonal moved into Q, to rounding of
    order eps * cond(a). Works entry first: t[c, i] = a[..., i, c]."""
    t = np.ascontiguousarray(np.moveaxis(a, (-1, -2), (0, 1)), dtype=float)
    for c in range(len(t)):
        for _ in range(2 if c else 0):
            for j in range(c):
                t[c] -= np.sum(t[j] * t[c], axis=0) * t[j]
        t[c] /= np.sqrt(np.sum(t[c] * t[c], axis=0))
    return np.ascontiguousarray(np.moveaxis(t, (0, 1), (-1, -2)))


def matrix_law(uniforms: np.ndarray, normals: np.ndarray):
    """The law of sample_matrix, stacked on leading axes: uniforms (..., d)
    in [0, 1) give log singular values uniform over log SINGULAR_RANGE, and
    normals (..., 2, d, d) the rotations R1, R2, their orthonormalized
    columns (see _gram_schmidt). Returns g = R1 diag(s) R2 and its singular
    values, the drawn s in descending order; no factorization is taken."""
    lo, hi = np.log(SINGULAR_RANGE)
    s = np.exp(lo + (hi - lo) * uniforms)
    rot = _gram_schmidt(normals)
    g = (rot[..., 0, :, :] * s[..., None, :]) @ rot[..., 1, :, :]
    return g, np.sort(s, axis=-1)[..., ::-1]


def sample_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    """R1 diag(s) R2 with random rotations and log-uniform singular values.

    Covers the eccentricity range up to (s_max/s_min) without degenerate
    input. Draws d uniforms, then the normals of the two rotations.
    """
    return matrix_law(rng.random(d), rng.standard_normal((2, d, d)))[0]
