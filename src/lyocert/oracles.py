"""Monte Carlo estimators for Lyapunov spectra of random matrix products.

These are the ground-truth oracles: i.i.d. and Markov-chain driven cocycles,
top exponent, full spectrum via a QR (Benettin-style) recurrence, and
exterior-power partial sums. A single vector (top exponent, partial sums)
is renormalized by its length every RENORM_INTERVAL steps; a frame of
several vectors (spectrum) by a QR, at a block length short enough that no
block product loses its lower directions (block_length). All estimators are
deterministic functions of (spec, steps, trials, seed); per-trial streams
are derived from the master seed with a counter split, so each trial's
estimate does not depend on the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import MatrixTuple, exterior_power

RENORM_INTERVAL = 16
# Largest condition number a block product of a multi-vector frame may reach.
FRAME_CONDITION_LIMIT = 1e12
DEFAULT_BURNIN = 1000


class NumericOverflowError(ArithmeticError):
    """Non-finite accumulation; signals a missing renormalization."""


@dataclass(frozen=True)
class CocycleSpec:
    """Driving law of the cocycle: i.i.d. weights or a Markov chain."""

    kind: str  # "iid" | "markov"
    tuple: MatrixTuple
    weights: np.ndarray | None = None      # iid: simplex point, > 0
    transition: np.ndarray | None = None   # markov: row-stochastic, > 0

    @classmethod
    def iid(cls, tuple_: MatrixTuple, weights) -> "CocycleSpec":
        w = np.asarray(weights, dtype=float)
        if w.shape != (tuple_.N,):
            raise ValueError(f"weights must have length {tuple_.N}")
        if abs(w.sum() - 1.0) > 1e-12 or np.any(w <= 0.0):
            raise ValueError("weights must be positive and sum to 1")
        w = w.copy()
        w.setflags(write=False)
        return cls(kind="iid", tuple=tuple_, weights=w)

    @classmethod
    def markov(cls, tuple_: MatrixTuple, transition) -> "CocycleSpec":
        P = np.asarray(transition, dtype=float)
        if P.shape != (tuple_.N, tuple_.N):
            raise ValueError(f"transition must be {tuple_.N} x {tuple_.N}")
        if np.any(P <= 0.0) or np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("transition rows must be positive and sum to 1")
        P = P.copy()
        P.setflags(write=False)
        return cls(kind="markov", tuple=tuple_, transition=P)

    @property
    def chain_gap(self) -> float:
        """1 - |second largest eigenvalue of P| (markov kind)."""
        if self.kind != "markov":
            raise ValueError("chain_gap is defined for markov specs")
        ev = np.sort(np.abs(np.linalg.eigvals(self.transition)))[::-1]
        return float(1.0 - ev[1]) if ev.size > 1 else 1.0


@dataclass(frozen=True)
class SpectrumEstimate:
    exponents: np.ndarray       # descending, nats per step
    standard_errors: np.ndarray
    steps: int
    trials: int
    seed: int


def stationary_distribution(P) -> np.ndarray:
    """Left Perron vector of a positive row-stochastic matrix, mass 1."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("transition matrix must be square")
    if np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-10 or np.any(P < 0.0):
        raise ValueError("matrix is not row-stochastic")
    w, v = np.linalg.eig(P.T)
    i = int(np.argmin(np.abs(w - 1.0)))
    pi = np.real(v[:, i])
    pi = pi / pi.sum()
    if np.any(pi <= 0.0):
        raise ValueError("stationary vector is not strictly positive")
    return pi


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


def _draw_indices(spec: CocycleSpec, rngs, n: int) -> np.ndarray:
    """(len(rngs), n) driving index sequences, row r drawn from rngs[r]
    (chain started from pi(P))."""
    if spec.kind == "iid":
        return np.array([rng.choice(spec.tuple.N, size=n, p=spec.weights)
                         for rng in rngs])
    P = spec.transition
    cum = np.cumsum(P, axis=1)
    # Rows sum to 1 only within 1e-12; a u above a row's last partial sum
    # would index past the last state.
    cum[:, -1] = 1.0
    pi = stationary_distribution(P)
    start = np.empty(len(rngs), dtype=np.int64)
    u = np.empty((len(rngs), n))
    for r, rng in enumerate(rngs):
        start[r] = rng.choice(spec.tuple.N, p=pi)
        u[r] = rng.random(n)
    # succ[s, r, t] is the state after s at step t of row r: the count of
    # partial sums of row s below u[r, t], which searchsorted(..., "left")
    # gives.
    succ = np.empty((len(cum), len(rngs), n),
                    dtype=np.min_scalar_type(len(cum) - 1))
    for s, c in enumerate(cum):
        succ[s] = np.searchsorted(c, u, "left")
    # Doubling scan: after the pass with shift k, succ[:, r, t] maps the
    # state before step max(t - 2k + 1, 0) to the state after step t.
    k = 1
    while k < n:
        succ[:, :, k:] = np.take_along_axis(succ[:, :, k:], succ[:, :, :-k],
                                            axis=0)
        k *= 2
    idx = np.take_along_axis(succ, start[None, :, None], axis=0)[0]
    return idx.astype(np.int64)


def block_length(matrices, n_vectors: int) -> int:
    """Steps between renormalizations of a frame of n_vectors vectors.

    One vector keeps its direction through any product, so it renormalizes
    every RENORM_INTERVAL steps. A frame of several vectors keeps its lower
    directions only while a block product's condition number stays well
    inside double precision: it takes the largest L <= RENORM_INTERVAL with
    ecc_max^L <= FRAME_CONDITION_LIMIT, ecc_max the largest eccentricity of
    the matrices.
    """
    if n_vectors == 1:
        return RENORM_INTERVAL
    sv = np.linalg.svd(matrices, compute_uv=False)
    log_ecc = math.log(float(np.max(sv[:, 0] / sv[:, -1])))
    length = RENORM_INTERVAL
    while length > 1 and length * log_ecc > math.log(FRAME_CONDITION_LIMIT):
        length -= 1
    return length


def _renormalize(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal frames of a stack (..., d, n) and the moduli (..., n) of
    their R-diagonals, diagonal signs folded into the frames.

    One vector is divided by its length, taken as LAPACK's nrm2 takes it:
    scaled by the largest entry first, so no square overflows. Several
    vectors take a QR.
    """
    if v.shape[-1] == 1:
        scale = np.maximum.reduce(np.abs(v), axis=-2, keepdims=True)
        v = v / scale
        length = np.sqrt(np.add.reduce(v * v, axis=-2, keepdims=True))
        return v / length, (scale * length)[..., 0, :]
    q, r = np.linalg.qr(v)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * np.sign(diag)[..., None, :], np.abs(diag)


def _run_trials(spec: CocycleSpec, steps: int, trials: int, seed: int,
                burnin: int, n_vectors: int, matrices) -> np.ndarray:
    """(trials, n_vectors) per-trial exponent estimates, fixed trial order.

    Each trial draws its indices, then its initial frame, from its own
    stream. The steps fall into blocks of block_length(matrices, n_vectors)
    steps, with burn-in ending on a block edge, so no block mixes burn-in
    and accumulation. The product of every block of every trial is built at
    once, a short block padded with the identity, which multiplies exactly.
    All trials' orthonormal frames then advance block by block, each
    followed by a renormalization (_renormalize): a division by the length
    for one vector, a QR for several. The per-direction sums of log lengths
    (log R-diagonals) over the `steps` window after burn-in are the
    estimates. The lengths of every block are checked once, after the last.
    """
    if steps < 1 or trials < 1:
        raise ValueError("steps and trials must be >= 1")
    rngs = [_trial_rng(seed, trial) for trial in range(trials)]
    total = burnin + steps
    idx = _draw_indices(spec, rngs, total)
    mats = np.asarray(matrices)
    d = mats.shape[-1]
    block = block_length(mats, n_vectors)
    frames = np.linalg.qr(np.array(
        [rng.standard_normal((d, n_vectors)) for rng in rngs]))[0]
    burnin_starts = np.arange(0, burnin, block)
    starts = np.concatenate([burnin_starts, np.arange(burnin, total, block)])
    ends = np.append(starts[1:], total)
    # past a block's end, steps take the identity appended to the matrices
    padded = np.concatenate([mats, np.eye(d)[None]])
    products = np.eye(d)
    lengths = np.empty((len(starts), trials, n_vectors))
    # an overflowing product, or a zero or non-finite length, leaves NaN or
    # infinite frames for the blocks after it; the check below finds it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for j in range(block):
            step = np.where((starts + j < ends)[:, None],
                            idx.T[np.minimum(starts + j, total - 1)],
                            len(mats))
            products = padded[step] @ products
        for b, product in enumerate(products):
            frames, lengths[b] = _renormalize(product @ frames)
    if np.any(lengths < 1e-300) or not np.all(np.isfinite(lengths)):
        raise NumericOverflowError("frame degenerated during accumulation")
    return np.log(lengths[len(burnin_starts):]).sum(axis=0) / steps


def _mean_stderr(per_trial: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    trials = per_trial.shape[0]
    mean = per_trial.mean(axis=0)
    if trials > 1:
        stderr = per_trial.std(axis=0, ddof=1) / math.sqrt(trials)
    else:
        stderr = np.full(mean.shape, np.inf)
    return mean, stderr


def estimate_top_exponent(spec: CocycleSpec, steps: int, trials: int,
                          seed: int, burnin: int = DEFAULT_BURNIN):
    """Top Lyapunov exponent (nats/step) with trial-based standard error."""
    per = _run_trials(spec, steps, trials, seed, burnin, 1, spec.tuple.matrices)
    mean, stderr = _mean_stderr(per)
    return float(mean[0]), float(stderr[0])


def estimate_spectrum(spec: CocycleSpec, steps: int, trials: int, seed: int,
                      burnin: int = DEFAULT_BURNIN) -> SpectrumEstimate:
    """Full Lyapunov spectrum via the orthonormal-frame QR recurrence."""
    d = spec.tuple.d
    per = _run_trials(spec, steps, trials, seed, burnin, d, spec.tuple.matrices)
    mean, stderr = _mean_stderr(per)
    return SpectrumEstimate(exponents=mean, standard_errors=stderr,
                            steps=steps, trials=trials, seed=seed)


def estimate_partial_sum(spec: CocycleSpec, k: int, steps: int, trials: int,
                         seed: int, burnin: int = DEFAULT_BURNIN):
    """Top exponent of the k-th exterior-power cocycle: lambda_1+...+lambda_k."""
    d = spec.tuple.d
    if not 1 <= k <= d - 1:
        raise ValueError(f"need 1 <= k <= d-1, got {k}")
    wedge = exterior_power(np.array(spec.tuple.matrices), k)
    per = _run_trials(spec, steps, trials, seed, burnin, 1, wedge)
    mean, stderr = _mean_stderr(per)
    return float(mean[0]), float(stderr[0])


def estimate_markov_exponent(spec: CocycleSpec, steps: int, trials: int,
                             seed: int, burnin: int = DEFAULT_BURNIN):
    """Top exponent of the Markov-chain driven cocycle (chain from pi(P))."""
    if spec.kind != "markov":
        raise ValueError("spec must be of markov kind")
    return estimate_top_exponent(spec, steps, trials, seed, burnin)


def determinant_log_mean(spec: CocycleSpec) -> float:
    """Exact sum of all exponents: E log|det A| under the driving law."""
    logdet = np.log(np.abs(spec.tuple.determinants))
    if spec.kind == "iid":
        return float(np.dot(spec.weights, logdet))
    pi = stationary_distribution(spec.transition)
    return float(pi @ spec.transition @ logdet)


def gap_from_estimates(spec: CocycleSpec, top=None,
                       spectrum: SpectrumEstimate | None = None):
    """Simplicity gap lambda_1 - lambda_2 with standard error, from
    estimates already made.

    For d = 2 it takes top, the (mean, stderr) of estimate_top_exponent,
    and uses the exact identity lambda_1 + lambda_2 = E log|det A|; for
    d >= 3 it takes the estimate_spectrum result.
    """
    if spec.tuple.d == 2:
        lam, se = top
        return 2.0 * lam - determinant_log_mean(spec), 2.0 * se
    gap = float(spectrum.exponents[0] - spectrum.exponents[1])
    se = float(math.hypot(spectrum.standard_errors[0],
                          spectrum.standard_errors[1]))
    return gap, se


def lyapunov_gap(spec: CocycleSpec, steps: int, trials: int, seed: int,
                 burnin: int = DEFAULT_BURNIN):
    """Simplicity gap lambda_1 - lambda_2 with standard error.

    For d = 2 only the top exponent is estimated (see gap_from_estimates).
    """
    if spec.tuple.d == 2:
        return gap_from_estimates(spec, top=estimate_top_exponent(
            spec, steps, trials, seed, burnin))
    return gap_from_estimates(spec, spectrum=estimate_spectrum(
        spec, steps, trials, seed, burnin))
