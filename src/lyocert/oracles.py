"""Monte Carlo estimators for Lyapunov spectra of random matrix products.

These are the ground-truth oracles: i.i.d. and Markov-chain driven cocycles,
top exponent, full spectrum via a QR (Benettin-style) recurrence, and
exterior-power partial sums. All estimators are deterministic functions of
(spec, steps, trials, seed); per-trial streams are derived from the master
seed with a counter split, so each trial's estimate does not depend on the
others.

A run's Python loops go over the steps of one block or segment, or over
the levels of a pairwise reduction, each pass covering every block of every
trial; only a frame's QRs go block by block:
- Driving indices: a Markov chain's states come from composing the
  successor maps of each CHAIN_SEGMENT steps, a doubling scan carrying the
  state across segment edges, and one walk along every segment at once.
- Block products: the steps fall into blocks of block_length steps, and
  each block's product is a product of entries of a table of all words of
  a few steps (_word_length), the identity padding short blocks.
- One vector (top exponent, partial sums) keeps its direction, so its sum
  of log lengths telescopes: the block products reduce pairwise, each
  level rescaled by its largest entry, and the estimate is the sum of the
  log scales plus one final log length.
- A frame of several vectors (spectrum) still advances block by block,
  each block followed by a QR, at a block length short enough that no
  block product loses its lower directions (block_length).
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
# Block products are built from a table of the products of every word of
# q consecutive steps: q <= MAX_WORD, and the table holds at most
# WORD_TABLE_LIMIT words (_word_length).
MAX_WORD = 4
WORD_TABLE_LIMIT = 4096
# Steps per segment of the Markov chain's index scan (_draw_indices).
CHAIN_SEGMENT = 16


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
    (chain started from pi(P)), in the smallest dtype that holds N - 1."""
    dtype = np.min_scalar_type(spec.tuple.N - 1)
    if spec.kind == "iid":
        return np.array([rng.choice(spec.tuple.N, size=n, p=spec.weights)
                         for rng in rngs], dtype=dtype)
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
    # Steps fall into segments of CHAIN_SEGMENT; steps past n, which only
    # follow the last step kept, go to state 0. succ[s, j, r, g] is the
    # state after s at step g * CHAIN_SEGMENT + j of row r: the count of
    # partial sums of row s below u there, which searchsorted(..., "left")
    # gives.
    trials, states = len(rngs), len(cum)
    segments = max(-(-n // CHAIN_SEGMENT), 1)
    row = np.zeros((trials, segments * CHAIN_SEGMENT), dtype=dtype)
    succ = np.empty((states, CHAIN_SEGMENT, trials, segments), dtype=dtype)
    for s, c in enumerate(cum):
        row[:, :n] = np.searchsorted(c, u, "left")
        succ[s] = row.reshape(trials, segments, -1).transpose(2, 0, 1)
    # through[s, r, g]: the state leaving segment g of row r entered in s,
    # composed step by step over all segments at once
    through = np.broadcast_to(np.arange(states, dtype=dtype)[:, None, None],
                              succ[:, 0].shape)
    for j in range(CHAIN_SEGMENT):
        through = np.take_along_axis(succ[:, j], through, axis=0)
    # The state entering each segment, by a doubling scan over the segment
    # maps (Hillis and Steele; Blelloch 1990): after the pass with shift k,
    # through[:, r, g] takes the state entering segment max(g - 2k + 1, 0)
    # to the state leaving segment g. Then each segment is walked from it.
    k = 1
    while k < segments:
        through[..., k:] = np.take_along_axis(through[..., k:],
                                              through[..., :-k], axis=0)
        k *= 2
    state = np.empty((1, trials, segments), dtype=dtype)
    state[0, :, 0] = start
    state[0, :, 1:] = np.take_along_axis(through[..., :-1],
                                         start[None, :, None], axis=0)[0]
    idx = np.empty((trials, segments, CHAIN_SEGMENT), dtype=dtype)
    for j in range(CHAIN_SEGMENT):
        state = np.take_along_axis(succ[:, j], state, axis=0)
        idx[..., j] = state[0]
    return idx.reshape(trials, -1)[:, :n]


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


def _word_length(block: int, letters: int) -> int:
    """Steps per tabulated word: the longest q <= MAX_WORD dividing the
    block length whose letters**q words fit in WORD_TABLE_LIMIT."""
    return next(q for q in range(MAX_WORD, 0, -1)
                if q == 1 or (block % q == 0
                              and letters ** q <= WORD_TABLE_LIMIT))


def _word_table(letters: np.ndarray, q: int) -> np.ndarray:
    """(n**q, d, d) products of all words of q letters out of n: entry
    sum_j c_j n**j is letters[c_(q-1)] @ ... @ letters[c_0], multiplied in
    step order."""
    table = letters
    for _ in range(q - 1):
        table = (letters[:, None] @ table[None]).reshape(-1, *letters.shape[1:])
    return table


def _block_products(idx: np.ndarray, mats: np.ndarray, starts: np.ndarray,
                    ends: np.ndarray, block: int) -> np.ndarray:
    """(blocks, trials, d, d) products of the steps [starts[b], ends[b]) of
    every trial, from the word table of _word_length(block, N + 1) steps.
    Past a block's end, steps take the identity appended to the matrices,
    which multiplies exactly."""
    trials, total = idx.shape
    letters = np.concatenate([mats, np.eye(mats.shape[-1])[None]])
    q = _word_length(block, len(letters))
    table = _word_table(letters, q)
    at = starts[:, None] + np.arange(block)
    letter = np.take(idx, np.minimum(at, total - 1), axis=1).astype(
        np.min_scalar_type(len(mats)), copy=False)
    letter[:, at >= ends[:, None]] = len(mats)
    words = letter.reshape(trials, len(starts), block // q, q) \
        @ len(letters) ** np.arange(q)
    products = table[words[:, :, 0].T]
    for w in range(1, block // q):
        products = table[words[:, :, w].T] @ products
    return products


def _reduce_blocks(products: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The product of a stack (blocks, trials, d, d), latest block on the
    left, as (W, log_scale) with the product exp(log_scale) * W.

    Blocks multiply pairwise, level by level, each level's matrices first
    divided by their largest entries, whose logs sum into log_scale. A
    largest entry that is not finite, or below 1e-300, raises
    NumericOverflowError.
    """
    log_scale = np.zeros(products.shape[1])
    while True:
        scale = np.max(np.abs(products), axis=(-2, -1))
        if not np.all((scale >= 1e-300) & (scale < np.inf)):
            raise NumericOverflowError("frame degenerated during accumulation")
        products = products / scale[..., None, None]
        log_scale += np.log(scale).sum(axis=0)
        if len(products) == 1:
            return products[0], log_scale
        even = len(products) - len(products) % 2
        products = np.concatenate([products[1:even:2] @ products[:even:2],
                                   products[even:]])


def _run_trials(spec: CocycleSpec, steps: int, trials: int, seed: int,
                burnin: int, n_vectors: int, matrices) -> np.ndarray:
    """(trials, n_vectors) per-trial exponent estimates, fixed trial order.

    Each trial draws its indices, then its initial frame, from its own
    stream. The steps fall into blocks of block_length(matrices, n_vectors)
    steps, with burn-in ending on a block edge, so no block mixes burn-in
    and accumulation. The product of every block of every trial is built at
    once from a table of the products of all words of a few steps
    (_block_products). The estimates are the per-direction sums of log
    lengths (log R-diagonals) over the `steps` window after burn-in.

    One vector keeps its direction through any product, so its sum
    telescopes: the burn-in blocks reduce pairwise (_reduce_blocks) to one
    matrix that moves the initial vector, which is then divided by its
    length (_renormalize); the blocks after burn-in reduce the same way,
    and the sum is their log scale plus the log length of their product
    applied to that vector. A frame of several vectors advances block by
    block instead, each block followed by a QR. A block product or level
    that is not finite, or a length below 1e-300, raises
    NumericOverflowError.
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
    burnin_blocks = -(-burnin // block)
    starts = np.concatenate([np.arange(0, burnin, block),
                             np.arange(burnin, total, block)])
    ends = np.append(starts[1:], total)
    # an overflowing product, or a zero or non-finite length, leaves NaN or
    # infinite frames for the blocks after it; the checks find it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        products = _block_products(idx, mats, starts, ends, block)
        if n_vectors == 1:
            lengths = np.ones((2, trials, 1))
            if burnin_blocks:
                burn, _ = _reduce_blocks(products[:burnin_blocks])
                frames, lengths[0] = _renormalize(burn @ frames)
            product, log_scale = _reduce_blocks(products[burnin_blocks:])
            lengths[1] = _renormalize(product @ frames)[1]
        else:
            lengths = np.empty((len(starts), trials, n_vectors))
            for b, product in enumerate(products):
                frames, lengths[b] = _renormalize(product @ frames)
    if np.any(lengths < 1e-300) or not np.all(np.isfinite(lengths)):
        raise NumericOverflowError("frame degenerated during accumulation")
    if n_vectors == 1:
        return (log_scale[:, None] + np.log(lengths[1])) / steps
    return np.log(lengths[burnin_blocks:]).sum(axis=0) / steps


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
