"""Monte Carlo estimators for Lyapunov spectra of random matrix products.

These are the ground-truth oracles: i.i.d. and Markov-chain driven cocycles,
top exponent, full spectrum via a QR (Benettin-style) recurrence, and
exterior-power partial sums. All estimators are deterministic functions of
(spec, steps, trials, seed); per-trial streams are derived from the master
seed with a counter split, so each trial's estimate does not depend on the
others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import MatrixTuple, exterior_power

RENORM_INTERVAL = 16
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

    def with_tuple(self, tuple_: MatrixTuple) -> "CocycleSpec":
        return replace(self, tuple=tuple_)


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
    state = np.empty(len(rngs), dtype=np.int64)
    u = np.empty((len(rngs), n))
    for r, rng in enumerate(rngs):
        state[r] = rng.choice(spec.tuple.N, p=pi)
        u[r] = rng.random(n)
    idx = np.empty((len(rngs), n), dtype=np.int64)
    for t in range(n):
        # the count of partial sums below u is searchsorted(..., u, "left")
        state = np.count_nonzero(cum[state] < u[:, t, None], axis=1)
        idx[:, t] = state
    return idx


def _run_trials(spec: CocycleSpec, steps: int, trials: int, seed: int,
                burnin: int, n_vectors: int, matrices) -> np.ndarray:
    """(trials, n_vectors) per-trial exponent estimates, fixed trial order.

    Each trial draws its indices, then its initial frame, from its own
    stream; all trials' orthonormal frames advance together. The per-
    direction sums of log R-diagonals over the `steps` window after burn-in
    are accumulated with a QR renormalization every RENORM_INTERVAL steps.
    """
    if steps < 1 or trials < 1:
        raise ValueError("steps and trials must be >= 1")
    rngs = [_trial_rng(seed, trial) for trial in range(trials)]
    total = burnin + steps
    idx = _draw_indices(spec, rngs, total)
    mats = np.asarray(matrices)
    d = mats.shape[-1]
    frames = np.linalg.qr(np.array(
        [rng.standard_normal((d, n_vectors)) for rng in rngs]))[0]
    logs = np.zeros((trials, n_vectors))
    t = 0
    while t < total:
        block = min(RENORM_INTERVAL, total - t)
        # never mix burn-in and accumulation inside one block
        if t < burnin:
            block = min(block, burnin - t)
        for step_mats in mats[idx[:, t:t + block].T]:
            frames = step_mats @ frames
        t += block
        q, r = np.linalg.qr(frames)
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        if np.any(np.abs(diag) < 1e-300) or not np.all(np.isfinite(diag)):
            raise NumericOverflowError("frame degenerated during accumulation")
        if t > burnin:
            logs += np.log(np.abs(diag))
        frames = q * np.sign(diag)[..., None, :]
    return logs / steps


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


def lyapunov_gap(spec: CocycleSpec, steps: int, trials: int, seed: int,
                 burnin: int = DEFAULT_BURNIN):
    """Simplicity gap lambda_1 - lambda_2 with standard error.

    For d = 2 this uses the exact identity lambda_1 + lambda_2 =
    E log|det A|, so only the top exponent is estimated.
    """
    if spec.tuple.d == 2:
        lam, se = estimate_top_exponent(spec, steps, trials, seed, burnin)
        return 2.0 * lam - determinant_log_mean(spec), 2.0 * se
    est = estimate_spectrum(spec, steps, trials, seed, burnin)
    gap = float(est.exponents[0] - est.exponents[1])
    se = float(math.hypot(est.standard_errors[0], est.standard_errors[1]))
    return gap, se
