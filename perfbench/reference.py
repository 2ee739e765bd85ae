"""Reference values the benchmark computes without calling lyocert.

The closed-form extension of a diagonal tuple, and a plain Benettin
estimate of the top exponent (vectors of all trials advanced together with
NumPy, renormalized every step).
"""

from __future__ import annotations

import math

import numpy as np


def diagonal_extension(z, top_entries) -> complex:
    """lambda~_+(z) = sum_i z_i log a_i for diag(a_i, b_i), a_i > b_i > 0."""
    return complex(np.dot(np.asarray(z, dtype=complex),
                          np.log(np.asarray(top_entries, dtype=float))))


def benettin_top(matrices, weights, steps: int, trials: int, seed: int,
                 burnin: int = 500) -> tuple[float, float]:
    """(mean, standard error) of the i.i.d. top exponent over the trials."""
    mats = np.asarray(matrices, dtype=float)
    d = mats.shape[1]
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(mats), size=(burnin + steps, trials), p=weights)
    v = rng.standard_normal((trials, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    logs = np.zeros(trials)
    for t in range(burnin + steps):
        v = np.einsum("tij,tj->ti", mats[idx[t]], v)
        norms = np.sqrt(np.einsum("ti,ti->t", v, v))
        v /= norms[:, None]
        if t >= burnin:
            logs += np.log(norms)
    per = logs / steps
    return float(per.mean()), float(per.std(ddof=1) / math.sqrt(trials))
