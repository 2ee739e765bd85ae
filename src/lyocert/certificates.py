"""Closed-form analyticity certificates for Lyapunov exponents.

The spectral-gap ladder (n0, tau0, N_theta, tau*, rho*), resolvent bounds,
polydisc radii, sup and Cauchy bounds, joint/chain/Grassmannian radii, and
boundary-decay constants. All functions are pure arithmetic on immutable
inputs; quantities that can overflow double precision are carried in natural
log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import MatrixTuple, fs_distance_vec, sample_directions

LOG2 = math.log(2.0)


class GapNotSimpleError(ValueError):
    """The supplied Lyapunov gap is not positive."""


class IsolatingCircleError(ArithmeticError):
    """The isolating-circle denominator (1-rho*)^N_theta - tau* is <= 0."""


class ConstantValidationError(AssertionError):
    """A sampled safety check rejected an implementation-defined constant."""


@dataclass(frozen=True)
class LogValue:
    """A positive scalar stored as its natural log.

    `value` is the linear rendering, or inf when it exceeds double range
    (~ e^690); `log` is always finite.
    """

    log: float

    @property
    def value(self) -> float:
        return math.exp(self.log) if self.log < 690.0 else math.inf

    def to_dict(self) -> dict:
        return {"value": self.value, "logValue": self.log}


def simplicity_threshold(theta: float, gap: float) -> int:
    """Iterates n0 = ceil(2 log 2 / (theta * gap)) needed for contraction:
    the least n with n theta gap >= the double above 2 * LOG2, an upper
    bound of 2 log 2, in exact rational arithmetic on the input doubles. A
    float quotient can round down onto an integer and give n0 one too
    small."""
    if gap <= 0.0:
        raise GapNotSimpleError(f"Lyapunov gap must be > 0, got {gap}")
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    from fractions import Fraction  # imports decimal: kept off start-up
    return math.ceil(Fraction(math.nextafter(2.0 * LOG2, math.inf))
                     / (Fraction(theta) * Fraction(gap)))


def oscillation_rate(n0: int, theta: float, gap: float, ecc: float) -> dict:
    """One-block oscillation contraction rates.

    pessimistic: 1 - log2/(4 log(2 ecc)), the tau0 of the ladder;
    optimistic: exp(-n0 theta gap / 2), reported beside it.
    """
    if ecc < 1.0:
        raise ValueError("eccentricity is >= 1 by definition")
    return {
        "optimistic": math.exp(-n0 * theta * gap / 2.0),
        "pessimistic": 1.0 - LOG2 / (4.0 * math.log(2.0 * ecc)),
    }


def holder_iteration(n0: int, ecc: float, tau0: float) -> tuple[float, int]:
    """Holder growth constant C2 = ecc^2 and iteration count N_theta."""
    if not 0.0 < tau0 < 1.0:
        raise ValueError("tau0 must lie in (0, 1)")
    C2 = ecc * ecc
    reps = max(1, math.ceil(3.0 * math.log(C2) / math.log(1.0 / tau0)))
    return C2, n0 * reps


def composite_gap(tau0: float, N_theta: int, n0: int) -> tuple[float, float]:
    """Composite contraction tau* = tau0^(N_theta/(3 n0)) and radius rho*."""
    tau_star = tau0 ** (N_theta / (3.0 * n0))
    rho_star = (1.0 - tau_star ** (1.0 / N_theta)) / 2.0
    return tau_star, rho_star


@dataclass(frozen=True)
class GapLadder:
    """The spectral-gap ladder from which every radius is derived."""

    theta: float
    gap: float
    ecc: float
    n0: int
    tau0: float  # the pessimistic rate
    tau0_optimistic: float
    C2: float
    N_theta: int
    tau_star: float
    rho_star: float
    R_norm_bound: float  # 2 + max_i ecc(A_i)^(2 theta)


def perturbation_factor(tuple_: MatrixTuple, theta: float) -> float:
    """max_i (1 + ecc(A_i)^(2 theta)), the operator-Lipschitz constant L_op."""
    return float(np.max(1.0 + tuple_.eccentricities ** (2.0 * theta)))


def build_ladder(tuple_: MatrixTuple, theta: float, gap: float) -> GapLadder:
    """Assemble the full ladder for a tuple, Holder index, and gap value."""
    ecc = tuple_.ecc
    n0 = simplicity_threshold(theta, gap)
    rates = oscillation_rate(n0, theta, gap, ecc)
    tau0 = rates["pessimistic"]
    if tau0 >= 1.0:
        raise GapNotSimpleError(
            f"tau0 = {tau0} >= 1: the ladder is vacuous at theta = {theta}")
    C2, N_theta = holder_iteration(n0, ecc, tau0)
    tau_star, rho_star = composite_gap(tau0, N_theta, n0)
    r_bound = 2.0 + float(np.max(tuple_.eccentricities ** (2.0 * theta)))
    return GapLadder(
        theta=theta, gap=gap, ecc=ecc, n0=n0,
        tau0=tau0, tau0_optimistic=rates["optimistic"],
        C2=C2, N_theta=N_theta, tau_star=tau_star, rho_star=rho_star,
        R_norm_bound=r_bound,
    )


def resolvent_bound(ladder: GapLadder) -> tuple[LogValue, float]:
    """Resolvent bound on the isolating circle: (K*, K*_sp).

    K* is the fully explicit form 1/rho* + N_theta ||R||^(N_theta - 1) /
    ((1 - rho*)^N_theta - tau*) with ||R|| = R_norm_bound, computed in log
    space since ||R||^(N_theta - 1) is typically astronomical.
    K*_sp = 4 / (1 - tau*^(1/N_theta)) is the spectral-radius approximation.
    """
    rho, tau, N = ladder.rho_star, ladder.tau_star, ladder.N_theta
    R = ladder.R_norm_bound
    denom = math.exp(N * math.log1p(-rho)) - tau
    if denom <= 0.0:
        raise IsolatingCircleError(
            "(1 - rho*)^N_theta <= tau*: isolating circle failed")
    log_second = math.log(N) + (N - 1) * math.log(R) - math.log(denom)
    log_k = np.logaddexp(-math.log(rho), log_second)
    k_sp = 4.0 / (1.0 - tau ** (1.0 / N))
    return LogValue(log=float(log_k)), k_sp


def log_polydisc_radius(ladder: GapLadder, log_K: float,
                        tuple_: MatrixTuple) -> float:
    """log r* of the Kato polydisc radius r* = 1/(4 N K max(1+ecc^2theta))."""
    return -(math.log(4.0 * tuple_.N) + log_K
             + math.log(perturbation_factor(tuple_, ladder.theta)))


def polydisc_radius(ladder: GapLadder, K: float,
                    tuple_: MatrixTuple) -> tuple[float, float]:
    """Kato polydisc radius r* and r*/2 for a K within double range."""
    if K <= 0.0:
        raise ValueError("K must be positive")
    r_star = math.exp(log_polydisc_radius(ladder, math.log(K), tuple_))
    return r_star, r_star / 2.0


def sup_bound(ladder: GapLadder, log_K: float,
              tuple_: MatrixTuple) -> LogValue:
    """Sup bound M* = 2 K rho* max_i(log||A_i|| + ecc(A_i) + 1), from log K."""
    bracket = float(np.max(np.log(tuple_.operator_norms)
                           + tuple_.eccentricities + 1.0))
    if bracket <= 0.0:
        raise ValueError(f"sup bound needs max_i(log||A_i|| + ecc(A_i) + 1) "
                         f"> 0, got {bracket}")
    return LogValue(log=LOG2 + log_K + math.log(ladder.rho_star)
                    + math.log(bracket))


def _multi_index_factorial(alpha) -> float:
    return float(np.prod([math.factorial(int(a)) for a in np.atleast_1d(alpha)]))


def cauchy_bound(M_star: LogValue, r_star: LogValue, alpha,
                 radius_convention: str = "example") -> LogValue:
    """Bound on |d^alpha lambda| from the Cauchy formula on the polydisc.

    Conventions:
      * "example": max(alpha!, 2) * M*/r*^|alpha| for |alpha| >= 1 and M*
        at alpha = 0, i.e. 2 M*/r* for each first derivative and
        alpha! M*/r*^|alpha| beyond.
      * "theoremB-proof": alpha! * M*/(r*/2)^|alpha|.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=int))
    if np.any(alpha < 0):
        raise ValueError("multi-index entries must be >= 0")
    order = int(alpha.sum())
    fact = _multi_index_factorial(alpha)
    if radius_convention == "example":
        if order == 0:
            return M_star
        log_coef = math.log(max(fact, 2.0))
    elif radius_convention == "theoremB-proof":
        log_coef = math.log(fact) + order * LOG2
    else:
        raise ValueError(f"unknown radius convention {radius_convention!r}")
    return LogValue(log=log_coef + M_star.log - order * r_star.log)


# ---------------------------------------------------------------------------
# Joint (weights + matrices) radii.

def c_geom(op_norm: float, inv_norm: float, rho: float) -> float:
    """Lipschitz constant of v -> d_FS(g[v], g'[v]) in ||g - g'||.

    Conservative closed form 2 (||g|| + rho) (||g^-1||/(1 - rho ||g^-1||))^2,
    valid for perturbations of size < rho; validated by sampling in
    validate_c_geom.
    """
    if rho * inv_norm >= 1.0:
        raise ValueError("perturbation radius too large: matrices may go singular")
    return 2.0 * (op_norm + rho) * (inv_norm / (1.0 - rho * inv_norm)) ** 2


def k_mat(tuple_: MatrixTuple, rho: float, theta: float) -> float:
    """Matrix-Lipschitz constant of the transfer operator on Holder functions.

    max_i (1 + 2 theta ecc_+(A_i)^(2 theta)) * c_geom(A_i, rho), where
    ecc_+ is the worst eccentricity over the rho-ball around A_i.
    """
    vals = []
    for op, inv in zip(tuple_.operator_norms, tuple_.inverse_norms):
        if rho * inv >= 1.0:
            raise ValueError("perturbation radius too large")
        ecc_plus = (op + rho) * inv / (1.0 - rho * inv)
        vals.append((1.0 + 2.0 * theta * ecc_plus ** (2.0 * theta))
                    * c_geom(op, inv, rho))
    return float(max(vals))


def validate_c_geom(tuple_: MatrixTuple, rho: float, samples: int = 100_000,
                    seed: int = 0) -> int:
    """Sampled safety net for c_geom: d_FS(g[v], g'[v]) <= C ||g - g'||.

    Raises ConstantValidationError on the first violation; returns the
    sample count on success. Each matrix draws its samples as one stack:
    the directions, then the perturbations Delta, then ||Delta|| / rho.
    """
    rng = np.random.default_rng(seed)
    d = tuple_.d
    n = max(1, samples // tuple_.N)
    for m, op, inv in zip(tuple_.matrices, tuple_.operator_norms,
                          tuple_.inverse_norms):
        C = c_geom(op, inv, rho)
        v = sample_directions(rng, n, d)[..., None]
        delta = rng.standard_normal((n, d, d))
        scale = rho * rng.random(n) / np.maximum(
            np.linalg.norm(delta, 2, axis=(-2, -1)), 1e-300)
        delta *= scale[:, None, None]
        lhs = fs_distance_vec((m @ v)[..., 0], ((m + delta) @ v)[..., 0])
        rhs = C * np.linalg.norm(delta, 2, axis=(-2, -1))
        bad = np.flatnonzero(lhs > rhs + 1e-12)
        if bad.size:
            i = bad[0]
            raise ConstantValidationError(
                f"c_geom violated: {lhs[i]} > {rhs[i]} at rho = {rho}")
    return n * tuple_.N


def joint_radii(tuple_: MatrixTuple, theta: float, log_K: float,
                rho_A: float, p) -> dict:
    """Joint polydisc radii in (matrices, weights), from log K*.

    L_p = max_i(1 + ecc^2theta) + rho_A, L_A = max_i p_i * K_mat;
    r*_A = 1/(8 L_A K*), r*_p = 1/(8 L_p K* N).
    """
    p = np.asarray(p, dtype=float)
    inv_max = float(tuple_.inverse_norms.max())
    if rho_A >= 1.0 / inv_max:
        raise ValueError(
            f"rho_A = {rho_A} >= 1/max||A^-1|| = {1.0 / inv_max}: matrices "
            "may become singular")
    L_p = perturbation_factor(tuple_, theta) + rho_A
    L_A = float(np.max(p)) * k_mat(tuple_, rho_A, theta)
    return {
        "L_p": L_p,
        "L_A": L_A,
        "r_star_A": LogValue(log=-math.log(8.0 * L_A) - log_K),
        "r_star_p": LogValue(log=-math.log(8.0 * L_p * tuple_.N) - log_K),
        "rho_A": rho_A,
    }


# ---------------------------------------------------------------------------
# Markov-chain radii.

def chain_radii(tuple_: MatrixTuple, theta: float, ladder: GapLadder,
                chain_gap: float, c_exponent: float = 1.0,
                rho_A: float = 0.0) -> dict:
    """Polydisc radii for the Markov-chain driven cocycle.

    tau_chain = max(1 - rho_P, tau0)^c; K*_chain = 4/(1 - tau_chain^(1/N));
    r*_P = 1/(8 L_P K*_chain), r*_A = 1/(8 L_A K*_chain).
    """
    if chain_gap <= 0.0:
        raise ValueError("chain spectral gap rho_P must be > 0")
    if not 0.0 < c_exponent <= 1.0:
        raise ValueError("chain exponent c must lie in (0, 1]")
    tau_chain = max(1.0 - chain_gap, ladder.tau0) ** c_exponent
    K_chain = 4.0 / (1.0 - tau_chain ** (1.0 / ladder.N_theta))
    L_P = tuple_.N * perturbation_factor(tuple_, theta)
    L_A = k_mat(tuple_, rho_A, theta)
    return {
        "tau_chain": tau_chain,
        "K_star_chain": K_chain,
        "L_P": L_P,
        "L_A": L_A,
        "r_star_P": 1.0 / (8.0 * L_P * K_chain),
        "r_star_A": 1.0 / (8.0 * L_A * K_chain),
        "c_exponent": c_exponent,
        "chain_gap": chain_gap,
    }


# ---------------------------------------------------------------------------
# Boundary-decay constants (conditional on polynomial spectral-gap decay).

def boundary_constants(tuple_: MatrixTuple, theta: float, ladder: GapLadder,
                       c_tau: float, gamma_tau: float) -> dict:
    """Constants (C_K, c_E, alpha_E) of the boundary-degeneration bound.

    C_K = 2 N_theta (1 + ||R||^(N_theta - 1)), with the ladder's
    ||R|| = R_norm_bound, is astronomical for realistic ladders and is
    carried in log space, as is c_E.
    """
    if c_tau <= 0.0:
        raise ValueError("c_tau must be > 0")
    if gamma_tau <= 0.0:
        raise ValueError("gamma_tau must be > 0")
    log_CK = math.log(2.0 * ladder.N_theta) + float(np.logaddexp(
        0.0, (ladder.N_theta - 1) * math.log(ladder.R_norm_bound)))
    log_cE = (math.log(c_tau)
              - math.log(4.0 * tuple_.N * perturbation_factor(tuple_, theta))
              - log_CK)
    return {
        "C_K": LogValue(log=log_CK),
        "c_E": LogValue(log=log_cE),
        "alpha_E": gamma_tau,
        "c_tau": c_tau,
        "gamma_tau": gamma_tau,
    }


# ---------------------------------------------------------------------------
# Grassmannian (level-k) certificates.

def grassmann_certificate(tuple_: MatrixTuple, theta: float, k: int,
                          gap_k: float,
                          r_H_previous: float | None = None) -> dict:
    """Level-k analyticity certificate on Gr(k, d).

    rho*^(k) = exp(-theta gap_k / 2); C*^(k) = 4 C(d,k) ecc^2k / (1 - rho*);
    r_persist, r_Kato per the Grassmannian perturbation bounds;
    r_H = min of the two; r_individual = min(r_H^(k), r_H^(k-1)) for k >= 2.
    """
    d = tuple_.d
    if not 1 <= k <= d - 1:
        raise ValueError(f"need 1 <= k <= d-1, got k = {k}")
    if gap_k <= 0.0:
        raise GapNotSimpleError(f"level-{k} gap must be > 0, got {gap_k}")
    ecc = tuple_.ecc
    binom = math.comb(d, k)
    rho_k = math.exp(-theta * gap_k / 2.0)
    C_k = 4.0 * binom * ecc ** (2 * k) / (1.0 - rho_k)
    r_persist = (1.0 - rho_k) / (8.0 * k * binom * ecc ** (2 * k - 1) * C_k)
    r_kato = (1.0 - rho_k) / (8.0 * C_k * binom * ecc ** k)
    r_H = min(r_persist, r_kato)
    out = {
        "k": k,
        "gap_k": gap_k,
        "rho_star_k": rho_k,
        "C_star_k": C_k,
        "r_persist": r_persist,
        "r_kato": r_kato,
        "r_H": r_H,
    }
    if k >= 2:
        if r_H_previous is None:
            raise ValueError("r_H at level k-1 is required for k >= 2")
        out["r_individual"] = min(r_H, r_H_previous)
    else:
        out["r_individual"] = r_H
    return out


# ---------------------------------------------------------------------------
# theta optimization and full report assembly.

def optimize_theta(tuple_: MatrixTuple, gap: float, theta_grid) -> dict:
    """Evaluate the ladder and r* (at K*_sp) over a theta grid; ties go to
    smaller theta."""
    grid = list(theta_grid)
    if not grid:
        raise ValueError("theta grid is empty")
    table = []
    for theta in sorted(grid):
        ladder = build_ladder(tuple_, theta, gap)
        _, K_sp = resolvent_bound(ladder)
        r_star, _ = polydisc_radius(ladder, K_sp, tuple_)
        table.append({"theta": theta, "r_star": r_star,
                      "tau_star": ladder.tau_star, "N_theta": ladder.N_theta})
    best = max(table, key=lambda row: (row["r_star"], -row["theta"]))
    return {"theta_best": best["theta"], "r_star_best": best["r_star"],
            "table": table}


@dataclass(frozen=True)
class CertificateReport:
    """All closed-form constants for one (tuple, weights, theta, gap).

    Every constant derived from K* is carried in log space, from log K*
    (rigorous) or log K*_sp; chain radii keep their own K*_chain.
    """

    ladder: GapLadder
    K_star: LogValue
    K_star_sp: float
    rigorous: bool
    r_star: LogValue
    r_extension: LogValue
    M_star: LogValue
    cauchy_first: LogValue
    cauchy_second: LogValue
    joint: dict
    chain: dict | None
    boundary: dict | None
    input_provenance: dict = field(default_factory=dict)


def certify(tuple_: MatrixTuple, p, theta: float, gap: float,
            rigorous: bool = False, rho_A: float = 0.0,
            chain_gap: float | None = None, c_exponent: float = 1.0,
            c_tau: float | None = None, gamma_tau: float | None = None,
            provenance: dict | None = None) -> CertificateReport:
    """Assemble the full certificate report for one cocycle.

    rigorous selects the explicit K* over the spectral-radius K*_sp; r*,
    r*/2, M*, the Cauchy bounds (example convention) and the joint radii
    all follow from that one log K.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (tuple_.N,):
        raise ValueError(f"need {tuple_.N} weights, got shape {p.shape}")
    if np.any(p < 0.0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be a probability vector")
    ladder = build_ladder(tuple_, theta, gap)
    K_full, K_sp = resolvent_bound(ladder)
    log_K = K_full.log if rigorous else math.log(K_sp)
    r_star = LogValue(log=log_polydisc_radius(ladder, log_K, tuple_))
    M_star = sup_bound(ladder, log_K, tuple_)
    e1 = np.zeros(tuple_.N, dtype=int)
    e1[0] = 1
    chain = None
    if chain_gap is not None:
        chain = chain_radii(tuple_, theta, ladder, chain_gap, c_exponent, rho_A)
    boundary = None
    if c_tau is not None and gamma_tau is not None:
        boundary = boundary_constants(tuple_, theta, ladder, c_tau, gamma_tau)
    return CertificateReport(
        ladder=ladder, K_star=K_full, K_star_sp=K_sp, rigorous=rigorous,
        r_star=r_star, r_extension=LogValue(log=r_star.log - LOG2),
        M_star=M_star,
        cauchy_first=cauchy_bound(M_star, r_star, e1),
        cauchy_second=cauchy_bound(M_star, r_star, 2 * e1),
        joint=joint_radii(tuple_, theta, log_K, rho_A, p),
        chain=chain, boundary=boundary,
        input_provenance=provenance or {},
    )
