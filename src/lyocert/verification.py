"""End-to-end verification checks for the certificate pipeline.

Ties certificates, Monte Carlo oracles, and the discretized operator
together: reference-example reproduction, Cauchy dominance of measured
derivatives, boundary-degeneration scans, Markov-to-iid reduction, sampled
Lipschitz-lemma suites, and eigenvalue-collision scans. Checks take the
caller's certificate (cli.build_certificate) and TransferBasis; only the
reference example and the boundary_scan rows are certified here.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import certificates as cert
from . import operator as top
from .geometry import (MatrixTuple, exterior_power, fs_distance_vec,
                       matrix_law, unit_wedge, wedge_distance)
from .oracles import (CocycleSpec, estimate_markov_exponent,
                      estimate_partial_sum, estimate_spectrum,
                      estimate_top_exponent, lyapunov_gap)


@dataclass
class CheckRecord:
    """One named check with its measured value, target, and verdict.

    runtime is the time.perf_counter wall time, in seconds, of the call of
    the check function that made the record; records of one call share one
    value. The check functions read no clock: the caller stamps their
    records (cli._run_checks), and a record made outside it keeps 0.0.
    """

    name: str
    status: str  # "pass" / "fail" / "indeterminate"
    measured: object
    target: object
    tolerance: object
    detail: str = ""
    seed: int | None = None
    runtime: float = 0.0


@dataclass
class VerificationReport:
    """Ordered collection of check records."""

    checks: list = field(default_factory=list)

    def add(self, record: CheckRecord) -> None:
        self.checks.append(record)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        ordered = sorted(self.checks, key=lambda c: c.name)
        return {"passed": self.passed,
                "checks": [asdict(c) for c in ordered]}

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)


def _check(report, name, ok, measured, target, tolerance, detail="",
           seed=None):
    report.add(CheckRecord(name, "pass" if ok else "fail", measured, target,
                           tolerance, detail, seed))


# ---------------------------------------------------------------------------
# Reference two-matrix family.

def reference_tuple(a: float = 2.0, psi: float = math.pi / 3) -> MatrixTuple:
    """diag(a, 1/a) and its conjugate by the rotation of angle psi."""
    A1 = np.diag([a, 1.0 / a])
    R = np.array([[math.cos(psi), -math.sin(psi)],
                  [math.sin(psi), math.cos(psi)]])
    return MatrixTuple.from_matrices([A1, R @ A1 @ R.T])


REFERENCE_P = (0.5, 0.5)
REFERENCE_THETA = 0.5
REFERENCE_GAP = 0.26

# Reference value and relative tolerance of each certificate constant, read
# from the ladder or the certificate by name; None marks an exact check.
REFERENCE_TARGETS = {
    "n0": (11, None), "tau0": (0.9167, 0.03), "C2": (16.0, 1e-12),
    "N_theta": (1056, None), "tau_star": (0.062, 0.05),
    "K_star_sp": (1538.0, 0.03), "r_star": (1.63e-5, 0.03),
    "M_star": (22.77, 0.03), "cauchy_first": (2.8e6, 0.03),
    "cauchy_second": (1.7e11, 0.05),
}


def reference_certificate() -> cert.CertificateReport:
    """The reference family's certificate, with the default K*_sp."""
    return cert.certify(reference_tuple(), REFERENCE_P, REFERENCE_THETA,
                        REFERENCE_GAP)


def reproduce_reference_example(
        rep: cert.CertificateReport) -> VerificationReport:
    """Check rep, the reference certificate, against the reference ladder.

    Checks n0, N_theta exactly, C2 to rounding, and the derived constants at
    3-5% relative tolerance (the reference values are rounded intermediates).
    """
    report = VerificationReport()
    for name, (target, rel_tol) in REFERENCE_TARGETS.items():
        measured = getattr(rep.ladder if hasattr(rep.ladder, name) else rep,
                           name)
        if isinstance(measured, cert.LogValue):
            measured = measured.value
        if rel_tol is None:
            ok, tolerance = measured == target, "exact"
        else:
            ok = abs(measured - target) <= rel_tol * abs(target)
            tolerance = f"{rel_tol * 100:g}% relative"
        _check(report, f"reference.{name}", ok, measured, target, tolerance)
    return report


# ---------------------------------------------------------------------------
# Cauchy dominance of measured contour derivatives.

def check_cauchy_dominance(basis: top.TransferBasis, p0,
                           rep: cert.CertificateReport, radius: float,
                           max_order: int = 4) -> VerificationReport:
    """Measured derivative magnitudes vs the Cauchy bounds of rep.

    Contour Taylor coefficients at p0 along each zero-sum basis direction,
    on the circle of the given radius, are converted to derivative
    magnitudes |c_j j!| and compared against the bounds from rep's M* and
    r* in both conventions; the verdict is pass iff the "example"
    convention dominates every measured value.
    """
    report = VerificationReport()
    N = basis.tuple.N
    for k in range(N - 1):
        u = np.eye(N)[k] - np.eye(N)[k + 1]
        try:
            coeffs = top.taylor_coefficients(basis, p0, u, max_order, radius,
                                             max(4 * max_order, 16))
        except top.ContourTooLargeError as exc:
            _check(report, f"cauchy_dominance.direction{k}", False, None,
                   None, "contour", str(exc))
            continue
        for j in range(max_order + 1):
            alpha = j * np.eye(N, dtype=int)[k]
            measured = abs(coeffs[j]) * math.factorial(j)
            bound_ex, bound_tb = (
                cert.cauchy_bound(rep.M_star, rep.r_star, alpha, c).value
                for c in ("example", "theoremB-proof"))
            _check(report, f"cauchy_dominance.dir{k}.order{j}",
                   measured <= bound_ex, measured, bound_ex,
                   "dominance (example convention)",
                   f"theoremB-proof convention bound: {bound_tb:.6g}")
    return report


# ---------------------------------------------------------------------------
# Boundary-degeneration scan.

def boundary_scan(tuple_: MatrixTuple, theta: float, mc: dict,
                  index: int = 0, steps: int = 6, t_max: float | None = None,
                  grid_m: int = 400, p0=None, rigorous: bool = False) -> dict:
    """Certificate-radius sweep toward the simplex boundary.

    Lowers weight `index` from p0 (default uniform) by up to t_max (default
    0.9 p0[index]) along the line toward the opposite vertex, recording the
    Lyapunov gap (Monte Carlo settings mc, row k at seed + k), the second
    eigenvalue modulus rho2 of the discretized operator (d = 2 only, NaN
    otherwise), and the radius of cert.certify at p(t) and that gap, with
    the explicit K* when rigorous and K*_sp otherwise. Fits the spectral-gap
    proxy log(1 - rho2) against log(p_min) by least squares for the decay
    exponent gamma, sets the coefficient c_tau as the pointwise lower
    envelope of the fit, and checks the resulting lower-bound chain
    r*(p(t)) >= c_E p_min^alpha_E in log space at every scan point.
    Without rho2 (d >= 3) the fit is indeterminate.
    """
    N = tuple_.N
    p0 = np.full(N, 1.0 / N) if p0 is None else np.asarray(p0, dtype=float)
    if t_max is None:
        t_max = 0.9 * p0[index]
    if t_max >= p0[index]:
        raise ValueError("scan must keep p(t) inside the open simplex")
    basis = (top.TransferBasis(tuple_, top.build_grid(grid_m))
             if tuple_.d == 2 else None)
    ts = np.linspace(t_max / steps, t_max, steps)
    rows, certs = [], []
    direction = -np.ones(N) / (N - 1)
    direction[index] = 1.0
    for k, t in enumerate(ts):
        p = p0 - t * direction
        p_min = float(p.min())
        spec = CocycleSpec.iid(tuple_, p)
        gap_hat, gap_se = lyapunov_gap(spec,
                                       **{**mc, "seed": mc["seed"] + k})
        rho2 = (top.spectral_gap_measured(top.assemble_operator(basis, p))[0]
                if basis is not None else float("nan"))
        certs.append(cert.certify(tuple_, p, theta, gap_hat,
                                  rigorous=rigorous))
        rows.append({"t": float(t), "p_min": p_min, "gap": gap_hat,
                     "gap_stderr": gap_se, "rho2": rho2,
                     "r_star": certs[-1].r_star.value})

    out = {"rows": rows, "seed": mc["seed"]}
    log_pmin = np.log([r["p_min"] for r in rows])
    log_gap = np.log([max(1.0 - r["rho2"], 1e-300) for r in rows])
    if (basis is None or np.ptp(log_gap) < 1e-6
            or np.max(log_gap) < math.log(1e-8)):
        # no measured proxy, a constant proxy (within noise) or a gap at
        # the numerical floor: no decay law can be fitted
        out.update({"fit": None, "indeterminate": True})
        return out
    gamma_hat, intercept = np.polyfit(log_pmin, log_gap, 1)
    # lower-envelope coefficient: the fitted line is pushed down until it
    # bounds every scan point from below
    log_c_tau = float(np.min(log_gap - gamma_hat * log_pmin))
    out["fit"] = {"gamma_hat": float(gamma_hat),
                  "c_tau_hat": math.exp(log_c_tau),
                  "least_squares_intercept": float(intercept)}
    out["indeterminate"] = False
    if gamma_hat <= 0.0:
        return out
    bc = cert.boundary_constants(tuple_, theta, certs[0].ladder,
                                 math.exp(log_c_tau), float(gamma_hat))
    out["boundary_constants"] = {k: (v.to_dict() if hasattr(v, "to_dict")
                                     else v) for k, v in bc.items()}
    holds = []
    for r, c in zip(rows, certs):
        log_lower = bc["c_E"].log + bc["alpha_E"] * math.log(r["p_min"])
        r["log_lower_bound"] = log_lower
        holds.append(c.r_star.log >= log_lower)
    out["lower_bound_holds_everywhere"] = bool(all(holds))
    r_stars = [r["r_star"] for r in rows]
    out["r_star_nonincreasing"] = bool(
        all(b <= a * (1 + 1e-12) for a, b in zip(r_stars, r_stars[1:])))
    out["r_star_positive"] = bool(all(r > 0 for r in r_stars))
    return out


# ---------------------------------------------------------------------------
# Markov-to-iid reduction and partial-sum consistency. The second Monte
# Carlo estimate of each check takes the settings mc with seed + 1.

def _stderr_check(report, name, diff, tol, detail, seed):
    """diff against tol, 3 combined standard errors. A tolerance that is
    not finite (one trial gives no spread to take a standard error from)
    would pass any diff, so the check fails and its detail says why."""
    if not math.isfinite(tol):
        detail = f"standard error not finite (needs mc.trials >= 2); {detail}"
    _check(report, name, diff <= tol < math.inf, diff, 0.0,
           f"3 combined stderr = {tol:.3g}", detail, seed)


def markov_iid_reduction_check(basis: top.TransferBasis, p,
                               mc: dict) -> VerificationReport:
    """A chain with identical rows p must reproduce the iid cocycle, on the
    operator of basis and by Monte Carlo."""
    report = VerificationReport()
    tuple_ = basis.tuple
    p = np.asarray(p, dtype=float)
    P = np.tile(p, (tuple_.N, 1))
    v_iid = top.analytic_extension_value(basis, p)
    v_chain = top.chain_extension_value(P, basis)
    diff = abs(v_chain - v_iid)
    _check(report, "markov_iid.operator", diff <= 1e-8, diff, 0.0, "1e-8",
           f"iid {v_iid}, chain {v_chain}")
    iid_spec = CocycleSpec.iid(tuple_, p)
    chain_spec = CocycleSpec.markov(tuple_, P)
    l_iid, se_iid = estimate_top_exponent(iid_spec, **mc)
    l_chain, se_chain = estimate_markov_exponent(
        chain_spec, **{**mc, "seed": mc["seed"] + 1})
    _stderr_check(report, "markov_iid.monte_carlo", abs(l_iid - l_chain),
                  3.0 * (se_iid + se_chain),
                  f"iid {l_iid:.6f}+-{se_iid:.2g}, "
                  f"chain {l_chain:.6f}+-{se_chain:.2g}", mc["seed"])
    return report


def partial_sum_consistency(tuple_: MatrixTuple, p, k: int,
                            mc: dict) -> VerificationReport:
    """Exterior-power partial sum vs summed spectrum, 3 combined stderr."""
    report = VerificationReport()
    spec = CocycleSpec.iid(tuple_, p)
    partial, se_p = estimate_partial_sum(spec, k, **mc)
    spectrum = estimate_spectrum(spec, **{**mc, "seed": mc["seed"] + 1})
    summed = float(np.sum(spectrum.exponents[:k]))
    se_s = float(np.sum(spectrum.standard_errors[:k]))
    _stderr_check(report, f"partial_sum.k{k}", abs(partial - summed),
                  3.0 * (se_p + se_s),
                  f"partial {partial:.6f}, summed {summed:.6f}", mc["seed"])
    return report


# ---------------------------------------------------------------------------
# Sampled Lipschitz-lemma suites.

LEMMA_BLOCK = 1000


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u x v for vectors stored entry first, u[i] of shape (...)."""
    return np.stack([u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                     u[0] * v[1] - u[1] * v[0]])


def _entries(a: np.ndarray) -> np.ndarray:
    """A stack (..., 3, 3) stored entry first: out[i, j] = a[..., i, j]."""
    return np.ascontiguousarray(np.moveaxis(a, (-2, -1), (0, 1)))


def _gram(m: np.ndarray) -> np.ndarray:
    """m^T m for 3 x 3 matrices stored entry first, m[i, j] of shape (...)."""
    return np.sum(m[:, :, None] * m[:, None, :], axis=0)


def _top_eigenvalue(s: np.ndarray) -> np.ndarray:
    """Top eigenvalue of symmetric 3 x 3 matrices stored entry first.

    Closed form (Smith 1961): q + 2 p cos(phi), phi = acos(r) / 3, for
    b = s - q I, q the mean eigenvalue, 6 p^2 = ||b||_F^2, r = det b / 2p^3.
    Where r < 0 the top two may nearly meet and acos loses digits there,
    but the bottom one, q + 2 p cos(phi + 2 pi / 3), is >= sqrt(3) p below
    them and accurate. Then with x >= y the top eigenvalues of
    R = s - bottom I, h = (x + y) / 2 and P = I - adj R / tr adj R the
    projector onto their plane, (x - y)^2 = 2 ||R - h P||_F^2: a sum of
    squares with no cancellation, and the top eigenvalue is bottom + x.
    """
    q = (s[0, 0] + s[1, 1] + s[2, 2]) / 3.0
    a, b, c = s[0, 0] - q, s[1, 1] - q, s[2, 2] - q
    d, e, f = s[0, 1], s[0, 2], s[1, 2]
    p = np.sqrt((a * a + b * b + c * c + 2.0 * (d * d + e * e + f * f)) / 6.0)
    det = a * (b * c - f * f) - d * (d * c - f * e) + e * (d * f - b * e)
    r = np.divide(det, 2.0 * p ** 3, out=np.zeros_like(p), where=p > 0)
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    bottom = 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)
    a, b, c = a - bottom, b - bottom, c - bottom
    h = (a + b + c) / 2.0
    adj = [b * c - f * f, a * c - e * e, a * b - d * d,
           e * f - d * c, d * f - e * b, d * e - a * f]
    trace_adj = adj[0] + adj[1] + adj[2]
    w = np.divide(h, trace_adj, out=np.zeros_like(h), where=trace_adj != 0)
    diag = [x - h + w * k for x, k in zip((a, b, c), adj[:3])]
    off = [x + w * k for x, k in zip((d, e, f), adj[3:])]
    half_gap = np.sqrt((sum(x * x for x in diag)
                        + 2.0 * sum(x * x for x in off)) / 2.0)
    return q + np.where(r < 0, bottom + h + half_gap, 2.0 * p * np.cos(phi))


def _top_singular_value(a: np.ndarray) -> np.ndarray:
    """sigma_max of each matrix of a stack (..., 3, 3): the square root of
    the top eigenvalue of a^T a."""
    return np.sqrt(_top_eigenvalue(_gram(_entries(a))))


def _bottom_singular_value(a: np.ndarray) -> np.ndarray:
    """sigma_min of each matrix of a stack (..., 3, 3) as |det a| / ||adj a||:
    the adjugate has singular values sigma_i sigma_j, so its norm is
    sigma_1 sigma_2. The rows of adj(a)^T are cross products of the rows of
    a. The bottom eigenvalue of a^T a would lose relative accuracy as
    (sigma_max / sigma_min)^2."""
    r0, r1, r2 = _entries(a)
    cof = np.stack([_cross(r1, r2), _cross(r2, r0), _cross(r0, r1)])
    det = np.sum(r0 * cof[0], axis=0)
    return np.abs(det) / np.sqrt(_top_eigenvalue(_gram(cof)))


def _lemma_block(rng: np.random.Generator, n: int):
    """Draws of n lemma samples in R^3, two generator calls per block.

    rng.random((n, 4)): 3 uniforms for the singular values of g (see
    geometry.matrix_law), then the perturbation scale.
    rng.standard_normal((n, 45)), by columns: the two rotations of g (18),
    the two directions (6), the perturbation (9) and the two (3, 2) plane
    bases (12).
    Returns g, its singular values (n, 3) in descending order, the unit
    directions (n, 2, 3), the perturbation scaled to spectral norm
    0.1 * scale, taken in closed form, that norm, and the bases
    (n, 2, 3, 2).
    """
    uniforms = rng.random((n, 4))
    normals = rng.standard_normal((n, 45))
    rot, uv, delta, bases = np.split(normals, [18, 24, 33], axis=1)
    g, sv = matrix_law(uniforms[:, :3], rot.reshape(n, 2, 3, 3))
    uv = uv.reshape(n, 2, 3)
    uv /= np.linalg.norm(uv, axis=-1, keepdims=True)
    delta = delta.reshape(n, 3, 3)
    delta_norm = 0.1 * uniforms[:, 3]
    factor = delta_norm / _top_singular_value(delta)
    delta *= factor[:, None, None]
    return g, sv, uv, delta, delta_norm, bases.reshape(n, 2, 3, 2)


def _lemma_tallies(samples: int, seed: int):
    """Worst lhs/rhs ratio and violation count of each lemma family."""
    rng = np.random.default_rng(seed)
    worst = {"proj_contract": 0.0, "logform_lip_g": 0.0, "logform_lip_v": 0.0,
             "grassmann_contract": 0.0, "grassmann_perturb": 0.0}
    violations = dict.fromkeys(worst, 0)

    def tally(name, lhs, rhs):
        ratio = np.divide(lhs, rhs, out=np.zeros_like(lhs), where=rhs > 0)
        worst[name] = max(worst[name], float(ratio.max()))
        violations[name] += int(np.count_nonzero(lhs > rhs * (1 + 1e-10)))

    done = 0
    while done < samples:
        n = min(LEMMA_BLOCK, samples - done)
        g, sv, uv, delta, delta_norm, bases = _lemma_block(rng, n)
        nrm, inv = sv[:, 0], 1.0 / sv[:, -1]
        ecc = nrm * inv
        u = uv[:, 0]
        guv = (g[:, None] @ uv[..., None])[..., 0]
        d_uv = fs_distance_vec(u, uv[:, 1])
        tally("proj_contract", fs_distance_vec(guv[:, 0], guv[:, 1]),
              ecc ** 2 * d_uv)
        # matrix Lipschitz of the log stretch
        g2 = g + delta
        inv_max = np.maximum(inv, 1.0 / _bottom_singular_value(g2))
        phi = np.log(np.linalg.norm(guv, axis=-1))
        phi2 = np.log(np.linalg.norm((g2 @ u[..., None])[..., 0], axis=-1))
        tally("logform_lip_g", np.abs(phi[:, 0] - phi2), inv_max * delta_norm)
        # direction Lipschitz of the log stretch
        tally("logform_lip_v", np.abs(phi[:, 0] - phi[:, 1]),
              (ecc + 1.0) * d_uv)
        # Grassmannian contraction and perturbation on planes (k = 2): the
        # wedge of g B spans the same line as that of g Q for B = QR, so no
        # plane needs a QR
        w = unit_wedge(bases)
        gw = unit_wedge(g[:, None] @ bases)
        tally("grassmann_contract", wedge_distance(gw[:, 0], gw[:, 1]),
              ecc ** 2 * wedge_distance(w[:, 0], w[:, 1]))
        g2w = unit_wedge(g2 @ bases[:, 0])
        tally("grassmann_perturb", wedge_distance(gw[:, 0], g2w),
              2 * np.maximum(nrm, _top_singular_value(g2))
              * inv_max ** 2 * delta_norm)
        done += n
    return worst, violations


def lemma_sampling_suite(samples: int = 100_000,
                         seed: int = 0) -> VerificationReport:
    """Randomized checks of the geometric Lipschitz inequalities.

    Per sampled instance:
      * projective contraction: d(g u, g v) <= ecc(g)^2 d(u, v);
      * log-stretch Lipschitz in the matrix:
        |phi(g,v) - phi(g',v)| <= max(||g^-1||, ||g'^-1||) ||g - g'||;
      * log-stretch Lipschitz in the direction:
        |phi(g,u) - phi(g,v)| <= (ecc(g) + 1) d(u, v);
      * Grassmannian contraction: d(gV, gW) <= ecc(g)^k d(V, W);
      * Grassmannian perturbation, in the form its derivation establishes
        (Leibniz numerator and unit-sphere projection):
        d(gV, g'V) <= k max(||g||,||g'||)^(k-1) max(||g^-1||,||g'^-1||)^k
        ||g - g'||. Dropping the ||g||^(k-1) factor would break scale
        invariance (take g contracting with k = 1), so the full constant
        is the one validated here.
    The samples are g, g' in GL(3), directions in R^3 and planes V, W in
    R^3, so k = 2; geometry.unit_wedge takes planes in R^3 only, and the
    singular values of g' and the norm of Delta are taken in closed form
    for 3 x 3 matrices.
    Violations are failures; the report records each family's worst margin.
    Samples are drawn and checked in blocks of LEMMA_BLOCK as stacks, with
    two generator calls per block (see _lemma_block). The stream is laid
    out per block, so changing LEMMA_BLOCK changes the samples. g' = g +
    Delta with ||Delta|| <= 0.1 stays invertible: sigma_min(g) >= 0.2 under
    geometry.matrix_law, which g follows.
    """
    report = VerificationReport()
    worst, violations = _lemma_tallies(samples, seed)
    for name in worst:
        _check(report, f"lemma.{name}", violations[name] == 0,
               violations[name], 0,
               f"0 violations over {samples} samples "
               "(1e-10 relative arithmetic slack)",
               f"worst lhs/rhs ratio {worst[name]:.6f}", seed)
    return report


def _top_singular_value_gram(a: np.ndarray) -> np.ndarray:
    """sigma_max of each matrix of a stack (..., r, c): the square root of
    the top eigenvalue of a^T a. eigvalsh finds the largest eigenvalue to a
    few eps relative, at a fraction of the cost of an SVD."""
    gram = np.swapaxes(a, -1, -2) @ a
    return np.sqrt(np.linalg.eigvalsh(gram)[..., -1])


def exterior_norm_identity_check(samples: int = 10_000, seed: int = 1,
                                 d: int = 4, k: int = 2) -> VerificationReport:
    """||Lambda^k g||_op equals the product of the top k singular values.

    Each block of LEMMA_BLOCK samples takes two generator calls, as in
    _lemma_block; geometry.matrix_law gives g and its singular values, and
    ||Lambda^k g||_op is taken from the Gram matrix of the minors
    (_top_singular_value_gram).
    """
    report = VerificationReport()
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    while done < samples:
        n = min(LEMMA_BLOCK, samples - done)
        g, sv = matrix_law(rng.random((n, d)),
                           rng.standard_normal((n, 2, d, d)))
        lhs = _top_singular_value_gram(exterior_power(g, k))
        rhs = np.prod(sv[:, :k], axis=-1)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / rhs)))
        done += n
    _check(report, "lemma.exterior_norm_identity", worst <= 1e-10, worst,
           0.0, "1e-10 relative", f"{samples} samples in GL({d}), k = {k}",
           seed)
    return report


def _grid_holder_seminorm(f: np.ndarray, theta: float) -> np.ndarray:
    """max over node pairs of |f_i - f_j| / d(i, j)^theta for each row f of
    a stack of functions on the uniform m-node grid of build_grid, d the
    Fubini-Study distance.

    Nodes i and i + s (mod m) lie at distance sin(s pi / m) whatever i, and
    shifts s and m - s give the same pairs, so the seminorm is the max over
    s = 1..m // 2 of max_i |f_i - f_(i+s)| / sin(s pi / m)^theta.

    A row leaves the loop over s once osc / min_(s' >= s) sin(s' pi / m)^theta
    is not above its max so far, osc = max f - min f: every gap
    |f_i - f_(i+s)| is at most osc in floating point too, since the
    subtraction rounds monotonically, and so are the quotients of all the
    shifts still to come. The rows left out of a shift would not have
    raised their max there, and the result is that of all shifts, bit for
    bit. A row with a NaN fails every comparison and stays to the end, so
    it keeps its NaN; so does a row whose osc is not finite, whose infinite
    entries may give a NaN gap at any shift.
    """
    m = f.shape[-1]
    half = m // 2
    rows = f.reshape(-1, m)
    wrapped = np.concatenate([rows, rows[:, :half]], axis=-1)
    dists = np.sin(np.arange(1, half + 1) * (math.pi / m)) ** theta
    # the smallest distance over the shifts s..half, for the cut-off
    ahead = np.minimum.accumulate(dists[::-1])[::-1]
    osc = np.max(rows, axis=-1) - np.min(rows, axis=-1)
    # an infinite entry may meet another at a later shift, inf - inf = NaN
    osc[~np.isfinite(osc)] = np.nan
    out = np.zeros(len(rows))
    live = np.arange(len(rows))
    for s in range(1, half + 1):
        live = live[~(osc[live] / ahead[s - 1] <= out[live])]
        if not live.size:
            break
        gaps = np.max(np.abs(wrapped[live, s:s + m] - rows[live]), axis=-1)
        out[live] = np.maximum(out[live], gaps / dists[s - 1])
    return out.reshape(f.shape[:-1])


def _trig_test_functions(rng: np.random.Generator, angles: np.ndarray,
                         count: int) -> np.ndarray:
    """(count, m) random trigonometric polynomials on the grid angles.

    Function j draws three frequencies f in 1..5, then a (3, 2) block of
    normal coefficients, and is sum_l c_l0 cos(2 f_l angles) +
    c_l1 sin(2 f_l angles), the terms added in order l = 0, 1, 2.
    """
    freqs = np.empty((count, 3), dtype=np.int64)
    coefs = np.empty((count, 3, 2))
    for j in range(count):
        freqs[j] = rng.integers(1, 6, size=3)
        coefs[j] = rng.standard_normal((3, 2))
    # frequencies 1..5 take five phases: evaluate each once
    phase = 2 * np.arange(6)[:, None] * angles
    cos, sin = np.cos(phase), np.sin(phase)
    return sum(coefs[:, l, :1] * cos[freqs[:, l]]
               + coefs[:, l, 1:] * sin[freqs[:, l]] for l in range(3))


def holder_operator_norm_check(basis: top.TransferBasis, theta: float,
                               functions: int = 200, seed: int = 2,
                               slack: float = 0.05) -> VerificationReport:
    """Discretized single-matrix transfer norm vs 1 + ecc^(2 theta).

    Random trigonometric test functions on the grid of basis; the Holder
    quotient norm of T_i f is compared to (1 + ecc(A_i)^(2 theta)) times
    that of f, with the stated discretization slack added to the constant.
    """
    report = VerificationReport()
    rng = np.random.default_rng(seed)
    tuple_, angles = basis.tuple, basis.grid.angles

    def holder_norm(F):
        return np.max(np.abs(F), axis=-1) + _grid_holder_seminorm(F, theta)

    worst = 0.0
    violations = 0
    for i, T in enumerate(basis.blocks):
        bound = 1.0 + tuple_.eccentricities[i] ** (2.0 * theta) + slack
        F = _trig_test_functions(rng, angles, functions // tuple_.N + 1)
        nf = holder_norm(F)
        kept = nf >= 1e-12
        ratio = holder_norm((T @ F[kept].T).T) / nf[kept]
        worst = float(np.max(ratio / bound, initial=worst))
        violations += int(np.count_nonzero(ratio > bound))
    _check(report, "lemma.transfer_norm_bound", violations == 0, violations,
           0, f"0 violations, discretization slack {slack}",
           f"worst ratio/bound {worst:.6f}", seed)
    return report


# ---------------------------------------------------------------------------
# Appendix resolvent identities.

def _neumann_series_errors(RA: np.ndarray, RB: np.ndarray,
                           C: np.ndarray) -> np.ndarray:
    """||sum_(j < terms) RA C^j - RB||_2 for each matrix of the stacks
    (trials, n, n) with contraction q = ||C||_2 < 0.9, in trial order;
    terms = max(20, int(log(1e-12) / log(max(q, 1e-6))) + 2) per trial.
    All these trials advance together, and a trial stops adding terms at
    its own count; RA C^j is summed in order j = 0, 1, ... from zero.
    """
    q = np.linalg.norm(C, 2, axis=(-2, -1))
    checked = np.flatnonzero(q < 0.9)
    terms = np.array([max(20, int(math.log(1e-12)
                                  / math.log(max(float(qi), 1e-6))) + 2)
                      for qi in q[checked]], dtype=int)
    RA, RB, C = RA[checked], RB[checked], C[checked]
    acc = np.zeros_like(RA)
    power = np.broadcast_to(np.eye(RA.shape[-1], dtype=RA.dtype), RA.shape)
    for t in range(int(terms.max(initial=0))):
        acc = np.where((t < terms)[:, None, None], acc + RA @ power, acc)
        power = power @ C
    return np.linalg.norm(acc - RB, 2, axis=(-2, -1))


def resolvent_identity_check(trials: int = 20, seed: int = 3,
                             n: int = 8) -> VerificationReport:
    """Second resolvent identity and Neumann-series convergence.

    Random complex matrices A and B = A + small perturbation; zeta is taken
    outside the numerical range so both resolvents exist. The identity is
    checked to 1e-10 and the truncated Neumann series to 1e-8 whenever the
    contraction factor is below 0.9.

    Each trial draws A, then the perturbation E, then the phase of zeta, in
    that order; the inverses, products and 2-norms then run on the stack of
    all trials, and the partial sums of the series on the stack of the
    trials it is checked for (_neumann_series_errors).
    """
    report = VerificationReport()
    rng = np.random.default_rng(seed)
    draws = np.empty((trials, 2, n, n), dtype=complex)
    phases = np.empty(trials)
    for t in range(trials):
        for j in range(2):
            draws[t, j] = (rng.standard_normal((n, n))
                           + 1j * rng.standard_normal((n, n)))
        phases[t] = rng.random()
    A, E = draws[:, 0], draws[:, 1]
    eye = np.eye(n)
    B = A + 0.1 * E / np.linalg.norm(E, 2, axis=(-2, -1))[:, None, None]
    zeta = ((np.linalg.norm(A, 2, axis=(-2, -1)) + 2.0)
            * np.exp(2j * math.pi * phases))[:, None, None]
    RA = np.linalg.inv(zeta * eye - A)
    RB = np.linalg.inv(zeta * eye - B)
    lhs = RB - RA
    rhs = RB @ (B - A) @ RA
    worst_identity = float(np.max(
        np.linalg.norm(lhs - rhs, 2, axis=(-2, -1))
        / np.maximum(np.linalg.norm(RB, 2, axis=(-2, -1)), 1.0),
        initial=0.0))
    series = _neumann_series_errors(RA, RB, (B - A) @ RA)
    series_checked = len(series)
    worst_series = float(np.max(series, initial=0.0))
    _check(report, "appendix.second_resolvent_identity",
           worst_identity <= 1e-10, worst_identity, 0.0, "1e-10",
           f"{trials} random {n}x{n} complex pairs", seed)
    _check(report, "appendix.neumann_series",
           worst_series <= 1e-8 and series_checked > 0, worst_series, 0.0,
           "1e-8 when contraction factor < 0.9",
           f"{series_checked}/{trials} instances had contraction < 0.9", seed)
    return report


# ---------------------------------------------------------------------------
# Eigenvalue-collision scan.

def collapse_scan(tuple_: MatrixTuple, p0, r_extension: float,
                  grid_m: int = 200, radii=None,
                  directions: int = 4) -> dict:
    """Sweep complex weight perturbations until the leading eigenvalue collides.

    Zero-sum directions with complex phases are scanned outward; the
    smallest |t| triggering an eigenvalue collision is reported, or
    none-found. When a collision is found its distance is compared against
    the extension radius r_extension of the certificate at p0 (the collapse
    set must avoid the polydisc).
    """
    p0 = np.asarray(p0, dtype=float)
    basis = top.TransferBasis(tuple_, top.build_grid(grid_m))
    if radii is None:
        radii = r_extension * np.geomspace(0.25, 20.0, 12)
    base = np.eye(tuple_.N)[0] - np.eye(tuple_.N)[1]
    found = math.inf
    for q in range(directions):
        phase = np.exp(2j * math.pi * q / directions)
        for t in radii:
            z = p0 + t * phase * base
            try:
                top.leading_eigenpair(top.assemble_operator(basis, z))
            except (top.EigenvalueCollisionError, top.ResolventSolveError):
                # Rows of P_z sum to sum(z) = 1, so 1 keeps the constant
                # right eigenvector. A leading left vector of vanishing mass
                # belongs to an eigenvalue that overtook 1 in modulus
                # between two scanned radii: isolation is lost.
                found = min(found, float(t))
                break
    if math.isinf(found):
        return {"collision_found": False, "min_distance": None,
                "r_extension": r_extension, "max_radius": float(max(radii))}
    return {"collision_found": True, "min_distance": found,
            "r_extension": r_extension,
            "outside_polydisc": bool(found >= r_extension)}
