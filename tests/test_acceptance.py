"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a single ``PASS``/``FAIL`` line naming the criterion so
the gate reads as a checklist under ``pytest -v``.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

import lyocert.certificates as cert
import lyocert.geometry as geo
import lyocert.operator as op
import lyocert.oracles as orc
import lyocert.verification as ver


REFERENCE = ver.reference_tuple()
P0 = (0.5, 0.5)
THETA = 0.5
GAP = 0.26


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. Worked-example ladder (deterministic, < 1 s)
# ---------------------------------------------------------------------------

def test_criterion_1_worked_example_ladder():
    report = ver.reproduce_reference_example(ver.reference_certificate())
    failed = [c for c in report.checks if c.status == "fail"]
    detail = "; ".join(
        f"{c.name}: measured={c.measured} target={c.target}" for c in failed
    ) or f"{len(report.checks)} ladder constants inside tolerance"
    _report("criterion-1 worked-example ladder", report.passed, detail)


# ---------------------------------------------------------------------------
# 2. Oracle sanity (seeded, < 30 s)
# ---------------------------------------------------------------------------

def test_criterion_2_oracle_sanity():
    problems = []

    diag = geo.MatrixTuple.from_matrices([np.diag([2.0, 0.5])])
    spec1 = orc.CocycleSpec.iid(diag, [1.0])
    lam, se = orc.estimate_top_exponent(spec1, steps=2000, trials=8, seed=0)
    if abs(lam - math.log(2.0)) > 3 * max(se, 1e-12):
        problems.append(f"diag exponent {lam} vs log2, se={se}")

    c, s = math.cos(0.7), math.sin(0.7)
    rot = geo.MatrixTuple.from_matrices([[[c, -s], [s, c]]])
    spec2 = orc.CocycleSpec.iid(rot, [1.0])
    lam, se = orc.estimate_top_exponent(spec2, steps=2000, trials=8, seed=1)
    if abs(lam) > 3 * max(se, 1e-12):
        problems.append(f"rotation exponent {lam}, se={se}")

    spec3 = orc.CocycleSpec.iid(REFERENCE, P0)
    lam, se = orc.estimate_top_exponent(spec3, steps=20000, trials=12, seed=0)
    if 2.0 * lam < GAP - 3 * se:
        problems.append(f"2*lambda_hat = {2 * lam} < 0.26 - 3se, se={se}")

    spectrum = orc.estimate_spectrum(spec3, steps=20000, trials=12, seed=0)
    total = float(spectrum.exponents.sum())
    se_total = float(np.sqrt((spectrum.standard_errors ** 2).sum()))
    exact = orc.determinant_log_mean(spec3)
    if abs(total - exact) > 3 * max(se_total, 1e-12):
        problems.append(f"sum rule {total} vs {exact}, se={se_total}")

    _report("criterion-2 oracle sanity", not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# 3. Operator structure (deterministic, < 60 s at m = 2000)
# ---------------------------------------------------------------------------

def test_criterion_3_operator_structure():
    problems = []
    basis = op.TransferBasis(REFERENCE, op.build_grid(2000))
    M = op.assemble_operator(basis, P0)
    row_sums = M.sum(axis=1)
    row_err = float(np.max(np.abs(row_sums - 1.0)))
    if row_err > 1e-12:
        problems.append(f"row-stochastic defect {row_err}")

    mu, _ = op.leading_eigenpair(M)
    if abs(mu - 1.0) > 1e-10:
        problems.append(f"mu(p0) = {mu}")

    lam_ext = complex(op.analytic_extension_value(basis, P0)).real
    spec = orc.CocycleSpec.iid(REFERENCE, P0)
    lam_mc, se = orc.estimate_top_exponent(spec, steps=20000, trials=12, seed=0)
    if abs(lam_ext - lam_mc) > max(3 * se, 1e-2):
        problems.append(f"extension {lam_ext} vs MC {lam_mc}, se={se}")

    h = 1e-3
    lam_h = op.lyapunov_via_log_deriv(basis, P0, h=h)
    if abs(lam_h - lam_ext) > 1e-3 + 10.0 * h * h:
        problems.append(f"twist log-derivative {lam_h} vs extension {lam_ext}")

    _report("criterion-3 operator structure", not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# 4. Holomorphy (deterministic)
# ---------------------------------------------------------------------------

def test_criterion_4_holomorphy():
    problems = []
    basis = op.TransferBasis(REFERENCE, op.build_grid(300))
    u = np.array([1.0, -1.0])
    base = np.array([0.6, 0.4])  # asymmetric base: cubic term is genuine

    def evaluator(t: complex) -> complex:
        return op.analytic_extension_value(basis, base + t * u)

    r_h = op.cr_holomorphy_check(evaluator, 0.0, 1e-3)
    r_h2 = op.cr_holomorphy_check(evaluator, 0.0, 5e-4)
    ratio = r_h / r_h2
    if not 3.0 <= ratio <= 5.0:
        problems.append(f"CR halving ratio {ratio} outside [3, 5]")

    t = 1e-4 + 2e-4j
    f_plus = op.analytic_extension_value(basis, np.array(P0) + t * u)
    f_minus = op.analytic_extension_value(basis, np.array(P0) + np.conj(t) * u)
    sym_err = abs(f_minus - np.conj(f_plus))
    if sym_err > 1e-10:
        problems.append(f"conjugation symmetry defect {sym_err}")

    _report("criterion-4 holomorphy", not problems,
            "; ".join(problems) or f"ratio={ratio:.3f} sym={sym_err:.2e}")


# ---------------------------------------------------------------------------
# 5. Neumann criterion on the r*-polydisc slice
# ---------------------------------------------------------------------------

def test_criterion_5_neumann_criterion():
    ladder = cert.build_ladder(REFERENCE, THETA, GAP)
    _, k_sp = cert.resolvent_bound(ladder)
    r_star, _ = cert.polydisc_radius(ladder, k_sp, REFERENCE)
    basis = op.TransferBasis(REFERENCE, op.build_grid(300))
    u = np.array([1.0, -1.0])

    at_p0 = op.neumann_criterion_check(basis, P0, np.array(P0),
                                       ladder.rho_star)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(16):
        t = (r_star * math.sqrt(rng.random())
             * np.exp(2j * math.pi * rng.random()))
        z = np.array(P0, dtype=complex) + t * u
        worst = max(worst, op.neumann_criterion_check(
            basis, P0, z, ladder.rho_star))

    ok = worst <= 0.35 and at_p0 <= 1e-12
    _report("criterion-5 Neumann criterion", ok,
            f"worst of 16 = {worst:.3e} (bound 0.35), at p0 = {at_p0:.1e}")


# ---------------------------------------------------------------------------
# 6. Cauchy dominance at p0 up to order 4
# ---------------------------------------------------------------------------

def test_criterion_6_cauchy_dominance():
    basis = op.TransferBasis(REFERENCE, op.build_grid(300))
    rep = cert.certify(REFERENCE, P0, THETA, GAP)
    report = ver.check_cauchy_dominance(basis, P0, rep,
                                        rep.r_extension.value, max_order=4)
    failed = [c for c in report.checks if c.status == "fail"]
    problems = [f"{c.name}: {c.detail}" for c in failed]

    # Order-1 measured magnitude is O(1) while the certified bound is huge.
    ladder = cert.build_ladder(REFERENCE, THETA, GAP)
    _, k_sp = cert.resolvent_bound(ladder)
    r_star, r_extension = cert.polydisc_radius(ladder, k_sp, REFERENCE)
    coeffs = op.taylor_coefficients(basis, P0, [1.0, -1.0], order=4,
                                    contour_radius=r_extension, nodes=16)
    first = abs(coeffs[1])
    m_star = cert.sup_bound(ladder, math.log(k_sp), REFERENCE)
    bound1 = cert.cauchy_bound(m_star, cert.LogValue(math.log(r_star)),
                               (1, 0), "example").value
    if not (first < 10.0 < bound1 and bound1 > 1e6):
        problems.append(f"order-1 magnitude {first} vs bound {bound1}")

    _report("criterion-6 Cauchy dominance", not problems,
            "; ".join(problems) or f"|c1|={first:.3f}, bound={bound1:.3e}")


# ---------------------------------------------------------------------------
# 7. Chain reduction and weak-chain radius degradation
# ---------------------------------------------------------------------------

def test_criterion_7_chain_reduction():
    problems = []
    report = ver.markov_iid_reduction_check(
        op.TransferBasis(REFERENCE, op.build_grid(300)), P0,
        {"steps": 20000, "trials": 12, "seed": 0, "burnin": 1000})
    failed = [c for c in report.checks if c.status == "fail"]
    problems += [f"{c.name}: {c.detail}" for c in failed]

    ladder = cert.build_ladder(REFERENCE, THETA, GAP)
    # Sweep rho_P below 1 - tau0, where tau_chain = (1 - rho_P)^c is binding.
    rho_grid = np.geomspace(0.08, 1e-4, 12)
    radii = [cert.chain_radii(REFERENCE, THETA, ladder, rho)["r_star_P"]
             for rho in rho_grid]
    diffs = np.diff(radii)
    if not (np.all(np.asarray(radii) > 0.0) and np.all(diffs < 0.0)):
        problems.append(f"r*_P not strictly decreasing: {radii}")
    if radii[-1] > radii[0] * 1e-1:
        problems.append(f"r*_P does not degrade: {radii[0]} -> {radii[-1]}")

    _report("criterion-7 chain reduction", not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# 8. Lemma sampling suites
# ---------------------------------------------------------------------------

def test_criterion_8_lemma_sampling():
    problems = []
    report = ver.lemma_sampling_suite(samples=100_000, seed=0)
    failed = [c for c in report.checks if c.status == "fail"]
    problems += [f"{c.name}: {c.detail}" for c in failed]

    ext = ver.exterior_norm_identity_check(samples=10_000)
    failed = [c for c in ext.checks if c.status == "fail"]
    problems += [f"{c.name}: {c.detail}" for c in failed]

    _report("criterion-8 lemma sampling suites", not problems,
            "; ".join(problems))


# ---------------------------------------------------------------------------
# 9. Boundary scan on the worked example
# ---------------------------------------------------------------------------

def test_criterion_9_boundary_scan():
    scan = ver.boundary_scan(
        REFERENCE, THETA, {"steps": 20000, "trials": 8, "seed": 0,
                           "burnin": 1000},
        index=0, steps=6, grid_m=300)
    problems = []
    if scan["indeterminate"]:
        problems.append("decay fit indeterminate")
    if not scan["r_star_positive"]:
        problems.append("r*(p(t)) not strictly positive")
    if not scan["r_star_nonincreasing"]:
        problems.append("r*(p(t)) increases toward the boundary")
    if not scan["lower_bound_holds_everywhere"]:
        problems.append("r* < c_E * p_min^alpha_E at some scan point")
    fit = scan["fit"]
    _report("criterion-9 boundary scan", not problems,
            "; ".join(problems)
            or f"gamma_hat={fit['gamma_hat']:.3f} c_tau_hat={fit['c_tau_hat']:.3f}")


# ---------------------------------------------------------------------------
# 10. Grassmannian certificates for (d,k) = (3,1), (3,2)
# ---------------------------------------------------------------------------

def test_criterion_10_grassmann_certificates():
    problems = []
    rng = np.random.default_rng(7)
    mats = [geo.sample_matrix(rng, 3) for _ in range(3)]
    T = geo.MatrixTuple.from_matrices(mats)
    p = (0.4, 0.35, 0.25)
    spec = orc.CocycleSpec.iid(T, p)

    spectrum = orc.estimate_spectrum(spec, steps=8000, trials=10, seed=0)
    lam = spectrum.exponents
    se = spectrum.standard_errors
    gaps = {1: float(lam[0] - lam[1]), 2: float(lam[1] - lam[2])}
    if min(gaps.values()) <= 0.0:
        pytest.fail(f"oracle gaps not positive: {gaps}")

    cert1 = cert.grassmann_certificate(T, THETA, 1, gaps[1])
    cert2 = cert.grassmann_certificate(T, THETA, 2, gaps[2],
                                       r_H_previous=cert1["r_H"])
    for name, c in (("k=1", cert1), ("k=2", cert2)):
        for key in ("rho_star_k", "C_star_k", "r_persist", "r_kato", "r_H"):
            if not c[key] > 0.0:
                problems.append(f"{name} {key} = {c[key]}")
    if cert2["r_individual"] != min(cert2["r_H"], cert1["r_H"]):
        problems.append("r_individual(2) != min(r_H(2), r_H(1))")

    # Dual-method consistency for Lambda_2 = lambda_1 + lambda_2.
    partial, se_partial = orc.estimate_partial_sum(spec, 2, steps=8000,
                                                   trials=10, seed=1)
    direct = float(lam[0] + lam[1])
    se_direct = float(np.hypot(se[0], se[1]))
    tol = 3.0 * math.hypot(se_partial, se_direct)
    if abs(partial - direct) > tol:
        problems.append(
            f"Lambda_2 dual-method: {partial} vs {direct}, tol {tol}")

    _report("criterion-10 Grassmann certificates", not problems,
            "; ".join(problems))


# ---------------------------------------------------------------------------
# 11. Resolvent identities on random 8x8 complex matrices
# ---------------------------------------------------------------------------

def test_criterion_11_resolvent_identities():
    report = ver.resolvent_identity_check(trials=20, n=8)
    failed = [c for c in report.checks if c.status == "fail"]
    _report("criterion-11 resolvent identities", not failed,
            "; ".join(f"{c.name}: {c.detail}" for c in failed))
