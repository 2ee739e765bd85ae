"""The workloads: seeded configs, the reports of one round, and checks.

A workload is built once per run from the seed: it writes its configs,
computes its reference values with ``reference`` (never with lyocert), and
lists the reports of one round in a fixed order. Each report is one call of
``lyocert.cli.main``; its check receives the exit code, the parsed report
and the parsed reports already made in the same round, and returns the list
of problems it found (empty when the report is correct).
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

# Smallest grid above lyocert.operator.DENSE_EIG_LIMIT = 600, so the contour
# workload takes the ARPACK path that the packaged m = 2000 takes.
CONTOUR_GRID_M = 601
# Allowance for the Ulam discretization of the m = 601 grid when its
# lambda~_+ is compared with a Monte Carlo value.
DISCRETIZATION_TOL = 1e-3
# Relative accuracy asked of one operator value: the tolerance lyocert
# passes to ARPACK.
VALUE_EPS = 1e-12
# Monte Carlo comparisons allow this many standard errors.
MC_SIGMAS = 6.0
BATTERY_MC = {"steps": 4000, "trials": 16, "burnin": 1000}
BATTERY_BOUNDARY_STEPS = 3
OWN_MC = {"steps": 20000, "trials": 32}

REFERENCE_CHECKS = ("reference.n0", "reference.tau0", "reference.C2",
                    "reference.N_theta", "reference.tau_star",
                    "reference.K_star_sp", "reference.r_star",
                    "reference.M_star", "reference.cauchy_first",
                    "reference.cauchy_second")
VERIFY_CHECKS = REFERENCE_CHECKS + (
    "lemma.proj_contract", "lemma.logform_lip_g", "lemma.logform_lip_v",
    "lemma.grassmann_contract", "lemma.grassmann_perturb",
    "lemma.exterior_norm_identity", "lemma.transfer_norm_bound",
    "appendix.second_resolvent_identity", "appendix.neumann_series",
    *(f"cauchy_dominance.dir0.order{j}" for j in range(5)),
    "markov_iid.operator", "markov_iid.monte_carlo")


@dataclass
class Report:
    label: str
    argv: list
    check: object  # (code, out, done) -> list[str]


@dataclass
class Workload:
    configs: list
    reports: list


def packaged_config(root: Path) -> dict:
    path = root / "src" / "lyocert" / "data" / "reference_config.json"
    return json.loads(path.read_text())


def _write(workdir: Path, name: str, cfg: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def value(leaf) -> complex | float:
    v = leaf["value"]
    if isinstance(v, dict):
        return complex(v["re"], v["im"])
    return float(v)


def _close(problems, what, got, want, tol):
    if not abs(got - want) <= tol:
        problems.append(f"{what}: got {got}, want {want} within {tol:.3g}")


def _exit_ok(code, problems):
    if code != 0:
        problems.append(f"exit code {code}")


def _z_arg(z) -> str:
    return json.dumps([[float(c.real), float(c.imag)] for c in z])


# ---------------------------------------------------------------------------
# contour: operator assembly and ARPACK eigensolves, no Monte Carlo.

def contour(seed: int, workdir: Path, root: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    base = packaged_config(root)
    u = np.array([1.0, -1.0])

    ref_cfg = copy.deepcopy(base)
    ref_cfg["grid"] = {"m": CONTOUR_GRID_M}
    p_ref = np.asarray(ref_cfg["weights"])
    # The operator inputs of this workload do not depend on the seed (it
    # sets only the Monte Carlo reference): ARPACK takes 190 to 250 matvecs
    # per solve on the reference operator depending on z, which moved the
    # round time by several percent from seed to seed.
    z_ref = p_ref + 1e-3 * np.exp(1j * math.pi / 4) * u
    lam_mc, se_mc = ref.benettin_top(ref_cfg["matrices"], p_ref,
                                     OWN_MC["steps"], OWN_MC["trials"],
                                     int(rng.integers(2**31)))

    # The diagonal inputs are fixed: ARPACK's iteration count on this
    # defective operator swings with the entries, the weights and the
    # radius (3.4 s for this taylor report, 28.6 s for diag(7, e^0.1/7),
    # diag(4.5, e^-0.2/4.5) at p = (0.45, 0.55), r = 0.04), which would make
    # the round time a property of the seed.
    a = np.array([8.0, 4.0])
    b = 1.0 / a
    p_diag = np.array([0.5, 0.5])
    radius = 0.05
    diag_cfg = {
        "dimension": 2,
        "matrices": [np.diag([a[i], b[i]]).tolist() for i in range(2)],
        "weights": p_diag.tolist(),
        "theta": 0.5,
        "gap": float(p_diag @ (np.log(a) - np.log(b))),
        "grid": {"m": CONTOUR_GRID_M},
        "contour": {"radius": radius, "nodes": 8, "order": 2,
                    "direction": u.tolist()},
    }
    z_diag = p_diag + 0.03 * np.exp(1j * math.pi / 3) * u
    ref_path = _write(workdir, "contour-reference", ref_cfg)
    diag_path = _write(workdir, "contour-diagonal", diag_cfg)

    def check_extend(z, label_conj=None, exact=None, mc=False):
        def check(code, out, done):
            problems = []
            _exit_ok(code, problems)
            if problems:
                return problems
            lam = value(out["value"])
            if out["gridM"] != CONTOUR_GRID_M:
                problems.append(f"gridM {out['gridM']}")
            got_z = np.array([complex(r, i) for r, i in out["z"]])
            _close(problems, "echoed z", float(np.max(np.abs(got_z - z))),
                   0.0, 1e-15)
            if mc:
                # |lambda~(z) - lambda(p)| <= |c_2| |w|^2 + ... is far below
                # the discretization allowance for |w| <= 2e-3.
                _close(problems, "Re lambda~ vs Monte Carlo lambda_+",
                       lam.real, lam_mc,
                       MC_SIGMAS * se_mc + DISCRETIZATION_TOL)
            if label_conj is not None:
                other = value(done[label_conj]["value"])
                _close(problems, "lambda~(conj z) vs conj lambda~(z)", lam,
                       other.conjugate(), VALUE_EPS * max(1.0, abs(lam)))
            if exact is not None:
                _close(problems, "lambda~ vs sum z_i log a_i", lam, exact,
                       VALUE_EPS * max(1.0, abs(exact)))
            return problems
        return check

    c_exact = [float(p_diag @ np.log(a)), float(u @ np.log(a)), 0.0]
    max_lam = abs(c_exact[0]) + radius * abs(c_exact[1])

    def check_taylor(code, out, done):
        problems = []
        _exit_ok(code, problems)
        if problems:
            return problems
        coeffs = [value(c) for c in out["coefficients"]]
        if len(coeffs) != 3:
            return [f"{len(coeffs)} coefficients, want 3"]
        _close(problems, "contour radius", out["contour"]["radius"], radius,
               1e-15 * radius)
        for j, (got, want) in enumerate(zip(coeffs, c_exact)):
            # quadrature rounding bound: eps * max|lambda~| * r^-j
            _close(problems, f"c_{j}", got, want,
                   VALUE_EPS * max_lam * radius ** -j)
        r_cert = value(out["certificateRadius"])
        if not (r_cert > 0.0 and math.isfinite(r_cert)):
            problems.append(f"certificate radius {r_cert}")
        return problems

    reports = [
        Report("extend.reference", ["extend", "--config", ref_path,
                                    "--z", _z_arg(z_ref)],
               check_extend(z_ref, mc=True)),
        Report("extend.reference.conj", ["extend", "--config", ref_path,
                                         "--z", _z_arg(z_ref.conj())],
               check_extend(z_ref.conj(), label_conj="extend.reference",
                            mc=True)),
        Report("extend.diagonal", ["extend", "--config", diag_path,
                                   "--z", _z_arg(z_diag)],
               check_extend(z_diag, exact=ref.diagonal_extension(z_diag, a))),
        Report("taylor.diagonal", ["taylor", "--config", diag_path],
               check_taylor),
    ]
    return Workload([ref_path, diag_path], reports)


# ---------------------------------------------------------------------------
# battery: lemma sampling, exterior-norm check, dense small-grid operator.

def _check_records(problems, records, expected):
    names = [c["name"] for c in records]
    missing = sorted(set(expected) - set(names))
    if missing:
        problems.append(f"missing checks {missing}")
    for c in records:
        if c["status"] != "pass":
            problems.append(f"check {c['name']} is {c['status']}: "
                            f"{c['detail']}")


def _mc(rng, spec) -> dict:
    return {**spec, "seed": int(rng.integers(2**31))}


def battery(seed: int, workdir: Path, root: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    cfg = packaged_config(root)
    cfg["mc"] = _mc(rng, BATTERY_MC)
    cfg["boundary"]["steps"] = BATTERY_BOUNDARY_STEPS
    path = _write(workdir, "battery", cfg)

    def check_verify(code, out, done):
        problems = []
        _exit_ok(code, problems)
        if out.get("passed") is not True:
            problems.append("report not passed")
        _check_records(problems, out.get("checks", []), VERIFY_CHECKS)
        return problems

    def check_scan(code, out, done):
        problems = []
        _exit_ok(code, problems)
        if problems:
            return problems
        if len(out["rows"]) != BATTERY_BOUNDARY_STEPS:
            problems.append(f"{len(out['rows'])} scan rows")
        if out.get("indeterminate") is not False or out.get("fit") is None:
            problems.append("no decay fit")
        for key in ("lower_bound_holds_everywhere", "r_star_nonincreasing",
                    "r_star_positive"):
            if out.get(key) is not True:
                problems.append(f"{key} is {out.get(key)}")
        p_min = [r["p_min"] for r in out["rows"]]
        if p_min != sorted(p_min, reverse=True):
            problems.append(f"p_min not decreasing: {p_min}")
        return problems

    def check_example(code, out, done):
        problems = []
        _exit_ok(code, problems)
        checks = out.get("checks", {})
        if checks.get("passed") is not True:
            problems.append("reference example not passed")
        _check_records(problems, checks.get("checks", []), REFERENCE_CHECKS)
        r_star = value(out["certificate"]["rStar"])
        if not r_star > 0.0:
            problems.append(f"rStar {r_star}")
        return problems

    reports = [
        Report("verify", ["verify", "--fast", "--config", path], check_verify),
        Report("scan-boundary", ["scan-boundary", "--config", path],
               check_scan),
        Report("example", ["example", "--config", path], check_example),
    ]
    return Workload([path], reports)


WORKLOADS = {"contour": contour, "battery": battery}


def count_checks(outputs: dict) -> int:
    """Check records in one round's reports (verification.checks)."""
    n = 0
    for out in outputs.values():
        checks = out.get("checks") if isinstance(out, dict) else None
        if isinstance(checks, dict):
            checks = checks.get("checks")
        if isinstance(checks, list):
            n += len(checks)
    return n
