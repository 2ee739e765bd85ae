"""Where the traced run wraps lyocert, and the per-layer metrics it derives.

Layers are lyocert's modules. The wrapped callables are the public
functions of each module, the subcommand handlers in ``cli.COMMANDS``, and
the SciPy ``eig``/``eigs`` entry points that ``lyocert.operator`` calls.
Every metric is a per-round figure: a sum of span durations or a count over
the spans of one round.
"""

from __future__ import annotations

import inspect

from tracing import Tracer, self_times

OPERATOR_FUNCS = ("build_grid", "log_stretch_table", "assemble_operator",
                  "assemble_chain_operator", "leading_eigenpair",
                  "spectral_gap_measured", "analytic_extension_value",
                  "lyapunov_via_log_deriv", "chain_extension_value",
                  "taylor_coefficients", "estimate_sharp_radius",
                  "cr_holomorphy_check", "neumann_criterion_check")
ORACLE_FUNCS = ("estimate_top_exponent", "estimate_spectrum",
                "estimate_partial_sum", "estimate_markov_exponent",
                "lyapunov_gap", "determinant_log_mean",
                "stationary_distribution")
# Estimators that run the QR trial loop themselves; the others delegate.
FRAME_ESTIMATORS = ("oracles.estimate_top_exponent",
                    "oracles.estimate_spectrum",
                    "oracles.estimate_partial_sum")
MC_ESTIMATORS = FRAME_ESTIMATORS + ("oracles.estimate_markov_exponent",
                                    "oracles.lyapunov_gap")
VERIFICATION_FUNCS = ("reference_tuple", "reproduce_reference_example",
                      "check_cauchy_dominance", "boundary_scan",
                      "markov_iid_reduction_check", "partial_sum_consistency",
                      "lemma_sampling_suite", "exterior_norm_identity_check",
                      "holder_operator_norm_check", "resolvent_identity_check",
                      "collapse_scan")
CERTIFICATE_FUNCS = ("certify", "build_ladder", "resolvent_bound",
                     "polydisc_radius", "log_polydisc_radius", "sup_bound",
                     "cauchy_bound", "joint_radii", "chain_radii",
                     "boundary_constants", "grassmann_certificate",
                     "optimize_theta", "perturbation_factor", "k_mat")
CLI_FUNCS = ("load_config", "serialize_report", "certificate_to_report",
             "build_certificate", "resolve_gap")
SUBCOMMANDS = ("extend", "taylor", "verify", "scan-boundary", "example")


def _arg_reader(fn, *names):
    """attrs callback that records the named arguments of a call to fn."""
    sig = inspect.signature(fn)

    def read(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return {n: bound.arguments[n] for n in names}
    return read


def install(tracer: Tracer) -> None:
    """Wrap lyocert's public functions, subcommands and SciPy solvers."""
    import scipy.linalg
    import scipy.sparse.linalg

    from lyocert import certificates, cli, geometry, operator, oracles
    from lyocert import verification

    namespaces = (cli, operator, oracles, verification, certificates,
                  geometry)
    tracer.patch("scipy.eig", scipy.linalg, "eig")
    tracer.patch("scipy.eigs", scipy.sparse.linalg, "eigs")
    for module, prefix, funcs in (
            (operator, "operator", OPERATOR_FUNCS),
            (oracles, "oracles", ORACLE_FUNCS),
            (verification, "verification", VERIFICATION_FUNCS),
            (certificates, "certificates", CERTIFICATE_FUNCS),
            (cli, "cli", CLI_FUNCS)):
        for func in funcs:
            name = f"{prefix}.{func}"
            fn = getattr(module, func)
            attrs = None
            if name in FRAME_ESTIMATORS:
                attrs = _arg_reader(fn, "steps", "trials", "burnin")
            elif name == "verification.lemma_sampling_suite":
                attrs = _arg_reader(fn, "samples")
            tracer.patch(name, module, func, namespaces, attrs)
    tracer.patch("geometry.exterior_power", geometry, "exterior_power",
                 namespaces)
    for cmd in SUBCOMMANDS:
        tracer.patch_item(f"cli.{cmd}", cli.COMMANDS, cmd)


def round_metrics(spans, checks: int) -> dict[str, float]:
    """Per-layer figures of one traced round: every per_layer metric of
    BENCHMARK.json except trace.overhead_s, which spans two rounds.

    checks is the number of check records in the round's reports, counted
    from the reports themselves.
    """
    by_id = {s.ident: s for s in spans}
    selfs = self_times(spans)

    def ancestors(span):
        while span.parent is not None and span.parent in by_id:
            span = by_id[span.parent]
            yield span

    def total(*names):
        return sum(s.duration for s in spans if s.name in names)

    def count(*names):
        return sum(1 for s in spans if s.name in names)

    solver = [s for s in spans if s.name in ("scipy.eig", "scipy.eigs")]
    mc_outer = [s for s in spans if s.name in MC_ESTIMATORS
                and not any(a.name in MC_ESTIMATORS for a in ancestors(s))]
    mc_s = sum(s.duration for s in mc_outer)
    frame_steps = sum(
        s.attrs["trials"] * (s.attrs["steps"] + s.attrs["burnin"])
        for s in spans if s.name in FRAME_ESTIMATORS)
    lemma = [s for s in spans if s.name == "verification.lemma_sampling_suite"]
    lemma_s = sum(s.duration for s in lemma)
    lemma_samples = sum(s.attrs["samples"] for s in lemma)
    cert_outer = sum(s.duration for s in spans
                     if s.name.startswith("certificates.")
                     and not any(a.name.startswith("certificates.")
                                 for a in ancestors(s)))
    out = {
        "operator.eigensolve_s": sum(s.duration for s in solver),
        "operator.eigensolve_cpu_s": sum(s.cpu for s in solver),
        "operator.eigensolves": count("operator.leading_eigenpair",
                                      "operator.spectral_gap_measured"),
        "operator.solver_calls": len(solver),
        "operator.assemble_s": total("operator.assemble_operator",
                                     "operator.assemble_chain_operator"),
        "operator.quadrature_self_s": sum(
            selfs[s.ident] for s in spans
            if s.name == "operator.taylor_coefficients"),
        "oracles.mc_s": mc_s,
        "oracles.mc_runs": len(mc_outer),
        "oracles.frame_steps": frame_steps,
        "oracles.frame_steps_per_s": frame_steps / mc_s if mc_s > 0 else 0.0,
        "verification.lemma_s": lemma_s,
        "verification.lemma_samples_per_s":
            lemma_samples / lemma_s if lemma_s > 0 else 0.0,
        "verification.exterior_norm_s":
            total("verification.exterior_norm_identity_check"),
        "verification.boundary_scan_self_s": sum(
            selfs[s.ident] for s in spans
            if s.name == "verification.boundary_scan"),
        "verification.checks": checks,
        "geometry.exterior_power_calls": count("geometry.exterior_power"),
        "geometry.exterior_power_s": total("geometry.exterior_power"),
        "cli.load_config_s": total("cli.load_config"),
        "cli.serialize_s": total("cli.serialize_report"),
        "certificates.certify_s": cert_outer,
    }
    for cmd in SUBCOMMANDS:
        out[f"cli.{cmd}_s"] = total(f"cli.{cmd}")
    return out
