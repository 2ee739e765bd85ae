"""Command-line interface: config handling, subcommands, report output.

Subcommands: estimate, certify, extend, taylor, scan-boundary, chain,
grassmann, verify, example. Configuration is a JSON file validated against
a strict schema (unknown keys rejected), which holds every setting's type,
range and default; the --theta, --seed and --grid-m overrides are checked
against the same schema entries. Reports are JSON with every constant
wrapped as {value, logValue, formulaId, inputs} and floats rendered with
17 significant digits. Exit codes: 0 success, 1 validation error,
2 verification failure, 3 numeric error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys
import time
from importlib import resources
from typing import NamedTuple

import numpy as np

from . import certificates as cert
from . import operator as top
from . import verification as ver
from .certificates import (ConstantValidationError, GapNotSimpleError,
                           IsolatingCircleError, LogValue)
from .geometry import InvalidMatrixError, MatrixTuple
from .oracles import (DEFAULT_BURNIN, CocycleSpec, NumericOverflowError,
                      estimate_markov_exponent, estimate_spectrum,
                      estimate_top_exponent, gap_from_estimates, lyapunov_gap)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFICATION = 2
EXIT_NUMERIC = 3

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["dimension", "matrices", "theta"],
    "oneOf": [{"required": ["weights"]}, {"required": ["transition"]}],
    "properties": {
        "dimension": {"type": "integer", "minimum": 2},
        "matrices": {
            "type": "array", "minItems": 1,
            "items": {"type": "array",
                      "items": {"type": "array",
                                "items": {"type": "number"}}},
        },
        "weights": {"type": "array", "items": {"type": "number"}},
        "transition": {"type": "array",
                       "items": {"type": "array",
                                 "items": {"type": "number"}}},
        "theta": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "gap": {"type": ["number", "null"], "default": None},
        # cfg["mc"] passes whole to the Monte Carlo estimators as keywords
        "mc": {
            "type": "object", "additionalProperties": False, "default": {},
            "properties": {
                "steps": {"type": "integer", "minimum": 1, "default": 20_000},
                "trials": {"type": "integer", "minimum": 1, "default": 12},
                "seed": {"type": "integer", "minimum": 0, "default": 0},
                "burnin": {"type": "integer", "minimum": 0,
                           "default": DEFAULT_BURNIN},
            },
        },
        "grid": {
            "type": "object", "additionalProperties": False, "default": {},
            "properties": {"m": {"type": "integer", "minimum": 8,
                                 "default": 2000}},
        },
        "contour": {
            "type": "object", "additionalProperties": False, "default": {},
            "properties": {
                "radius": {"type": ["number", "null"], "exclusiveMinimum": 0,
                           "default": None},
                "nodes": {"type": "integer", "minimum": 4, "default": 32},
                "order": {"type": "integer", "minimum": 1, "default": 6},
                "direction": {"type": ["array", "null"],
                              "items": {"type": "number"}, "default": None},
            },
        },
        "boundary": {
            "type": "object", "additionalProperties": False, "default": {},
            "properties": {
                "index": {"type": "integer", "minimum": 0, "default": 0},
                "steps": {"type": "integer", "minimum": 2, "default": 6},
                # null: 0.9 p0[index]
                "tMax": {"type": ["number", "null"], "exclusiveMinimum": 0,
                         "default": None},
                "cTau": {"type": ["number", "null"], "default": None},
                "gammaTau": {"type": ["number", "null"], "default": None},
            },
        },
        "grassmann": {
            "type": "object", "additionalProperties": False, "default": {},
            "properties": {
                "levels": {"type": "array",
                           "items": {"type": "integer", "minimum": 1},
                           "default": []},
                "gaps": {"type": "object",
                         "propertyNames": {"pattern": "^[1-9][0-9]*$"},
                         "additionalProperties": {"type": "number"},
                         "default": {}},
            },
        },
        "flags": {
            "type": "object", "additionalProperties": False, "default": {},
            "properties": {
                "rigorousK": {"type": "boolean", "default": False},
                "chainExponent": {"type": "number", "exclusiveMinimum": 0,
                                  "maximum": 1, "default": 1.0},
                "rhoA": {"type": "number", "minimum": 0, "default": 0.0},
            },
        },
    },
}

Z_SCHEMA = {
    "type": "array", "minItems": 1,
    "items": {"type": "array", "items": {"type": "number"},
              "minItems": 2, "maxItems": 2},
}

class ConfigError(ValueError):
    """The configuration file failed validation."""


# ---------------------------------------------------------------------------
# Schema validation. A Draft 2020-12 validator for the keywords that the two
# schemas use. Its messages, its error order and its choice among several
# errors are those of the reference Python implementation of JSON Schema,
# which tests/test_cli.py checks it against.

def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


_IS_TYPE = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": _is_number,
    # JSON Schema counts 60.0 as an integer
    "integer": lambda x: _is_number(x) and (isinstance(x, int)
                                            or x.is_integer()),
}
# keyword -> (the instance violates the bound, message words)
_BOUNDS = {
    "minimum": (lambda x, b: x < b, "is less than the minimum of"),
    "maximum": (lambda x, b: x > b, "is greater than the maximum of"),
    "exclusiveMinimum": (lambda x, b: x <= b,
                         "is less than or equal to the minimum of"),
}


class SchemaViolation(NamedTuple):
    path: tuple  # keys and indices from the root
    keyword: str
    message: str


def schema_violations(schema: dict, x, path: tuple = ()):
    """Each violation of schema by x, in the reference validator's order:
    schema keywords in dict order, depth first. A default is an
    annotation and checks nothing."""
    is_object = isinstance(x, dict)
    fail = functools.partial(SchemaViolation, path)

    for kw, arg in schema.items():
        if kw == "type":
            types = [arg] if isinstance(arg, str) else arg
            if not any(_IS_TYPE[t](x) for t in types):
                yield fail(kw, f"{x!r} is not of type "
                               + ", ".join(map(repr, types)))
        elif kw == "properties":
            for key, sub in arg.items() if is_object else ():
                if key in x:
                    yield from schema_violations(sub, x[key], path + (key,))
        elif kw == "additionalProperties":
            extras = sorted(k for k in x if k not in schema.get(
                "properties", {})) if is_object else []
            if isinstance(arg, dict):
                for key in extras:
                    yield from schema_violations(arg, x[key], path + (key,))
            elif extras and arg is False:
                verb = "was" if len(extras) == 1 else "were"
                yield fail(kw, "Additional properties are not allowed ("
                               f"{', '.join(map(repr, extras))} {verb} "
                               "unexpected)")
        elif kw == "required":
            for key in arg if is_object else ():
                if key not in x:
                    yield fail(kw, f"{key!r} is a required property")
        elif kw == "oneOf":
            valid = [sub for sub in arg
                     if next(schema_violations(sub, x, path), None) is None]
            if not valid:
                yield fail(kw, f"{x!r} is not valid under any of the given "
                               "schemas")
            elif len(valid) > 1:
                yield fail(kw, f"{x!r} is valid under each of "
                               + ", ".join(map(repr, valid[1:] + valid[:1])))
        elif kw == "items":
            for i, item in enumerate(x if isinstance(x, list) else ()):
                yield from schema_violations(arg, item, path + (i,))
        elif kw == "minItems":
            if isinstance(x, list) and len(x) < arg:
                yield fail(kw, f"{x!r} " + ("should be non-empty" if arg == 1
                                            else "is too short"))
        elif kw == "maxItems":
            if isinstance(x, list) and len(x) > arg:
                yield fail(kw, f"{x!r} " + ("is expected to be empty"
                                            if arg == 0 else "is too long"))
        elif kw in _BOUNDS:
            violates, words = _BOUNDS[kw]
            if _is_number(x) and violates(x, arg):
                yield fail(kw, f"{x!r} {words} {arg!r}")
        elif kw == "propertyNames":
            for key in x if is_object else ():
                yield from schema_violations(arg, key, path)
        elif kw == "pattern":
            if isinstance(x, str) and not re.search(arg, x):
                yield fail(kw, f"{x!r} does not match {arg!r}")
        elif kw != "default":
            raise NotImplementedError(f"schema keyword {kw!r}")


def best_violation(schema: dict, x) -> SchemaViolation | None:
    """The violation of schema by x that the reference's best_match picks,
    or None when x is valid: the shallowest, then the latest in path order,
    then not a oneOf (a weak match), then the first.

    best_match has two more rules, which change nothing while the schemas
    keep two conditions. It descends into a failed oneOf's branches unless
    the two best tie: the one oneOf has two bare "required" branches, which
    fail alike. It prefers a violation whose instance fails its schema's
    type: no two typed sub-schemas apply at one path (propertyNames' has no
    type). A schema edit that breaks a condition needs its rule back."""
    return max(schema_violations(schema, x), default=None,
               key=lambda v: (-len(v.path), v.path, v.keyword != "oneOf"))


def json_path(path: tuple) -> str:
    """The JSONPath of a path of keys and indices, written as the
    reference writes it."""
    out = "$"
    for key in path:
        if isinstance(key, int):
            out += f"[{key}]"
        elif re.match("^[a-zA-Z][a-zA-Z0-9_]*$", key):
            out += "." + key
        else:
            out += "['" + key.replace("\\", "\\\\").replace("'", "\\'") + "']"
    return out


def _with_defaults(schema: dict, x):
    """x, valid under schema, as a new object: every integer-typed value an
    int (the schema admits 60.0 where the program indexes and counts), and
    after the keys of each object the defaults of the properties it lacks."""
    if schema.get("type") == "integer":
        return int(x)
    if isinstance(x, list):
        return [_with_defaults(schema.get("items", {}), v) for v in x]
    if not isinstance(x, dict):
        return x
    extra = schema.get("additionalProperties")
    extra = extra if isinstance(extra, dict) else {}
    props = schema.get("properties", {})
    out = {k: _with_defaults(props.get(k, extra), v) for k, v in x.items()}
    for k, sub in props.items():
        if k not in out and "default" in sub:
            out[k] = _with_defaults(sub, sub["default"])
    return out


def _parse_json(text: str, prefix: str):
    """json.loads that rejects NaN, Infinity, -Infinity and overflowing
    numbers: they are not JSON, yet would pass the "number" type."""
    def not_finite(token):
        raise ConfigError(f"{prefix}: {token} is not a finite number")

    def finite_float(token):
        value = float(token)
        return not_finite(token) if math.isinf(value) else value

    try:
        return json.loads(text, parse_constant=not_finite,
                          parse_float=finite_float)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{prefix}: {exc}") from exc


def load_config(path: str | None) -> dict:
    """Read and schema-validate a config, with every default filled in;
    None loads the packaged default."""
    if path is None:
        text = resources.files("lyocert").joinpath(
            "data/reference_config.json").read_text()
    else:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    raw = _parse_json(text, "config is not valid JSON")
    bad = best_violation(CONFIG_SCHEMA, raw)
    if bad is not None:
        raise ConfigError(
            f"config invalid at {json_path(bad.path)}: {bad.message}")
    cfg = _with_defaults(CONFIG_SCHEMA, raw)
    # each matrix is d x d and the transition N x N; rows are measured one
    # by one, since a ragged list makes no array
    squares = {f"$.matrices[{i}]": (m, cfg["dimension"])
               for i, m in enumerate(cfg["matrices"])}
    if "transition" in cfg:
        squares["$.transition"] = (cfg["transition"], len(cfg["matrices"]))
    for where, (rows, n) in squares.items():
        widths = {len(row) for row in rows}
        if len(rows) != n or widths != {n}:
            got = (f"shape {(len(rows), *widths)}" if len(widths) < 2
                   else f"rows of lengths {[len(row) for row in rows]}")
            raise ConfigError(f"config invalid at {where}: expected a "
                              f"{n}x{n} matrix, got {got}")
    n, direction = len(cfg["matrices"]), cfg["contour"]["direction"]
    if direction is not None and len(direction) != n:
        raise ConfigError("config invalid at $.contour.direction: expected "
                          f"{n} entries, one per matrix, got {len(direction)}")
    b = cfg["boundary"]
    if (b["cTau"] is None) != (b["gammaTau"] is None):
        raise ConfigError("config invalid at $.boundary: boundary.cTau and "
                          "boundary.gammaTau must be set together")
    return cfg


def cocycle_from_config(cfg: dict) -> CocycleSpec:
    tuple_ = MatrixTuple.from_matrices(cfg["matrices"])
    if "weights" in cfg:
        return CocycleSpec.iid(tuple_, cfg["weights"])
    return CocycleSpec.markov(tuple_, cfg["transition"])


def resolve_gap(cfg: dict, spec: CocycleSpec) -> tuple[float, dict]:
    """Config gap override or a seeded Monte Carlo estimate."""
    if cfg["gap"] is not None:
        return float(cfg["gap"]), {"source": "config-override"}
    gap, se = lyapunov_gap(spec, **cfg["mc"])
    return gap, {"source": "monte-carlo", "stderr": se,
                 "seed": cfg["mc"]["seed"]}


# ---------------------------------------------------------------------------
# Report serialization.

def leaf(value, formula_id: str, inputs: dict | None = None) -> dict:
    """Wrap a numeric constant with its formula tag and provenance."""
    out = {"formulaId": formula_id}
    if isinstance(value, LogValue):
        out["value"] = value.value
        out["logValue"] = value.log
    else:
        out["value"] = value
        if isinstance(value, (int, float)) and not isinstance(value, bool) \
                and value > 0 and math.isfinite(value):
            out["logValue"] = math.log(value)
    if inputs:
        out["inputs"] = inputs
    return out


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isinf(value):
            return '"inf"' if value > 0 else '"-inf"'
        if math.isnan(value):
            return '"nan"'
        return format(value, ".17g")
    if isinstance(value, complex):
        return (f'{{"re": {_fmt(value.real)}, "im": {_fmt(value.imag)}}}')
    return json.dumps(value)


def serialize_report(report, indent: int = 0) -> str:
    """Deterministic JSON with sorted keys and 17-significant-digit floats."""
    pad = " " * indent
    child = " " * (indent + 2)
    if isinstance(report, dict):
        if not report:
            return "{}"
        items = [f'{child}{json.dumps(str(k))}: '
                 f'{serialize_report(report[k], indent + 2)}'
                 for k in sorted(report, key=str)]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(report, (list, tuple)):
        if not report:
            return "[]"
        items = [f"{child}{serialize_report(v, indent + 2)}" for v in report]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(report, (np.floating,)):
        return _fmt(float(report))
    if isinstance(report, (np.integer,)):
        return _fmt(int(report))
    if isinstance(report, np.ndarray):
        return serialize_report(report.tolist(), indent)
    return _fmt(report)


# ---------------------------------------------------------------------------
# Report builders.

def certificate_to_report(rep: cert.CertificateReport) -> dict:
    """CertificateReport -> JSON structure with formula-tagged leaves. A
    mapping of radii or constants gives one leaf per entry; an absent chain
    or boundary block is left out."""
    lad = rep.ladder
    inputs = {"theta": lad.theta, "gap": lad.gap, "ecc": lad.ecc}

    def leaves(values: dict, formula_id: str) -> dict:
        return {k: leaf(v, formula_id, inputs) for k, v in values.items()}

    out = {
        "ladder": {
            "n0": leaf(lad.n0, "simplicity-threshold-ceil", inputs),
            "tau0": leaf(lad.tau0, "oscillation-rate",
                         {**inputs, "optimistic": lad.tau0_optimistic,
                          "pessimistic": lad.tau0}),
            "C2": leaf(lad.C2, "holder-growth-constant", inputs),
            "NTheta": leaf(lad.N_theta, "holder-iteration-count", inputs),
            "tauStar": leaf(lad.tau_star, "composite-gap", inputs),
            "rhoStar": leaf(lad.rho_star, "isolating-radius", inputs),
            "RNormBound": leaf(lad.R_norm_bound, "iterated-operator-norm",
                               inputs),
        },
        "rigorous": rep.rigorous,
        "inputProvenance": rep.input_provenance,
        "KStar": leaf(rep.K_star, "resolvent-bound-explicit", inputs),
        "KStarSp": leaf(rep.K_star_sp, "resolvent-bound-spectral-radius",
                        inputs),
        "rStar": leaf(rep.r_star, "kato-polydisc-radius", inputs),
        "rExtension": leaf(rep.r_extension, "extension-radius-half", inputs),
        "MStar": leaf(rep.M_star, "sup-bound", inputs),
        # both Cauchy orders come from one formula
        "cauchyFirst": leaf(rep.cauchy_first, "cauchy-coefficient-bound",
                            {"order": 1, "convention": "example"}),
        "cauchySecond": leaf(rep.cauchy_second, "cauchy-coefficient-bound",
                             {"order": 2, "convention": "example"}),
        "joint": leaves(rep.joint, "joint-polydisc-radii"),
    }
    if rep.chain is not None:
        out["chain"] = leaves(rep.chain, "chain-polydisc-radii")
    if rep.boundary is not None:
        out["boundary"] = leaves(rep.boundary, "boundary-decay-constants")
    return out


def build_certificate(cfg: dict, spec: CocycleSpec) -> cert.CertificateReport:
    """The certificate of a config's cocycle at its theta and gap."""
    gap, gap_prov = resolve_gap(cfg, spec)
    flags = cfg["flags"]
    chain_gap = spec.chain_gap if spec.kind == "markov" else None
    return cert.certify(
        spec.tuple, spec.weights if spec.kind == "iid"
        else np.full(spec.tuple.N, 1.0 / spec.tuple.N),
        cfg["theta"], gap, rigorous=flags["rigorousK"], rho_A=flags["rhoA"],
        chain_gap=chain_gap, c_exponent=flags["chainExponent"],
        c_tau=cfg["boundary"]["cTau"], gamma_tau=cfg["boundary"]["gammaTau"],
        provenance={"gap": gap_prov})


def contour_radius(cfg: dict, rep: cert.CertificateReport) -> float:
    """contour.radius, else rep's extension radius r*/2, which underflows
    to 0 under flags.rigorousK."""
    radius = cfg["contour"]["radius"] or rep.r_extension.value
    if not radius > 0.0:
        raise ConfigError("flags.rigorousK: the certified extension radius "
                          f"exp({rep.r_extension.log:.6g}) underflows to 0; "
                          "set contour.radius")
    return radius


# ---------------------------------------------------------------------------
# Subcommand handlers. Each returns (exit_code, report_dict).

def cmd_estimate(cfg, args):
    spec = cocycle_from_config(cfg)
    mc = cfg["mc"]
    report = {"mc": mc, "kind": spec.kind}
    if spec.kind == "iid":
        lam, se = estimate_top_exponent(spec, **mc)
        spectrum = estimate_spectrum(spec, **mc)
        gap, gse = gap_from_estimates(spec, (lam, se), spectrum)
        report["topExponent"] = leaf(lam, "qr-cocycle-mean",
                                     {"stderr": se, **mc})
        report["spectrum"] = [
            leaf(float(x), "qr-cocycle-spectrum", {"stderr": float(s)})
            for x, s in zip(spectrum.exponents, spectrum.standard_errors)]
        report["gap"] = leaf(gap, "top-gap-estimate", {"stderr": gse})
    else:
        lam, se = estimate_markov_exponent(spec, **mc)
        report["topExponent"] = leaf(
            lam, "chain-qr-cocycle-mean", {"stderr": se, **mc})
        report["chainGap"] = leaf(spec.chain_gap, "transition-spectral-gap")
    return EXIT_OK, report


def cmd_certify(cfg, args):
    spec = cocycle_from_config(cfg)
    rep = build_certificate(cfg, spec)
    return EXIT_OK, certificate_to_report(rep)


def cmd_extend(cfg, args):
    spec = cocycle_from_config(cfg)
    if spec.kind != "iid":
        raise ConfigError("extend requires iid weights")
    if args.z is None:
        raise ConfigError("extend requires --z as JSON [[re, im], ...]")
    zs = _parse_json(args.z, "--z must be JSON [[re, im], ...]")
    bad = best_violation(Z_SCHEMA, zs)
    if bad is not None:
        raise ConfigError(f"--z must be JSON [[re, im], ...]: {bad.message}")
    z = np.array([complex(r, i) for r, i in zs])
    grid = top.build_grid(cfg["grid"]["m"])
    basis = top.TransferBasis(spec.tuple, grid)
    value = top.analytic_extension_value(basis, z)
    return EXIT_OK, {
        "z": [[float(c.real), float(c.imag)] for c in z],
        "value": leaf(value, "stationary-functional-extension",
                      {"gridM": grid.m}),
        "gridM": grid.m,
    }


def moving_weights_spec(cfg: dict, command: str) -> CocycleSpec:
    """The iid cocycle of a command that moves weight from one matrix to
    the others, so needs at least two matrices."""
    spec = cocycle_from_config(cfg)
    if spec.kind != "iid":
        raise ConfigError(f"{command} requires iid weights")
    if spec.tuple.N < 2:
        raise ConfigError(f"{command} needs at least two matrices")
    return spec


def cmd_taylor(cfg, args):
    spec = moving_weights_spec(cfg, "taylor")
    rep = build_certificate(cfg, spec)
    ct = cfg["contour"]
    direction = ct["direction"]
    if direction is None:  # weight moves from the first matrix to the second
        direction = np.eye(spec.tuple.N)[0] - np.eye(spec.tuple.N)[1]
    radius = contour_radius(cfg, rep)
    basis = top.TransferBasis(spec.tuple, top.build_grid(cfg["grid"]["m"]))
    coeffs = top.taylor_coefficients(basis, spec.weights, direction,
                                     ct["order"], radius, ct["nodes"])
    sharp = (top.estimate_sharp_radius(coeffs) if len(coeffs) >= 8
             else {"radius": None, "indeterminate": True})
    report = {
        "contour": {"radius": radius, "nodes": ct["nodes"],
                    "order": ct["order"],
                    "direction": np.asarray(direction).tolist()},
        "coefficients": [leaf(c, "contour-quadrature-coefficient",
                              {"order": j}) for j, c in enumerate(coeffs)],
        "sharpRadius": leaf(sharp["radius"], "cauchy-hadamard-tail",
                            {"indeterminate": sharp["indeterminate"],
                             "caveat": "finite-order surrogate"}),
        "certificateRadius": leaf(rep.r_star, "kato-polydisc-radius"),
    }
    return EXIT_OK, report


def cmd_scan_boundary(cfg, args):
    spec = moving_weights_spec(cfg, "scan-boundary")
    b = cfg["boundary"]
    if b["index"] >= spec.tuple.N:
        raise ConfigError(f"boundary.index {b['index']} needs an index "
                          f"below the {spec.tuple.N} weights")
    p_index = spec.weights[b["index"]]
    if b["tMax"] is not None and b["tMax"] >= p_index:
        raise ConfigError(f"boundary.tMax {b['tMax']} must lie below "
                          f"p0[{b['index']}] = {p_index}, so that p(t) stays "
                          "inside the open simplex")
    out = ver.boundary_scan(
        spec.tuple, cfg["theta"], cfg["mc"], index=b["index"],
        steps=b["steps"], t_max=b["tMax"], grid_m=min(cfg["grid"]["m"], 600),
        p0=spec.weights, rigorous=cfg["flags"]["rigorousK"])
    if args.csv:
        rows = [("t", "p_min", "gap", "r_star", "lower_bound")]
        for r in out["rows"]:
            log_lb = r.get("log_lower_bound", -math.inf)
            rows.append((r["t"], r["p_min"], r["gap"], r["r_star"],
                         math.exp(log_lb) if log_lb > -700 else 0.0))
        with open(args.csv, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    return EXIT_OK, out


def cmd_chain(cfg, args):
    spec = cocycle_from_config(cfg)
    if spec.kind != "markov":
        raise ConfigError("chain requires a transition matrix in the config")
    rep = build_certificate(cfg, spec)
    report = certificate_to_report(rep)
    lam, se = estimate_markov_exponent(spec, **cfg["mc"])
    report["chainTopExponent"] = leaf(
        lam, "chain-qr-cocycle-mean", {"stderr": se})
    if spec.tuple.d == 2:
        grid = top.build_grid(min(cfg["grid"]["m"], 600))
        val = top.chain_extension_value(spec.transition,
                                        top.TransferBasis(spec.tuple, grid))
        report["chainOperatorValue"] = leaf(val, "chain-stationary-functional",
                                            {"gridM": grid.m})
    return EXIT_OK, report


def cmd_grassmann(cfg, args):
    spec = cocycle_from_config(cfg)
    if spec.kind != "iid":
        raise ConfigError("grassmann requires iid weights")
    levels = set(cfg["grassmann"]["levels"]) or {1}
    top_level, d = max(levels), spec.tuple.d
    if top_level > d - 1:  # the schema keeps every level >= 1
        raise ConfigError(f"grassmann level {top_level} needs "
                          f"1 <= k <= d-1 = {d - 1}")
    gaps = {int(k): float(v) for k, v in cfg["grassmann"]["gaps"].items()}
    if max(gaps, default=1) > d - 1:  # the schema keeps every key >= 1
        raise ConfigError(f"grassmann.gaps key {max(gaps)} needs "
                          f"1 <= k <= d-1 = {d - 1}")
    if cfg["gap"] is not None and 1 not in gaps:  # certify's gap at level 1
        gaps[1] = float(cfg["gap"])
    spectrum = None
    report = {"levels": {}}
    r_prev = None
    # r_individual at level k takes r_H at level k - 1, so every level up to
    # the highest requested one is certified; only requested ones reported.
    for k in range(1, top_level + 1):
        if k not in gaps:
            if spectrum is None:
                spectrum = estimate_spectrum(spec, **cfg["mc"])
            gaps[k] = float(spectrum.exponents[k - 1]
                            - spectrum.exponents[k])
        rec = cert.grassmann_certificate(spec.tuple, cfg["theta"], k,
                                         gaps[k], r_H_previous=r_prev)
        r_prev = rec["r_H"]
        if k in levels:
            report["levels"][str(k)] = {
                kk: leaf(vv, "grassmann-level-k-certificate", {"k": k})
                for kk, vv in rec.items()}
    return EXIT_OK, report


def _run_checks(report: ver.VerificationReport, producer, *args, **kwargs):
    """Add the records of one check producer to report, each stamped with
    the wall time of the producer call."""
    t0 = time.perf_counter()
    made = producer(*args, **kwargs)
    elapsed = time.perf_counter() - t0
    for record in made.checks:
        record.runtime = elapsed
    report.extend(made)


def cmd_example(cfg, args):
    rep = ver.reference_certificate()
    report = ver.VerificationReport()
    _run_checks(report, ver.reproduce_reference_example, rep)
    return (EXIT_OK if report.passed else EXIT_VERIFICATION), {
        "checks": report.to_dict(), "certificate": certificate_to_report(rep)}


def cmd_verify(cfg, args):
    spec = cocycle_from_config(cfg)
    samples = 10_000 if args.fast else 100_000
    grid_m = 200 if args.fast else min(cfg["grid"]["m"], 400)
    seed = cfg["mc"]["seed"]
    # a contour radius that underflows fails before any check runs
    iid_operator = spec.tuple.d == 2 and spec.kind == "iid"
    if iid_operator:
        rep = build_certificate(cfg, spec)
        radius = contour_radius(cfg, rep)
    report = ver.VerificationReport()
    _run_checks(report, ver.reproduce_reference_example,
                ver.reference_certificate())
    _run_checks(report, ver.lemma_sampling_suite, samples=samples, seed=seed)
    _run_checks(report, ver.exterior_norm_identity_check,
                samples=max(samples // 10, 1000), seed=seed + 1)
    _run_checks(report, ver.resolvent_identity_check, seed=seed + 2)
    if spec.tuple.d == 2:
        basis = top.TransferBasis(spec.tuple, top.build_grid(min(grid_m, 200)))
        _run_checks(report, ver.holder_operator_norm_check, basis,
                    cfg["theta"])
    if iid_operator:
        if basis.grid.m != grid_m:
            basis = top.TransferBasis(spec.tuple, top.build_grid(grid_m))
        _run_checks(report, ver.check_cauchy_dominance, basis, spec.weights,
                    rep, radius)
        _run_checks(report, ver.markov_iid_reduction_check, basis,
                    spec.weights, {**cfg["mc"], "seed": seed + 3})
    return (EXIT_OK if report.passed else EXIT_VERIFICATION), report.to_dict()


COMMANDS = {
    "estimate": cmd_estimate,
    "certify": cmd_certify,
    "extend": cmd_extend,
    "taylor": cmd_taylor,
    "scan-boundary": cmd_scan_boundary,
    "chain": cmd_chain,
    "grassmann": cmd_grassmann,
    "verify": cmd_verify,
    "example": cmd_example,
}


# Override flag -> the config keys of the setting it replaces; the value is
# checked against that setting's schema.
OVERRIDES = {"--theta": ("theta",), "--seed": ("mc", "seed"),
             "--grid-m": ("grid", "m")}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The lyocert argument parser, built on the first call and then reused;
    each parse_args call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="lyocert",
        description="Explicit analyticity certificates for Lyapunov "
                    "exponents of random matrix products.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="JSON config path (default: packaged reference "
                            "configuration)")
        p.add_argument("--theta", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--grid-m", type=int, default=None)
        p.add_argument("--out", default=None, help="report path (default "
                                                   "stdout)")
        if name == "scan-boundary":
            p.add_argument("--csv", default=None, help="CSV table path")
        if name == "extend":
            p.add_argument("--z", default=None,
                           help="complex weights as JSON [[re, im], ...]")
        if name == "verify":
            p.add_argument("--fast", action="store_true",
                           help="reduced sample counts")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        for flag, (*blocks, key) in OVERRIDES.items():
            value = getattr(args, flag[2:].replace("-", "_"))
            if value is None:
                continue
            node, schema = cfg, CONFIG_SCHEMA
            for block in blocks:
                node, schema = node[block], schema["properties"][block]
            bad = best_violation(schema["properties"][key], value)
            if bad is not None:
                raise ConfigError(f"{flag} {bad.message}")
            node[key] = value
        code, report = COMMANDS[args.command](cfg, args)
    except (ConfigError, GapNotSimpleError, InvalidMatrixError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (top.EigenvalueCollisionError, top.ContourTooLargeError,
            top.ResolventSolveError, NumericOverflowError,
            IsolatingCircleError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ConstantValidationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    text = serialize_report(report) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
