import copy
import csv
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import lyocert.certificates as cert
import lyocert.cli as cli
import lyocert.geometry as geo
import lyocert.operator as op
import lyocert.oracles as orc

# Source root of the lyocert under test, for fresh interpreters.
SRC = str(Path(cli.__file__).resolve().parents[1])
# Fresh-interpreter lyocert: argv is the source root, then main's argv.
RUN_MAIN = """
import sys
sys.path.insert(0, sys.argv[1])
import lyocert.cli
sys.exit(lyocert.cli.main(sys.argv[2:]))
"""


def run(argv, capsys=None):
    code = cli.main(argv)
    return code


def run_json(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


@pytest.fixture
def reference_cfg():
    return cli.load_config(None)


@pytest.fixture
def cfg_path(tmp_path, reference_cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(reference_cfg))
    return str(path)


@pytest.fixture
def chain_cfg_path(tmp_path, reference_cfg):
    cfg = copy.deepcopy(reference_cfg)
    cfg.pop("weights", None)
    cfg["transition"] = [[0.7, 0.3], [0.4, 0.6]]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def rigorous_cfg_path(tmp_path, reference_cfg):
    cfg = copy.deepcopy(reference_cfg)
    cfg["flags"]["rigorousK"] = True
    path = tmp_path / "rigorous.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _set(path, value):
    """Config edit that sets the entry at path (keys and indices)."""
    def edit(cfg):
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return cfg
    return edit


MALFORMED_CONFIGS = {
    "unknown-key": _set(["surprise"], 1),
    "missing-theta": lambda cfg: {k: v for k, v in cfg.items()
                                  if k != "theta"},
    "weights-and-transition": _set(["transition"], [[0.5, 0.5], [0.5, 0.5]]),
    "theta-zero": _set(["theta"], 0),
    "grid-m-4": _set(["grid", "m"], 4),
    "mc-steps-string": _set(["mc", "steps"], "x"),
    "matrix-entry-string": _set(["matrices", 0, 1, 0], "a"),
    "bad-flag-type": _set(["flags", "rigorousK"], "yes"),
    # switches that had one value in use; a config carrying one is rejected
    **{f"removed-{key}": _set([block, key], value)
       for block, key, value in (("flags", "tau0Variant", "pessimistic"),
                                 ("flags", "radiusConvention", "example"),
                                 ("boundary", "gapProxy", "measured"))},
    "non-object": lambda cfg: [cfg],
}


BOUNDARY_PAIR = ("$.boundary: boundary.cTau and boundary.gammaTau must be "
                 "set together")


# (key,) of each top-level setting with a default, then (block, key) of each
# key inside a block: the keys a config may leave out.
OPTIONAL_KEYS = [
    *((key,) for key, sub in cli.CONFIG_SCHEMA["properties"].items()
      if "default" in sub),
    *((block, key) for block, sub in cli.CONFIG_SCHEMA["properties"].items()
      for key in sub.get("properties", {})),
]


class TestConfigLoading:
    @pytest.mark.parametrize("schema", [cli.CONFIG_SCHEMA, cli.Z_SCHEMA],
                             ids=["config", "z"])
    def test_schema_is_valid_draft_2020_12(self, schema):
        # The validators are built once, so the metaschema check is here.
        jsonschema.Draft202012Validator.check_schema(schema)
        assert (jsonschema.validators.validator_for(schema)
                is jsonschema.Draft202012Validator)

    @pytest.mark.parametrize("edit", MALFORMED_CONFIGS.values(),
                             ids=MALFORMED_CONFIGS.keys())
    def test_malformed_config_reports_jsonschema_error(self, edit, tmp_path,
                                                       reference_cfg):
        raw = edit(copy.deepcopy(reference_cfg))
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(raw, cli.CONFIG_SCHEMA)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(cli.ConfigError) as got:
            cli.load_config(str(path))
        assert str(got.value) == (f"config invalid at {want.value.json_path}"
                                  f": {want.value.message}")

    def test_minimal_config_loads_every_default(self, tmp_path,
                                                reference_cfg):
        required = ("dimension", "matrices", "weights", "theta")
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps({k: reference_cfg[k] for k in required}))
        cfg = cli.load_config(str(path))
        assert {k: v for k, v in cfg.items() if k not in required} == {
            "gap": None,
            "mc": {"steps": 20000, "trials": 12, "seed": 0, "burnin": 1000},
            "grid": {"m": 2000},
            "contour": {"radius": None, "nodes": 32, "order": 6,
                        "direction": None},
            "boundary": {"index": 0, "steps": 6, "tMax": None, "cTau": None,
                         "gammaTau": None},
            "grassmann": {"levels": [], "gaps": {}},
            "flags": {"rigorousK": False, "chainExponent": 1.0, "rhoA": 0.0},
        }
        # each default is a new object: main writes flag values into cfg
        cfg["mc"]["seed"] = 99
        assert cli.load_config(str(path))["mc"]["seed"] == 0

    @pytest.mark.parametrize("block", ["mc", "contour", "boundary", "flags"])
    def test_defaults_cover_the_schema_block(self, block, tmp_path,
                                             reference_cfg):
        # A key with no default would be a setting that a config must give;
        # a block with no default would have to be written out whole.
        sub = cli.CONFIG_SCHEMA["properties"][block]
        assert sub["default"] == {}
        assert all("default" in s for s in sub["properties"].values())
        raw = copy.deepcopy(reference_cfg)
        del raw[block]
        path = tmp_path / "no-block.json"
        path.write_text(json.dumps(raw))
        assert (cli.load_config(str(path))[block]
                == {k: s["default"] for k, s in sub["properties"].items()})

    def test_every_default_is_valid_under_its_own_schema(self):
        def with_default(schema):
            for sub in schema.get("properties", {}).values():
                if "default" in sub:
                    yield sub
                yield from with_default(sub)

        subs = list(with_default(cli.CONFIG_SCHEMA))
        assert len(subs) == len(OPTIONAL_KEYS) == 26
        for sub in subs:
            jsonschema.validate(sub["default"], sub,
                                cls=jsonschema.Draft202012Validator)

    @pytest.mark.parametrize("omit", [()] + OPTIONAL_KEYS,
                             ids=lambda keys: ".".join(keys) or "packaged")
    def test_load_config_is_idempotent(self, omit, tmp_path, reference_cfg):
        # a loaded config, saved, loads as itself
        cfg = copy.deepcopy(reference_cfg)
        if omit:
            node = cfg if len(omit) == 1 else cfg[omit[0]]
            del node[omit[-1]]
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        first.write_text(json.dumps(cfg))
        loaded = cli.load_config(str(first))
        second.write_text(json.dumps(loaded))
        assert cli.load_config(str(second)) == loaded

    def test_default_is_packaged_reference(self, reference_cfg):
        assert reference_cfg["dimension"] == 2
        assert reference_cfg["theta"] == 0.5
        assert len(reference_cfg["matrices"]) == 2
        # the Monte Carlo estimators take cfg["mc"] as keyword arguments
        assert reference_cfg["mc"].keys() == (
            cli.CONFIG_SCHEMA["properties"]["mc"]["properties"].keys())

    def test_missing_file_is_config_error(self):
        with pytest.raises(cli.ConfigError):
            cli.load_config("/nonexistent/config.json")

    def test_schema_violation_reports_json_path(self, tmp_path,
                                                reference_cfg):
        bad = copy.deepcopy(reference_cfg)
        bad["theta"] = "half"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(cli.ConfigError) as exc:
            cli.load_config(str(path))
        assert "theta" in str(exc.value)

    def test_unknown_key_rejected(self, tmp_path, reference_cfg):
        bad = copy.deepcopy(reference_cfg)
        bad["surprise"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(cli.ConfigError):
            cli.load_config(str(path))

    def test_matrix_shape_validated(self, tmp_path, reference_cfg):
        bad = copy.deepcopy(reference_cfg)
        bad["matrices"] = [[[1.0, 0.0]], [[1.0, 0.0]]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(cli.ConfigError):
            cli.load_config(str(path))

    @pytest.mark.parametrize("command,key,rows,where", [
        ("certify", ("matrices", 0), [[2, 0], [0.5]],
         "$.matrices[0]: expected a 2x2 matrix, got rows of lengths [2, 1]"),
        ("chain", ("transition",), [[1.0], [0.5, 0.5]],
         "$.transition: expected a 2x2 matrix, got rows of lengths [1, 2]"),
    ], ids=["matrix", "transition"])
    def test_ragged_matrix_is_config_error(self, command, key, rows, where,
                                           tmp_path, reference_cfg, capsys):
        cfg = copy.deepcopy(reference_cfg)
        if command == "chain":
            del cfg["weights"]
        _set(list(key), rows)(cfg)
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(cfg))
        assert run([command, "--config", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: config invalid at {where}\n"

    @pytest.mark.parametrize("command,key,value,where", [
        ("taylor", ("contour", "direction"), [1.0, -0.5, -0.5],
         "$.contour.direction: expected 2 entries, one per matrix, got 3"),
        ("taylor", ("contour", "radius"), -1e-6,
         "$.contour.radius: -1e-06 is less than or equal to the minimum "
         "of 0"),
        ("certify", ("boundary", "cTau"), 0.5, BOUNDARY_PAIR),
        ("certify", ("boundary", "gammaTau"), 1.0, BOUNDARY_PAIR),
    ], ids=["direction-length", "negative-radius", "cTau-alone",
            "gammaTau-alone"])
    def test_setting_error_names_its_key(self, command, key, value, where,
                                         tmp_path, reference_cfg, capsys):
        # Each got past load_config before: to numpy's broadcast error, to
        # a radius error that named no key, and to a dropped boundary block.
        cfg = copy.deepcopy(reference_cfg)
        _set(list(key), value)(cfg)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert run([command, "--config", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: config invalid at {where}\n"

    @pytest.mark.parametrize("command,path,token", [
        (["certify"], ["weights"], "NaN"),
        (["certify"], ["gap"], "Infinity"),
        (["taylor"], ["contour", "radius"], "NaN"),
        (["certify"], ["theta"], "-Infinity"),
        (["certify"], ["gap"], "1e999"),
    ])
    def test_non_finite_number_is_config_error(self, command, path, token,
                                               tmp_path, reference_cfg,
                                               capsys):
        # JSON has no NaN or infinity, and 1e999 overflows to infinity; the
        # "number" type would admit all of them.
        cfg = copy.deepcopy(reference_cfg)
        value = "@@" if path != ["weights"] else ["@@", 0.5]
        _set(path, value)(cfg)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg).replace('"@@"', token))
        assert run(command + ["--config", str(bad)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: config is not valid JSON: {token} is not a finite "
            "number\n")

    def test_non_finite_z_is_config_error(self, capsys):
        assert run(["extend", "--z", "[[NaN, 0], [0.5, 0]]"]) \
            == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: --z must be JSON [[re, im], ...]: NaN is not a finite "
            "number\n")

    @pytest.mark.parametrize("argv,edits", [
        (["extend", "--z", "[[0.5, 0], [0.5, 0]]"], {("grid", "m"): 60}),
        (["estimate"], {("mc", "steps"): 500, ("mc", "trials"): 4,
                        ("mc", "seed"): 3}),
        (["scan-boundary"], {("boundary", "steps"): 3}),
    ], ids=["extend", "estimate", "scan-boundary"])
    def test_integral_float_in_integer_field_reads_as_int(
            self, argv, edits, tmp_path, reference_cfg):
        # JSON Schema counts 60.0 as an integer; the config loads as 60.
        base = copy.deepcopy(reference_cfg)
        base["mc"].update(steps=300, trials=2)
        base["grid"]["m"] = 100
        reports = []
        for kind in (int, float):
            cfg = copy.deepcopy(base)
            for path, value in edits.items():
                _set(list(path), kind(value))(cfg)
            path = tmp_path / f"{kind.__name__}.json"
            path.write_text(json.dumps(cfg))
            loaded = cli.load_config(str(path))
            assert all(type(loaded[b][k]) is int for b, k in edits)
            out = tmp_path / f"{kind.__name__}-report.json"
            assert run(argv + ["--config", str(path), "--out", str(out)]) \
                == cli.EXIT_OK
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


# Values that break one rule or another of the schemas. No NaN or infinity:
# the JSON parser rejects those before validation.
ODD_VALUES = ["x", "", True, False, None, 0, -1, 1, 2, 7, 60.0, 0.5, 1.5,
              -0.5, 1e6, [], [1.0], [[1, 2]], [0.5, "a"], {}, {"1": 0.5},
              {"a": 1}]
ODD_NUMBERS = [-1, 0, 0.0, 1, 1.0, 1.0000001, 2, 3, 7, 8.0, -2.5, 1e-300]
ODD_KEYS = ["surprise", "0", "1", "12", "01", "a b", "it's", "x\\y", "k9_"]


def _nodes(x, path=()):
    """(path, value) of x and of every value inside it."""
    yield path, x
    items = (x.items() if isinstance(x, dict)
             else enumerate(x) if isinstance(x, list) else ())
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _schema_paths(schema, path=()):
    """Paths of the properties that schema names, present or not."""
    for key, sub in schema.get("properties", {}).items():
        yield path + (key,)
        yield from _schema_paths(sub, path + (key,))


def _mutate(rng, x, schema):
    """x with one random edit: a new value, a number moved, a key deleted
    or added, or a list grown or shrunk."""
    nodes = list(_nodes(x))
    op = rng.randrange(5)
    if op == 0:  # any value, at any path the instance or schema has
        paths = [p for p, _ in nodes if p] + list(_schema_paths(schema))
        path = rng.choice(paths) if paths else ()
        value = copy.deepcopy(rng.choice(ODD_VALUES))
    elif op == 1:  # a number somewhere else on the line
        paths = [p for p, v in nodes if isinstance(v, (int, float))]
        path = rng.choice(paths) if paths else ()
        value = rng.choice(ODD_NUMBERS)
    else:
        kind = dict if op < 4 else list
        parents = [p for p, v in nodes if isinstance(v, kind)]
        if not parents:
            return copy.deepcopy(rng.choice(ODD_VALUES))
        parent = dict(nodes)[rng.choice(parents)]
        if op == 2:  # delete a key
            if parent:
                del parent[rng.choice(list(parent))]
        elif op == 3:  # add an unknown key
            parent[rng.choice(ODD_KEYS)] = copy.deepcopy(
                rng.choice(ODD_VALUES))
        elif parent and rng.random() < 0.5:  # shrink a list
            parent.pop()
        else:  # grow a list
            parent.append(copy.deepcopy(rng.choice(ODD_VALUES + parent)))
        return x
    if not path:
        return value
    parent = x
    for key in path[:-1]:
        try:
            parent = parent[key]
        except (KeyError, IndexError, TypeError):
            return x  # the path was cut by an earlier edit
    if isinstance(parent, dict) or (isinstance(parent, list)
                                    and isinstance(path[-1], int)
                                    and path[-1] < len(parent)):
        parent[path[-1]] = value
    return x


def _mutated_corpus(seed, bases, schema, count):
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        x = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            x = _mutate(rng, x, schema)
        corpus.append(x)
    return corpus


class TestSchemaParity:
    """The validator against jsonschema, the reference implementation."""

    @staticmethod
    def verdicts(schema, corpus):
        reference = jsonschema.Draft202012Validator(schema)
        for x in corpus:
            want = jsonschema.exceptions.best_match(reference.iter_errors(x))
            got = cli.best_violation(schema, x)
            yield x, (None if want is None
                      else (want.json_path, want.message, want.validator)), (
                None if got is None
                else (cli.json_path(got.path), got.message, got.keyword))

    def test_mutated_configs_match_jsonschema(self, reference_cfg):
        chain = copy.deepcopy(reference_cfg)
        del chain["weights"]
        chain["transition"] = [[0.7, 0.3], [0.4, 0.6]]
        chain["grassmann"]["gaps"] = {"1": 0.3}
        single = copy.deepcopy(reference_cfg)
        single["matrices"], single["weights"] = single["matrices"][:1], [1.0]
        corpus = _mutated_corpus(7, [reference_cfg, chain, single],
                                 cli.CONFIG_SCHEMA, 300)
        results = list(self.verdicts(cli.CONFIG_SCHEMA, corpus))
        assert [(x, want) for x, want, got in results if want != got] == []
        keywords = {want[2] for _, want, _ in results if want}
        assert keywords == {"type", "additionalProperties", "required",
                            "oneOf", "minimum", "maximum",
                            "exclusiveMinimum", "minItems", "pattern"}
        assert sum(want is None for _, want, _ in results) >= 10

    def test_mutated_z_match_jsonschema(self):
        corpus = _mutated_corpus(8, [[[0.5, 0.0], [0.5, 0.0]],
                                     [[0.5001, 1e-5], [0.4999, -1e-5]]],
                                 cli.Z_SCHEMA, 100)
        results = list(self.verdicts(cli.Z_SCHEMA, corpus))
        assert [(x, want) for x, want, got in results if want != got] == []
        assert {want[2] for _, want, _ in results if want} == {
            "type", "minItems", "maxItems"}

    def test_validator_implements_every_schema_keyword(self):
        def subschemas(schema):
            yield schema
            for key, arg in schema.items():
                subs = (arg.values() if key == "properties"
                        else arg if key == "oneOf"
                        else [arg] if isinstance(arg, dict) else [])
                for sub in subs:
                    yield from subschemas(sub)

        for schema in (cli.CONFIG_SCHEMA, cli.Z_SCHEMA):
            for sub in subschemas(schema):
                list(cli.schema_violations(sub, None))  # raises if unknown
        with pytest.raises(NotImplementedError, match="'const'"):
            list(cli.schema_violations({"const": 1}, 1))


class TestExitCodes:
    def test_example_ok(self, tmp_path):
        code, report = run_json(["example"], tmp_path)
        assert code == cli.EXIT_OK
        assert report is not None

    def test_missing_config_exits_1(self, capsys):
        assert run(["certify", "--config", "/no/such.json"]) == cli.EXIT_CONFIG

    def test_bad_theta_override_exits_1(self, cfg_path, capsys):
        assert run(["certify", "--config", cfg_path,
                    "--theta", "1.5"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: --theta 1.5 is greater than the maximum of 1\n")

    def test_bad_seed_override_exits_1(self, cfg_path, capsys):
        assert run(["estimate", "--config", cfg_path,
                    "--seed", "-1"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: --seed -1 is less than the minimum of 0\n")

    def test_bad_grid_override_exits_1(self, cfg_path, capsys):
        assert run(["extend", "--config", cfg_path,
                    "--grid-m", "4"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: --grid-m 4 is less than the minimum of 8\n")


def test_parser_is_built_once_and_namespaces_stay_apart(monkeypatch,
                                                        capsys):
    seen = []

    def record(cfg, args):
        seen.append(args)
        return cli.EXIT_OK, {}

    monkeypatch.setitem(cli.COMMANDS, "verify", record)
    monkeypatch.setitem(cli.COMMANDS, "certify", record)
    cli.build_parser.cache_clear()
    assert cli.main(["verify", "--fast"]) == cli.EXIT_OK
    assert cli.main(["certify", "--theta", "0.4"]) == cli.EXIT_OK
    assert cli.main(["verify"]) == cli.EXIT_OK
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert seen[0].fast
    assert not hasattr(seen[1], "fast") and seen[1].theta == 0.4
    assert not seen[2].fast and seen[2].theta is None


def test_csv_belongs_to_scan_boundary_only(capsys):
    # scan-boundary is the one command that writes a table
    with pytest.raises(SystemExit) as exc:
        cli.main(["certify", "--csv", "x"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --csv x" in capsys.readouterr().err


def assert_leaves_have_formula_ids(report):
    def is_leaf(node):
        # extend's report keeps its leaf under a "value" key
        return "value" in node and not (isinstance(node["value"], dict)
                                        and "value" in node["value"])

    def walk(node, path=""):
        if isinstance(node, dict):
            if is_leaf(node):
                assert "formulaId" in node, f"leaf without formulaId: {path}"
                if (isinstance(node["value"], float)
                        and node["value"] > 0.0
                        and math.isfinite(node["value"])):
                    assert "logValue" in node, f"no logValue at {path}"
            else:
                for k, v in node.items():
                    walk(v, f"{path}.{k}")
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, f"{path}[{i}]")

    walk(report)


class TestCertifyCommand:
    def test_reference_values(self, tmp_path):
        code, report = run_json(["certify"], tmp_path)
        assert code == cli.EXIT_OK
        ladder = report["ladder"]
        assert ladder["n0"]["value"] == 11
        assert ladder["NTheta"]["value"] == 1056
        r_star = report["rStar"]["value"]
        assert r_star == pytest.approx(1.6458e-5, rel=1e-3)

    def test_every_numeric_leaf_has_formula_id(self, tmp_path):
        code, report = run_json(["certify"], tmp_path)
        assert code == cli.EXIT_OK
        assert_leaves_have_formula_ids(report)

    @pytest.mark.parametrize("argv", [
        ["extend", "--z", "[[0.5, 0.001], [0.5, -0.001]]"],
        ["taylor", "--grid-m", "100"], ["estimate"], ["chain"],
        ["grassmann"]], ids=lambda argv: argv[0])
    def test_other_command_leaves_have_formula_id(self, argv, tmp_path,
                                                  chain_cfg_path):
        if argv == ["chain"]:
            argv = argv + ["--config", chain_cfg_path]
        code, report = run_json(argv, tmp_path)
        assert code == cli.EXIT_OK
        assert_leaves_have_formula_ids(report)

    def test_rigorous_radii_report_their_logs(self, tmp_path,
                                             rigorous_cfg_path):
        # The explicit K* has logValue 1898.9, so r* underflows to 0, and so
        # do the joint radii, which take the same K*.
        code, report = run_json(["certify", "--config", rigorous_cfg_path],
                                tmp_path)
        assert code == cli.EXIT_OK
        assert report["rigorous"] is True
        assert report["rStar"]["value"] == 0
        assert report["rStar"]["logValue"] == pytest.approx(-1902.634,
                                                            abs=1e-3)
        assert (report["rStar"]["logValue"] - report["rExtension"]["logValue"]
                == pytest.approx(math.log(2.0), abs=1e-12))
        for key, log_value in (("r_star_A", -1904.713),
                               ("r_star_p", -1903.327)):
            assert report["joint"][key]["value"] == 0
            assert report["joint"][key]["logValue"] == pytest.approx(
                log_value, abs=1e-3)
        for key in ("MStar", "cauchyFirst", "cauchySecond"):
            assert report[key]["value"] == "inf"
            assert math.isfinite(report[key]["logValue"])

    def test_reports_byte_identical(self, tmp_path):
        _, a = run_json(["certify", "--seed", "7"], tmp_path, "a.json")
        _, b = run_json(["certify", "--seed", "7"], tmp_path, "b.json")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_round_trip_serialization(self, tmp_path):
        _, report = run_json(["certify"], tmp_path)
        again = json.loads(json.dumps(report, sort_keys=True))
        assert again == report


class TestOtherCommands:
    def test_estimate(self, tmp_path):
        code, report = run_json(["estimate"], tmp_path)
        assert code == cli.EXIT_OK
        assert "spectrum" in report and "topExponent" in report

    @pytest.mark.parametrize("d", [2, 3])
    def test_estimate_runs_each_monte_carlo_estimate_once(
            self, d, tmp_path, reference_cfg, monkeypatch):
        cfg = copy.deepcopy(reference_cfg)
        cfg["mc"] = {"steps": 400, "trials": 4, "seed": 3, "burnin": 100}
        if d == 3:
            rng = np.random.default_rng(2)
            cfg["dimension"] = 3
            cfg["matrices"] = [geo.sample_matrix(rng, 3).tolist()
                               for _ in range(2)]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        calls = []
        run_trials = orc._run_trials
        monkeypatch.setattr(orc, "_run_trials",
                            lambda *args: calls.append(args)
                            or run_trials(*args))
        code, report = run_json(["estimate", "--config", str(path)],
                                tmp_path)
        assert code == cli.EXIT_OK
        assert len(calls) == 2
        spec = cli.cocycle_from_config(cli.load_config(str(path)))
        gap, se = orc.lyapunov_gap(spec, **cfg["mc"])
        assert report["gap"]["value"] == gap
        assert report["gap"]["inputs"]["stderr"] == se

    def test_taylor_names_the_flag_when_the_radius_underflows(
            self, tmp_path, rigorous_cfg_path, capsys):
        code = run(["taylor", "--config", rigorous_cfg_path])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "flags.rigorousK" in err and "contour.radius" in err

    def test_verify_names_the_flag_when_the_radius_underflows(
            self, rigorous_cfg_path, capsys):
        # verify's Cauchy check takes its contour radius as taylor does
        code = run(["verify", "--fast", "--config", rigorous_cfg_path])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "flags.rigorousK" in err and "contour.radius" in err

    def test_verify_checks_the_rigorous_cauchy_bounds(self, tmp_path,
                                                      reference_cfg):
        cfg = copy.deepcopy(reference_cfg)
        cfg["flags"]["rigorousK"] = True
        cfg["contour"]["radius"] = 8e-6
        path = tmp_path / "rigorous.json"
        path.write_text(json.dumps(cfg))
        code, report = run_json(["verify", "--fast", "--config", str(path)],
                                tmp_path)
        assert code == cli.EXIT_OK
        spec = cli.cocycle_from_config(cfg)
        rep = cert.certify(spec.tuple, spec.weights, cfg["theta"],
                           cfg["gap"], rigorous=True)
        targets = {c["name"]: c["target"] for c in report["checks"]
                   if c["name"].startswith("cauchy_dominance.")}
        assert sorted(targets) == [f"cauchy_dominance.dir0.order{j}"
                                   for j in range(5)]
        for j in range(5):
            bound = cert.cauchy_bound(rep.M_star, rep.r_star, (j, 0),
                                      "example").value
            assert targets[f"cauchy_dominance.dir0.order{j}"] == json.loads(
                cli.serialize_report(bound))

    def test_scan_boundary_rows_take_the_rigorous_radius(
            self, tmp_path, reference_cfg):
        cfg = copy.deepcopy(reference_cfg)
        cfg["flags"]["rigorousK"] = True
        cfg["mc"] = {"steps": 2000, "trials": 4, "seed": 0, "burnin": 500}
        cfg["boundary"]["steps"] = 3
        path = tmp_path / "rigorous.json"
        path.write_text(json.dumps(cfg))
        code, report = run_json(["scan-boundary", "--config", str(path)],
                                tmp_path)
        assert code == cli.EXIT_OK
        spec = cli.cocycle_from_config(cfg)
        for row in report["rows"]:
            # row t moves weight from the first matrix to the second
            p = spec.weights - row["t"] * np.array([1.0, -1.0])
            want = cert.certify(spec.tuple, p, cfg["theta"], row["gap"],
                                rigorous=True).r_star.value
            assert row["r_star"] == want
            assert want < cert.certify(spec.tuple, p, cfg["theta"],
                                       row["gap"]).r_star.value

    def test_extend_at_complex_weights(self, tmp_path):
        z = json.dumps([[0.5001, 1e-5], [0.4999, -1e-5]])
        code, report = run_json(["extend", "--z", z], tmp_path)
        assert code == cli.EXIT_OK

    def test_extend_rejects_non_summing_z(self, tmp_path):
        z = json.dumps([[0.7, 0.0], [0.5, 0.0]])
        code, _ = run_json(["extend", "--z", z], tmp_path)
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("z", ["[1, 2]", '[["a", 0], [0.5, 0]]',
                                   "[[0.5, null], [0.5, 0]]",
                                   "[[0.5, 0, 0], [0.5, 0]]", "[]", "[1,"])
    def test_extend_rejects_malformed_z(self, z, capsys):
        assert run(["extend", "--z", z]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: --z must be")

    def test_scan_boundary_rejects_t_max_past_the_scanned_weight(
            self, tmp_path, reference_cfg, capsys):
        cfg = copy.deepcopy(reference_cfg)
        cfg["boundary"]["tMax"] = 0.6
        path = tmp_path / "boundary.json"
        path.write_text(json.dumps(cfg))
        assert run(["scan-boundary", "--config", str(path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "boundary.tMax 0.6" in err and "p0[0] = 0.5" in err

    def test_scan_boundary_on_d3_has_no_fit(self, tmp_path, reference_cfg):
        # The measured spectral-gap proxy needs the d = 2 operator.
        cfg = copy.deepcopy(reference_cfg)
        rng = np.random.default_rng(2)
        cfg["dimension"] = 3
        cfg["matrices"] = [geo.sample_matrix(rng, 3).tolist()
                           for _ in range(2)]
        cfg["mc"] = {"steps": 2000, "trials": 4, "seed": 0, "burnin": 1000}
        cfg["boundary"]["steps"] = 3
        path = tmp_path / "d3.json"
        path.write_text(json.dumps(cfg))
        code, report = run_json(["scan-boundary", "--config", str(path)],
                                tmp_path)
        assert code == cli.EXIT_OK
        assert report["indeterminate"] is True
        assert report["fit"] is None
        assert "lower_bound_holds_everywhere" not in report
        assert len(report["rows"]) == 3

    def test_scan_boundary_rejects_index_past_last_weight(
            self, tmp_path, reference_cfg, capsys):
        for b in ({"index": 2}, {"index": 2, "tMax": 0.1}):
            cfg = copy.deepcopy(reference_cfg)
            cfg["boundary"] = b
            path = tmp_path / "boundary.json"
            path.write_text(json.dumps(cfg))
            assert run(["scan-boundary", "--config",
                        str(path)]) == cli.EXIT_CONFIG
            assert "boundary.index 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["taylor", "scan-boundary"])
    def test_one_matrix_tuple_is_config_error(self, command, tmp_path,
                                              reference_cfg, capsys):
        cfg = copy.deepcopy(reference_cfg)
        cfg["matrices"] = cfg["matrices"][:1]
        cfg["weights"] = [1.0]
        cfg["contour"]["direction"] = None
        path = tmp_path / "one.json"
        path.write_text(json.dumps(cfg))
        assert run([command, "--config", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {command} needs at least two matrices\n")

    def test_taylor(self, tmp_path):
        code, report = run_json(["taylor", "--grid-m", "100"], tmp_path)
        assert code == cli.EXIT_OK

    def test_chain(self, tmp_path, chain_cfg_path):
        code, report = run_json(["chain", "--config", chain_cfg_path],
                                tmp_path)
        assert code == cli.EXIT_OK

    def test_grassmann(self, tmp_path):
        code, report = run_json(["grassmann"], tmp_path)
        assert code == cli.EXIT_OK

    @staticmethod
    def _grassmann_levels(tmp_path, cfg, levels):
        """r_individual per reported level of `grassmann` on cfg."""
        cfg = copy.deepcopy(cfg)
        cfg["grassmann"]["levels"] = levels
        path = tmp_path / "grassmann.json"
        path.write_text(json.dumps(cfg))
        code, report = run_json(["grassmann", "--config", str(path)],
                                tmp_path)
        assert code == cli.EXIT_OK
        return {k: v["r_individual"]["value"]
                for k, v in report["levels"].items()}

    def test_grassmann_chains_every_level_below_the_requested(
            self, tmp_path, reference_cfg):
        # r_individual^(k) = min(r_H^(k), r_H^(k-1)): a level-2 gap 1000
        # times smaller than its neighbours' makes r_H^(2) the smallest, so
        # level 3 must read it whether or not level 2 is reported.
        rng = np.random.default_rng(4)
        cfg = copy.deepcopy(reference_cfg)
        cfg["dimension"] = 4
        cfg["matrices"] = [geo.sample_matrix(rng, 4).tolist()
                           for _ in range(2)]
        cfg["grassmann"]["gaps"] = {"1": 2.0, "2": 0.002, "3": 2.0}
        every = self._grassmann_levels(tmp_path, cfg, [1, 2, 3])
        assert every["3"] == every["2"] < every["1"]
        assert self._grassmann_levels(tmp_path, cfg, [1, 3]) == {
            "1": every["1"], "3": every["3"]}
        assert self._grassmann_levels(tmp_path, cfg, [3]) == {
            "3": every["3"]}

    @pytest.mark.parametrize("gaps", [{}, {"1": 0.3, "2": 0.3}],
                             ids=["estimated-gap", "config-gap"])
    def test_grassmann_level_past_d_minus_1_is_config_error(
            self, gaps, tmp_path, reference_cfg, capsys, monkeypatch):
        cfg = copy.deepcopy(reference_cfg)
        cfg["grassmann"] = {"levels": [1, 2], "gaps": gaps}
        path = tmp_path / "grassmann.json"
        path.write_text(json.dumps(cfg))
        monkeypatch.setattr(cli, "estimate_spectrum", lambda *a, **k:
                            pytest.fail("Monte Carlo ran before the check"))
        assert run(["grassmann", "--config", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: grassmann level 2 needs 1 <= k <= d-1 = 1\n")

    @pytest.mark.parametrize("gap, gaps, want", [
        (0.26, {}, 0.26), (0.26, {"1": 0.5}, 0.5), (None, {}, 0.7)],
        ids=["config-gap", "gaps-entry-first", "spectrum-last"])
    def test_grassmann_level_1_gap_precedence(
            self, gap, gaps, want, tmp_path, reference_cfg, monkeypatch):
        # level 1 reads grassmann.gaps["1"], then the config's gap (the one
        # certify uses), and only then a Monte Carlo spectrum
        cfg = copy.deepcopy(reference_cfg)
        cfg["gap"] = gap
        cfg["grassmann"] = {"levels": [1], "gaps": gaps}
        path = tmp_path / "grassmann.json"
        path.write_text(json.dumps(cfg))
        spectra = []
        monkeypatch.setattr(cli, "estimate_spectrum", lambda *a, **k:
                            spectra.append(k) or orc.SpectrumEstimate(
                                np.array([1.0, 0.3]), np.zeros(2),
                                k["steps"], k["trials"], k["seed"]))
        code, report = run_json(["grassmann", "--config", str(path)],
                                tmp_path)
        assert code == cli.EXIT_OK
        assert report["levels"]["1"]["gap_k"]["value"] == pytest.approx(
            want, abs=1e-15)
        assert spectra == ([cfg["mc"]] if want == 0.7 else [])

    @pytest.mark.parametrize("key", ["one", "0", "01", "-1"])
    def test_grassmann_gaps_key_not_a_level_number(
            self, key, tmp_path, reference_cfg, capsys):
        cfg = copy.deepcopy(reference_cfg)
        cfg["grassmann"]["gaps"] = {key: 0.5}
        path = tmp_path / "grassmann.json"
        path.write_text(json.dumps(cfg))
        assert run(["grassmann", "--config", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "error: config invalid at $.grassmann.gaps: ")

    def test_grassmann_gaps_key_past_d_minus_1_is_config_error(
            self, tmp_path, reference_cfg, capsys, monkeypatch):
        cfg = copy.deepcopy(reference_cfg)
        cfg["gap"] = None
        cfg["grassmann"] = {"levels": [1], "gaps": {"5": 0.5}}
        path = tmp_path / "grassmann.json"
        path.write_text(json.dumps(cfg))
        monkeypatch.setattr(cli, "estimate_spectrum", lambda *a, **k:
                            pytest.fail("Monte Carlo ran before the check"))
        assert run(["grassmann", "--config", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: grassmann.gaps key 5 needs 1 <= k <= d-1 = 1\n")

    def test_every_monte_carlo_run_takes_the_config_settings(
            self, tmp_path, reference_cfg, monkeypatch):
        # scan row k runs at seed + k; verify's Markov-to-iid reduction
        # runs its iid and chain estimates at seed + 3 and seed + 4
        cfg = copy.deepcopy(reference_cfg)
        cfg["mc"] = {"steps": 300, "trials": 2, "seed": 11, "burnin": 7}
        cfg["grid"] = {"m": 200}
        cfg["boundary"]["steps"] = 2
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(cfg))
        calls = []
        run_trials = orc._run_trials

        def recording(spec, steps, trials, seed, burnin, *rest):
            calls.append((steps, trials, seed, burnin))
            return run_trials(spec, steps, trials, seed, burnin, *rest)

        monkeypatch.setattr(orc, "_run_trials", recording)
        for argv, seeds in ((["scan-boundary"], [11, 12]),
                            (["verify", "--fast"], [14, 15])):
            calls.clear()
            run_json(argv + ["--config", str(path)], tmp_path)
            assert calls == [(300, 2, s, 7) for s in seeds]

    def test_estimate_overflow_is_one_numeric_error_line(
            self, tmp_path, reference_cfg):
        # In a fresh interpreter, where NumPy's warnings reach stderr (under
        # pytest they would be recorded instead).
        cfg = copy.deepcopy(reference_cfg)
        cfg["matrices"] = [[[1e150, 0.0], [0.0, 1e-150]]]
        cfg["weights"] = [1.0]
        cfg["contour"]["direction"] = None  # one entry per matrix
        cfg["mc"] = {"steps": 200, "trials": 2}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(cfg))
        done = subprocess.run(
            [sys.executable, "-c", RUN_MAIN, SRC, "estimate", "--config",
             str(path)], capture_output=True, text=True, timeout=300)
        assert done.returncode == cli.EXIT_NUMERIC
        assert done.stderr == (
            "numeric error: frame degenerated during accumulation\n")

    def test_scan_boundary_csv(self, tmp_path):
        out_csv = tmp_path / "scan.csv"
        code = cli.main(["scan-boundary", "--grid-m", "150",
                         "--out", str(tmp_path / "scan.json"),
                         "--csv", str(out_csv)])
        assert code == cli.EXIT_OK
        rows = list(csv.reader(out_csv.read_text().splitlines()))
        assert rows[0] == ["t", "p_min", "gap", "r_star", "lower_bound"]
        assert len(rows) > 1

    def test_verify_fast(self, tmp_path):
        code, report = run_json(["verify", "--fast"], tmp_path)
        assert code == cli.EXIT_OK
        assert report["passed"] is True

    @pytest.mark.parametrize("argv, solves", [
        # cauchy_dominance solves 9 of its 16 contour nodes, the iid/chain
        # reduction 2: 11 in all, 18 when every node was solved
        (["verify", "--fast"], 11),
        (["scan-boundary"], 6),
    ], ids=["verify-fast", "scan-boundary"])
    def test_packaged_solve_budget(self, argv, solves, tmp_path, monkeypatch):
        calls = []
        top = op._top_eigenvalues
        monkeypatch.setattr(op, "_top_eigenvalues",
                            lambda M: calls.append(1) or top(M))
        code, _ = run_json(argv, tmp_path)
        assert code == cli.EXIT_OK
        assert len(calls) == solves

    def test_verify_fails_a_monte_carlo_check_without_a_stderr(
            self, tmp_path, reference_cfg):
        # one trial has no spread: a tolerance of 3 stderr = inf would pass
        # any difference
        cfg = copy.deepcopy(reference_cfg)
        cfg["mc"] = {"steps": 300, "trials": 1, "seed": 5, "burnin": 100}
        path = tmp_path / "one_trial.json"
        path.write_text(json.dumps(cfg))
        code, report = run_json(["verify", "--fast", "--config", str(path)],
                                tmp_path)
        assert code == cli.EXIT_VERIFICATION
        record, = [c for c in report["checks"]
                   if c["name"] == "markov_iid.monte_carlo"]
        assert record["status"] == "fail"
        assert record["tolerance"] == "3 combined stderr = inf"
        assert record["detail"].startswith("standard error not finite")
        assert [c["name"] for c in report["checks"]
                if c["status"] == "fail"] == ["markov_iid.monte_carlo"]

    def test_verify_fast_on_d3_skips_the_operator_checks(
            self, tmp_path, reference_cfg):
        cfg = copy.deepcopy(reference_cfg)
        rng = np.random.default_rng(2)
        cfg["dimension"] = 3
        cfg["matrices"] = [geo.sample_matrix(rng, 3).tolist()
                           for _ in range(2)]
        path = tmp_path / "d3.json"
        path.write_text(json.dumps(cfg))
        code, report = run_json(["verify", "--fast", "--config", str(path)],
                                tmp_path)
        assert code == cli.EXIT_OK
        names = {c["name"] for c in report["checks"]}
        assert {n.split(".")[0] for n in names} == {
            "lemma", "appendix", "reference"}
        assert "lemma.transfer_norm_bound" not in names

    def test_verify_runtime_is_the_producer_call_time(self, tmp_path):
        _, report = run_json(["verify", "--fast"], tmp_path)
        own_producer = ("lemma.exterior_norm_identity",
                        "lemma.transfer_norm_bound")
        runtimes = {}
        for c in report["checks"]:
            assert c["runtime"] > 0.0, c["name"]
            producer = (c["name"] if c["name"] in own_producer
                        else c["name"].split(".")[0])
            runtimes.setdefault(producer, set()).add(c["runtime"])
        assert sorted(runtimes) == [
            "appendix", "cauchy_dominance", "lemma",
            "lemma.exterior_norm_identity", "lemma.transfer_norm_bound",
            "markov_iid", "reference"]
        assert all(len(v) == 1 for v in runtimes.values()), runtimes


# Runs in a fresh interpreter: argv is the source root, a config with a
# small Monte Carlo budget, the extend --z argument and a report path.
# Prints, after the import and after each command, whether SciPy and
# whether jsonschema have been imported.
FRESH_START = """
import json, sys
sys.path.insert(0, sys.argv[1])
import lyocert.cli as cli
small_mc, z, out = sys.argv[2:]
cli.load_config(None)
loaded = {"scipy": {}, "jsonschema": {}}
def record(stage):
    for name in loaded:
        loaded[name][stage] = name in sys.modules
record("import")
for argv in (["certify"], ["example"], ["grassmann"],
             ["estimate", "--config", small_mc],
             ["extend", "--grid-m", "60", "--z", z]):
    assert cli.main(argv + ["--out", out]) == cli.EXIT_OK, argv
    record(argv[0])
print(json.dumps(loaded))
"""


def test_scipy_loads_only_when_an_operator_is_built(tmp_path,
                                                     reference_cfg):
    # The closed-form commands never import SciPy, which would cost them
    # about half of their start-up; extend then loads it on first use and
    # reports what an interpreter that imported SciPy first reports. No
    # command imports jsonschema: configs are validated without it.
    cfg = copy.deepcopy(reference_cfg)
    cfg["mc"] = {"steps": 300, "trials": 2}
    small_mc = tmp_path / "small_mc.json"
    small_mc.write_text(json.dumps(cfg))
    z = json.dumps([[0.5001, 1e-5], [0.4999, -1e-5]])
    fresh = tmp_path / "fresh.json"
    done = subprocess.run(
        [sys.executable, "-c", FRESH_START, SRC, str(small_mc), z,
         str(fresh)], capture_output=True, text=True, check=True, timeout=300)
    loaded = json.loads(done.stdout)
    assert loaded["scipy"] == {
        "import": False, "certify": False, "example": False,
        "grassmann": False, "estimate": False, "extend": True}
    assert loaded["jsonschema"] == dict.fromkeys(loaded["scipy"], False)
    here = tmp_path / "here.json"
    assert cli.main(["extend", "--grid-m", "60", "--z", z,
                     "--out", str(here)]) == cli.EXIT_OK
    assert fresh.read_bytes() == here.read_bytes()


class TestSerialization:
    def test_inf_rendered_as_string(self):
        text = cli.serialize_report({"x": math.inf})
        parsed = json.loads(text)
        assert parsed["x"] == "inf"

    def test_numpy_scalars_handled(self):
        text = cli.serialize_report({"a": np.float64(1.5),
                                     "b": np.int64(3),
                                     "c": np.array([1.0, 2.0])})
        parsed = json.loads(text)
        assert parsed["a"] == 1.5 and parsed["b"] == 3
        assert parsed["c"] == [1.0, 2.0]

    def test_complex_rendered_as_re_im(self):
        parsed = json.loads(cli.serialize_report({"z": 1.0 + 2.0j}))
        assert parsed["z"] == {"re": 1.0, "im": 2.0}

    def test_keys_sorted(self):
        text = cli.serialize_report({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
