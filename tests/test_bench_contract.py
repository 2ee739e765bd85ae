"""The names the benchmark's traced run wraps in lyocert still carry the work.

perfbench/layers.py patches lyocert's public functions and SciPy's solver
entry points by name. A refactor that renames one of them, or calls a solver
the tracer does not see, would leave the per-layer metrics silently empty.
"""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import lyocert.operator as op
import lyocert.oracles as orc
import lyocert.verification as ver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Runs in a fresh interpreter: argv is the source root, the perfbench
# directory, the extend --z argument and a report path. lyocert is imported
# before SciPy, as in a benchmark run; prints the spans of one traced extend.
TRACED_EXTEND = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import lyocert.cli as cli
import layers, tracing
tracer = tracing.Tracer()
layers.install(tracer)
z, out = sys.argv[3:]
assert cli.main(["extend", "--grid-m", "60", "--z", z, "--out", out]) == 0
tracer.uninstall()
print(json.dumps([[s.ident, s.name, s.parent] for s in tracer.spans]))
"""


def test_traced_extension_value_makes_one_solve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing

    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        op.analytic_extension_value(
            op.TransferBasis(ver.reference_tuple(), op.build_grid(60)),
            [0.5, 0.5])
    finally:
        tracer.uninstall()
    solves = [s for s in tracer.spans if s.name in ("scipy.eig", "scipy.eigs")]
    pairs = [s for s in tracer.spans if s.name == "operator.leading_eigenpair"]
    assert [s.name for s in solves] == ["scipy.eigs"]
    assert len(pairs) == 1
    assert solves[0].parent == pairs[0].ident
    # uninstall() put the unwrapped functions back for the other tests.
    assert not hasattr(op.leading_eigenpair, "__wrapped__")


def test_tracer_sees_the_solver_when_lyocert_loads_scipy_late(tmp_path):
    # lyocert.operator imports SciPy on first use; the solver it calls
    # then must still be the attribute the tracer wrapped. In this process
    # SciPy is already loaded (tests/test_operator.py imports it), hence
    # the fresh interpreter.
    src = Path(op.__file__).resolve().parents[1]
    z = json.dumps([[0.5001, 1e-5], [0.4999, -1e-5]])
    done = subprocess.run(
        [sys.executable, "-c", TRACED_EXTEND, str(src), str(PERFBENCH), z,
         str(tmp_path / "extend.json")],
        capture_output=True, text=True, check=True, timeout=300)
    spans = json.loads(done.stdout)
    solves = [s for s in spans if s[1] in ("scipy.eig", "scipy.eigs")]
    pairs = [s for s in spans if s[1] == "operator.leading_eigenpair"]
    assert [s[1] for s in solves] == ["scipy.eigs"]
    assert len(pairs) == 1
    assert solves[0][2] == pairs[0][0]


def test_traced_taylor_call_builds_the_log_stretch_table_once(monkeypatch):
    # operator.assemble_s sums the assemble_operator spans, one per solved
    # contour node (8 // 2 + 1 of 8: the others are conjugates); the
    # (tuple, grid) work is done once, when the basis is built.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing

    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        basis = op.TransferBasis(ver.reference_tuple(), op.build_grid(200))
        op.taylor_coefficients(basis, [0.5, 0.5], [1.0, -1.0], order=2,
                               contour_radius=1e-4, nodes=8)
    finally:
        tracer.uninstall()
    counts = Counter(s.name for s in tracer.spans)
    assert counts["operator.log_stretch_table"] == 1
    assert counts["operator.assemble_operator"] == 5
    assert counts["operator.leading_eigenpair"] == 5
    assert counts["scipy.eigs"] == 5


def test_traced_estimators_record_their_sample_counts(monkeypatch):
    # layers reads samples, steps, trials and burnin from these spans for
    # verification.lemma_samples_per_s and oracles.frame_steps_per_s.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing

    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        ver.lemma_sampling_suite(samples=1500)
        orc.estimate_top_exponent(
            orc.CocycleSpec.iid(ver.reference_tuple(), (0.5, 0.5)),
            steps=400, trials=3, seed=0)
    finally:
        tracer.uninstall()
    attrs = {s.name: s.attrs for s in tracer.spans}
    assert attrs["verification.lemma_sampling_suite"] == {"samples": 1500}
    assert attrs["oracles.estimate_top_exponent"] == {
        "steps": 400, "trials": 3, "burnin": orc.DEFAULT_BURNIN}
    metrics = layers.round_metrics(tracer.spans, checks=0)
    assert metrics["verification.lemma_samples_per_s"] > 0
    assert metrics["oracles.frame_steps"] == 3 * (400 + orc.DEFAULT_BURNIN)
    assert metrics["oracles.frame_steps_per_s"] > 0
