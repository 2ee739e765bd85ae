"""The names the benchmark's traced run wraps in lyocert still carry the work.

perfbench/layers.py patches lyocert's public functions and SciPy's solver
entry points by name. A refactor that renames one of them, or calls a solver
the tracer does not see, would leave the per-layer metrics silently empty.
"""

from collections import Counter
from pathlib import Path

import lyocert.operator as op
import lyocert.oracles as orc
import lyocert.verification as ver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def test_traced_taylor_call_builds_the_log_stretch_table_once(monkeypatch):
    # operator.assemble_s sums the assemble_operator spans, one per contour
    # node; the (tuple, grid) work is done once, when the basis is built.
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
    assert counts["operator.assemble_operator"] == 8
    assert counts["operator.leading_eigenpair"] == 8
    assert counts["scipy.eigs"] == 8


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
