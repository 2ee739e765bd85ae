"""The names the benchmark's traced run wraps in lyocert still carry the work.

perfbench/layers.py patches lyocert's public functions and SciPy's solver
entry points by name. A refactor that renames one of them, or calls a solver
the tracer does not see, would leave the per-layer metrics silently empty.
"""

from pathlib import Path

import lyocert.operator as op
import lyocert.verification as ver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_extension_value_makes_one_solve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing

    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        op.analytic_extension_value(ver.reference_tuple(), [0.5, 0.5],
                                    op.build_grid(60))
    finally:
        tracer.uninstall()
    solves = [s for s in tracer.spans if s.name in ("scipy.eig", "scipy.eigs")]
    pairs = [s for s in tracer.spans if s.name == "operator.leading_eigenpair"]
    assert [s.name for s in solves] == ["scipy.eigs"]
    assert len(pairs) == 1
    assert solves[0].parent == pairs[0].ident
    # uninstall() put the unwrapped functions back for the other tests.
    assert not hasattr(op.leading_eigenpair, "__wrapped__")
