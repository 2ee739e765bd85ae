"""Quick self-test of the benchmark's own helpers (a few seconds, no lyocert).

    python3 perfbench/selftest.py

Covers the order statistics, the span self-time arithmetic and the tracer's
wrapping, the per-layer aggregation, and the closed-form reference values.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import types
import unittest
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import reference as ref  # noqa: E402
import stats  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class StatsTest(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, med, q3 = stats.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(stats.median(values), 3.75)
        self.assertAlmostEqual(stats.relative_spread(values),
                               (q3 - q1) / med)

    def test_small_samples(self):
        self.assertEqual(stats.quartiles([2.0]), (2.0, 2.0, 2.0))
        self.assertEqual(stats.median([1.0, 3.0]), 2.0)
        self.assertEqual(stats.relative_spread([4.0, 4.0, 4.0]), 0.0)
        with self.assertRaises(ValueError):
            stats.median([])


class SpanArithmeticTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        spans = [Span(0, "root", None, 0, 0.0, 10.0),
                 Span(1, "a", 0, 0, 1.0, 4.0),
                 Span(2, "b", 0, 0, 4.5, 6.0),
                 Span(3, "c", 1, 0, 1.5, 2.0)]   # grandchild of root
        selfs = self_times(spans)
        self.assertAlmostEqual(selfs[0], 10.0 - 3.0 - 1.5)
        self.assertAlmostEqual(selfs[1], 3.0 - 0.5)
        self.assertAlmostEqual(selfs[2], 1.5)
        self.assertAlmostEqual(selfs[3], 0.5)


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.now = [0.0]
        self.tracer = Tracer(clock=lambda: self.now[0],
                             cpu_clock=lambda: self.now[0])

    def tick(self, dt):
        self.now[0] += dt

    def test_nesting_parents_and_self_time(self):
        mod = types.SimpleNamespace()

        def inner():
            self.tick(2.0)

        def outer():
            self.tick(1.0)
            mod.inner()
            self.tick(3.0)

        mod.inner, mod.outer = inner, outer
        self.tracer.patch("m.inner", mod, "inner")
        self.tracer.patch("m.outer", mod, "outer")
        mod.outer()
        by_name = {s.name: s for s in self.tracer.spans}
        self.assertEqual(by_name["m.inner"].parent, by_name["m.outer"].ident)
        self.assertEqual(by_name["m.outer"].duration, 6.0)
        self.assertEqual(self_times(self.tracer.spans)[
            by_name["m.outer"].ident], 4.0)

    def test_recursion_gives_one_span_and_uninstall_restores(self):
        mod = types.SimpleNamespace()
        other = types.SimpleNamespace()

        def fact(n):
            self.tick(1.0)
            return 1 if n <= 1 else n * mod.fact(n - 1)

        mod.fact = other.fact = fact
        self.tracer.patch("m.fact", mod, "fact", namespaces=(other,))
        self.assertIsNot(other.fact, fact)
        self.assertEqual(mod.fact(4), 24)
        self.assertEqual(len(self.tracer.spans), 1)
        self.assertEqual(self.tracer.spans[0].duration, 4.0)
        self.tracer.uninstall()
        self.assertIs(mod.fact, fact)
        self.assertIs(other.fact, fact)

    def test_patch_item(self):
        table = {"cmd": lambda: 7}
        original = table["cmd"]
        self.tracer.patch_item("cli.cmd", table, "cmd")
        self.assertEqual(table["cmd"](), 7)
        self.tracer.uninstall()
        self.assertIs(table["cmd"], original)


class LayerMetricsTest(unittest.TestCase):
    def test_outermost_estimators_and_frame_steps(self):
        frame = {"steps": 100, "trials": 4, "burnin": 10}
        spans = [
            Span(0, "cli.verify", None, 0, 0.0, 5.0),
            Span(1, "oracles.lyapunov_gap", 0, 0, 1.0, 2.0),
            Span(2, "oracles.estimate_top_exponent", 1, 0, 1.1, 1.9,
                 attrs=frame),
            Span(3, "oracles.estimate_spectrum", 0, 0, 2.0, 4.0,
                 attrs=frame),
            Span(4, "scipy.eigs", None, 0, 6.0, 6.5, 0.0, 1.0),
            Span(5, "certificates.certify", None, 0, 7.0, 8.0),
            Span(6, "certificates.build_ladder", 5, 0, 7.0, 7.5),
        ]
        m = layers.round_metrics(spans, checks=3)
        self.assertEqual(m["oracles.mc_runs"], 2)
        self.assertAlmostEqual(m["oracles.mc_s"], 3.0)
        self.assertEqual(m["oracles.frame_steps"], 2 * 4 * 110)
        self.assertAlmostEqual(m["oracles.frame_steps_per_s"], 880 / 3.0)
        self.assertEqual(m["operator.solver_calls"], 1)
        self.assertAlmostEqual(m["operator.eigensolve_cpu_s"], 1.0)
        self.assertAlmostEqual(m["certificates.certify_s"], 1.0)
        self.assertAlmostEqual(m["cli.verify_s"], 5.0)
        self.assertEqual(m["verification.checks"], 3)
        per_layer = json.loads(BENCHMARK.read_text())["per_layer"]
        self.assertEqual(set(m) | {"trace.overhead_s"},
                         {metric["name"] for metric in per_layer})


class ReferenceTest(unittest.TestCase):
    def test_diagonal_extension(self):
        z = np.array([0.5 + 0.1j, 0.5 - 0.1j])
        self.assertAlmostEqual(ref.diagonal_extension(z, [4.0, 2.0]),
                               z[0] * math.log(4) + z[1] * math.log(2))

    def test_benettin_matches_diagonal_closed_form(self):
        mats = [np.diag([2.0, 0.5]), np.diag([0.8, 1.25])]
        p = [0.7, 0.3]
        exact = 0.7 * math.log(2.0) + 0.3 * math.log(0.8)
        mean, se = ref.benettin_top(mats, p, steps=2000, trials=16, seed=3)
        self.assertLess(abs(mean - exact), 6 * se)


if __name__ == "__main__":
    unittest.main()
