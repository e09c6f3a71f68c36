"""Tests of the benchmark harness itself.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile(values, 100), 100)
        self.assertEqual(run.percentile([7], 90), 7)
        self.assertEqual(run.percentile([3, 1, 2, 4], 50), 2)

    def test_p90_needs_a_hundred_samples_for_ten_beyond(self):
        self.assertEqual(run.beyond(list(range(100)), 90), 10)
        self.assertEqual(run.beyond(list(range(99)), 90), 9)

    def test_ties_do_not_count_as_beyond(self):
        self.assertEqual(run.beyond([1] * 50 + [2] * 50, 90), 0)


class ReferenceSpeed(unittest.TestCase):
    def test_scales_by_the_local_median_calibration(self):
        ref_ns = worker.CAL_REF_NS
        wall = [100] * 8
        cal = [ref_ns] * 3 + [2 * ref_ns, ref_ns] + [2 * ref_ns] * 3
        self.assertEqual(worker.at_reference_speed(wall, cal, ref_ns), [100] * 4 + [50] * 4)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ["a", 0, 100, -1, 0],
            ["b", 10, 40, 0, 0],
            ["c", 50, 70, 0, 0],
            ["d", 15, 25, 1, 0],
        ]
        self.assertEqual(tracing.self_times(spans), [50, 20, 20, 10])

    def test_overlapping_children_are_covered_once(self):
        spans = [["a", 0, 100, -1, 0], ["b", 10, 60, 0, 0], ["c", 40, 80, 0, 0]]
        self.assertEqual(tracing.self_times(spans)[0], 30)

    def test_tracer_folds_ops(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("m.inner", lambda x: x + 1)
        outer = tracer.wrap("m.outer", lambda x: inner(x) * inner(x))
        tracer.begin_op(0)
        self.assertEqual(outer(2), 9)
        self.assertEqual([s[3] for s in tracer.op_spans], [-1, 0, 0])
        tracer.end_op()
        totals = tracer.totals()
        self.assertEqual(totals["ops"], 1)
        self.assertEqual(totals["calls"], {"m.outer": 1, "m.inner": 2})
        self.assertTrue(all(ns >= 0 for ns in totals["self_ns"].values()))


class Installation(unittest.TestCase):
    def test_wraps_every_binding_and_restores_them(self):
        from cyclokit import kronecker, polyring, semigroup

        original = polyring.poly_div_exact
        tracer = tracing.install()
        try:
            for module in (polyring, kronecker, semigroup):
                self.assertIs(module.poly_div_exact.__wrapped__, original)
            tracer.begin_op(0)
            kronecker.certify(polyring.IntPoly((1, 1, 1)))
            names = [s[0] for s in tracer.op_spans]
            tracer.end_op()
        finally:
            tracing.uninstall(tracer)
        self.assertIs(semigroup.poly_div_exact, original)
        self.assertEqual(names[0], "kronecker.certify")
        self.assertIn("kronecker.factor_kronecker", names)
        self.assertEqual(tracer.counts["decided_by.kronecker"], 1)
        self.assertGreater(tracer.counts["divisions_in_factor_kronecker"], 0)

    def test_benchmark_json_names_every_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual(spec["per_layer"], tracing.per_layer_specs())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], [name for name, _ in run.END_TO_END])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for wl in WORKLOADS.values():
            with self.subTest(workload=wl.name):
                first = wl.pool(7)
                self.assertEqual(worker.digest(first), worker.digest(wl.pool(7)))
                self.assertNotEqual(worker.digest(first), worker.digest(wl.pool(8)))
                keys = {json.dumps(s, sort_keys=True) for s in first}
                self.assertFalse(any(json.dumps(s, sort_keys=True) in keys for s in wl.warmup(7)))

    def test_reference_agrees_with_library(self):
        from cyclokit import polyring, semigroup

        for n in range(1, 120):
            self.assertEqual(ref.cyclotomic(n), list(polyring.cyclotomic(n).coeffs))
        for gens in ([5, 6, 7, 8], [6, 10, 15], [12, 17, 19, 22]):
            S = semigroup.from_generators(gens)
            self.assertEqual(ref.semigroup_gaps(gens), list(S.gaps))
            self.assertEqual(ref.minimal_generators(gens), list(S.minimal_generators))


class Checkers(unittest.TestCase):
    def test_checker_rejects_a_corrupted_copy(self):
        ctx = worker.make_context()
        for wl in WORKLOADS.values():
            with self.subTest(workload=wl.name):
                spec = wl.pool(3)[0]
                wl.prepare(ctx, [spec])
                out = wl.run(ctx, spec)
                self.assertTrue(wl.check(spec, out))
                self.assertFalse(wl.check(spec, wl.corrupt(out)))


if __name__ == "__main__":
    unittest.main()
