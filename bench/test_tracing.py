"""Self-test of the benchmark's span arithmetic.  Run: python3 bench/test_tracing.py"""

import types
import unittest

import tracing


def _span(name, start, end, parent, counts=None):
    return [name, start, end, parent, counts]


class SelfTimeTest(unittest.TestCase):

    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            _span("theorems.thm24", 0.0, 10.0, -1),
            _span("norms.lipschitz", 1.0, 4.0, 0),
            _span("extension.values", 2.0, 3.0, 1),
            _span("norms.bloch", 5.0, 9.0, 0),
        ]
        self.assertEqual(tracing.self_times(spans), [3.0, 2.0, 1.0, 4.0])
        # self times partition the root span
        self.assertEqual(sum(tracing.self_times(spans)), 10.0)

    def test_same_layer_nesting_counts_once(self):
        spans = [
            _span("theorems.lemma33", 0.0, 6.0, -1),
            _span("extension.values_se", 1.0, 3.0, 0),                   # value_error
            _span("extension.values_se", 1.5, 2.5, 1, {"points": 1, "kevals": 100}),
            _span("extension.values_se", 4.0, 5.0, 0, {"points": 2, "kevals": 200}),
        ]
        self.assertEqual(tracing.outermost(spans, tracing._layer), [0, 1, 3])
        out = tracing.layer_metrics(spans, pass_s=6.5, errors=0)
        self.assertEqual(out["extension.values_se.calls"], 2)
        self.assertEqual(out["extension.values_se.points"], 3)
        self.assertEqual(out["extension.values_se.s"], 3.0)
        self.assertAlmostEqual(out["extension.values_se.meval_per_s"], 300 / 3.0 / 1e6)
        self.assertEqual(out["theorems.lemma33.s"], 6.0)
        self.assertEqual(out["theorems.self_s"], 3.0)
        self.assertEqual(out["trace.untraced_s"], 0.5)


class WrapperTest(unittest.TestCase):

    def test_nested_wrapped_calls_record_parents_and_partition_time(self):
        tracer = tracing.Tracer()
        inner = tracer.span("inner", lambda x: sum(range(x)))
        outer = tracer.span("outer", lambda: [inner(20000) for _ in range(3)])
        outer()
        names = [s[0] for s in tracer.spans]
        parents = [s[3] for s in tracer.spans]
        self.assertEqual(names, ["outer", "inner", "inner", "inner"])
        self.assertEqual(parents, [-1, 0, 0, 0])
        own = tracing.self_times(tracer.spans)
        self.assertTrue(all(t >= 0.0 for t in own))
        root = tracer.spans[0][2] - tracer.spans[0][1]
        self.assertAlmostEqual(sum(own), root, places=12)

    def test_error_counted_once_across_wrappers(self):
        tracer = tracing.Tracer(error_types=(ArithmeticError,))
        inner = tracer.span("inner", lambda: 1 / 0)
        outer = tracer.span("outer", inner)
        with self.assertRaises(ZeroDivisionError):
            outer()
        self.assertEqual(tracer.errors, 1)
        self.assertEqual(tracer._stack, [])
        self.assertTrue(all(s[2] >= s[1] > 0.0 for s in tracer.spans))

    def test_unpatch_restores_module_class_and_dict(self):
        module = types.SimpleNamespace(f=lambda: "f")
        table = {"g": lambda: "g"}

        class Box:
            def __call__(self):
                return "box"

        originals = module.f, table["g"], Box.__dict__["__call__"]
        tracer = tracing.Tracer()
        tracer.patch(module, "f", "layer.f")
        tracer.patch(table, "g", "layer.g")
        tracer.patch(Box, "__call__", "layer.box")
        self.assertEqual((module.f(), table["g"](), Box()()), ("f", "g", "box"))
        self.assertEqual([s[0] for s in tracer.spans], ["layer.f", "layer.g", "layer.box"])
        tracer.unpatch()
        self.assertEqual((module.f, table["g"], Box.__dict__["__call__"]), originals)


if __name__ == "__main__":
    unittest.main()
