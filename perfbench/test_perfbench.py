"""Tests of the benchmark itself.

Run from the root of the repository:

    python3 -m unittest discover -s perfbench -t .
"""

import json
import random
import unittest
from pathlib import Path

from perfbench import checks, host, inputs, run, trace
from perfbench import exact as X

ROOT = Path(__file__).resolve().parent.parent


def _ops(name, seed, count):
    stream = getattr(inputs, name.replace("-", "_"))(random.Random(seed))
    return [(op.kind, op.argv, op.stdin) for op in inputs.take(stream, count)]


class SeedTest(unittest.TestCase):
    def test_seed_reproduces_inputs(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(_ops(name, 7, 30), _ops(name, 7, 30))
                self.assertNotEqual(_ops(name, 7, 30), _ops(name, 8, 30))

    def test_report_parameters_are_distinct_with_stated_shares(self):
        ops = inputs.take(inputs.report_sweep(random.Random(3)), 400)
        self.assertEqual(len({op.argv for op in ops}), 400)
        m = inputs.mix(ops)["property"]
        self.assertEqual(m["integer"]["count"], 100)
        self.assertEqual(m["rational"]["count"], 100)
        self.assertEqual(m["irrational"]["count"], 200)
        self.assertGreater(m["convergent"]["count"], 0)
        self.assertTrue(all(not op.argv[-1].startswith("-") for op in ops))

    def test_polygon_round_mix(self):
        w = run.WORKLOADS["polygon-scale"]
        stream = inputs.polygon_scale(random.Random(3))
        rounds = [inputs.mix(inputs.take(stream, w.round_size)) for _ in range(6)]
        self.assertTrue(all(m == rounds[0] for m in rounds), "every round has the same mix")
        m = {k: v["count"] for k, v in rounds[0]["property"].items()}
        self.assertEqual((m["field=Q(sqrt(d))"], m["redundant"]), (12, 12))
        self.assertEqual((m["shape=cup"], m["shape=wedge"]), (4, 3))
        self.assertEqual(max(int(t[2:]) for t in m if t.startswith("n=")), 12)


class CheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli = run.import_package()

    def _run(self, op):
        r = run.run_in_process(self.cli, op)
        self.assertEqual(r.rc, 0, r.error)
        return json.loads(r.out)

    def test_report_check_catches_wrong_output(self):
        a = X.num(3, 1, 2)  # 3 + sqrt(2)
        op = inputs.Op("report", ("report", "3+sqrt(2)"), expect={"a": a})
        doc = self._run(op)
        self.assertIsNone(checks.check(op, 0, json.dumps(doc).encode()))
        wrong = [
            ("gamma", {"kind": "finite_cyclic", "order": 2, "rotation_coefficient": None}),
            ("polytopal", False),
        ]
        for key, value in wrong:
            bad = dict(doc, **{key: value})
            self.assertIsNotNone(checks.check(op, 0, json.dumps(bad).encode()), key)
        bad = json.loads(json.dumps(doc))
        bad["polytope"]["vertices"][2][0] = X.to_json(X.num(4))
        self.assertIsNotNone(checks.check(op, 0, json.dumps(bad).encode()))
        self.assertIsNotNone(checks.check(op, 3, json.dumps(doc).encode()))
        self.assertIsNotNone(checks.check(op, 0, b"not json"))

    def test_polygon_checks_catch_wrong_output(self):
        rng = random.Random(5)
        for cmd in ("normal-fan", "cut", "blowup"):
            for shape in (("bounded",) if cmd == "cut" else inputs.SHAPES):
                op = inputs.polygon_op(rng, cmd, 6, shape, 5, 1)
                doc = self._run(op)
                with self.subTest(cmd=cmd, shape=shape):
                    self.assertIsNone(checks.check(op, 0, json.dumps(doc).encode()))
                    bad = json.loads(json.dumps(doc))
                    if cmd == "normal-fan":
                        bad["maximal_cones"].pop()
                    elif cmd == "cut":
                        bad["kept_piece"]["vertices"][0][0] = X.to_json(X.num(10**6))
                    else:
                        bad["vertices"].append(bad["vertices"][0])
                    self.assertIsNotNone(checks.check(op, 0, json.dumps(bad).encode()))

    def test_failures_count_and_do_not_abort(self):
        op = inputs.Op("report", ("report", "2"), expect={"a": X.num(2)})
        good = run.run_in_process(self.cli, op)
        records = [
            (op, good),
            (op, run.Result(0, good.out.replace(b'"polytopal":true', b'"polytopal":false'), None, 0.1)),
            (op, run.Result(None, b"", "RuntimeError: boom", 0.1)),
        ]
        verdict = run.verdicts(records, lambda o: good, recheck=1)
        self.assertIsNone(verdict[0])
        self.assertIsNotNone(verdict[1])
        self.assertEqual(verdict[2], "RuntimeError: boom")

    def test_nondeterministic_output_fails(self):
        op = inputs.Op("report", ("report", "2"), expect={"a": X.num(2)})
        good = run.run_in_process(self.cli, op)
        other = run.Result(0, good.out + b" ", None, 0.1)
        self.assertIsNotNone(run.verdicts([(op, good)], lambda o: other, recheck=1)[0])


class TraceTest(unittest.TestCase):
    def test_self_time_on_synthetic_tree(self):
        # 0: [0, 100]            root
        # 1:   [10, 40]          child of 0, with child 2 at [20, 30]
        # 3:   [35, 60]          child of 0, overlaps 1 on [35, 40]
        # 4:   [90, 120]         child of 0, runs past the root's end
        # 5: [200, 210]          a second root
        starts = [0, 10, 20, 35, 90, 200]
        ends = [100, 40, 30, 60, 120, 210]
        parents = [-1, 0, 1, 0, 0, -1]
        self.assertEqual(trace.self_times(starts, ends, parents), [40, 20, 10, 25, 30, 10])

    def test_summary_accounts_for_op_time(self):
        state = {
            "names": ["bench.op", "cli.main", "polyhedron.vrep_from_hrep"],
            "layer_of": ["bench", "cli", "polyhedron"],
            "calls": [2, 2, 5],
            "extra": {"polyhedron.halfplanes_in": 20, "polyhedron.facets_out": 15},
            "spans": [[0, 0, 0, 1, 1], [-1, 0, 1, -1, 3], [0, 1, 2, 0, 1],
                      [0, 1_000_000, 2_000_000, 10_000_000, 10_500_000],
                      [8_000_000, 7_000_000, 5_000_000, 14_000_000, 13_500_000]],
        }
        s = trace.summarize(state, 2)
        self.assertEqual(s["trace.op_ms"], 6.0)
        self.assertEqual(s["polyhedron.self_ms"], 1.5)
        self.assertEqual(s["cli.self_ms"], 3.0)
        self.assertEqual(s["bench.self_ms"], 1.5)
        self.assertEqual(s["polyhedron.vrep_calls"], 2.5)
        self.assertEqual(s["polyhedron.facets_kept_ratio"], 0.75)
        layers = sum(v for k, v in s.items() if k.endswith(".self_ms"))
        self.assertEqual(layers, s["trace.op_ms"])

    def test_install_rebinds_aliases_and_uninstall_restores(self):
        run.import_package()
        from quasitoric import pipeline, scalar

        original_add = scalar.QuadScalar.__add__
        original_vrep = pipeline.vrep_from_hrep
        tracer = trace.Tracer()
        tracer.install()
        try:
            self.assertIs(scalar.QuadScalar.__radd__, scalar.QuadScalar.__add__)
            self.assertIsNot(pipeline.vrep_from_hrep, original_vrep)
            x = scalar.Q(1)
            tracer.run_op(0, lambda: (x + 2, 2 + x))
        finally:
            tracer.uninstall()
        calls = dict(zip(tracer.names, tracer.calls))
        self.assertEqual(calls["scalar.add_calls"], 2)
        self.assertIs(scalar.QuadScalar.__add__, original_add)
        self.assertIs(pipeline.vrep_from_hrep, original_vrep)


class HostTest(unittest.TestCase):
    def test_scaling_cancels_a_host_slowdown(self):
        nominal = host.NOMINAL_MS * 1e-3
        self.assertAlmostEqual(host.scale(0.2, nominal), 0.2)
        # the host runs at half speed around op 1: its wall time and the
        # kernel times on both sides of it double
        refs = [nominal, 2 * nominal, 2 * nominal, nominal]
        walls = [0.2, 0.4, 0.2]
        scaled = [host.scale(w, host.local(refs, i)) for i, w in enumerate(walls)]
        self.assertAlmostEqual(scaled[1], 0.2)
        self.assertAlmostEqual(scaled[0], scaled[2])


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_the_metrics_run_emits(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
