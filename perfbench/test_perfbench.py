"""Tests of the benchmark's own machinery.

    python3 -m unittest discover -s perfbench -t perfbench
"""

import contextlib
import io
import json
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hermitian_mds import code as cc  # noqa: E402
from hermitian_mds import decoder as dec  # noqa: E402
from hermitian_mds import geometry  # noqa: E402
from spans import Hooks, Recorder, count_wrapper, percentile, self_times, span_wrapper, totals  # noqa: E402


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # a [0, 10] holds b [1, 5], which holds c [2, 3]; then d [6, 9]
        rec = Recorder(clock=fake_clock(0, 1, 2, 3, 5, 6, 9, 10))
        a = rec.open(rec.intern("a"))
        b = rec.open(rec.intern("b"))
        c = rec.open(rec.intern("c"))
        rec.close(c)
        rec.close(b)
        d = rec.open(rec.intern("d"))
        rec.close(d)
        rec.close(a)
        dur, own = self_times(rec)
        self.assertEqual(dur, [10, 4, 1, 3])
        self.assertEqual(own, [3, 3, 1, 3])
        self.assertEqual(list(rec.parent), [-1, a, b, a])

    def test_totals_per_operation_kind_and_under_a_name(self):
        rec = Recorder(clock=fake_clock(*range(100)))
        for kind in ("setup", "decode", "decode"):
            with rec.operation(kind):
                outer = rec.open(rec.intern("outer"))
                rec.close(rec.open(rec.intern("leaf")))
                rec.close(outer)
                rec.close(rec.open(rec.intern("leaf")))
        table, n = totals(rec, {"decode"})
        self.assertEqual(n, 2)
        self.assertEqual(table["leaf"][0], 4)
        self.assertEqual(table["outer"], [2, 6.0, 4.0])
        inside, _ = totals(rec, {"decode"}, under="outer")
        self.assertEqual(set(inside), {"leaf"})
        self.assertEqual(inside["leaf"][0], 2)


class PercentileTest(unittest.TestCase):
    def test_p90_needs_ten_samples_above(self):
        with self.assertRaises(ValueError):
            percentile(list(range(99)), 90)
        self.assertEqual(percentile(list(range(100, 0, -1)), 90), 90)
        self.assertEqual(percentile(list(range(1, 201)), 90), 180)

    def test_median_rank(self):
        self.assertEqual(percentile(list(range(1, 21)), 50), 10)
        with self.assertRaises(ValueError):
            percentile(list(range(1, 20)), 50)


class HooksTest(unittest.TestCase):
    def test_replaces_every_alias_and_restores(self):
        original = geometry.points_on_line
        self.assertIs(dec.points_on_line, original)
        rec = Recorder()
        with Hooks(layers.PACKAGE, ["geometry.points_on_line", "linalg.MatrixFq.kernel_basis"],
                   lambda t, fn: span_wrapper(rec, t, fn)) as hooks:
            self.assertIsNot(geometry.points_on_line, original)
            self.assertIs(dec.points_on_line, geometry.points_on_line)
            spec = cc.reference_instance()
            with rec.operation("decode"):
                res = dec.geometric_decode(spec, cc.encode(spec, (3, 2)))
        self.assertEqual(hooks.status, {"geometry.points_on_line": "hooked",
                                        "linalg.MatrixFq.kernel_basis": "hooked"})
        self.assertIsNotNone(res)
        self.assertIs(geometry.points_on_line, original)
        self.assertIs(dec.points_on_line, original)
        names = {rec.names[i] for i in rec.name}
        self.assertLessEqual({"geometry.points_on_line", "linalg.MatrixFq.kernel_basis"}, names)

    def test_missing_names_are_absent_not_errors(self):
        counts = {}
        targets = ["decoder.no_such_function", "linalg.NoSuchClass.rank", "no_such_module.f"]
        with Hooks(layers.PACKAGE, targets, lambda t, fn: count_wrapper(counts, t, fn)) as hooks:
            pass
        self.assertEqual(hooks.absent(), sorted(targets))

    def test_removed_decoder_stages_report_absent(self):
        # the center search may be deleted from the library; its metrics
        # must then read "absent" instead of failing the run
        removed = {}
        for mod, name in ((dec, "find_external_line"), (geometry, "lines_of_plane")):
            removed[(mod, name)] = getattr(mod, name)
            delattr(mod, name)
        try:
            rec = Recorder()
            with Hooks(layers.PACKAGE, layers.SPAN_TARGETS,
                       lambda t, fn: span_wrapper(rec, t, fn)) as hooks:
                pass
        finally:
            for (mod, name), fn in removed.items():
                setattr(mod, name, fn)
        absent = hooks.absent()
        self.assertEqual(absent, ["decoder.find_external_line", "geometry.lines_of_plane"])
        metrics = layers.per_layer(
            timed={}, n_ops=1, setup={}, n_setups=1, arc_in_build_s=0.0, counts={}, n_counted=1,
            absent=absent, code_length=14, decodes_returned=0, decodes_failed=0,
            traced_s=1.0, untraced_s=1.0)
        self.assertEqual(metrics["decoder.centers_ms"], (0, "absent"))
        self.assertEqual(metrics["geometry.lines_of_plane_calls"], (0, "absent"))
        self.assertNotEqual(metrics["decoder.filter_ms"][1], "absent")
        self.assertEqual(set(metrics), set(layers.metric_units()))


class OracleTest(unittest.TestCase):
    def test_literal_form_matches_encode(self):
        spec = cc.reference_instance()
        for m in cc.iter_messages(spec):
            self.assertEqual(workloads.literal_encode(spec.tower, spec.lam, m), cc.encode(spec, m))

    def test_bounded_oracle(self):
        spec = cc.construct_code(7)  # N=8, t=2
        st = workloads.DecodeState(spec, None, bounded_oracle=True)
        m = (10, spec.s[3])
        c = cc.encode(spec, m)
        r = list(c)
        r[1] = (r[1] + 1) % 7
        r[6] = (r[6] + 3) % 7
        case = workloads.DecodeCase(m, c, (1, 6), tuple(r))
        self.assertEqual(st.expected(case), (c, m, (1, 6)))
        rng = random.Random(0)
        outcomes = set()
        for i in range(40):
            if i % 2:
                r = tuple(rng.randrange(7) for _ in range(spec.N))
            else:  # a codeword with at most t errors
                r = list(cc.encode(spec, (rng.randrange(49), spec.s[rng.randrange(7)])))
                for p in rng.sample(range(spec.N), rng.randint(0, 2)):
                    r[p] = (r[p] + rng.randrange(1, 7)) % 7
                r = tuple(r)
            nearest, _ = dec.ml_decode(spec, r)
            within = sum(a != b for a, b in zip(nearest, r)) <= 2
            got = st.expected(workloads.DecodeCase(m, c, (), r))
            self.assertEqual(got and got[0], nearest if within else None)
            outcomes.add(within)
        self.assertEqual(outcomes, {True, False})


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_match_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.workloads()))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, layers.metric_units())

    def test_result_line(self):
        out = io.StringIO()
        argv = ["--workload", "decode-within", "--seed", "3", "--seconds", "0.1", "--trace", "0"]
        with contextlib.redirect_stdout(out):
            rc = run.main(argv)
        self.assertEqual(rc, 0)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 100)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, run.END_TO_END)
        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_traced_result_line_has_every_per_layer_metric(self):
        out = io.StringIO()
        argv = ["--workload", "decode-within", "--seed", "3", "--seconds", "0.1", "--trace", "1"]
        with contextlib.redirect_stdout(out):
            rc = run.main(argv)
        self.assertEqual(rc, 0)
        lines = out.getvalue().splitlines()
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, layers.metric_units())
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(metrics["geometry.lines_of_plane_calls"], 1)
        self.assertGreater(metrics["decoder.centers_ms"], metrics["decoder.curve_fit_ms"])
        self.assertGreater(metrics["fields.q_mul_calls"], 0)
        self.assertFalse(any("absent" in line for line in lines))

    def test_inputs_depend_only_on_the_seed(self):
        w = workloads.workloads()["decode-within"]
        spec = cc.construct_code(13)
        tmp = ROOT / ".perfbench"
        tmp.mkdir(exist_ok=True)
        a = w.prepare(spec, tmp, random.Random("decode-within:5")).cases
        b = w.prepare(spec, tmp, random.Random("decode-within:5")).cases
        c = w.prepare(spec, tmp, random.Random("decode-within:6")).cases
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)


if __name__ == "__main__":
    unittest.main()
