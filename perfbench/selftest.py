"""Self-tests of the benchmark's own code, at tiny sizes.

    python3 perfbench/selftest.py

Nothing here runs a workload; the few tests that build program
configurations import ``repro`` from ``src``.
"""

from __future__ import annotations

import asyncio
import json
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import common
import measure
import tracing
from common import ROOT, SRC, per_layer_names

sys.path.insert(0, str(SRC))


class PercentileRule(unittest.TestCase):
    def test_tail_has_ten_samples_beyond(self):
        for count in (10, 30, 49, 99, 100, 101, 999, 1000, 5000, 20000):
            tail = measure.tail_percentile(count)
            if tail is None:
                self.assertTrue(
                    all(measure.samples_beyond(p, count) < 10 for p in measure.TAIL_PERCENTILES)
                )
                continue
            samples = [float(i) for i in range(count)]
            value = measure.percentile(samples, tail)
            self.assertGreaterEqual(sum(s > value for s in samples), 10)
            # ... and it is the highest candidate that has them.
            higher = [p for p in measure.TAIL_PERCENTILES if p > tail]
            self.assertTrue(all(measure.samples_beyond(p, count) < 10 for p in higher))

    def test_known_cut_points(self):
        self.assertEqual(measure.tail_percentile(1000), 99.0)
        self.assertEqual(measure.tail_percentile(999), 95.0)
        self.assertEqual(measure.tail_percentile(100), 90.0)
        self.assertEqual(measure.tail_percentile(10_000), 99.9)
        self.assertIsNone(measure.tail_percentile(30))

    def test_latency_summary_reports_what_it_supports(self):
        summary = measure.latency_summary([i / 1000 for i in range(1, 1001)])
        self.assertEqual(summary["tail_pct"], 99.0)
        self.assertEqual(summary["tail_beyond"], 10)
        self.assertAlmostEqual(summary["p50_ms"], 500.5)
        self.assertNotIn("tail_ms", measure.latency_summary([0.1] * 20))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


class SelfTime(unittest.TestCase):
    def test_sync_self_is_span_minus_children(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock=clock)

        def leaf():
            clock.tick(2.0)

        def outer():
            clock.tick(1.0)
            tracer.call("leaf", leaf)
            tracer.call("leaf", leaf)
            clock.tick(0.5)

        tracer.call("outer", outer)
        table = tracer.table()
        self.assertEqual(table["outer"]["active_s"], 5.5)
        self.assertEqual(table["outer"]["self_s"], 1.5)
        self.assertEqual(table["leaf"]["count"], 2)
        self.assertEqual(table["leaf"]["self_s"], 4.0)
        spans = {s["name"]: s for s in tracer.spans_json()}
        self.assertEqual(spans["leaf"]["parent"], spans["outer"]["id"])

    def test_async_span_excludes_other_tasks(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock=clock)

        async def busy(cost_before, cost_after):
            clock.tick(cost_before)
            tracer.call("child", clock.tick, 0.25)
            await asyncio.sleep(0)  # the other task runs here
            clock.tick(cost_after)

        async def both():
            await asyncio.gather(
                tracer.drive("a", busy(1.0, 2.0)),
                tracer.drive("b", busy(10.0, 20.0)),
            )

        asyncio.run(both())
        table = tracer.table()
        self.assertEqual(table["a"]["active_s"], 3.25)
        self.assertEqual(table["a"]["self_s"], 3.0)
        self.assertEqual(table["b"]["active_s"], 30.25)
        self.assertEqual(table["b"]["self_s"], 30.0)
        self.assertEqual(table["child"]["count"], 2)

    def test_async_exceptions_pass_through(self):
        tracer = tracing.Tracer()

        async def boom():
            await asyncio.sleep(0)
            raise KeyError("x")

        with self.assertRaises(KeyError):
            asyncio.run(tracer.drive("boom", boom()))
        self.assertEqual(tracer.table()["boom"]["count"], 1)

    def test_profile_fold_charges_stdlib_to_callers(self):
        codec = ("/x/src/repro/live/codec.py", 1, "encode")
        http = ("/x/src/repro/serve/http.py", 1, "render")
        loop = ("/usr/lib/python3/asyncio/events.py", 1, "_run")
        dumps = ("/usr/lib/python3/json/__init__.py", 1, "dumps")
        stats = {
            codec: (1, 1, 1.0, 4.0, {loop: (1, 1, 1.0, 4.0)}),
            http: (1, 1, 2.0, 3.0, {loop: (1, 1, 2.0, 3.0)}),
            loop: (1, 1, 0.5, 7.5, {}),
            dumps: (2, 2, 4.0, 4.0, {codec: (1, 1, 3.0, 3.0), http: (1, 1, 1.0, 1.0)}),
        }
        folded = tracing.fold_profile(stats)
        self.assertEqual(folded["live.codec"], 4.0)
        self.assertEqual(folded["serve.http"], 3.0)
        self.assertEqual(folded["asyncio"], 0.5)
        self.assertEqual(sum(folded.values()), 7.5)


class FailedCounting(unittest.TestCase):
    def test_failed_frac(self):
        self.assertEqual(measure.failed_frac(10, 0), 0.0)
        self.assertEqual(measure.failed_frac(8, 2), 0.25)
        self.assertEqual(measure.failed_frac(0, 0), 0.0)
        with self.assertRaises(ValueError):
            measure.failed_frac(1, 2)

    def test_query_answers(self):
        import fabric
        import query_workload as q

        holds = lambda monitor, subject: (monitor + subject) % 2 == 0  # noqa: E731
        request = ("/availability/4?l=2", "availability", 4, 2)
        good = {
            "subject": 4,
            "verified_monitors": [0, 2],
            "rejected_monitors": [1],
            "reports": {"0": 1.0, "2": 0.5},
            "availability": 0.75,
            "policy_satisfied": True,
            "timed_out": False,
        }
        self.assertIsNone(q.classify(request, 200, good, holds))
        self.assertEqual(q.classify(request, 503, good, holds), "status 503")
        self.assertIsNotNone(
            q.classify(request, 200, {**good, "verified_monitors": [0, 1]}, holds)
        )
        self.assertIsNotNone(q.classify(request, 200, {**good, "timed_out": True}, holds))
        self.assertIsNotNone(q.classify(request, 200, {**good, "reports": {"0": 1.0}}, holds))
        # Fewer verified monitors than l, honestly flagged: still verified.
        short = {**good, "verified_monitors": [0], "reports": {"0": 1.0},
                 "policy_satisfied": False}
        self.assertIsNone(q.classify(request, 200, short, holds))
        self.assertIsNotNone(
            q.classify(request, 200, {**short, "policy_satisfied": True}, holds)
        )
        nodes = ("/nodes", "nodes", -1, None)
        self.assertIsNone(q.classify(nodes, 200, {"nodes": [0, 1, 2]}, holds, nodes=3))
        self.assertIsNotNone(q.classify(nodes, 200, {"nodes": [0, 1]}, holds, nodes=3))

    def test_sweep_journal_timings(self):
        import sweep_workload as s

        events = [
            {"event": "fleet.worker_spawned", "ts": 0.1, "worker": 0},
            {"event": "fleet.lease_granted", "ts": 0.2, "worker": 0, "cell": 0},
            {"event": "fleet.lease_granted", "ts": 0.3, "worker": 1, "cell": 1},
            {"event": "fleet.cell_done", "ts": 1.2, "worker": 0, "cell": 0},
            {"event": "fleet.lease_granted", "ts": 1.25, "worker": 0, "cell": 2},
            {"event": "fleet.cell_done", "ts": 2.3, "worker": 1, "cell": 1},
            {"event": "fleet.cell_done", "ts": 3.25, "worker": 0, "cell": 2},
        ]
        timings = s.journal_timings(events, start=0.0)
        self.assertAlmostEqual(timings["setup_s"], 0.3)
        self.assertEqual(
            {k: round(v, 6) for k, v in timings["busy"].items()}, {0: 1.0, 1: 2.0, 2: 2.0}
        )
        self.assertAlmostEqual(timings["dispatch_gap_s"], 0.05)


@unittest.skipUnless((SRC / "repro").is_dir(), "needs the program sources")
class SeedReachesEveryGenerator(unittest.TestCase):
    def test_paper_sweep(self):
        import sweep_workload as s

        self.assertEqual(s.cell_seeds(0), (1, 2))
        seen = set()
        for seed in range(5):
            configs = s.sweep_configs(seed)
            self.assertEqual([c.n for c in configs], [60, 60, 120, 120, 240, 240])
            self.assertEqual({c.seed for c in configs}, set(s.cell_seeds(seed)))
            seen.update(c.seed for c in configs)
        self.assertEqual(len(seen), 10)
        self.assertEqual(s.sweep_configs(3), s.sweep_configs(3))

    def test_overlay_wan(self):
        import fabric
        import overlay_workload as o

        seen = []
        for seed in range(4):
            seeds = fabric.overlay_seeds(seed)
            self.assertEqual(len(set(seeds)), fabric.REPS)
            seen += seeds
            for config_seed in seeds:
                config = o.overlay_config(config_seed, o.window(12))
                self.assertEqual(config.seed, config_seed)
                self.assertEqual(config.resolved_fault_plan().seed, config_seed)
        self.assertEqual(len(set(seen)), len(seen))
        self.assertEqual(fabric.overlay_seeds(2, 1), fabric.overlay_seeds(2)[:1])

    def test_query_fanout(self):
        import fabric
        import query_workload as q

        self.assertEqual(q.query_schedule(7, 50, 10), q.query_schedule(7, 50, 10))
        self.assertNotEqual(q.query_schedule(7, 50, 10), q.query_schedule(8, 50, 10))
        config_seed = fabric.overlay_seeds(4)[0]
        config = q.overlay_config(config_seed)
        self.assertEqual(config.seed, config_seed)
        self.assertEqual(config.resolved_fault_plan().seed, config.seed)
        schedule = q.query_schedule(0, 4000)
        kinds = [r[1] for r in schedule]
        self.assertAlmostEqual(kinds.count("availability") / 4000, 0.85, delta=0.03)
        self.assertAlmostEqual(kinds.count("monitors") / 4000, 0.10, delta=0.02)
        self.assertEqual({r[3] for r in schedule if r[1] == "availability"}, {1, 2, 3})


class SpeedScaling(unittest.TestCase):
    def test_factor_uses_the_timings_around_each_slice(self):
        scale = measure.SpeedScale()
        nominal = measure.REFERENCE_NOMINAL_S
        scale.timings = [nominal, nominal, 2 * nominal, 3 * nominal]
        self.assertEqual(scale.factor(0), 1.0)
        self.assertAlmostEqual(scale.factor(1), 1 / 1.5)
        self.assertAlmostEqual(scale.factor(2), 1 / 2.5)
        with self.assertRaises(IndexError):
            scale.factor(3)

    def test_offer_cuts_a_span_only_after_every_cpu_seconds(self):
        scale = measure.SpeedScale(every=1e9)
        scale.mark()
        scale.offer()
        self.assertEqual((len(scale.spans), len(scale.timings)), (0, 1))
        scale.offer(force=True)
        self.assertEqual((len(scale.spans), len(scale.timings)), (1, 2))
        self.assertGreaterEqual(scale.reference_cpu_s, sum(scale.timings))
        nominal = measure.REFERENCE_NOMINAL_S
        scale.timings, scale.spans = [nominal, 2 * nominal, nominal], [3.0, 1.5]
        self.assertAlmostEqual(scale.scaled_cpu_s(), 3.0 / 1.5 + 1.5 / 1.5)

    def test_reference_job_leaves_the_collector_as_it_was(self):
        import gc

        self.assertGreater(measure.reference_cpu_s(), 0.0)
        self.assertTrue(gc.isenabled())
        gc.disable()
        try:
            measure.reference_cpu_s()
            self.assertFalse(gc.isenabled())
        finally:
            gc.enable()


class ChildRuns(unittest.TestCase):
    def test_result_and_peak_come_back(self):
        import fabric

        value, peak = fabric.in_child(sorted, [3, 1, 2])
        self.assertEqual(value, [1, 2, 3])
        self.assertGreater(peak, 1.0)

    def test_a_failing_child_raises_in_the_parent(self):
        import fabric

        with self.assertRaisesRegex(RuntimeError, "ZeroDivisionError"):
            fabric.in_child(divmod, 1, 0)


class DeterminismRecord(unittest.TestCase):
    def test_compared_only_within_one_version_of_the_code(self):
        with tempfile.TemporaryDirectory() as out, mock.patch.object(
            common, "OUT", Path(out)
        ), mock.patch.object(common, "source_digest", return_value="a" * 64):
            self.assertEqual(common.check_record("w-seed1", {"x": 1}), [])
            self.assertEqual(common.check_record("w-seed1", {"x": 1, "y": 2}), [])
            self.assertEqual(len(common.check_record("w-seed1", {"x": 3})), 1)
            self.assertEqual(common.check_record("w-seed2", {"x": 3}), [])
            with mock.patch.object(common, "source_digest", return_value="b" * 64):
                self.assertEqual(common.check_record("w-seed1", {"x": 3}), [])


class DeclaredMetrics(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        import run

        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [m["name"] for m in declared["end_to_end"]], list(run.END_TO_END_UNITS)
        )
        for metric in declared["end_to_end"]:
            self.assertEqual(metric["unit"], run.END_TO_END_UNITS[metric["name"]])
        self.assertEqual([m["name"] for m in declared["per_layer"]], per_layer_names())
        for metric in declared["per_layer"]:
            self.assertEqual(metric["unit"], run.layer_unit(metric["name"]))
        self.assertEqual([w["name"] for w in declared["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main(verbosity=2)
