"""Tests of the perfbench benchmark itself: its arithmetic (span self time,
percentiles with their sample count, critical-path tiling, per-layer metric
composition), the agreement of BENCHMARK.json with perfbench/spec.json, and a
reduced-size smoke run of every workload, untraced and traced.

    python3 -m unittest perfbench/test_perfbench.py     (from the repo root)

The smoke runs build perfbench/nmx_perfbench first (about a minute the first
time).
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import pbstats  # noqa: E402


class SpanSelfTime(unittest.TestCase):
    def test_no_children_is_whole_duration(self):
        self.assertEqual(pbstats.self_time((10, 50), []), 40)

    def test_overlapping_children_count_once(self):
        # [10,30] and [20,40] cover 30 ns together; [90,120] is clipped to 10.
        self.assertEqual(pbstats.self_time((0, 100), [(10, 30), (20, 40), (90, 120)]), 60)

    def test_nested_and_outside_children(self):
        # [5,8] lies inside [0,10]; [200,300] is outside the parent entirely.
        self.assertEqual(pbstats.self_time((0, 100), [(0, 10), (5, 8), (200, 300)]), 90)

    def test_fully_covered_parent(self):
        self.assertEqual(pbstats.self_time((0, 10), [(-5, 4), (4, 20)]), 0)


class Percentiles(unittest.TestCase):
    def test_sample_percentile_reports_count(self):
        value, n = pbstats.percentile(list(range(1, 101)), 0.5)
        self.assertEqual(n, 100)
        self.assertAlmostEqual(value, 50.5)
        value, n = pbstats.percentile(list(range(1, 101)), 0.99)
        self.assertAlmostEqual(value, 99.01)

    def test_empty_sample_is_zero_with_zero_count(self):
        self.assertEqual(pbstats.percentile([], 0.5), (0.0, 0))

    def test_single_sample(self):
        self.assertEqual(pbstats.percentile([7], 0.99), (7, 1))

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(pbstats.tail_percentile(list(range(10))))
        q, value, n = pbstats.tail_percentile(list(range(40)))
        self.assertEqual((q, n), (0.75, 40))
        self.assertAlmostEqual(value, 29.25)
        self.assertEqual(pbstats.tail_percentile(list(range(1000)))[0], 0.99)

    def test_histogram_percentile_interpolates_inside_bucket(self):
        # 10 samples, all in (1, 2]: the median sits half-way through it.
        value, n = pbstats.hist_percentile([1, 2, 5], [0, 10, 0, 0], 0.5)
        self.assertEqual(n, 10)
        self.assertAlmostEqual(value, 1.5)

    def test_histogram_first_bucket_starts_at_zero(self):
        value, n = pbstats.hist_percentile([4, 8], [4, 0, 0], 0.5)
        self.assertEqual(n, 4)
        self.assertAlmostEqual(value, 2.0)

    def test_histogram_overflow_reads_last_edge(self):
        self.assertEqual(pbstats.hist_percentile([1, 2], [1, 0, 9], 0.99), (2.0, 10))

    def test_empty_histogram(self):
        self.assertEqual(pbstats.hist_percentile([1, 2], [0, 0, 0], 0.5), (0.0, 0))


class Spread(unittest.TestCase):
    def test_iqr_spread_is_share_of_median(self):
        values = [9, 10, 10, 10, 11]
        q1, _, q3 = __import__("statistics").quantiles(values, n=4)
        self.assertAlmostEqual(pbstats.iqr_spread(values), (q3 - q1) / 10)

    def test_iqr_spread_of_constant_series_is_zero(self):
        self.assertEqual(pbstats.iqr_spread([3.0] * 10), 0.0)


class HostScaling(unittest.TestCase):
    def test_medians_scale_by_nominal_over_median_reference(self):
        passes = [{"wall_s": w, "cpu_s": w, "events": 100, "peak_rss_mb": 50.0,
                   "setup_s": w / 100} for w in (2.0, 2.2, 1.8)]
        m, scale = pbstats.host_medians(passes, [0.2, 0.25, 0.2, 0.15], 0.1)
        # The whole run saw a host twice as slow as nominal: times halve.
        self.assertAlmostEqual(scale, 0.5)
        self.assertAlmostEqual(m["wall_s"], 1.0)
        self.assertAlmostEqual(m["cpu_s"], 1.0)
        self.assertAlmostEqual(m["setup_s"], 0.01)
        self.assertAlmostEqual(m["events_per_s"], 100.0)
        self.assertEqual(m["peak_rss_mb"], 50.0)


class CritpathTiling(unittest.TestCase):
    def cp(self, wall, compute, wire, sw, blocked):
        return {"wall": wall, "compute": compute, "wire": wire, "sw": sw, "blocked": blocked,
                "coll": 0.0}

    def test_components_within_one_percent_tile(self):
        cp = self.cp(0.024, 0.0005, 0.0021, 0.0213, 0.0001)
        self.assertTrue(pbstats.critpath_tiles(cp))
        self.assertAlmostEqual(sum(pbstats.critpath_shares(cp).values()), 1.0, delta=0.01)

    def test_gap_over_one_percent_does_not_tile(self):
        self.assertFalse(pbstats.critpath_tiles(self.cp(1.0, 0.5, 0.2, 0.2, 0.08)))
        self.assertTrue(pbstats.critpath_tiles(self.cp(1.0, 0.5, 0.2, 0.2, 0.095)))

    def test_empty_path_does_not_tile(self):
        self.assertFalse(pbstats.critpath_tiles(self.cp(0.0, 0, 0, 0, 0)))

    def test_wall_against_kernel_virtual_time(self):
        cp = self.cp(1.013, 0.5, 0.2, 0.3, 0.013)
        self.assertTrue(pbstats.critpath_matches(cp, 1.0, 0.02))
        self.assertFalse(pbstats.critpath_matches(cp, 1.0, 0.01))
        self.assertFalse(pbstats.critpath_matches(self.cp(0.97, 0.97, 0, 0, 0), 1.0, 0.02))
        self.assertFalse(pbstats.critpath_matches(cp, 0.0, 0.02))


def synthetic_pass(wall_s, rss, traced):
    rec = {"wall_s": wall_s, "events": 1000, "peak_rss_mb": rss, "fiber_stacks": 2,
           "event_pool_slots": 256, "closure_heap_allocs": 0}
    if traced:
        rec.update({
            "counters": {"net.rail.tx_packets|rail=0": 6, "net.rail.tx_packets|rail=1": 4,
                         "net.rail.tx_bytes|rail=0": 600, "nmad.rail.busy_ns|rail=0": 30,
                         "nmad.rail.busy_ns|rail=1": 10, "nmad.coll.count|op=alltoall": 3,
                         "nmad.coll.count|op=barrier": 2, "pioman.passes": 4},
            "gauge_max": {"nmad.unexpected.depth": 5},
            "histograms": {"nmad.rdv.handshake_us": {"edges": [1, 2], "counts": [0, 4, 0]}},
            "critpath": {"wall": 1.0, "compute": 0.5, "wire": 0.25, "sw": 0.25, "blocked": 0.0,
                         "coll": 0.4, "iterations": 1},
            "records": 99,
            "span_kinds": ["cluster_ctor", "cluster_run", "isend", "irecv", "wait"],
            # one run span [0,100] with an isend [10,20] and a wait [15,40]
            "spans": [[0, -1, -50, -10], [1, -1, 0, 100], [2, 0, 10, 20], [4, 1, 15, 40]],
        })
    return rec


class LayerMetrics(unittest.TestCase):
    def test_composition(self):
        traced = [synthetic_pass(2.0, 30.0, True), synthetic_pass(3.0, 30.0, True)]
        untraced = [synthetic_pass(1.0, 10.0, False), synthetic_pass(1.0, 10.0, False)]
        m = pbstats.layer_metrics(traced[0], untraced, traced)
        self.assertEqual(m["net.packets"], 10)
        self.assertAlmostEqual(m["net.rail.busy_share.r0"], 0.75)
        self.assertAlmostEqual(m["net.rail.busy_share.r1"], 0.25)
        self.assertEqual(m["net.rail.tx_bytes.r1"], 0)
        self.assertEqual(m["nmad.coll.count"], 5)
        self.assertAlmostEqual(m["coll.critpath_share"], 0.4)
        self.assertEqual(m["pioman.passes"], 4)
        self.assertEqual(m["nmad.rdv.handshake_us.n"], 4)
        self.assertAlmostEqual(m["nmad.rdv.handshake_us.p50"], 1.5)
        self.assertEqual(m["nmad.unexpected.depth.max"], 5)
        self.assertEqual(m["mpi.isend.host_ns.n"], 1)
        self.assertEqual(m["mpi.isend.host_ns.p50"], 10)
        self.assertEqual(m["mpi.irecv.host_ns.n"], 0)
        self.assertAlmostEqual(m["host.run_self_share"], 0.7)  # 100 - |[10,40]|
        self.assertAlmostEqual(m["host.cluster_ctor_us.p50"], 0.04)
        self.assertAlmostEqual(m["sim.host_ns_per_event"], 1e6)
        self.assertAlmostEqual(m["obs.trace_wall_ratio"], 2.5)
        self.assertAlmostEqual(m["obs.trace_rss_ratio"], 3.0)
        self.assertEqual(m["obs.records"], 99)


class Definition(unittest.TestCase):
    def setUp(self):
        with open(ROOT / "BENCHMARK.json") as f:
            self.bench = json.load(f)
        with open(HERE / "spec.json") as f:
            self.spec = json.load(f)

    def test_workloads_agree(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(self.spec["workloads"]))
        for w in self.spec["workloads"].values():
            self.assertTrue(w["why"] and w["loads"] and w["bypasses"])
            for v in w["virtual"].values():
                self.assertIsInstance(v["expected"], float)

    def test_every_layer_metric_is_mapped(self):
        self.assertEqual({m["name"] for m in self.bench["per_layer"]},
                         set(self.spec["layer_map"]))

    def test_layer_map_names_known_metrics_and_workloads(self):
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        for w in self.spec["workloads"].values():
            e2e |= set(w["virtual"])
        for name, entry in self.spec["layer_map"].items():
            self.assertTrue(set(entry["moves"]) <= e2e, name)
            self.assertTrue(set(entry["on"]) <= set(self.spec["workloads"]), name)

    def test_composed_layer_metrics_cover_the_list(self):
        traced = synthetic_pass(2.0, 30.0, True)
        m = pbstats.layer_metrics(traced, [synthetic_pass(1.0, 10.0, False)], [traced])
        self.assertEqual(set(m), {x["name"] for x in self.bench["per_layer"]})


def run_bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=900)


class Smoke(unittest.TestCase):
    """Reduced-size run of every workload through the real command."""

    def check_result(self, proc, section):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        with open(ROOT / "BENCHMARK.json") as f:
            want = {m["name"]: m["unit"] for m in json.load(f)[section]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
        return result, proc.stdout

    def test_every_workload_untraced_and_traced(self):
        for w in ("pingpong", "cg_s256", "ft_a64"):
            with self.subTest(workload=w, trace=0):
                proc = run_bench(["--workload", w, "--seed", "5", "--seconds", "1",
                                  "--trace", "0", "--smoke"])
                result, out = self.check_result(proc, "end_to_end")
                self.assertGreater(result["metrics"]["setup_s"]["value"], 0)
                self.assertIn("host: nproc=", out)
            with self.subTest(workload=w, trace=1):
                proc = run_bench(["--workload", w, "--seed", "6", "--seconds", "1",
                                  "--trace", "1", "--smoke"])
                result, _ = self.check_result(proc, "per_layer")
                self.assertGreater(result["metrics"]["sim.events"]["value"], 0)

    def test_refuses_to_run_without_the_simulator_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(["--workload", "pingpong", "--seed", "1", "--seconds", "1",
                              "--trace", "0"], cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
