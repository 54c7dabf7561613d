"""Tests of the benchmark itself: seeded inputs, the output gate, and the tracer.

    python3 perfbench/selftest.py

Takes about two minutes: it makes one full verify call with a deliberate
fault and traced calls on every workload.
"""

import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
run.RUNS.mkdir(exist_ok=True)
from photonlab import csvio  # noqa: E402


def traced_call(name: str) -> dict:
    """Layer metrics of one traced call on a workload, seed 0."""
    with tempfile.TemporaryDirectory(dir=run.RUNS) as tmp:
        tmp = Path(tmp)
        work = run.WORKLOADS[name]
        args = ["verify"]
        if work.make_config is not None:
            (tmp / "config.ini").write_text(work.make_config(random.Random(0)))
            args = ["run", "--config", str(tmp / "config.ini")]
        call = run.spawn("trace", args, tmp, tmp / "stamps.json", 120.0)
        problems, _ = run.gate(tmp, call["code"], work.products(csvio), csvio.REPORT_COLUMNS)
        assert not call["problems"] and not problems, call["problems"] + problems
        return run.layer_metrics(call["spans"])


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_config_and_sizes_fixed(self):
        for name in ("packet3d", "lifecycle1d"):
            make = run.WORKLOADS[name].make_config
            texts = [make(random.Random(seed)) for seed in range(20)]
            self.assertEqual(texts[3], make(random.Random(3)))
            self.assertGreater(len(set(texts)), 10)
            sizes = ("n_k", "n_x", "t_steps") if name == "packet3d" else ("n_z", "t_steps")
            for text in texts:
                for key in sizes:
                    self.assertIn(f"\n{key} = ", text)

    def test_detector_is_reached_before_t_stop(self):
        from photonlab.config import parse_config
        for seed in range(200):
            cfg = parse_config(run.WORKLOADS["lifecycle1d"].make_config(random.Random(seed)))
            v = 1.0 / (cfg.medium.epsilon_rel * cfg.medium.mu_rel) ** 0.5
            arrival = (cfg.detector.center - cfg.emitter.center) / v
            self.assertLess(cfg.detector.center, cfg.line.z_max)
            self.assertLess(arrival, cfg.times.stop - 1.0)


class Gate(unittest.TestCase):
    def test_dispersion_fault_counts_as_failed(self):
        with tempfile.TemporaryDirectory(dir=run.RUNS) as tmp:
            tmp = Path(tmp)
            (tmp / "fault.ini").write_text("[verify]\ninject_dispersion_error = 0.05\n")
            call = run.spawn("plain", ["verify", "--config", str(tmp / "fault.ini")],
                             tmp, tmp / "stamps.json", 120.0)
            problems, _ = run.gate(tmp, call["code"], {}, csvio.REPORT_COLUMNS)
        self.assertEqual(call["code"], 1)
        self.assertIn("exit code 1", problems)
        self.assertTrue(any("norm_unity" in p for p in problems), problems)

    def test_wrong_row_count_and_header_are_caught(self):
        with tempfile.TemporaryDirectory(dir=run.RUNS) as tmp:
            tmp = Path(tmp)
            (tmp / "report.csv").write_text(",".join(csvio.REPORT_COLUMNS) + "\nx,0,1,,true\n")
            (tmp / "report.txt").write_text("result: PASS (1/1 checks)\n")
            (tmp / "lifecycle.csv").write_text("t,norm\n0,1\n")
            problems, digests = run.gate(tmp, 0, {"lifecycle.csv": (csvio.LIFECYCLE_COLUMNS, 3)},
                                         csvio.REPORT_COLUMNS)
        self.assertEqual(len(problems), 2, problems)
        self.assertEqual(set(digests), {"report.txt", "report.csv"})


class Tracer(unittest.TestCase):
    def test_counts_follow_the_layer_table(self):
        verify = traced_call("verify")
        packet = traced_call("packet3d")
        line = traced_call("lifecycle1d")
        for metric in ("fields.synthesize_calls", "modes.kprep_calls", "fdops.stencil_calls",
                       "current.bilinear_points", "medium.lifecycle_calls"):
            self.assertGreater(verify[metric], 0, metric)
        for block in run.VERIFY_BLOCKS:
            self.assertGreater(verify[f"verify.block.{block}_s"], 0.0, block)
        self.assertGreater(verify["fields.maxwell_residual_s"], 0.0)
        self.assertGreater(verify["modes.boost_s"], 0.0)
        self.assertEqual(packet["medium.lifecycle_calls"], 0)
        # continuity_residual takes the divergence of the current on the grid.
        self.assertGreater(packet["fdops.stencil_calls"], 0)
        self.assertEqual(packet["fields.synthesize_calls"], 9)
        self.assertEqual(packet["fields.synthesize_modes"], 9 * 16 ** 3)
        self.assertGreater(packet["csvio.bytes"], 30e6)
        self.assertEqual(packet["csvio.rows"], 16 ** 3 + 4 * 32 ** 3 + 1)
        for metric in ("fields.synthesize_calls", "modes.kprep_calls", "fdops.stencil_calls",
                       "current.bilinear_points"):
            self.assertEqual(line[metric], 0, metric)
        self.assertEqual(line["medium.lifecycle_calls"], 1)
        self.assertEqual(line["medium.lifecycle_cells"], 1601 * 8192)


class Checkout(unittest.TestCase):
    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory(dir=run.RUNS) as tmp:
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                                  "--seed", "1", "--seconds", "1", "--trace", "0"],
                                 cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(res.returncode, 0)
        self.assertNotIn("{", res.stdout)

    def test_benchmark_file_names_every_metric_once(self):
        bench = run.load_benchmark()
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(run.WORKLOADS))
        self.assertIn("setup_s", names)
        self.assertTrue(json.dumps(bench))


if __name__ == "__main__":
    unittest.main()
