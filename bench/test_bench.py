"""Self-tests of the benchmark: seeded inputs are reproducible, and every
output check accepts the program's real output and rejects a corrupted copy.

    python3 -m unittest discover -s bench -v     (from the repository root)
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
from certflight import DEFAULT_OPTIMIZERS, FlightModel, cli, compute_regions  # noqa: E402
from certflight.transport_flight import find_thresholds  # noqa: E402


def _cli(*args: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(args))
    if code != 0:
        raise AssertionError(f"certflight {args} exited {code}")
    return out.getvalue()


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


class BenchTest(unittest.TestCase):
    def setUp(self):
        os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".bench_work"))
        self.addCleanup(shutil.rmtree, self.tmp, True)

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, name)

    def test_same_seed_same_inputs(self):
        logs = []
        for name, seed in (("a", 7), ("b", 7), ("c", 8)):
            inputs.zeek_log(random.Random(seed), self.path(name), 3000)
            logs.append(_read(self.path(name)))
        self.assertEqual(logs[0], logs[1])
        self.assertNotEqual(logs[0], logs[2])
        for gen in (inputs.flight_models, inputs.forge_ladder):
            self.assertEqual(gen(random.Random(7)), gen(random.Random(7)))
            self.assertNotEqual(gen(random.Random(7)), gen(random.Random(8)))
        argv = [inputs.sweep_argv(random.Random(s), "x.csv") for s in (7, 7, 8)]
        self.assertEqual(argv[0], argv[1])
        self.assertNotEqual(argv[0], argv[2])

    def test_sweep_check_rejects_row_off_by_one_rtt(self):
        args = inputs.sweep_argv(random.Random(3), self.path("sweep.csv"))
        _cli(*args)
        text = _read(self.path("sweep.csv")).decode()
        self.assertEqual(checks.check_sweep(text), [])
        lines = text.splitlines(keepends=True)
        fields = lines[5000].split(",")
        fields[1] = repr(float(fields[1]) + 10.0)
        lines[5000] = ",".join(fields)
        self.assertNotEqual(checks.check_sweep("".join(lines)), [])
        self.assertNotEqual(checks.check_sweep("".join(lines[:-1])), [])

    def test_flight_scan_check_rejects_shifted_threshold(self):
        model = inputs.flight_models(random.Random(5))[0]
        found = find_thresholds(FlightModel(mode="analytic", **model), inputs.SCAN_MAX_KB,
                                inputs.SCAN_STEP_KB)
        eligible = [t for t in found if t > 1]
        regions = [[r.optimizer, r.threshold_kb, r.upper_kb_exact]
                   for r in compute_regions(eligible, list(DEFAULT_OPTIMIZERS))]
        self.assertEqual(checks.check_flight_scan(model, found, regions), [])
        shifted = found[:-1] + [found[-1] + inputs.SCAN_STEP_KB]
        self.assertNotEqual(checks.check_flight_scan(model, shifted, regions), [])
        self.assertNotEqual(checks.check_flight_scan(model, found, regions[:-1]), [])

    def _analyze(self, log: str) -> tuple[dict, str]:
        _cli("analyze", "--logs", log, "--out", self.path("out.json"),
             "--series", self.path("series.csv"))
        return json.loads(_read(self.path("out.json"))), _read(self.path("series.csv")).decode()

    def test_analyze_check_rejects_dropped_record(self):
        log = self.path("ssl.log")
        tally = inputs.zeek_log(random.Random(11), log, 3000)
        payload, series_text = self._analyze(log)
        self.assertEqual(checks.check_analyze(payload, tally, series_text), [])
        lines = _read(log).decode().splitlines(keepends=True)
        data = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
        del lines[data[len(data) // 2]]
        with open(log, "w", encoding="utf-8") as f:
            f.writelines(lines)
        payload, series_text = self._analyze(log)
        self.assertNotEqual(checks.check_analyze(payload, tally, series_text), [])

    def test_forge_check_rejects_short_certificate(self):
        for chain in inputs.forge_ladder(random.Random(2)):
            out_dir = self.path("chain")
            _cli("forge", "--scheme", chain["scheme"], *chain["flags"], "--out-dir", out_dir)
            self.assertEqual(checks.check_forge(chain, out_dir), [])
            role = chain["certs"][0][0]
            der = os.path.join(out_dir, f"{role}.der")
            with open(der, "r+b") as f:
                f.truncate(len(_read(der)) - 1)
            self.assertNotEqual(checks.check_forge(chain, out_dir), [])
            shutil.rmtree(out_dir)

    def test_estimate_check_rejects_wrong_total(self):
        for chain in inputs.forge_ladder(random.Random(2)):
            out = _cli("estimate", "--scheme", chain["scheme"], *chain["flags"],
                       "--rtt", f"{chain['rtt_ms']:g}", "--stack", chain["stack"],
                       "--format", "json")
            self.assertEqual(checks.check_estimate(chain, out), [])
            payload = json.loads(out)
            payload["total_ms"] += chain["rtt_ms"]
            self.assertNotEqual(checks.check_estimate(chain, json.dumps(payload)), [])

    def test_check_that_raises_counts_as_failed(self):
        import run

        missing = self.path("missing.json")
        self.assertEqual(run._checked(lambda: []), [])
        problems = run._checked(lambda: json.loads(run._read_and_remove(missing)))
        self.assertEqual(len(problems), 1)
        self.assertIn("FileNotFoundError", problems[0])
        self.assertNotEqual(run._checked(json.loads, "{not json"), [])

    def test_peak_rss_is_the_operations_own(self):
        import run

        ballast = b"x" * (160 << 20)  # this process's RSS, which a spawned child starts with
        _, code, rss_kb, _ = run.Runner(self.tmp).spawn(["-c", run.ENTRY, "--help"])
        del ballast
        self.assertEqual(code, 0)
        self.assertIsNotNone(rss_kb)
        self.assertLess(rss_kb, 120 << 10)

    def test_throughput_is_the_median_pass(self):
        import run

        self.assertEqual(run.throughput([1, 1, 1, 1, 10, 10], [2] * 6, 2), 2.0)
        self.assertEqual(run.throughput([2.0], [5], 3), 2.5)

    def test_meter_samples_while_it_runs(self):
        import time

        import run

        with run.Meter(run.Runner(self.tmp)) as meter:
            start = time.perf_counter()
            time.sleep(0.5)
            end = time.perf_counter()
        self.assertGreater(len(meter.samples), 10)
        self.assertIsNotNone(meter.mean(start, end))
        self.assertIsNone(meter.mean(end + 1, end + 2))


if __name__ == "__main__":
    unittest.main()
