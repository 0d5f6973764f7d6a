"""The benchmark's tracer patches certflight functions by module attribute
(bench/tracer.py, install). This checks that every name it patches still
exists and that a traced CLI run still works. It runs in a subprocess, so
the patched functions never reach the other tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_SWEEP = """
import sys
sys.path[:0] = sys.argv[1:3]
import tracer
spans = tracer.Tracer()
tracer.install(spans)
from certflight import cli
code = cli.main(["sweep", "--rtts", "10,50", "--sizes", "4:20:4", "--trials", "3",
                 "--optimizers", "mtc1"])
print("exit", code, "resolve_config calls", spans.totals["config.resolve_config"][0])
"""

TRACED_ANALYZE = """
import sys
sys.path[:0] = sys.argv[1:3]
import tracer
spans = tracer.Tracer()
tracer.install(spans)
from certflight import cli
from certflight.config import _data_path
code = cli.main(["analyze", "--logs", _data_path("sample_tls_log.tsv")])
print("exit", code, "classify calls", spans.totals["tls_log_analytics.AsnMap.classify"][0],
      "records", spans.counters["tls_log_analytics.parse_log_stream.records"])
"""


def test_tracer_installs_and_traces_a_sweep():
    env = {k: v for k, v in os.environ.items() if k != "CERTFLIGHT_CONFIG"}
    done = subprocess.run(
        [sys.executable, "-c", TRACED_SWEEP, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "exit 0 resolve_config calls 1"
    assert done.stdout.startswith("stack,rtt_ms,size_kb,mean_ms,std_ms,extra_rtts,optimizer\n")


def test_tracer_traces_an_analyze_run():
    """classify runs once per parsed record, as the traced bench reads it."""
    env = {k: v for k, v in os.environ.items() if k != "CERTFLIGHT_CONFIG"}
    done = subprocess.run(
        [sys.executable, "-c", TRACED_ANALYZE, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    *payload, last = done.stdout.splitlines()
    records = json.loads("\n".join(payload))["parse"]["records"]
    assert records > 0
    assert last == f"exit 0 classify calls {records} records {records}"
