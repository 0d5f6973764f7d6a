"""Worker processes started by run.py; not meant to be run by hand.

    child.py cli TRACE_OUT OP_ID CERTFLIGHT_ARGS...
        run certflight.cli.main(CERTFLIGHT_ARGS) under the tracer
    child.py setup TRACE_OUT WITH_ASN_MAP
        the set-up probe (resolve_config, optionally AsnMap.from_files) under the tracer
    child.py scan MODELS RESULT SECONDS TRACE_OUT
        the flight-scan workload through the Python API: a closed loop over
        the models for SECONDS (one pass when SECONDS is 0), traced unless
        TRACE_OUT is "-"; per-op times and outputs go to RESULT
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def _tracer(trace_out: str, op_id: int = 0):
    if trace_out == "-":
        return None
    import tracer

    t = tracer.Tracer(op_id)
    tracer.install(t)
    return t


def run_cli(trace_out: str, op_id: str, argv: list[str]) -> int:
    from certflight import cli

    t = _tracer(trace_out, int(op_id))
    code = t.wrap("cli.main", cli.main, True)(argv)
    t.dump(trace_out)
    return code


def run_setup(trace_out: str, with_asn_map: str) -> int:
    from certflight import cli, tls_log_analytics

    t = _tracer(trace_out)
    cfg = cli.resolve_config(None)
    if with_asn_map == "1":
        tls_log_analytics.AsnMap.from_files(*cfg.resolve_asn_paths())
    t.dump(trace_out)
    return 0


def run_scan(models_path: str, result_path: str, seconds: str, trace_out: str) -> int:
    from certflight import DEFAULT_OPTIMIZERS, FlightModel
    from certflight import sweep_runner, transport_flight
    import speed
    from inputs import SCAN_MAX_KB, SCAN_STEP_KB

    with open(models_path, encoding="utf-8") as f:
        models = json.load(f)
    flight_models = [FlightModel(mode="analytic", **m) for m in models]
    t = _tracer(trace_out)
    budget = float(seconds)
    ops = []
    start = perf_counter()
    i = 0
    while (i < len(models)) if budget == 0 else (perf_counter() - start < budget):
        k = i % len(models)
        if t is not None:
            t.op_id = i
        t0 = perf_counter()
        found = transport_flight.find_thresholds(flight_models[k], SCAN_MAX_KB, SCAN_STEP_KB)
        # compute_regions rejects thresholds of 1 KB or less, which have no region.
        eligible = [x for x in found if x > 1]
        regions = sweep_runner.compute_regions(eligible, list(DEFAULT_OPTIMIZERS)) if eligible else []
        wall = perf_counter() - t0
        ops.append({"model": k, "wall_s": wall, "calib_s": speed.loop_time(), "thresholds": found,
                    "regions": [[r.optimizer, r.threshold_kb, r.upper_kb_exact] for r in regions]})
        i += 1
    if t is not None:
        t.dump(trace_out)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump({"ops": ops}, f)
    report_peak_rss()
    return 0


def report_peak_rss() -> None:
    """Write this process's peak RSS line (VmHWM, which counts from its exec)
    to stderr, where the benchmark reads it; see run.ENTRY."""
    with open("/proc/self/status", encoding="utf-8") as f:
        sys.stderr.write(next(ln for ln in f if ln.startswith("VmHWM:")))


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        sys.exit(run_cli(rest[0], rest[1], rest[2:]))
    if mode == "setup":
        sys.exit(run_setup(*rest))
    if mode == "scan":
        sys.exit(run_scan(*rest))
    sys.exit(f"unknown mode {mode!r}")
