"""certflight benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; certflight is imported from
src/ and nothing is installed. Inputs are generated from --seed into a
scratch directory under .bench_work/ and removed afterwards. Every
operation's output is checked against the benchmark's own reference.
The run and every process it starts keep to one CPU.

With --trace 0 the run times a closed loop of operations (one caller,
no concurrency) for S seconds and reports the end-to-end metrics. With
--trace 1 it alternates untraced and traced passes over a fixed set of
operations and reports the per-layer metrics, per pass; spans go to
.bench_work/traces/. The last stdout line is the result object; the
line before it carries the environment, workload properties and the
sample counts behind the tail percentile. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import tempfile
from importlib import metadata
from time import perf_counter

import checks
import inputs
import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(BENCH, "child.py")

# The installed `certflight` console script, plus a last stderr line with
# the process's peak RSS. The kernel's max RSS for a child (wait4) would not
# do: a spawned child starts with the benchmark's own peak RSS.
ENTRY = (
    "import sys\n"
    "from certflight.cli import main\n"
    "try:\n"
    "    code = main()\n"
    "finally:\n"
    "    with open('/proc/self/status', encoding='utf-8') as f:\n"
    "        sys.stderr.write(next(ln for ln in f if ln.startswith('VmHWM:')))\n"
    "sys.exit(code)\n"
)
SETUP = "from certflight import cli; cfg = cli.resolve_config(None)"
SETUP_ASN = (SETUP + "; from certflight import tls_log_analytics as t; "
             "t.AsnMap.from_files(*cfg.resolve_asn_paths())")
IMPORT_TIMER = ("import time; t = time.perf_counter(); import {}; "
                "print(time.perf_counter() - t)")
SETUP_REPEATS = 11
PROBE_REPEATS = 5
RUN_LIMIT_S = 170


class Op:
    """One certflight CLI call, the items it processes and its output check."""

    def __init__(self, args: list[str], items: int, check):
        self.args, self.items, self.check = args, items, check


class Result:
    """One operation, started at start_s; calib_s is its speed probe time
    (timed runs only): the probe right after it, or its meter mean."""

    def __init__(self, wall_s: float, items: int, problems: list[str], rss_kb: int | None,
                 calib_s: float | None = None, start_s: float = 0.0):
        self.wall_s, self.items, self.problems = wall_s, items, problems
        self.rss_kb, self.calib_s, self.start_s = rss_kb, calib_s, start_s


class Runner:
    """Starts child processes with src/ on the path and waits for each."""

    def __init__(self, work: str):
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "CERTFLIGHT_CONFIG"}
        self.env["PYTHONPATH"] = SRC
        self.count = 0

    def spawn(self, argv: list[str]) -> tuple[float, int, int | None, str]:
        """Run sys.executable with argv; return (wall_s, exit code, peak RSS KB
        if the process reported it on stderr, stdout)."""
        self.count += 1
        out = os.path.join(self.work, f"proc{self.count}.out")
        err = os.path.join(self.work, f"proc{self.count}.err")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
        start = perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable] + argv, self.env,
                             file_actions=actions)
        try:
            _, status = os.waitpid(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        with open(out, encoding="utf-8", errors="replace") as f:
            stdout = f.read()
        with open(err, encoding="utf-8", errors="replace") as f:
            stderr = f.read()
        if code != 0:
            sys.stderr.write(stderr[-2000:])
        os.remove(out)
        os.remove(err)
        peak = [ln.split()[1] for ln in stderr.splitlines() if ln.startswith("VmHWM:")]
        return wall, code, int(peak[-1]) if peak else None, stdout

    def speed_probe(self, kind: str) -> float | None:
        if kind == speed.START:
            return self.probe(["-c", "pass"])[0]
        return speed.loop_time() if kind == speed.LOOP else None

    def probe(self, argv: list[str]) -> tuple[float, str]:
        """spawn() for a probe that must succeed: (wall_s, stdout)."""
        wall, code, _, stdout = self.spawn(argv)
        if code != 0:
            raise RuntimeError(f"probe {argv} exited {code}")
        return wall, stdout


class Meter:
    """speed.METER_CODE in a child process, next to the operations of a
    with-block on the benchmark's one CPU."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.path = os.path.join(runner.work, "meter.json")
        self.samples: list[tuple[float, float]] = []

    def __enter__(self) -> "Meter":
        self.pid = os.posix_spawn(sys.executable, [sys.executable, "-c", speed.METER_CODE, self.path],
                                  self.runner.env)
        return self

    def __exit__(self, *exc) -> None:
        os.kill(self.pid, signal.SIGTERM)
        os.waitpid(self.pid, 0)
        if os.path.exists(self.path):
            self.samples = [tuple(s) for s in json.loads(_read_and_remove(self.path))]

    def mean(self, start: float, end: float) -> float | None:
        """Mean sample time between start and end, on the perf_counter clock."""
        times = [d for t, d in self.samples if start <= t < end]
        return statistics.fmean(times) if times else None


def _checked(check, *args) -> list[str]:
    """Run an output check; a check that raises (missing or malformed
    output) counts as a failed operation instead of ending the run."""
    try:
        return check(*args)
    except Exception as e:
        return [f"check raised {e!r}"]


def _read_and_remove(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        text = f.read()
    os.remove(path)
    return text


# ------------------------------------------------------------- workloads


class CliWorkload:
    """A workload of certflight CLI calls; subclasses build the ops."""

    setup_code = SETUP
    speed_kind: str

    def __init__(self, rng: random.Random, work: str):
        self.work = work
        self.props: dict = {}
        self.ops: list[Op] = self.build(rng)

    def build(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    @property
    def pass_len(self) -> int:
        return len(self.ops)

    def _run(self, runner: Runner, i: int, trace_out: str | None) -> Result:
        op = self.ops[i % len(self.ops)]
        if trace_out is None:
            argv = ["-c", ENTRY] + op.args
        else:
            argv = [CHILD, "cli", trace_out, str(i)] + op.args
        start = perf_counter()
        wall, code, rss, stdout = runner.spawn(argv)
        problems = [f"exit code {code}"] if code != 0 else _checked(op.check, stdout)
        return Result(wall, op.items, problems, rss, start_s=start)

    def timed(self, runner: Runner, seconds: float) -> list[Result]:
        """Closed loop of operations for `seconds`, each followed by a speed
        probe or, for the meter, timed while the meter runs."""
        if self.speed_kind == speed.METER:
            with Meter(runner) as meter:
                results = self._loop(runner, seconds, lambda: None)
            for r in results:
                r.calib_s = meter.mean(r.start_s, r.start_s + r.wall_s)
            return results
        return self._loop(runner, seconds, lambda: runner.speed_probe(self.speed_kind))

    def _loop(self, runner: Runner, seconds: float, probe) -> list[Result]:
        results = []
        deadline = perf_counter() + seconds
        while not results or perf_counter() < deadline:
            result = self._run(runner, len(results), None)
            result.calib_s = probe()
            results.append(result)
        return results

    def one_pass(self, runner: Runner, trace_dir: str | None) -> tuple[list[Result], list[str]]:
        results, traces = [], []
        for i in range(len(self.ops)):
            trace_out = None if trace_dir is None else os.path.join(trace_dir, f"op{i}.json")
            results.append(self._run(runner, i, trace_out))
            if trace_out is not None and os.path.exists(trace_out):
                traces.append(trace_out)
        return results, traces


class SweepNoisy(CliWorkload):
    speed_kind = speed.METER

    def build(self, rng):
        out = os.path.join(self.work, "sweep.csv")
        rows = len(inputs.sweep_rows_expected())
        self.props = {"rows": rows, "trials": inputs.SWEEP_TRIALS,
                      "size_range_kb": [inputs.SWEEP_SIZES[0], inputs.SWEEP_SIZES[-1]],
                      "noise_draws": rows * inputs.SWEEP_TRIALS}
        return [Op(inputs.sweep_argv(rng, out), rows,
                   lambda stdout: checks.check_sweep(_read_and_remove(out)))]


class AnalyzeZeek(CliWorkload):
    setup_code = SETUP_ASN
    speed_kind = speed.METER

    def build(self, rng):
        log = os.path.join(self.work, "ssl.log")
        out = os.path.join(self.work, "analyze.json")
        series = os.path.join(self.work, "series.csv")
        tally = inputs.zeek_log(rng, log)
        self.props = tally.properties()

        def check(stdout):
            payload = json.loads(_read_and_remove(out))
            return checks.check_analyze(payload, tally, _read_and_remove(series))

        args = ["analyze", "--logs", log, "--out", out, "--series", series]
        return [Op(args, tally.data_lines, check)]


class CliTestbed(CliWorkload):
    speed_kind = speed.START

    def build(self, rng):
        ladder = inputs.forge_ladder(rng)
        self.props = {"chains": len(ladder),
                      "size_range_kb": [min(c["size_kb"] for c in ladder),
                                        max(c["size_kb"] for c in ladder)],
                      "certs_per_pass": sum(len(c["certs"]) for c in ladder)}
        ops = []
        for i, chain in enumerate(ladder):
            out_dir = os.path.join(self.work, f"chain{i}")
            chain_args = ["--scheme", chain["scheme"]] + chain["flags"]

            def check_forge(stdout, chain=chain, out_dir=out_dir):
                problems = checks.check_forge(chain, out_dir)
                shutil.rmtree(out_dir, ignore_errors=True)
                return problems

            ops.append(Op(["forge"] + chain_args + ["--out-dir", out_dir], 1, check_forge))
            ops.append(Op(
                ["estimate"] + chain_args + ["--rtt", f"{chain['rtt_ms']:g}",
                                             "--stack", chain["stack"], "--format", "json"],
                1, lambda stdout, chain=chain: checks.check_estimate(chain, stdout)))
        return ops


class FlightScan:
    """find_thresholds + compute_regions through the Python API, in one worker."""

    setup_code = SETUP
    speed_kind = speed.LOOP

    def __init__(self, rng: random.Random, work: str):
        self.work = work
        self.models = inputs.flight_models(rng)
        self.models_path = os.path.join(work, "models.json")
        with open(self.models_path, "w", encoding="utf-8") as f:
            json.dump(self.models, f)
        fpc = [inputs.flights_per_call(m) for m in self.models]
        self.pass_len = len(self.models)
        self.props = {"models": len(self.models), "sizes_per_model": inputs.SCAN_SIZES_PER_MODEL,
                      "flights_per_call": statistics.fmean(fpc),
                      "flights_per_call_range": [min(fpc), max(fpc)]}

    def _scan(self, runner: Runner, seconds: float, trace_out: str | None) -> list[Result]:
        result_path = os.path.join(self.work, "scan.json")
        wall, code, rss, _ = runner.spawn([CHILD, "scan", self.models_path, result_path,
                                           str(seconds), trace_out or "-"])
        try:
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            scan = json.loads(_read_and_remove(result_path))
        except Exception as e:
            return [Result(wall, 0, [f"flight-scan worker failed: {e!r}"], rss)]
        return [Result(op["wall_s"], inputs.SCAN_SIZES_PER_MODEL,
                       _checked(lambda op=op: checks.check_flight_scan(
                           self.models[op["model"]], op["thresholds"], op["regions"])),
                       rss, op["calib_s"])
                for op in scan["ops"]]

    def timed(self, runner: Runner, seconds: float) -> list[Result]:
        return self._scan(runner, seconds, None)

    def one_pass(self, runner: Runner, trace_dir: str | None) -> tuple[list[Result], list[str]]:
        trace_out = None if trace_dir is None else os.path.join(trace_dir, "scan.json")
        results = self._scan(runner, 0, trace_out)
        return results, [trace_out] if trace_out and os.path.exists(trace_out) else []


WORKLOADS = {
    "sweep-noisy": SweepNoisy,
    "flight-scan": FlightScan,
    "analyze-zeek": AnalyzeZeek,
    "cli-testbed": CliTestbed,
}


# --------------------------------------------------------------- metrics


def tail(walls: list[float]) -> tuple[float, str]:
    """Highest order statistic with at least ten samples beyond it, and its
    percentile label. Below 21 samples that statistic would sit at or under
    the median, so the maximum is reported instead."""
    ordered = sorted(walls)
    n = len(ordered)
    if n < 21:
        return ordered[-1], "max"
    k = n - 11
    return ordered[k], f"p{100 * k / (n - 1):.1f}"


def setup_seconds(runner: Runner, code: str) -> tuple[list[float], list[float]]:
    """Fresh-process set-up times, each with the speed probe taken after it."""
    walls, cals = [], []
    for _ in range(SETUP_REPEATS):
        walls.append(runner.probe(["-c", code])[0])
        cals.append(runner.speed_probe(speed.START))
    return walls, cals


def throughput(walls: list[float], items: list[int], pass_len: int) -> float:
    """Items per second over each full pass through the workload's distinct
    operations, the median over passes. A median, unlike total items over
    total time, is not moved by one slow spell of the machine. A run shorter
    than one pass counts as one pass."""
    starts = range(0, len(walls) - pass_len + 1, pass_len)
    rates = [sum(items[i:i + pass_len]) / sum(walls[i:i + pass_len]) for i in starts]
    return statistics.median(rates or [sum(items) / sum(walls)])


def _summary(setup_walls: list[float], walls: list[float], items: list[int], pass_len: int) -> dict:
    tail_s, _ = tail(walls)
    return {
        "setup_s": statistics.median(setup_walls),
        "throughput_per_s": throughput(walls, items, pass_len),
        "op_p50_ms": statistics.median(walls) * 1000,
        "op_tail_ms": tail_s * 1000,
    }


def end_to_end(workload, runner: Runner, seconds: float, info: dict) -> tuple[dict, list[Result]]:
    setup_walls, setup_cals = setup_seconds(runner, workload.setup_code)
    results = workload.timed(runner, seconds)
    walls = [r.wall_s for r in results]
    items = [r.items for r in results]
    # Each time is scaled by the probe taken right after it: the machine's
    # speed changes within seconds, so the probe next to an operation tracks
    # it better than the run's median probe does (bench/README.md).
    f_setups = [speed.factor(speed.START, c) for c in setup_cals]
    factors = [speed.factor(workload.speed_kind, r.calib_s) for r in results]
    metrics = _summary([w * f for w, f in zip(setup_walls, f_setups)],
                       [w * f for w, f in zip(walls, factors)], items, workload.pass_len)
    metrics["peak_rss_mb"] = max((r.rss_kb for r in results if r.rss_kb is not None), default=0) / 1024
    info["ops"] = {"samples": len(walls), "tail_percentile": tail(walls)[1],
                   "passes": len(walls) // workload.pass_len,
                   "speed_factor": statistics.median(factors),
                   "setup_speed_factor": statistics.median(f_setups),
                   "unscaled": _summary(setup_walls, walls, items, workload.pass_len)}
    return metrics, results


def _merge_traces(paths: list[str], totals: dict, counters: dict, spans: list) -> None:
    for path in paths:
        with open(path, encoding="utf-8") as f:
            trace = json.load(f)
        os.remove(path)
        for name, (calls, busy, self_s) in trace["totals"].items():
            t = totals.setdefault(name, [0, 0.0, 0.0])
            t[0] += calls
            t[1] += busy
            t[2] += self_s
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
        spans.extend(trace["spans"])


def per_layer(workload, runner: Runner, seconds: float, spans_path: str,
              info: dict) -> tuple[dict, list[Result]]:
    """Untraced and traced passes alternate until `seconds` have passed;
    layer figures are per traced pass."""
    def median_probe(argv: list[str], printed: bool) -> float:
        runs = [runner.probe(argv) for _ in range(PROBE_REPEATS)]
        return statistics.median(float(out) if printed else wall for wall, out in runs)

    bare = median_probe(["-c", "pass"], False)
    numpy_s = median_probe(["-c", IMPORT_TIMER.format("numpy")], True)
    certflight_s = median_probe(["-c", IMPORT_TIMER.format("certflight.cli")], True)
    trace_dir = tempfile.mkdtemp(prefix="trace-", dir=workload.work)
    totals: dict = {}
    counters: dict = {}
    spans: list = []
    config_busy = []
    with_asn = "1" if workload.setup_code == SETUP_ASN else "0"
    for i in range(PROBE_REPEATS):
        trace_out = os.path.join(trace_dir, f"setup{i}.json")
        runner.probe([CHILD, "setup", trace_out, with_asn])
        setup_totals: dict = {}
        _merge_traces([trace_out], setup_totals, {}, spans)
        config_busy.append(setup_totals["config.resolve_config"][1])

    results, untraced_s, traced_s, passes = [], 0.0, 0.0, 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        plain, _ = workload.one_pass(runner, None)
        traced, paths = workload.one_pass(runner, trace_dir)
        _merge_traces(paths, totals, counters, spans)
        results += plain + traced
        untraced_s += sum(r.wall_s for r in plain)
        traced_s += sum(r.wall_s for r in traced)
        passes += 1

    def total(name: str, field: int) -> float:
        return totals.get(name, [0, 0.0, 0.0])[field] / passes

    def calls(name):
        return total(name, 0)

    def busy(name):
        return total(name, 1)

    def self_time(name):
        return total(name, 2)

    def counter(name):
        return counters.get(name, 0) / passes

    tla, tf, tt = "tls_log_analytics", "transport_flight", "ttfb_engine"
    records = counter(f"{tla}.parse_log_stream.records")
    extra_calls = calls(f"{tf}.extra_rtts")
    metrics = {
        "startup.python_bare_s": bare,
        "startup.import_numpy_s": numpy_s,
        "startup.import_certflight_s": certflight_s,
        "config.resolve_config.busy_s": statistics.median(config_busy),
        "cli.main.busy_s": busy("cli.main"),
        "cli.main.self_s": self_time("cli.main"),
        f"{tf}.extra_rtts.calls": extra_calls,
        f"{tf}.extra_rtts.busy_s": busy(f"{tf}.extra_rtts"),
        f"{tf}.find_thresholds.busy_s": busy(f"{tf}.find_thresholds"),
        f"{tf}.flights_per_call": counter(f"{tf}.flights") / extra_calls if extra_calls else 0.0,
        f"{tt}.sample_ttfb.calls": calls(f"{tt}.sample_ttfb"),
        f"{tt}.sample_ttfb.busy_s": busy(f"{tt}.sample_ttfb"),
        f"{tt}.sample_ttfb.draws": counter(f"{tt}.sample_ttfb.draws"),
        f"{tt}.estimate_ttfb.calls": calls(f"{tt}.estimate_ttfb"),
        f"{tt}.estimate_ttfb.busy_s": busy(f"{tt}.estimate_ttfb"),
        "sweep_runner.run_sweep.busy_s": busy("sweep_runner.run_sweep"),
        "sweep_runner.run_sweep.self_s": self_time("sweep_runner.run_sweep"),
        "sweep_runner.emit_csv.busy_s": busy("sweep_runner.emit_csv"),
        "sweep_runner.rows": counter("sweep_runner.rows"),
        "chain_model.effective_size_kb.calls": calls("chain_model.effective_size_kb"),
        f"{tla}.parse_log_stream.busy_s": busy(f"{tla}.parse_log_stream"),
        f"{tla}.parse_log_stream.records": records,
        f"{tla}.parse_log_stream.malformed": counter(f"{tla}.parse_log_stream.malformed"),
        f"{tla}.parse_log_stream.resumption_unknown":
            counter(f"{tla}.parse_log_stream.resumption_unknown"),
        f"{tla}.AsnMap.classify.calls": calls(f"{tla}.AsnMap.classify"),
        f"{tla}.AsnMap.classify.busy_s": busy(f"{tla}.AsnMap.classify"),
        f"{tla}.classify_per_record": calls(f"{tla}.AsnMap.classify") / records if records else 0.0,
        f"{tla}.aggregate_stats.self_s": self_time(f"{tla}.aggregate_stats"),
        f"{tla}.time_series.self_s": self_time(f"{tla}.time_series"),
        f"{tla}.series_csv.busy_s": busy(f"{tla}.series_csv"),
        f"{tla}.ip_repeat_share": workload.props.get("ip_repeat_share", 0.0),
        "cert_forge.forge_chain.busy_s": busy("cert_forge.forge_chain"),
        "cert_forge.pad_to_size.calls": calls("cert_forge.pad_to_size"),
        "cert_forge.pad_to_size.busy_s": busy("cert_forge.pad_to_size"),
        "cert_forge.parse_and_measure.busy_s": busy("cert_forge.parse_and_measure"),
        "cert_forge.write_chain.busy_s": busy("cert_forge.write_chain"),
        "cert_forge.bytes_forged": counter("cert_forge.bytes_forged"),
        "trace.overhead_ratio": traced_s / untraced_s,
    }
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as f:
        json.dump({"passes": passes, "spans": spans}, f)
    info["passes"] = passes
    info["spans_file"] = os.path.relpath(spans_path, ROOT)
    return metrics, results


# ------------------------------------------------------------------ main


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as f:
                head = f.read().strip()
        commit = head
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"cpu": cpu, "nproc": os.cpu_count(), "loadavg": os.getloadavg(),
            "python": platform.python_version(), "numpy": numpy_version, "commit": commit}


def declared_units() -> dict[str, dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def _on_term(signum, frame):
    # An exception, so that the running child is killed and waited for.
    raise SystemExit(f"stopped by signal {signum}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "certflight", "cli.py")):
        print(f"error: no certflight sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    units = declared_units()["per_layer" if args.trace else "end_to_end"]
    # One CPU for the benchmark and every process it starts: on the machine
    # it was tuned on each CPU's speed changes on its own, so a speed probe
    # only tracks an operation that ran on the same CPU (bench/README.md).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    signal.alarm(RUN_LIMIT_S)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": environment()}
    try:
        runner = Runner(work)
        workload = WORKLOADS[args.workload](random.Random(args.seed), work)
        info["properties"] = workload.props
        runner.spawn(["-c", workload.setup_code])  # warm-up: byte-compile certflight
        if args.trace:
            spans_path = os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.json")
            metrics, results = per_layer(workload, runner, args.seconds, spans_path, info)
        else:
            metrics, results = end_to_end(workload, runner, args.seconds, info)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        signal.alarm(0)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    failed = [r for r in results if r.problems]
    info["error_rate"] = len(failed) / len(results)
    info["problems"] = [p for r in failed[:3] for p in r.problems[:3]]
    info["environment"]["loadavg_end"] = os.getloadavg()
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
