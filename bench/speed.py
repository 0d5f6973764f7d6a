"""Machine-speed calibration.

On the shared machine this benchmark was tuned on, the same work runs
up to about 1.8x faster at some moments than at others, in CPU time as
much as in wall time (neighbours on the same cores), and each CPU's
speed changes on its own, within seconds. A run therefore keeps to one
CPU and scales each operation's time by reference / probe time, where
the probe time is taken on that CPU next to the operation. A program
change moves the scaled times; most of the machine's drift cancels. The
raw times are reported alongside.

The probe is never certflight code, and it is the kind of code the
operation spends its time in. Flight-scan models are a Python loop of
float powers and comparisons, and so is the loop probe, run in the
worker right after each model. Cli-testbed calls and set-up processes
are dominated by starting an interpreter and importing modules; their
probe is a bare `python -c pass` right after each. Sweep and analyze
calls are pure-Python loops over rows and records lasting seconds, too
long for a probe taken after them; their probe is the meter, a second
process that samples a few TSV-line parses every 10 ms while they run.
"""

from __future__ import annotations

from time import perf_counter

LOOP = "loop"
START = "start"
METER = "meter"

# Run as `python -c METER_CODE OUT`: every METER_PERIOD_S it times a few
# TSV-line splits, address parses and prefix-table probes, until SIGTERM,
# then writes [[start, seconds], ...] to OUT as JSON.
METER_PERIOD_S = 0.01
METER_CODE = f"""
import ipaddress, json, signal, sys, time
stop = []
signal.signal(signal.SIGTERM, lambda signum, frame: stop.append(signum))
table = {{(10 << 24) | (i << 16): i for i in range(256)}}
samples = []
due = time.perf_counter()
while not stop:
    start = time.perf_counter()
    for i in range(20):
        parts = f"{{i}}.5\\tC{{i:07x}}\\t10.{{i}}.{{i >> 4}}.{{i}}\\tT".split("\\t")
        value = int(ipaddress.ip_address(parts[2]))
        for plen in (24, 16, 8):
            if table.get(value & (((1 << plen) - 1) << (32 - plen))):
                break
    samples.append((start, time.perf_counter() - start))
    due = max(due + {METER_PERIOD_S}, time.perf_counter())
    time.sleep(max(0.0, due - time.perf_counter()))
with open(sys.argv[1], "w") as f:
    json.dump(samples, f)
"""

# Probe times seen in a fast spell on the machine the benchmark was tuned
# on (Intel Xeon, 2 vCPUs, Python 3.11). Only their ratio to a run's own
# probe times matters; they are fixed so that runs stay comparable.
REFERENCE_S = {LOOP: 0.003, START: 0.045, METER: 0.00017}


def _loop() -> float:
    start = perf_counter()
    growth = 1.7
    for i in range(4000):
        need = (i % 97) * 1000.0 + 4000.0
        flights = 1
        while 8000.0 * (growth**flights - 1) / (growth - 1) < need:
            flights += 1
    return perf_counter() - start


def loop_time() -> float:
    """Median of three runs of the reference loop, in seconds."""
    runs = sorted(_loop() for _ in range(3))
    return runs[1]


def factor(kind: str, probe_s: float | None) -> float:
    """Multiplier that scales the time of the operation a probe followed to
    the reference speed; 1 when there is no probe time (its worker failed)."""
    return REFERENCE_S[kind] / probe_s if probe_s is not None else 1.0
