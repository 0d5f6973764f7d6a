"""Span tracer for the traced benchmark run.

Wraps certflight's public functions through the module attributes their
callers look them up by, so nothing under src/ changes. Each wrapped
call pushes a frame; on return its duration is charged to the parent
frame, which gives every name a busy time (sum of durations) and a self
time (busy minus the time covered by wrapped callees).

Coarse calls are also kept as spans (name, start, end, parent, op id)
and written out at the end. Hot leaf functions, called up to millions of
times per run, are aggregated only: a span per call would cost more
memory than the work being measured.

Generators are timed by the time spent inside each resumption, not from
creation to exhaustion.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter


class Tracer:
    def __init__(self, op_id: int = 0):
        self.op_id = op_id
        self.totals: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.counters: dict[str, float] = {}
        self.spans: list[dict] = []
        self._stack: list[list] = []  # frames: [name, start, child_s, span or None]

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _new_span(self, name: str) -> dict:
        parent = next((f[3]["id"] for f in reversed(self._stack) if f[3] is not None), None)
        span = {"id": len(self.spans), "name": name, "start": perf_counter(), "end": None,
                "parent": parent, "op": self.op_id}
        self.spans.append(span)
        return span

    def _push(self, name: str, span: dict | None = None) -> list:
        frame = [name, perf_counter(), 0.0, span]
        self._stack.append(frame)
        return frame

    def _pop(self, frame: list, calls: int) -> float:
        end = perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        if self._stack:
            self._stack[-1][2] += duration
        total = self.totals.setdefault(frame[0], [0, 0.0, 0.0])
        total[0] += calls
        total[1] += duration
        total[2] += duration - frame[2]
        if frame[3] is not None:
            frame[3]["end"] = end
        return duration

    def wrap(self, name: str, fn, keep_span: bool, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._push(name, self._new_span(name) if keep_span else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pop(frame, 1)
            if on_return is not None:
                on_return(self, result, args)
            return result

        return traced

    def wrap_generator(self, name: str, fn, on_exhausted=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            inner = fn(*args, **kwargs)
            self.totals.setdefault(name, [0, 0.0, 0.0])[0] += 1
            span = self._new_span(name)
            span["busy"] = 0.0

            def resumptions():
                while True:
                    frame = self._push(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        break
                    finally:
                        span["busy"] += self._pop(frame, 0)
                    yield item
                span["end"] = perf_counter()
                if on_exhausted is not None:
                    on_exhausted(self, bound)

            return resumptions()

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"totals": self.totals, "counters": self.counters,
                       "spans": self.spans}, f)


def _patch(owner, attr: str, wrapped) -> None:
    """Rebind owner.attr and every certflight module alias of the same function."""
    original = getattr(owner, attr)
    targets = [(owner, attr)]
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("certflight") and mod is not owner:
            targets += [(mod, a) for a, v in vars(mod).items() if v is original]
    for obj, a in targets:
        setattr(obj, a, wrapped)


def _count_flights(tracer, result, args):
    tracer.count("transport_flight.flights", result + 1)


def _count_draws(tracer, result, args):
    _, noise, trials = args
    if noise.kind != "none" and noise.std_ms > 0:
        tracer.count("ttfb_engine.sample_ttfb.draws", trials)


def _count_rows(tracer, result, args):
    tracer.count("sweep_runner.rows", len(result))


def _count_forged(tracer, result, args):
    tracer.count("cert_forge.bytes_forged", result.total_bytes)


def _count_parsed(tracer, bound):
    stats = bound.get("stats")
    if stats is not None:
        for field in ("records", "malformed", "resumption_unknown"):
            tracer.count(f"tls_log_analytics.parse_log_stream.{field}", getattr(stats, field))


SPAN, AGGREGATE = True, False


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics name."""
    import certflight.cli  # noqa: F401  loaded first so its name aliases get patched too
    from certflight import (cert_forge, chain_model, config, sweep_runner,
                            tls_log_analytics as tla, transport_flight, ttfb_engine)

    layers = [
        (config, "resolve_config", "config.resolve_config", SPAN, None),
        (transport_flight, "extra_rtts", "transport_flight.extra_rtts", AGGREGATE, _count_flights),
        (transport_flight, "find_thresholds", "transport_flight.find_thresholds", SPAN, None),
        (ttfb_engine, "sample_ttfb", "ttfb_engine.sample_ttfb", AGGREGATE, _count_draws),
        (ttfb_engine, "estimate_ttfb", "ttfb_engine.estimate_ttfb", AGGREGATE, None),
        (chain_model, "effective_size_kb", "chain_model.effective_size_kb", AGGREGATE, None),
        (sweep_runner, "run_sweep", "sweep_runner.run_sweep", SPAN, _count_rows),
        (sweep_runner, "emit_csv", "sweep_runner.emit_csv", SPAN, None),
        (tla.AsnMap, "classify", "tls_log_analytics.AsnMap.classify", AGGREGATE, None),
        (tla, "aggregate_stats", "tls_log_analytics.aggregate_stats", SPAN, None),
        (tla, "time_series", "tls_log_analytics.time_series", SPAN, None),
        (tla, "series_csv", "tls_log_analytics.series_csv", SPAN, None),
        (cert_forge, "forge_chain", "cert_forge.forge_chain", SPAN, _count_forged),
        (cert_forge, "pad_to_size", "cert_forge.pad_to_size", AGGREGATE, None),
        (cert_forge, "parse_and_measure", "cert_forge.parse_and_measure", AGGREGATE, None),
        (cert_forge, "write_chain", "cert_forge.write_chain", SPAN, None),
    ]
    for owner, attr, name, keep_span, on_return in layers:
        _patch(owner, attr, tracer.wrap(name, getattr(owner, attr), keep_span, on_return))
    _patch(tla, "parse_log_stream", tracer.wrap_generator(
        "tls_log_analytics.parse_log_stream", tla.parse_log_stream, _count_parsed))
