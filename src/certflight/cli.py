"""Command-line interface.

Subcommands: estimate, sweep, thresholds, regions, savings, forge,
analyze, calibrate. Configuration comes from --config (or the
CERTFLIGHT_CONFIG environment variable), and the flags in _CONFIG_FLAGS
override config values; main applies them, so a command reads only cfg, and
checks the arguments in _FIELD_FLAGS against their fields' declared bounds.
Every refusal of a value names where the value came from (see _source): the
flags given, then the config file and the keys it changed. A command imports the
code that only it runs (the sweep, the table writers and readers, the forge,
the log analytics) inside its own function, so that estimate, savings and
forge load no sweep or table code, and no command loads statistics
or socket (see tls_log_analytics and ttfb_engine); the record types generate
no code at import (see errors.Record). Each cmd_* checks its input and returns
an Output; main alone opens --out (or stdout) and the side file and writes
them, forge's chain under --out-dir included, so a refused input writes
nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
from operator import attrgetter

from . import chain_model
from .chain_model import ChainSpec, SizeOptimizer, chain_size_kb, check_size_kb, resolve_scheme
from .config import Config, config_path, resolve_config
from .errors import ConfigError, blame, lookup
from .transport_flight import ANALYTIC, EMPIRICAL, find_thresholds, grid_points
from .ttfb_engine import (NetworkPath, SavingsEstimate, StackProfile, calibrate_stack_profile,
                          estimate_savings, estimate_ttfb, resolve_stack)

# Short names for the default optimizers, in DEFAULT_OPTIMIZERS order.
_OPTIMIZER_ALIASES = dict(zip(("mtc1", "mtc2", "cdn25", "cdn40"), chain_model.DEFAULT_OPTIMIZERS))
_OPTIMIZER_ALIASES["identity"] = SizeOptimizer(chain_model.IDENTITY)


def _items(spec: str, read) -> tuple:
    """The comma-separated items of a list flag, each stripped and read by read;
    empty items are dropped."""
    return tuple(read(item) for item in map(str.strip, spec.split(",")) if item)


def _optimizer(name: str) -> SizeOptimizer:
    return lookup(_OPTIMIZER_ALIASES, name, "optimizer")


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{text.strip()!r} is not a number") from None


def _sizes(text: str) -> dict:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{text!r} is not start:end:step")
    return dict(zip(("size_start_kb", "size_end_kb", "size_step_kb"), map(_number, parts)))


# Each flag that sets config fields, by dest: its section of Config (None for Config itself)
# and its value's reader into fields. main applies them in this order, so --mode wins.
_CONFIG_FLAGS = {
    "seed": ("sweep", lambda seed: {"seed": seed}),
    "trials": ("sweep", lambda trials: {"trials": trials}),
    "stacks": ("sweep", lambda text: {"stacks": _items(text, str)}),
    "rtts": ("sweep", lambda text: {"rtts_ms": _items(text, _number)}),
    "sizes": ("sweep", _sizes),
    "optimizers": ("sweep", lambda text: {"optimizers": _items(text, _optimizer)}),
    "thresholds": ("flight", lambda text: {"empirical_thresholds_kb": _items(text, _number),
                                           "mode": EMPIRICAL}),
    "mode": ("flight", lambda mode: {"mode": mode}),
    "asn_map": (None, lambda path: {"asn_map_csv": path}),
    "cdn_asns": (None, lambda path: {"cdn_asn_file": path}),
    "cloud_asns": (None, lambda path: {"cloud_asn_file": path}),
}

# Each command argument that sets a bounded record field, by dest ("command dest" where
# commands differ): the record and the field, whose declared bound (errors.Record) main checks
# a given value against before the command runs. estimate's and savings' --size-kb is no field.
_FIELD_FLAGS = {
    "rtt": (NetworkPath, "rtt_ms"),
    "intermediates": (ChainSpec, "intermediates"),
    "rate": (SavingsEstimate, "resumption_rate"),
    "resumed_base": (StackProfile, "resumed_base_ms"),
    "forge size_kb": (ChainSpec, "explicit_size_kb"),
}

# Each command argument, by dest, and the config keys its value falls back to without its flag;
# "flight" and "noise" stand for the keys of those sections that no argument sets.
_KEYS = {
    "stacks": ("sweep.stacks",),
    "rtts": ("sweep.rtts_ms",),
    "sizes": ("sweep.size_start_kb", "sweep.size_end_kb", "sweep.size_step_kb"),
    "trials": ("sweep.trials",),
    "optimizers": ("sweep.optimizers",),
    "step_kb": ("sweep.size_step_kb",),
    "max_kb": ("sweep.size_end_kb",),
    "mode": ("flight.mode",),
    "thresholds": ("flight.empirical_thresholds_kb",),
    "flight": ("kb_bytes", "flight.iw_bytes", "flight.growth_factor",
               "flight.handshake_overhead_bytes"),
    "noise": ("noise.kind", "noise.std_ms"),
}
_DEFAULTS = Config()


def _setting(cfg: Config, key: str):
    """The value at a config key; a profile's, such as schemes.Big, is None where the
    table lacks it."""
    section, _, name = key.partition(".")
    value = getattr(cfg, section)
    if not name:
        return value
    return value.get(name) if type(value) is dict else getattr(value, name)


def _source(args, cfg: Config, *dests) -> str:
    """Where dests' values came from, for a refusal: each flag the command line gave, then the
    config file once, with the key of each other dest that the file changed from its default.
    A dest that is no argument of the command is a config key itself, such as schemes.Big."""
    given = [d for d in dests if (v := getattr(args, d, None)) is not None and v is not False]
    keys = [key for d in dests if d not in given
            for key in _KEYS.get(d, () if hasattr(args, d) else (d,))
            if _setting(cfg, key) != _setting(_DEFAULTS, key)]
    path = config_path(args.config)
    return ", ".join([f"--{d.replace('_', '-')}" for d in given]
                     + ([f"{path}: config {', '.join(keys)}"] if path and keys else []))


def _chain(args, cfg: Config) -> tuple[ChainSpec, tuple]:
    """The chain that the chain flags describe, and the dests its size comes from: --size-kb
    if given, else --scheme (ECDSA when not given), --mtc or --intermediates (1 when not
    given), and the scheme's profile in the config."""
    name = "ECDSA" if args.scheme is None else args.scheme
    with blame(_source(args, cfg, "scheme", f"schemes.{chain_model.scheme_key(name)}")):
        scheme = resolve_scheme(name, cfg.schemes)
    spec = ChainSpec(scheme, intermediates=1 if args.intermediates is None else args.intermediates,
                     mtc=args.mtc, explicit_size_kb=args.size_kb)
    if args.size_kb is not None:
        return spec, ("size_kb",)
    return spec, ("scheme", "mtc" if args.mtc else "intermediates", f"schemes.{scheme.name}")


def _model(args, cfg: Config) -> tuple[StackProfile, NetworkPath, float, str]:
    """The stack, the path at --rtt and the chain's size in KB (--size-kb may be 0 here) for
    estimate and savings, each resolved under its source, and the source of every value read."""
    name = "ClassicalSim" if args.stack is None else args.stack
    profile = ("stack", f"stacks.{name}")
    with blame(_source(args, cfg, *profile)):
        stack = resolve_stack(name, cfg.stacks)
    if args.size_kb is not None:
        with blame(_source(args, cfg, "size_kb")):
            chain, size_kb = ("size_kb",), check_size_kb(args.size_kb)
    else:
        spec, chain = _chain(args, cfg)
        with blame(_source(args, cfg, *chain)):
            size_kb = chain_size_kb(spec)
    return (stack, NetworkPath(rtt_ms=args.rtt, flight=cfg.flight), size_kb,
            _source(args, cfg, *profile, "rtt", *chain, "mode", "thresholds", "flight"))


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet
        return os.path.realpath(a) == os.path.realpath(b)


@contextlib.contextmanager
def _outputs(table_path: str | None, side_path: str | None):
    """The table's file (stdout without table_path) and the side file (None without
    side_path), both opened before anything is written. Two paths that name one file
    are refused before either opens. If the table's file cannot be opened, a side
    file that existed keeps its contents and one made here is removed."""
    if table_path and side_path and _same_file(table_path, side_path):
        raise ConfigError(f"{table_path} and {side_path} name the same file")
    created = side_path and not os.path.exists(side_path)
    if side_path:
        open(side_path, "a", encoding="utf-8").close()  # a bad side path fails here, unemptied
    try:
        table = (open(table_path, "w", encoding="utf-8") if table_path
                 else contextlib.nullcontext(sys.stdout))
    except OSError:
        if created:
            os.remove(side_path)
        raise
    with table as f, (open(side_path, "w", encoding="utf-8") if side_path
                      else contextlib.nullcontext()) as side:
        yield f, side


class Output:
    """A command's result for main to write: write(f) writes the body to f (--out or
    stdout), side is the side file's (path, write), notice follows an --out file.
    No command writes before main calls write."""

    def __init__(self, write, side=(None, None), notice="", code=0):
        self.write, self.side, self.notice, self.code = write, side, notice, code


def _document(payload):
    """payload as a JSON document, rendered now: a non-finite number, which JSON
    cannot hold, is refused before any output opens."""
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    return lambda f: f.write(text)


# -------------------------------------------------------------- commands


def cmd_estimate(args, cfg: Config) -> Output:
    stack, path, size_kb, source = _model(args, cfg)
    with blame(source):
        est = estimate_ttfb(stack, path, size_kb, resumed=args.resumed)
    if args.format == "json":
        return Output(_document({
            "stack": stack.name,
            "rtt_ms": args.rtt,
            "chain_size_kb": size_kb,
            "resumed": args.resumed,
            "extra_rtts": est.extra_rtts,
            "t_tcp_ms": est.t_tcp_ms,
            "t_tls_ms": est.t_tls_ms,
            "t_request_response_ms": est.t_request_response_ms,
            "total_ms": est.total_ms,
        }))
    breakdown = (f"t_tcp_ms={est.t_tcp_ms} t_tls_ms={est.t_tls_ms} "
                 f"t_request_response_ms={est.t_request_response_ms}"
                 if est.breakdown_allocated() else "breakdown unallocatable (base_flights < 2)")
    return Output(lambda f: f.write(
        f"stack={stack.name} chain_size_kb={size_kb} rtt_ms={args.rtt} "
        f"resumed={str(args.resumed).lower()}\n  {breakdown}\n"
        f"  extra_rtts={est.extra_rtts} total_ms={est.total_ms}\n"
    ))


def cmd_sweep(args, cfg: Config) -> Output:
    from . import sweep_runner
    from .tables import write_json

    plan = cfg.sweep
    profiles = [f"stacks.{name}" for name in plan.stacks]
    # A stack the table lacks is refused here, naming the flag or the file that listed it.
    with blame(_source(args, cfg, "stacks", *profiles)):
        for name in plan.stacks:
            lookup(cfg.stacks, name, "stack")
    sweep = (plan, cfg.stacks, cfg.flight, cfg.noise)
    # sweep_csv, sweep_records and sweep_gnuplot raise every input error when called. A row
    # is a pure function of its key, so the curves' own pass draws the table's values.
    with blame(_source(args, cfg, "stacks", *profiles, "rtts", "sizes", "trials", "optimizers",
                       "mode", "thresholds", "noise", "flight")):
        if args.format == "json":
            rows = sweep_runner.sweep_records(*sweep)
            write = lambda f: write_json(f, sweep_runner.sweep_header(bool(plan.optimizers)), rows)
        else:
            chunks = sweep_runner.sweep_csv(*sweep)
            write = lambda f: f.writelines(chunks)
        curves = sweep_runner.sweep_gnuplot(*sweep) if args.gnuplot else None
    sizes = grid_points(plan.size_start_kb, plan.size_end_kb, plan.size_step_kb)
    count = len(plan.stacks) * len(plan.rtts_ms) * (1 + len(plan.optimizers)) * sizes
    return Output(write, (args.gnuplot, lambda f: f.writelines(curves)),
                  f"wrote {count} rows to {args.out}")


def cmd_thresholds(args, cfg: Config) -> Output:
    max_kb = args.max_kb if args.max_kb is not None else cfg.sweep.size_end_kb
    step_kb = args.step_kb if args.step_kb is not None else cfg.sweep.size_step_kb
    with blame(_source(args, cfg, "step_kb", "max_kb")):
        found = find_thresholds(cfg.flight, max_kb, step_kb)
    note = None
    if cfg.flight.mode == ANALYTIC and list(found) != list(cfg.flight.empirical_thresholds_kb):
        note = (
            f"analytic thresholds {found} differ from the configured empirical "
            f"thresholds {list(cfg.flight.empirical_thresholds_kb)}"
        )
    if args.format == "json":
        return Output(_document({
            "mode": cfg.flight.mode,
            "max_kb": max_kb,
            "step_kb": step_kb,
            "thresholds_kb": found,
            "empirical_thresholds_kb": list(cfg.flight.empirical_thresholds_kb),
            "note": note,
        }))
    from .tables import write_csv

    def write(f):
        write_csv(f, ("index", "threshold_kb"), enumerate(found))
        f.write(f"# {note}\n" if note else "")
    return Output(write)


def cmd_regions(args, cfg: Config) -> Output:
    from .sweep_runner import REGION_FIELDS, compute_regions
    from .tables import write_csv, write_json

    thresholds = list(cfg.flight.empirical_thresholds_kb)
    # --optimizers sets the sweep plan's; without it, regions takes all four defaults, and
    # the file's sweep.optimizers gives it nothing.
    optimizers, dests = ((cfg.sweep.optimizers, ("thresholds", "optimizers"))
                         if args.optimizers is not None
                         else (chain_model.DEFAULT_OPTIMIZERS, ("thresholds",)))
    with blame(_source(args, cfg, *dests)):
        regions = compute_regions(thresholds, list(optimizers))
        for r in regions:
            if r.upper_kb_exact <= r.lower_kb:
                raise ConfigError(f"threshold {r.threshold_kb} KB: "
                                  f"the {r.optimizer} region is empty")
    write = write_json if args.format == "json" else write_csv
    return Output(lambda f: write(f, REGION_FIELDS, map(attrgetter(*REGION_FIELDS), regions)))


def cmd_savings(args, cfg: Config) -> Output:
    stack, path, size_kb, source = _model(args, cfg)
    with blame(source):
        est = estimate_savings(stack, path, size_kb, args.rate)
    if args.format == "json":
        return Output(_document(est.asdict()))
    return Output(lambda f: f.write(
        f"rtt_ms={est.rtt_ms} chain_size_kb={est.chain_size_kb} "
        f"rate={est.resumption_rate} full_ms={est.full_ms} resumed_ms={est.resumed_ms} "
        f"expected_savings_ms={est.expected_savings_ms}\n"
    ))


def cmd_forge(args, cfg: Config) -> Output:
    from . import cert_forge

    spec, dests = _chain(args, cfg)
    with blame(_source(args, cfg, *dests, "kb_bytes")):
        chain = cert_forge.forge_chain(spec, kb_bytes=cfg.kb_bytes)
    reports = [cert_forge.parse_and_measure(cert.der) for cert in chain.certs]
    certs = list(zip(chain.certs, reports))
    ok = all(len(c.der) == c.target_bytes and r.well_formed for c, r in certs)
    lines = [f"{c.role}: target={c.target_bytes} actual={len(c.der)} "
             f"padding={r.padding_bytes} well_formed={str(r.well_formed).lower()}\n"
             for c, r in certs]
    lines.append(f"total_bytes={chain.total_bytes} dir={args.out_dir}\n")

    def write(f):
        cert_forge.write_chain(chain, args.out_dir, reports)
        f.writelines(lines)
    return Output(write, code=0 if ok else 1)


def cmd_analyze(args, cfg: Config) -> Output:
    from . import tls_log_analytics as tla
    from .tables import write_csv

    asn_map = tla.AsnMap.from_files(*cfg.resolve_asn_paths())
    stats = tla.ParseStats()
    logs = (contextlib.nullcontext(sys.stdin) if args.logs == "-"
            else open(args.logs, encoding="utf-8", errors="replace"))
    with blame("<stdin>" if args.logs == "-" else args.logs), logs as f:
        series = tla.time_series(tla.parse_log_stream(f, stats=stats), asn_map)
    aggregated = tla.class_totals(series)
    classes = [aggregated[c].to_dict() for c in tla.ENDPOINT_CLASSES]
    if args.format == "csv":
        write = lambda f: write_csv(f, classes[0], (row.values() for row in classes))
    else:
        write = _document({
            "classes": dict(zip(tla.ENDPOINT_CLASSES, classes)),
            "parse": stats.asdict(),
            "months": {c: [m for m, _ in pts] for c, pts in series.items()},
            # Every bucket holds at least one record, so both of its rates are defined.
            "correlation_tls13_vs_resumption": {
                cls: tla.rate_correlation((s.tls13_adoption, s.resumption_rate_all)
                                          for _, s in points)
                for cls, points in series.items()
                if len(points) >= 3
            },
        })
    return Output(write, (args.series, lambda f: tla.series_csv(f, series)),
                  f"analyzed {stats.records} records ({stats.malformed} malformed) -> {args.out}")


def _point(line: str) -> tuple[float, float]:
    """One rtt_ms,ttfb_ms row (cells after the second ignored) as two finite numbers."""
    from .tables import csv_cells

    try:
        rtt, ttfb = map(float, csv_cells(line)[:2])
        if math.isfinite(rtt) and math.isfinite(ttfb):
            return rtt, ttfb
    except ValueError:
        pass
    raise ValueError(f"{line.strip()!r} is not an rtt_ms,ttfb_ms row of two finite numbers")


def cmd_calibrate(args, cfg: Config) -> Output:
    from .tables import read_rows

    pts = list(read_rows(args.csv, _point, header=True))
    with blame(args.csv):
        profile = calibrate_stack_profile(
            pts, penalty_rtts=args.penalty, name=args.name, resumed_base_ms=args.resumed_base
        )
    if args.format == "text":
        return Output(lambda f: f.write(
            f"name={profile.name} base_ms={profile.base_ms:.4f} "
            f"base_flights={profile.base_flights:.4f} "
            f"resumed_base_ms={profile.resumed_base_ms:.4f} points={len(pts)}\n"
        ))
    return Output(_document({
        "name": profile.name,
        "base_ms": profile.base_ms,
        "base_flights": profile.base_flights,
        "resumed_base_ms": profile.resumed_base_ms,
        "points": len(pts),
        "penalty_rtts": args.penalty,
    }))


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="certflight",
        description="TTFB vs certificate chain size: estimates, sweeps, "
        "thresholds, size-exact forged chains, and TLS log analytics.",
    )
    parser.add_argument("--config", help="path to a JSON config file "
                        "(default: $CERTFLIGHT_CONFIG if set)")
    parser.add_argument("--seed", type=int, help="override sweep.seed, the seed of "
                        "each sweep row's draws")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_chain_flags(p):
        # None where not given, so that a refusal names only the flags given (see _source).
        p.add_argument("--scheme", default=None)
        p.add_argument("--intermediates", type=int, default=None)
        p.add_argument("--mtc", action="store_true")
        p.add_argument("--size-kb", type=float, default=None,
                       help="explicit chain size, overrides scheme sizing")

    def add_flight_flags(p):
        p.add_argument("--mode", choices=[ANALYTIC, EMPIRICAL], default=None)
        p.add_argument("--thresholds", default=None,
                       help="comma-separated empirical thresholds in KB")

    p = sub.add_parser("estimate", help="TTFB estimate for one configuration")
    add_chain_flags(p)
    add_flight_flags(p)
    p.add_argument("--rtt", type=float, required=True)
    p.add_argument("--stack", default=None)
    p.add_argument("--resumed", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep", help="TTFB over a (stack, rtt, size) grid")
    add_flight_flags(p)
    p.add_argument("--stacks", default=None, help="comma-separated stack names")
    p.add_argument("--rtts", default=None, help="comma-separated RTTs in ms")
    p.add_argument("--sizes", default=None, help="size grid as start:end:step in KB")
    p.add_argument("--trials", type=int, default=None,
                   help="trials summarized per noisy row (default: configured)")
    p.add_argument("--optimizers", default=None,
                   help="comma-separated: mtc1,mtc2,cdn25,cdn40,identity")
    p.add_argument("--out", default=None, help="write table here instead of stdout")
    p.add_argument("--gnuplot", default=None, help="also write gnuplot blocks here")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("thresholds", help="chain sizes where extra round trips start")
    add_flight_flags(p)
    p.add_argument("--max-kb", type=float, default=None)
    p.add_argument("--step-kb", type=float, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("regions", help="chain sizes each optimizer rescues")
    p.add_argument("--thresholds", default=None,
                   help="comma-separated thresholds in KB (default: configured)")
    p.add_argument("--optimizers", default=None,
                   help="comma-separated: mtc1,mtc2,cdn25,cdn40 (default: all)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("savings", help="expected TTFB saved by resumption")
    add_flight_flags(p)
    p.add_argument("--rtt", type=float, required=True)
    p.add_argument("--size-kb", type=float, required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--stack", default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_savings)

    p = sub.add_parser("forge", help="write size-exact DER/PEM chains")
    add_chain_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_forge)

    p = sub.add_parser("analyze", help="aggregate a TLS connection log")
    p.add_argument("--logs", required=True, help="log file, or - for stdin")
    p.add_argument("--asn-map", default=None, help="network,asn,org CSV")
    p.add_argument("--cdn-asns", default=None)
    p.add_argument("--cloud-asns", default=None)
    p.add_argument("--out", default=None, help="write stats here instead of stdout")
    p.add_argument("--series", default=None, help="write monthly series CSV here")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("calibrate", help="fit a stack profile from rtt,ttfb CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--penalty", type=float, default=0.0,
                   help="extra RTTs already charged to the measured chain")
    p.add_argument("--name", default="calibrated")
    p.add_argument("--resumed-base", type=float, default=None)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_calibrate)

    # argparse takes a token that begins with "-" for an option unless it matches
    # _negative_number_matcher, digits only, so `--rtt -inf` would end with "expected one
    # argument". Matching every token that names none of the parser's options makes
    # `--flag TOKEN` read as `--flag=TOKEN`; such a token anywhere else is still refused.
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile("-")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.config)
        # The table's dests first, in its order (None where not given), then the other arguments.
        for dest, value in {**dict.fromkeys(_CONFIG_FLAGS), **vars(args)}.items():
            if value is None:
                continue
            with blame(_source(args, cfg, dest)):
                if dest in _CONFIG_FLAGS:
                    section, read = _CONFIG_FLAGS[dest]
                    fields = read(value)
                    if section:  # rebuilt, so that the section's own checks refuse a bad value
                        fields = {section: getattr(cfg, section).replace(**fields)}
                    cfg = cfg.replace(**fields)
                elif isinstance(value, float) and not math.isfinite(value):
                    raise ConfigError(f"{value!r} is not a finite number")
                elif bounded := _FIELD_FLAGS.get(f"{args.command} {dest}", _FIELD_FLAGS.get(dest)):
                    record, field = bounded
                    record.check_field(field, value)
        result = args.func(args, cfg)
        out = getattr(args, "out", None)
        side_path, write_side = result.side
        with _outputs(out, side_path) as (f, side):
            result.write(f)
            if side:
                write_side(side)
        if out:
            print(result.notice)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return result.code
    except BrokenPipeError:
        # The reader closed stdout early (`| head`): its choice, not a failure.
        # stdout now writes to devnull, so the flush at exit stays quiet.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as e:
        # Every certflight error is a ValueError: bad input ends with one line.
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        # A run too large for this machine's memory ends with one line too.
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
