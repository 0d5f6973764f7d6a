"""Output checks. Each returns a list of problems; empty means correct.

Checks compare against the benchmark's own reference (inputs.py), never
against pinned sampled values: a sweep mean must sit within 7 sigma/sqrt(n)
of the noise-free TTFB and a std inside a 7-sigma chi-square band, so a
change to how noise is sampled passes while a wrong model does not.
"""

from __future__ import annotations

import base64
import csv
import io
import json
import math
import os

import inputs

_Z = 7.0


def _chi2_band(dof: int) -> tuple[float, float]:
    """Wilson-Hilferty quantiles of chi-square(dof) at +-_Z sigma."""
    a = 2 / (9 * dof)
    return tuple(dof * (1 - a + z * math.sqrt(a)) ** 3 for z in (-_Z, _Z))


def check_sweep(csv_text: str) -> list[str]:
    problems = []
    reader = csv.reader(io.StringIO(csv_text))
    header = next(reader, None)
    want_header = ["stack", "rtt_ms", "size_kb", "mean_ms", "std_ms", "extra_rtts", "optimizer"]
    if header != want_header:
        return [f"header {header} != {want_header}"]
    rows = list(reader)
    expected = inputs.sweep_rows_expected()
    if len(rows) != len(expected):
        problems.append(f"{len(rows)} rows, expected {len(expected)}")
    n = inputs.SWEEP_TRIALS
    sigma = inputs.NOISE_STD_MS
    mean_tol = _Z * sigma / math.sqrt(n)
    lo, hi = _chi2_band(n - 1)
    for i, (row, (stack, rtt, size, label, wire)) in enumerate(zip(rows, expected)):
        extra = inputs.extra_rtts(wire)
        try:
            got = (row[0], float(row[1]), float(row[2]), row[6], int(row[5]))
            mean, std = float(row[3]), float(row[4])
        except (IndexError, ValueError) as e:
            problems.append(f"row {i}: unreadable ({e})")
            continue
        if got != (stack, rtt, size, label, extra):
            problems.append(f"row {i}: {got} != {(stack, rtt, size, label, extra)}")
            continue
        truth = inputs.ttfb_ms(stack, rtt, wire)
        if not abs(mean - truth) <= mean_tol:
            problems.append(f"row {i}: mean {mean} not within {mean_tol} of {truth}")
        if not lo <= (n - 1) * std**2 / sigma**2 <= hi:
            problems.append(f"row {i}: std {std} outside chi-square band")
        if len(problems) > 5:
            break
    return problems


def check_flight_scan(model: dict, thresholds: list[float], regions: list[list]) -> list[str]:
    """thresholds from find_thresholds; regions as (optimizer, threshold, upper_exact)."""
    step = inputs.SCAN_STEP_KB
    want = inputs.scan_threshold_indices(model)
    if len(thresholds) != len(want) or any(
        abs(t - k * step) > 1e-6 for t, k in zip(thresholds, want)
    ):
        return [f"{model}: thresholds {thresholds} != {[k * step for k in want]}"]
    uppers = {
        "mtc-one-intermediate": lambda t: 2 * (t - 1),
        "mtc-two-intermediates": lambda t: 3 * (t - 1),
        "cdn-moderate-25pct": lambda t: t / 0.75,
        "cdn-aggressive-40pct": lambda t: t / 0.60,
    }
    eligible = [t for t in thresholds if t > 1]
    want_regions = [(label, t, f(t)) for label, f in uppers.items() for t in eligible]
    if len(regions) != len(want_regions):
        return [f"{model}: {len(regions)} regions, expected {len(want_regions)}"]
    for got, exp in zip(regions, want_regions):
        if got[0] != exp[0] or got[1] != exp[1] or not math.isclose(got[2], exp[2], rel_tol=1e-12):
            return [f"{model}: region {got} != {exp}"]
    return []


def check_analyze(payload: dict, tally: inputs.LogTally, series_csv: str | None) -> list[str]:
    problems = []
    for cls, want in tally.classes.items():
        got = payload["classes"].get(cls, {})
        for key, value in want.items():
            if got.get(key) != value:
                problems.append(f"{cls}.{key}: {got.get(key)} != {value}")
    parse = payload["parse"]
    for key, value in (("records", tally.records), ("malformed", tally.malformed),
                       ("resumption_unknown", tally.resumption_unknown),
                       ("data_lines", tally.data_lines)):
        if parse.get(key) != value:
            problems.append(f"parse.{key}: {parse.get(key)} != {value}")
    if payload["months"] != tally.months():
        problems.append("month lists differ from the generated log")
    if series_csv is not None:
        got = {}
        for rec in csv.DictReader(io.StringIO(series_csv)):
            got[(rec["class"], rec["month"])] = int(rec["total"])
        if got != tally.series:
            problems.append("series CSV totals differ from the generated log")
    return problems


def _der_well_formed(der: bytes) -> bool:
    """Outer SEQUENCE spanning the blob, holding SEQUENCE, SEQUENCE, BIT STRING."""

    def header(off: int) -> tuple[int, int, int]:
        tag, first = der[off], der[off + 1]
        if first < 0x80:
            return tag, first, off + 2
        n = first & 0x7F
        return tag, int.from_bytes(der[off + 2: off + 2 + n], "big"), off + 2 + n

    try:
        tag, length, content = header(0)
        if tag != 0x30 or content + length != len(der):
            return False
        tags, off = [], content
        while off < len(der):
            t, ln, c = header(off)
            tags.append(t)
            off = c + ln
        return off == len(der) and tags == [0x30, 0x30, 0x03]
    except IndexError:
        return False


def check_forge(chain: dict, out_dir: str) -> list[str]:
    problems = []
    total = 0
    for role, target in chain["certs"]:
        try:
            with open(os.path.join(out_dir, f"{role}.der"), "rb") as f:
                der = f.read()
            with open(os.path.join(out_dir, f"{role}.pem"), encoding="ascii") as f:
                pem = f.read()
        except OSError as e:
            problems.append(f"{role}: {e}")
            continue
        total += len(der)
        if len(der) != target:
            problems.append(f"{role}: {len(der)} bytes, expected {target}")
        if not _der_well_formed(der):
            problems.append(f"{role}: DER is not well-formed")
        body = "".join(ln for ln in pem.splitlines() if not ln.startswith("-----"))
        if base64.b64decode(body) != der:
            problems.append(f"{role}: PEM does not decode to the DER file")
    try:
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as f:
            manifest = json.load(f)
        if manifest["total_bytes"] != total:
            problems.append(f"manifest total {manifest['total_bytes']} != {total}")
    except (OSError, ValueError, KeyError) as e:
        problems.append(f"manifest: {e}")
    return problems


def check_estimate(chain: dict, stdout: str) -> list[str]:
    try:
        payload = json.loads(stdout)
    except ValueError as e:
        return [f"estimate output is not JSON: {e}"]
    want_total = inputs.ttfb_ms(chain["stack"], chain["rtt_ms"], chain["size_kb"])
    problems = []
    if not math.isclose(payload.get("chain_size_kb", -1), chain["size_kb"], rel_tol=1e-12):
        problems.append(f"chain_size_kb {payload.get('chain_size_kb')} != {chain['size_kb']}")
    if payload.get("extra_rtts") != inputs.extra_rtts(chain["size_kb"]):
        problems.append(f"extra_rtts {payload.get('extra_rtts')}")
    if not math.isclose(payload.get("total_ms", -1), want_total, rel_tol=1e-12):
        problems.append(f"total_ms {payload.get('total_ms')} != {want_total}")
    return problems
