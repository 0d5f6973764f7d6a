"""End-to-end acceptance checks.

Each test exercises one headline behavior of the package against the
pinned testbed measurements in reference_data.py and prints a single
PASS/FAIL verdict line. Tolerances are stated inline; nothing here is
derived from the code under test.
"""

import json
import random
import time

from certflight.cert_forge import DerCertTemplate, minimum_size, pad_to_size, parse_and_measure
from certflight.chain_model import DEFAULT_OPTIMIZERS, MerkleParams, SizeOptimizer, merkle_proof_bytes
from certflight import chain_model
from certflight.sweep_runner import SweepPlan, compute_regions, emit_csv, estimate_savings, run_sweep
from certflight.tls_log_analytics import (
    AsnMap,
    ParseStats,
    aggregate_stats,
    merge_stats,
    new_stats,
    parse_log_stream,
)
from certflight.config import Config
from certflight.transport_flight import ANALYTIC, EMPIRICAL, FlightModel, extra_rtts, find_thresholds
from certflight.ttfb_engine import (
    DEFAULT_STACKS,
    NetworkPath,
    NoiseModel,
    calibrate_minimax,
    calibrate_stack_profile,
    estimate_ttfb,
)

from reference_data import (
    CHAIN_KB,
    CLASSICAL_TTFB,
    EXTRA_RTTS,
    LOG_COUNTS,
    LOG_RATES_PCT,
    MERKLE_CASES,
    OQS_TTFB,
    RATE_RATIO,
    RATE_RATIO_TOL,
    REGION_UPPERS,
    RTTS_MS,
    SAVINGS_BANDS_MS,
    TESTBED_THRESHOLDS_KB,
)


def verdict(criterion: int, ok: bool, text: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({text})")
    assert ok, f"criterion {criterion}: {text}"


def test_criterion_1_flight_thresholds():
    start = time.perf_counter()
    empirical = find_thresholds(FlightModel(mode=EMPIRICAL), 80.0, 2.0)
    analytic = find_thresholds(FlightModel(mode=ANALYTIC), 80.0, 2.0)
    elapsed = time.perf_counter() - start
    deviation_flagged = analytic != empirical
    ok = (
        empirical == [10.0, 40.0]
        and analytic == [10.0, 38.0]
        and deviation_flagged
        and elapsed < 1.0
    )
    verdict(1, ok, f"empirical={empirical} analytic={analytic} "
                   f"deviation_flagged={deviation_flagged} in {elapsed:.3f}s")


def test_criterion_2_optimizer_regions():
    regions = compute_regions([10.0, 40.0], list(DEFAULT_OPTIMIZERS))
    worst = 0.0
    ok = len(regions) == 8
    for region in regions:
        expected = REGION_UPPERS[(region.optimizer, region.threshold_kb)]
        worst = max(worst, abs(region.upper_kb_rounded - expected))
        ok = ok and abs(region.upper_kb_rounded - expected) <= 1.0
        ok = ok and region.lower_kb == region.threshold_kb
    verdict(2, ok, f"8 upper bounds within 1 KB of pinned values, worst off by {worst:g} KB")


def test_criterion_3_classical_table_reproduced():
    cells = []
    for variant, rows in CLASSICAL_TTFB.items():
        if variant == "SessionResumption":
            continue
        for rtt, (mean, _) in zip(RTTS_MS, rows):
            cells.append((rtt, mean, float(EXTRA_RTTS[variant]), max(0.03 * mean, 1.0)))
    profile, fit_worst = calibrate_minimax(cells)

    flight = FlightModel(mode=EMPIRICAL, empirical_thresholds_kb=TESTBED_THRESHOLDS_KB)
    penalties_ok = all(
        extra_rtts(flight, CHAIN_KB[v]) == EXTRA_RTTS[v] for v in CHAIN_KB
    )

    worst_ratio, worst_cell, n_ok = 0.0, "", 0
    for variant, rows in CLASSICAL_TTFB.items():
        if variant == "SessionResumption":
            continue
        for rtt, (mean, _) in zip(RTTS_MS, rows):
            est = estimate_ttfb(profile, NetworkPath(rtt_ms=rtt, flight=flight),
                                CHAIN_KB[variant])
            err = abs(est.total_ms - mean)
            tol = max(0.03 * mean, 1.0)
            if err <= tol:
                n_ok += 1
            if err / tol > worst_ratio:
                worst_ratio, worst_cell = err / tol, f"{variant}@{rtt:g}ms"
    ok = penalties_ok and fit_worst < 1.0 and n_ok == 25
    verdict(3, ok, f"{n_ok}/25 cells within max(3%, 1 ms) using base={profile.base_ms:.3f} "
                   f"flights={profile.base_flights:.3f}; worst cell {worst_cell} "
                   f"at {worst_ratio:.2f}x tolerance")


def test_criterion_4_oqs_fits():
    mldsa_pts = [(r, mean) for r, (mean, _) in zip(RTTS_MS, OQS_TTFB["ML-DSA"])]
    mldsa = calibrate_stack_profile(mldsa_pts)
    base_ref = OQS_TTFB["ML-DSA"][0][0]  # 331.08, the 0 ms RTT column
    base_ok = abs(mldsa.base_ms - base_ref) <= 0.03 * base_ref
    slope_ok = abs(mldsa.base_flights - 4.1) <= 0.2

    slh_pts = [(r, mean) for r, (mean, _) in zip(RTTS_MS, OQS_TTFB["SLH-DSA"])]
    slh = calibrate_stack_profile(slh_pts)
    slh_ok = abs(slh.base_flights - 5.05) <= 0.2

    synth_base, synth_flights = 336.5, 4.3
    pts = [(r, synth_base + synth_flights * r) for r in RTTS_MS]
    refit = calibrate_stack_profile(pts)
    refit_ok = (
        abs(refit.base_ms - synth_base) / synth_base < 1e-9
        and abs(refit.base_flights - synth_flights) / synth_flights < 1e-9
    )
    ok = base_ok and slope_ok and slh_ok and refit_ok
    verdict(4, ok, f"ML-DSA base={mldsa.base_ms:.2f} (ref {base_ref}, 3% band) "
                   f"slope={mldsa.base_flights:.3f} (4.1 +/- 0.2); "
                   f"SLH slope={slh.base_flights:.3f} (5.05 +/- 0.2); "
                   f"synthetic refit exact to 1e-9: {refit_ok}")


def test_criterion_5_proof_sizes():
    cases_ok = all(
        merkle_proof_bytes(MerkleParams(n)) == expected for n, expected in MERKLE_CASES
    )
    doubling_ok = all(
        merkle_proof_bytes(MerkleParams(2**k)) - merkle_proof_bytes(MerkleParams(2**(k - 1))) == 32
        for k in range(1, 33)
    )
    ok = cases_ok and doubling_ok
    v24 = merkle_proof_bytes(MerkleParams(2**24))
    v28 = merkle_proof_bytes(MerkleParams(2**28))
    verdict(5, ok, f"2^24 leaves -> {v24} B, 2^28 -> {v28} B, +32 B per doubling")


def test_criterion_6_resumption_savings():
    stack = DEFAULT_STACKS["ClassicalSim"]
    flight = FlightModel(mode=EMPIRICAL)
    cdn_rate = LOG_COUNTS["CDN"]["resumed_all"] / LOG_COUNTS["CDN"]["total"]
    noncdn_rate = LOG_COUNTS["NonCDN"]["resumed_all"] / LOG_COUNTS["NonCDN"]["total"]

    ok = True
    details = []
    for rtt, (lo, hi) in SAVINGS_BANDS_MS.items():
        path = NetworkPath(rtt_ms=rtt, flight=flight)
        for size in (11.9, 48.7):  # one and two window crossings
            got = estimate_savings(stack, path, size, cdn_rate).expected_savings_ms
            ok = ok and lo <= got <= hi
            details.append(f"{got:.1f}@{rtt:g}ms")
    ratio = cdn_rate / noncdn_rate
    ratio_ok = abs(ratio - RATE_RATIO) <= RATE_RATIO_TOL
    ok = ok and ratio_ok
    verdict(6, ok, f"CDN savings {', '.join(details)} ms inside bands; "
                   f"rate ratio {ratio:.4f} within {RATE_RATIO} +/- {RATE_RATIO_TOL}")


def _fixture_lines() -> list[str]:
    """Synthesize a TSV log that realizes the pinned per-class counters."""
    jan1 = 1735689600.0
    lines = [
        "#separator \\x09",
        "#fields\tts\tid.resp_h\tversion\tresumed\tserver_name",
    ]
    specs = {"CDN": "104.16.7.7", "NonCDN": "73.20.0.5"}
    for cls, ip in specs.items():
        c = LOG_COUNTS[cls]
        legacy_resumed = c["resumed_all"] - c["resumed_tls13"]
        for i in range(c["total"]):
            if i < c["tls13"]:
                version, resumed = "TLSv1.3", i < c["resumed_tls13"]
            else:
                version, resumed = "TLSv1.2", (i - c["tls13"]) < legacy_resumed
            ts = jan1 + (i % 90) * 86400 + (i % 1440) * 60
            lines.append(f"{ts}\t{ip}\t{version}\t{'T' if resumed else 'F'}\t-")
    return lines


def test_criterion_7_log_rates_and_merging():
    asn_map = AsnMap.from_files(*Config().resolve_asn_paths())
    stats = ParseStats()
    records = list(parse_log_stream(_fixture_lines(), stats=stats))
    assert stats.malformed == 0

    single = aggregate_stats(records, asn_map)
    rates_ok = True
    for cls, expected in LOG_RATES_PCT.items():
        s = single[cls]
        got = (
            round(100 * s.tls13_adoption, 2),
            round(100 * s.resumption_rate_tls13, 2),
            round(100 * s.resumption_rate_all, 2),
        )
        rates_ok = rates_ok and got == expected

    rng = random.Random(40000)
    merged = new_stats()
    cut = 0
    while cut < len(records):
        size = rng.randrange(1, 7000)
        merged = merge_stats(merged, aggregate_stats(records[cut:cut + size], asn_map))
        cut += size
    single_blob = json.dumps({c: s.to_dict() for c, s in single.items()}, sort_keys=True)
    merged_blob = json.dumps({c: s.to_dict() for c, s in merged.items()}, sort_keys=True)
    merge_ok = single_blob == merged_blob

    ok = rates_ok and merge_ok
    verdict(7, ok, f"rates {LOG_RATES_PCT['CDN']} / {LOG_RATES_PCT['NonCDN']} reproduced "
                   f"from {len(records)} records; chunked merge byte-identical: {merge_ok}")


def test_criterion_8_exact_size_forging():
    template = DerCertTemplate()
    start = time.perf_counter()
    minimum = minimum_size(template)
    assert minimum <= 500

    rng = random.Random(60000)
    targets = [rng.randrange(500, 60001) for _ in range(1000)]
    targets += list(range(minimum, minimum + 260))      # short-form length edges
    # 2 -> 3 byte length edges; 65540 is excluded because no minimally
    # encoded TLV has that total size (4 + 65535 < 65540 < 5 + 65536).
    targets += [t for t in range(65398, 65702) if t != 65540]
    failures = 0
    for target in targets:
        blob = pad_to_size(template, target)
        report = parse_and_measure(blob)
        if len(blob) != target or not report.well_formed:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 5.0
    verdict(8, ok, f"{len(targets)} targets (0.5-60 KB random plus length-field "
                   f"boundaries) exact and well-formed in {elapsed:.2f}s, {failures} failures")


def test_criterion_9_sweep_determinism():
    plan = SweepPlan(
        stacks=("ClassicalSim", "OqsMldsa"),
        rtts_ms=(10.0, 50.0),
        size_start_kb=4.0,
        size_end_kb=40.0,
        size_step_kb=4.0,
        trials=20,
        seed=777,
        optimizers=(
            SizeOptimizer(chain_model.MTC_ONE_INTERMEDIATE),
            SizeOptimizer(chain_model.CDN_MODERATE, factor=0.75),
        ),
    )
    flight = FlightModel(mode=EMPIRICAL)
    noise = NoiseModel("gaussian", std_ms=0.3)
    a = emit_csv(run_sweep(plan, DEFAULT_STACKS, flight, noise))
    b = emit_csv(run_sweep(plan, DEFAULT_STACKS, flight, noise))
    c = emit_csv(run_sweep(plan.replace(seed=778), DEFAULT_STACKS, flight, noise))
    ok = a == b and a != c and len(a.splitlines()) == 2 * 2 * 10 * 3 + 1
    verdict(9, ok, f"{len(a.splitlines()) - 1} rows, repeated run byte-identical, "
                   f"re-seeded run differs")
