"""Seeded input generators for the certflight benchmark.

Each generator takes a ``random.Random`` and returns the inputs the
program will see together with the generator's own tallies, which the
output checks compare against. The same seed gives the same bytes.

The reference model below (stack profiles, flight thresholds, noise,
scheme sizes, the packaged ASN-map prefixes and their classes) is the
shipped calibration, written out here on purpose: the checks must not
read their expectations back from the code under test.
"""

from __future__ import annotations

import functools
import ipaddress
import math
import random
from datetime import datetime, timezone

KB_BYTES = 1000

# Shipped defaults: stack -> (base_ms, base_flights), empirical flight
# thresholds, Gaussian noise std of the default config.
STACKS = {
    "ClassicalSim": (8.3, 2.0),
    "OqsMldsa": (335.263, 4.106),
    "OqsSlhdsa": (338.203, 4.092),
    "OqsHybrid": (335.263 + 4.0, 4.106),
}
THRESHOLDS_KB = (10.0, 40.0)
NOISE_STD_MS = 0.2

# CLI alias -> (row label, wire size as a function of raw size).
OPTIMIZERS = {
    "mtc1": ("mtc-one-intermediate", lambda s: s / 2 + 1),
    "mtc2": ("mtc-two-intermediates", lambda s: s / 3 + 1),
    "cdn25": ("cdn-moderate-25pct", lambda s: s * 0.75),
    "cdn40": ("cdn-aggressive-40pct", lambda s: s * 0.60),
}

# scheme -> (leaf_kb, intermediate_kb, mtc_leaf_kb)
SCHEMES = {
    "ECDSA": (1.0, 2.0, None),
    "ML-DSA": (3.9, 8.0, 4.8),
    "SLH-DSA": (16.6, 32.1, 17.6),
    "Hybrid-ML-DSA": (4.9, 9.0, 5.8),
}


def extra_rtts(size_kb: float) -> int:
    return sum(1 for t in THRESHOLDS_KB if size_kb > t)


def ttfb_ms(stack: str, rtt_ms: float, size_kb: float) -> float:
    base, flights = STACKS[stack]
    return base + (flights + extra_rtts(size_kb)) * rtt_ms


# ------------------------------------------------------------ sweep-noisy

SWEEP_STACKS = tuple(STACKS)
SWEEP_RTTS = tuple(float(r) for r in range(0, 201, 10))
SWEEP_SIZES = tuple(4.0 + i * 0.5 for i in range(153))
SWEEP_TRIALS = 100


def sweep_rows_expected() -> list[tuple[str, float, float, str, float]]:
    """Canonical (stack, rtt, size, optimizer label, wire size) rows."""
    variants = [("", lambda s: s)] + list(OPTIMIZERS.values())
    return [
        (stack, rtt, size, label, wire(size))
        for stack in SWEEP_STACKS
        for rtt in SWEEP_RTTS
        for size in SWEEP_SIZES
        for label, wire in variants
    ]


def sweep_argv(rng: random.Random, out_csv: str) -> list[str]:
    return [
        "--seed", str(rng.randrange(2**31)),
        "sweep",
        "--stacks", ",".join(SWEEP_STACKS),
        "--rtts", ",".join(f"{r:g}" for r in SWEEP_RTTS),
        "--sizes", "4:80:0.5",
        "--trials", str(SWEEP_TRIALS),
        "--optimizers", ",".join(OPTIMIZERS),
        "--out", out_csv,
    ]


# ------------------------------------------------------------ flight-scan

SCAN_MAX_KB = 2000.0
SCAN_STEP_KB = 0.05
SCAN_STEPS = int(SCAN_MAX_KB / SCAN_STEP_KB)
SCAN_SIZES_PER_MODEL = SCAN_STEPS + 1  # find_thresholds also evaluates size 0


def flight_edges_kb(iw: int, growth: float, overhead: int) -> list[float]:
    """Closed-form sizes past which each extra flight is needed, up to the scan end."""
    edges, f = [], 1
    while True:
        cap = iw * (growth**f - 1) / (growth - 1)
        edge = (cap - overhead) / KB_BYTES
        if edge >= SCAN_STEPS * SCAN_STEP_KB:
            return edges
        edges.append(edge)
        f += 1


def scan_threshold_indices(model: dict) -> list[int]:
    """Grid indices of the thresholds find_thresholds must report: each
    non-negative edge snapped down to the grid, one per grid cell."""
    out = []
    for edge in flight_edges_kb(model["iw_bytes"], model["growth_factor"],
                                model["handshake_overhead_bytes"]):
        if edge >= 0:
            k = math.floor(edge / SCAN_STEP_KB)
            if not out or out[-1] != k:
                out.append(k)
    return out


def _near_grid(model: dict) -> bool:
    # An edge within float rounding of a grid point is decided by the
    # last bit of the scan's arithmetic, not by the model: redraw it.
    for edge in flight_edges_kb(model["iw_bytes"], model["growth_factor"],
                                model["handshake_overhead_bytes"]):
        q = edge / SCAN_STEP_KB
        if abs(q - round(q)) < 1e-6:
            return True
    return False


def flight_models(rng: random.Random, n: int = 40) -> list[dict]:
    """Analytic flight models stratified over iw 4-64 KB (log scale),
    growth 1.5-2 and overhead 2-8 KB, so every seed spans the same range."""
    perms = [rng.sample(range(n), n) for _ in range(3)]
    models = []
    for i in range(n):
        while True:
            model = {
                "iw_bytes": round(4000 * 16 ** ((perms[0][i] + rng.random()) / n)),
                "growth_factor": round(1.5 + 0.5 * (perms[1][i] + rng.random()) / n, 3),
                "handshake_overhead_bytes": round(2000 + 6000 * (perms[2][i] + rng.random()) / n),
            }
            if not _near_grid(model):
                break
        models.append(model)
    return models


def flights_per_call(model: dict) -> float:
    """Mean of extra_rtts + 1 over the sizes find_thresholds evaluates."""
    n = SCAN_SIZES_PER_MODEL
    extra = 0
    for edge in flight_edges_kb(model["iw_bytes"], model["growth_factor"],
                                model["handshake_overhead_bytes"]):
        extra += n if edge < 0 else SCAN_STEPS - math.floor(edge / SCAN_STEP_KB)
    return 1 + extra / n


# ------------------------------------------------------------ TLS logs

# The packaged sample ASN map (src/certflight/data), with each prefix's class.
MAPPED_PREFIXES = (
    ("104.16.0.0/13", "CDN"), ("172.64.0.0/13", "CDN"), ("151.101.0.0/16", "CDN"),
    ("23.32.0.0/11", "CDN"), ("2.16.0.0/13", "CDN"),
    ("52.0.0.0/10", "Cloud"), ("8.8.8.0/24", "Cloud"), ("35.192.0.0/12", "Cloud"),
    ("20.33.0.0/16", "Cloud"), ("5.75.128.0/17", "Cloud"),
    ("87.128.0.0/10", "NonCDN"), ("73.0.0.0/8", "NonCDN"), ("12.204.0.0/16", "NonCDN"),
    ("12.0.0.0/8", "NonCDN"),
)
UNMAPPED_V4 = (("198.18.0.0/15", "Unidentified"), ("203.0.113.0/24", "Unidentified"))
CLASSES = ("CDN", "Cloud", "NonCDN", "Unidentified")

LOG_RECORDS = 200_000
LOG_HOSTS = 2_000
MALFORMED_SHARE = 0.01
UNKNOWN_RESUMPTION_SHARE = 0.02
LOG_START = datetime(2023, 1, 1, tzinfo=timezone.utc).timestamp()
LOG_END = datetime(2025, 1, 1, tzinfo=timezone.utc).timestamp()  # 24 months

_TLS13_SHARE = {"CDN": 0.8, "Cloud": 0.6, "NonCDN": 0.4, "Unidentified": 0.3}
_RESUMED_SHARE = {"CDN": 0.5, "Cloud": 0.4, "NonCDN": 0.3, "Unidentified": 0.2}

ZEEK_FIELDS = ("ts", "uid", "id.orig_h", "id.resp_h", "id.resp_p", "version",
               "resumed", "server_name")


def _month(ts: float) -> str:
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    return f"{dt.year:04d}-{dt.month:02d}"


_network = functools.lru_cache(maxsize=None)(ipaddress.ip_network)


def _random_address(rng: random.Random, prefix: str) -> str:
    net = _network(prefix)
    return str(net.network_address + rng.randrange(net.num_addresses))


class LogTally:
    """What the analyze output must report for a generated log."""

    def __init__(self):
        self.classes = {c: {"total": 0, "tls13": 0, "resumed_all": 0, "resumed_tls13": 0}
                        for c in CLASSES}
        self.series: dict[tuple[str, str], int] = {}
        self.data_lines = self.records = self.malformed = self.resumption_unknown = 0
        self.unmapped = 0
        self._seen: set[str] = set()
        self.repeats = 0

    def add(self, cls: str, ip: str, ts: float, tls13: bool, resumed: bool | None):
        self.data_lines += 1
        self.records += 1
        if ip in self._seen:
            self.repeats += 1
        self._seen.add(ip)
        c = self.classes[cls]
        resumed_flag = bool(resumed)
        c["total"] += 1
        c["tls13"] += tls13
        c["resumed_all"] += resumed_flag
        c["resumed_tls13"] += tls13 and resumed_flag
        self.resumption_unknown += resumed is None
        self.unmapped += cls == "Unidentified"
        key = (cls, _month(ts))
        self.series[key] = self.series.get(key, 0) + 1

    def add_malformed(self):
        self.data_lines += 1
        self.malformed += 1

    def months(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for cls, month in sorted(self.series):
            out.setdefault(cls, []).append(month)
        return out

    def properties(self) -> dict:
        return {
            "records": self.records,
            "data_lines": self.data_lines,
            "ip_repeat_share": self.repeats / self.records,
            "unmapped_share": self.unmapped / self.records,
            "malformed_share": self.malformed / self.data_lines,
            "resumption_unknown_share": self.resumption_unknown / self.records,
            "months_covered": len({m for _, m in self.series}),
        }


def _draw_record(rng: random.Random, cls: str):
    ts = rng.uniform(LOG_START, LOG_END)
    tls13 = rng.random() < _TLS13_SHARE[cls]
    if rng.random() < UNKNOWN_RESUMPTION_SHARE:
        resumed = None
    else:
        resumed = rng.random() < _RESUMED_SHARE[cls]
    return ts, tls13, resumed


def zeek_log(rng: random.Random, path: str, records: int = LOG_RECORDS,
             hosts: int = LOG_HOSTS) -> LogTally:
    """Zeek ssl.log TSV whose server IPs follow a Zipf draw over `hosts`.

    Host rank r is placed in prefix r mod len(pool), so every seed has
    the same mix of prefix lengths among its heavy hitters; only the
    addresses inside each prefix are drawn.
    """
    pool = MAPPED_PREFIXES + UNMAPPED_V4
    host_ips, host_cls = [], []
    for r in range(hosts):
        prefix, cls = pool[r % len(pool)]
        host_ips.append(_random_address(rng, prefix))
        host_cls.append(cls)
    # Zipf exponent 1 over LOG_HOSTS hosts is an assumption, not taken from
    # measured ssl.log traffic; it gives ip_repeat_share 0.99 (bench/README.md).
    weights = [1.0 / (r + 1) for r in range(hosts)]
    tally = LogTally()
    lines = [
        "#separator \\x09", "#set_separator\t,", "#empty_field\t(empty)",
        "#unset_field\t-", "#path\tssl", "#open\t2025-01-01-00-00-00",
        "#fields\t" + "\t".join(ZEEK_FIELDS),
        "#types\ttime\tstring\taddr\taddr\tport\tstring\tbool\tstring",
    ]
    picks = rng.choices(range(hosts), weights=weights, k=records)
    for n, h in enumerate(picks):
        ip, cls = host_ips[h], host_cls[h]
        ts, tls13, resumed = _draw_record(rng, cls)
        fields = [
            f"{ts:.6f}", f"C{n:07x}", f"10.{n >> 16 & 255}.{n >> 8 & 255}.{n & 255}", ip,
            "443", "TLSv13" if tls13 else "TLSv12",
            "-" if resumed is None else ("T" if resumed else "F"),
            f"h{h}.example" if h % 4 else "-",
        ]
        if rng.random() < MALFORMED_SHARE:
            kind = rng.randrange(3)
            if kind == 0:
                fields.pop()  # short row
            elif kind == 1:
                fields[0] = "n/a"  # unparseable timestamp
            else:
                fields[3] = "-"  # unset server address
            tally.add_malformed()
        else:
            tally.add(cls, ip, ts, tls13, resumed)
        lines.append("\t".join(fields))
    lines.append("#close\t2025-01-01-00-00-00")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return tally


# ------------------------------------------------------------ cli-testbed

CLI_RTTS = (10.0, 25.0, 50.0, 100.0, 200.0)


def forge_ladder(rng: random.Random) -> list[dict]:
    """Chains for a testbed run: three scheme chains with 1-3
    intermediates, three explicit sizes (one per log-stratum of 2-200 KB)
    and two MTC chains."""
    kinds = [0, 0, 0, 1, 1, 1, 2, 2]
    rng.shuffle(kinds)
    sizes = [round(2 * 100 ** ((i + rng.random()) / 3), 1) for i in range(3)]
    ladder = []
    for kind in kinds:
        if kind == 2:
            scheme = rng.choice([s for s, (_, _, mtc) in SCHEMES.items() if mtc is not None])
        else:
            scheme = rng.choice(list(SCHEMES))
        leaf, inter, mtc_leaf = SCHEMES[scheme]
        if kind == 0:
            n = rng.randint(1, 3)
            flags = ["--intermediates", str(n)]
            parts = [("leaf", leaf)] + [(f"intermediate-{k}", inter) for k in range(1, n + 1)]
            size_kb = leaf + n * inter
        elif kind == 1:
            size_kb = sizes.pop()
            flags = ["--size-kb", f"{size_kb}"]
            parts = [("cert", size_kb)]
        else:
            flags = ["--mtc"]
            parts = [("leaf", mtc_leaf)]
            size_kb = mtc_leaf
        ladder.append({
            "scheme": scheme,
            "flags": flags,
            "certs": [(role, round(kb * KB_BYTES)) for role, kb in parts],
            "size_kb": size_kb,
            "rtt_ms": CLI_RTTS[rng.randrange(len(CLI_RTTS))],
            "stack": SWEEP_STACKS[rng.randrange(len(SWEEP_STACKS))],
        })
    return ladder
