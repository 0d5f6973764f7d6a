"""TLS connection-log analytics: version adoption and session resumption.

Consumes connection logs (Zeek-convention TSV or JSON lines), classifies
server endpoints by ASN into CDN / Cloud / NonCDN / Unidentified, and
aggregates per-class adoption and resumption rates plus monthly time
series. Aggregation is one streaming fold into mergeable (class, month)
counters, so chunked processing of large logs gives identical results.
"""

from __future__ import annotations

import csv
import ipaddress
import json
import statistics
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Iterator

from .errors import LogFormatError

TLS10 = "TLSv1.0"
TLS11 = "TLSv1.1"
TLS12 = "TLSv1.2"
TLS13 = "TLSv1.3"

_VERSION_ALIASES = {
    "tlsv1.0": TLS10, "tlsv1": TLS10, "tls1.0": TLS10, "tlsv10": TLS10,
    "tlsv1.1": TLS11, "tls1.1": TLS11, "tlsv11": TLS11,
    "tlsv1.2": TLS12, "tls1.2": TLS12, "tlsv12": TLS12,
    "tlsv1.3": TLS13, "tls1.3": TLS13, "tlsv13": TLS13,
}


def normalize_version(raw: str) -> str:
    """Map common spellings to canonical names; unknown strings pass through."""
    return _VERSION_ALIASES.get(raw.strip().lower(), raw.strip())


@dataclass(frozen=True)
class TlsLogRecord:
    timestamp: float
    server_ip: str
    tls_version: str
    resumed: bool
    server_name: str | None = None

    @property
    def is_tls13(self) -> bool:
        return self.tls_version == TLS13


@dataclass
class ParseStats:
    data_lines: int = 0
    records: int = 0
    malformed: int = 0
    resumption_unknown: int = 0


DEFAULT_FIELD_MAP = {
    "ts": "ts",
    "ip": "id.resp_h",
    "version": "version",
    "resumed": "resumed",
    "sni": "server_name",
}

_UNSET = {"", "-", "(empty)"}
_TRUE = {"t", "true", "1", "yes"}
_FALSE = {"f", "false", "0", "no"}


# The epoch timestamps datetime can represent, so month_key never fails.
_TS_MIN = datetime.min.replace(tzinfo=timezone.utc).timestamp()
_TS_MAX = datetime.max.replace(tzinfo=timezone.utc).timestamp()


def _parse_bool(raw) -> bool | None:
    if isinstance(raw, bool):
        return raw
    if raw is None:
        return None
    s = str(raw).strip().lower()
    if s in _UNSET:
        return None
    if s in _TRUE:
        return True
    if s in _FALSE:
        return False
    return None


def parse_log_stream(
    lines: Iterable[str],
    fmt: str = "auto",
    field_map: dict[str, str] | None = None,
    stats: ParseStats | None = None,
) -> Iterator[TlsLogRecord]:
    """Yield records from a log stream, in input order, skipping bad lines.

    fmt is "tsv", "jsonl", or "auto" (sniffed from the first data line).
    Malformed lines (bad column count, unparseable timestamp, timestamp
    outside the years 1-9999 that ``month_key`` can render, missing or
    unset address, a JSON address that is not a string, a JSON version
    that is neither null nor a string) are counted in stats and skipped.
    An address string that is not an IP address is not malformed: the
    record is kept and classifies as Unidentified. A missing resumption
    field is not malformed either: the record defaults to resumed=False
    and the line is tallied under resumption_unknown. If more than half
    of all data lines are malformed the stream itself is considered
    unreadable and LogFormatError is raised once the stream is exhausted.
    """
    if fmt not in ("auto", "tsv", "jsonl"):
        raise ValueError(f"unknown log format {fmt!r}")
    fmap = dict(DEFAULT_FIELD_MAP)
    if field_map:
        fmap.update(field_map)
    if stats is None:
        stats = ParseStats()
    columns: list[str] | None = None

    def tsv_record(parts: list[str]) -> TlsLogRecord | None:
        order = columns if columns is not None else [
            fmap["ts"], fmap["ip"], fmap["version"], fmap["resumed"], fmap["sni"]
        ]
        if len(parts) != len(order):
            return None
        row = dict(zip(order, parts))
        return build_record(row)

    def build_record(row: dict) -> TlsLogRecord | None:
        try:
            ts = float(raw_ts := row[fmap["ts"]])
        except (KeyError, TypeError, ValueError):
            return None
        if isinstance(raw_ts, bool) or not _TS_MIN <= ts < _TS_MAX:  # a bool or NaN
            return None
        ip = row.get(fmap["ip"])
        if not isinstance(ip, str) or ip.strip() in _UNSET:
            return None
        raw_version = row.get(fmap["version"])
        if raw_version is not None and not isinstance(raw_version, str):
            return None
        if raw_version is None or raw_version.strip() in _UNSET:
            version = "unknown"
        else:
            version = normalize_version(raw_version)
        resumed = _parse_bool(row.get(fmap["resumed"]))
        if resumed is None:
            stats.resumption_unknown += 1
            resumed = False
        sni = row.get(fmap["sni"])
        if sni is not None and str(sni).strip() in _UNSET:
            sni = None
        return TlsLogRecord(
            timestamp=ts,
            server_ip=ip.strip(),
            tls_version=version,
            resumed=resumed,
            server_name=str(sni) if sni is not None else None,
        )

    for line in lines:
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#"):
            # Zeek metadata; a #fields header overrides column order.
            if line.startswith("#fields"):
                columns = line.split("\t")[1:]
            continue
        if fmt == "auto":
            fmt = "jsonl" if line.lstrip().startswith("{") else "tsv"
        stats.data_lines += 1
        record = None
        if fmt == "tsv":
            record = tsv_record(line.split("\t"))
        else:
            try:
                row = json.loads(line)
                if isinstance(row, dict):
                    record = build_record(row)
            except json.JSONDecodeError:
                record = None
        if record is None:
            stats.malformed += 1
            continue
        stats.records += 1
        yield record

    if stats.data_lines and stats.malformed > stats.records:
        raise LogFormatError(
            f"{stats.malformed} of {stats.data_lines} lines are malformed; "
            "stream does not look like a TLS log in the expected format"
        )


# ----------------------------------------------------------- classification

CLASS_CDN = "CDN"
CLASS_CLOUD = "Cloud"
CLASS_NONCDN = "NonCDN"
CLASS_UNIDENTIFIED = "Unidentified"
ENDPOINT_CLASSES = (CLASS_CDN, CLASS_CLOUD, CLASS_NONCDN, CLASS_UNIDENTIFIED)


class AsnMap:
    """Longest-prefix IP-to-ASN map with CDN and cloud ASN sets.

    Entries are (network, asn, org) where network is a CIDR string or an
    inclusive "start-end" address range (ranges are split into covering
    prefixes). Lookups probe prefix lengths from most to least specific,
    so nested allocations resolve to the narrowest entry.
    """

    def __init__(
        self,
        entries: Iterable[tuple[str, int, str]],
        cdn_asns: Iterable[int] = (),
        cloud_asns: Iterable[int] = (),
    ):
        self._tables: dict[int, dict[int, dict[int, tuple[int, str]]]] = {4: {}, 6: {}}
        for network, asn, org in entries:
            for net in _parse_networks(network):
                table = self._tables[net.version]
                table.setdefault(net.prefixlen, {})[int(net.network_address)] = (int(asn), org)
        self._lengths = {
            v: sorted(table, reverse=True) for v, table in self._tables.items()
        }
        self.cdn_asns = frozenset(int(a) for a in cdn_asns)
        self.cloud_asns = frozenset(int(a) for a in cloud_asns)

    @classmethod
    def from_files(cls, map_csv, cdn_file=None, cloud_file=None) -> "AsnMap":
        return cls(
            load_asn_entries(map_csv),
            cdn_asns=load_asn_list(cdn_file) if cdn_file else (),
            cloud_asns=load_asn_list(cloud_file) if cloud_file else (),
        )

    def lookup(self, ip: str) -> tuple[int, str] | None:
        try:
            addr = ipaddress.ip_address(ip)
        except ValueError:
            return None
        table = self._tables[addr.version]
        bits = 32 if addr.version == 4 else 128
        value = int(addr)
        for plen in self._lengths[addr.version]:
            mask = ((1 << plen) - 1) << (bits - plen) if plen else 0
            hit = table[plen].get(value & mask)
            if hit is not None:
                return hit
        return None

    def classify(self, ip: str) -> str:
        hit = self.lookup(ip)
        if hit is None:
            return CLASS_UNIDENTIFIED
        asn = hit[0]
        if asn in self.cdn_asns:
            return CLASS_CDN
        if asn in self.cloud_asns:
            return CLASS_CLOUD
        return CLASS_NONCDN


def _parse_networks(spec: str):
    spec = spec.strip()
    if "-" in spec and "/" not in spec:
        start, end = (p.strip() for p in spec.split("-", 1))
        yield from ipaddress.summarize_address_range(
            ipaddress.ip_address(start), ipaddress.ip_address(end)
        )
    else:
        yield ipaddress.ip_network(spec, strict=False)


def load_asn_entries(path) -> list[tuple[str, int, str]]:
    """Read a network,asn,org CSV (header optional, extra columns ignored)."""
    entries = []
    with open(path, newline="", encoding="utf-8") as f:
        for row in csv.reader(f):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if len(row) < 2:
                continue
            asn_raw = row[1].strip().upper().removeprefix("AS")
            if not asn_raw.isdigit():
                continue  # header or junk row
            org = row[2].strip() if len(row) > 2 else ""
            entries.append((row[0].strip(), int(asn_raw), org))
    return entries


def load_asn_list(path) -> frozenset[int]:
    """Read one ASN per line; '#' comments and blanks are skipped."""
    out = set()
    with open(path, encoding="utf-8") as f:
        for line in f:
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            out.add(int(body.upper().removeprefix("AS")))
    return frozenset(out)


# ------------------------------------------------------------- aggregation


@dataclass
class ResumptionStats:
    """Mergeable per-class counters with derived rates.

    Rates are None when their denominator is zero, and serialize as
    null rather than 0.
    """

    endpoint_class: str
    total: int = 0
    tls13: int = 0
    resumed_all: int = 0
    resumed_tls13: int = 0

    def add(self, record: TlsLogRecord) -> None:
        self.total += 1
        if record.is_tls13:
            self.tls13 += 1
            if record.resumed:
                self.resumed_tls13 += 1
        if record.resumed:
            self.resumed_all += 1

    def merge(self, other: "ResumptionStats") -> "ResumptionStats":
        if other.endpoint_class != self.endpoint_class:
            raise ValueError("cannot merge stats for different classes")
        return ResumptionStats(
            self.endpoint_class,
            self.total + other.total,
            self.tls13 + other.tls13,
            self.resumed_all + other.resumed_all,
            self.resumed_tls13 + other.resumed_tls13,
        )

    @property
    def tls13_adoption(self) -> float | None:
        return self.tls13 / self.total if self.total else None

    @property
    def resumption_rate_tls13(self) -> float | None:
        return self.resumed_tls13 / self.tls13 if self.tls13 else None

    @property
    def resumption_rate_all(self) -> float | None:
        return self.resumed_all / self.total if self.total else None

    def to_dict(self) -> dict:
        return {
            "class": self.endpoint_class,
            "total": self.total,
            "tls13": self.tls13,
            "resumed_all": self.resumed_all,
            "resumed_tls13": self.resumed_tls13,
            "tls13_adoption": self.tls13_adoption,
            "resumption_rate_tls13": self.resumption_rate_tls13,
            "resumption_rate_all": self.resumption_rate_all,
        }


# Counters per endpoint class, and per class its (YYYY-MM, counters) pairs in month order.
ClassStats = dict[str, ResumptionStats]
Series = dict[str, list[tuple[str, ResumptionStats]]]


def new_stats() -> ClassStats:
    return {c: ResumptionStats(c) for c in ENDPOINT_CLASSES}


def aggregate_stats(records: Iterable[TlsLogRecord], asn_map: AsnMap) -> ClassStats:
    """Per-class totals over a record stream: the monthly fold, merged over months."""
    return class_totals(time_series(records, asn_map))


def merge_stats(a: ClassStats, b: ClassStats) -> ClassStats:
    return {c: a[c].merge(b[c]) for c in ENDPOINT_CLASSES}


# ------------------------------------------------------------- time series


def month_key(timestamp: float) -> str:
    """Calendar month of an epoch timestamp, in UTC, as YYYY-MM."""
    dt = datetime.fromtimestamp(timestamp, tz=timezone.utc)
    return f"{dt.year:04d}-{dt.month:02d}"


def time_series(records: Iterable[TlsLogRecord], asn_map: AsnMap) -> Series:
    """Monthly per-class stats, sorted by month; empty months are absent."""
    buckets: dict[tuple[str, str], ResumptionStats] = {}
    for record in records:
        cls = asn_map.classify(record.server_ip)
        key = (cls, month_key(record.timestamp))
        if key not in buckets:
            buckets[key] = ResumptionStats(cls)
        buckets[key].add(record)
    series: Series = {}
    for (cls, month), stats in sorted(buckets.items()):
        series.setdefault(cls, []).append((month, stats))
    return series


def class_totals(series: Series) -> ClassStats:
    """Per-class totals: each class's monthly stats merged over its months."""
    totals = new_stats()
    for cls, points in series.items():
        for _, stats in points:
            totals[cls] = totals[cls].merge(stats)
    return totals


def series_csv(series: Series) -> str:
    lines = ["class,month,total,tls13_rate,resumption_rate"]
    for cls in sorted(series):
        for month, stats in series[cls]:
            adoption = stats.tls13_adoption
            resumption = stats.resumption_rate_all
            lines.append(
                f"{cls},{month},{stats.total},"
                f"{'' if adoption is None else repr(adoption)},"
                f"{'' if resumption is None else repr(resumption)}"
            )
    return "\n".join(lines) + "\n"


def rate_correlation(pairs: Iterable[tuple[float, float]]) -> float | None:
    """Pearson correlation between two rate series.

    Needs at least 3 points; a constant series has no defined
    correlation and yields None.
    """
    pts = [(x, y) for x, y in pairs if x is not None and y is not None]
    if len(pts) < 3:
        raise ValueError("need at least 3 buckets with defined rates")
    try:
        return statistics.correlation([p[0] for p in pts], [p[1] for p in pts])
    except statistics.StatisticsError:  # a constant series
        return None
