"""TLS connection-log analytics: version adoption and session resumption.

Consumes connection logs (Zeek-convention TSV or JSON lines), classifies
server endpoints by ASN into CDN / Cloud / NonCDN / Unidentified, and
aggregates per-class adoption and resumption rates plus monthly time
series. Aggregation is one streaming fold into mergeable (class, month)
counters, so chunked processing of large logs gives identical results.
"""

from __future__ import annotations

import ipaddress
import json
from _socket import AF_INET, AF_INET6, inet_pton  # what socket re-exports, without its imports
from bisect import bisect_right
from datetime import datetime, timezone
from math import fsum, sqrt
from operator import itemgetter, mul
from typing import Iterable, Iterator, Sequence

from .errors import LogFormatError, Record
from .tables import csv_cells, read_rows, write_csv

# A parsed log line: (timestamp, server_ip, tls13, resumed).
LogRecord = tuple[float, str, bool, bool]


class ParseStats(Record):
    data_lines: int = 0
    records: int = 0
    malformed: int = 0
    resumption_unknown: int = 0


# Zeek's names for the fields read, in the column order of a TSV log
# without a #fields header. Such a log has a fifth column, server_name,
# which is not read.
FIELDS = ("ts", "id.resp_h", "version", "resumed")

_UNSET = {"", "-", "(empty)"}
_TLS13 = {"tlsv1.3", "tls1.3", "tlsv13"}
# A resumed value, lowercased: (resumed, known).
_RESUMED = {**dict.fromkeys(("t", "true", "1", "yes"), (True, True)),
            **dict.fromkeys(("f", "false", "0", "no"), (False, True))}


# The epoch timestamps datetime can represent, so month_key never fails.
_TS_MIN = datetime.min.replace(tzinfo=timezone.utc).timestamp()
_TS_MAX = datetime.max.replace(tzinfo=timezone.utc).timestamp()

# The most entries a memo holds: a full one is cleared before its next entry,
# so memory does not grow with the number of distinct values in a log.
MEMO_LIMIT = 1 << 16


class _Memo(dict):
    """memo[key] is fn(key), worked out on the first lookup of key and then
    read from the dict, until MEMO_LIMIT entries fill it and it is cleared."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        if len(self) >= MEMO_LIMIT:
            self.clear()
        value = self[key] = self.fn(key)
        return value


def _address(raw) -> str:
    """The stripped address, or "" where the field is not a string; the
    parse loop counts an unset address (_UNSET) as malformed."""
    return raw.strip() if isinstance(raw, str) else ""


def _tls13(version: str | None) -> bool:
    """Whether a version (None where absent) is TLS 1.3, in any case with blanks around."""
    return version is not None and version.strip().lower() in _TLS13


def _resumption(raw) -> tuple[bool, bool]:
    """(resumed, known): a JSON bool, or a true or false spelling in any case
    with blanks around; (False, False) for anything else, None among them."""
    if isinstance(raw, bool):
        return raw, True
    if raw is None:
        return False, False
    return _RESUMED.get(str(raw).strip().lower(), (False, False))


def _columns(names: Sequence[str]) -> tuple[int, itemgetter]:
    """A TSV header's width, and a getter of the FIELDS values from a split
    line with None appended: a repeated name keeps its last position, a
    missing one reads the None."""
    pos = {name: i for i, name in enumerate(names)}
    return len(names), itemgetter(*(pos.get(name, -1) for name in FIELDS))


def _json_fields(line: str) -> tuple | None:
    """(raw ts, address, tls13, resumed, known) of a JSON line, the last four
    read as a TSV line's are; None if the line does not decode or a value has
    the wrong type. The line's first non-blank character is "{" and
    str.lstrip strips all that JSON counts as whitespace, so a line that
    decodes is an object."""
    try:
        row = json.loads(line)
    except (ValueError, RecursionError):  # not JSON, too long an integer, too deep
        return None
    ts, ip, version, resumed = map(row.get, FIELDS)
    if isinstance(ts, bool) or not (version is None or isinstance(version, str)):
        return None
    return (ts, _address(ip), _tls13(version), *_resumption(resumed))


def parse_log_stream(
    lines: Iterable[str],
    stats: ParseStats | None = None,
) -> Iterator[LogRecord]:
    """Yield records from a log stream, in input order, skipping bad lines.

    A record is a tuple (timestamp, server_ip, tls13, resumed): the epoch
    timestamp as a float, the stripped address string, whether the version
    is TLS 1.3 (spelled TLSv1.3, TLS1.3 or TLSv13 in any case), and whether
    the session was resumed.

    Each data line is read by its own shape, so TSV and JSON lines may
    mix: a line whose first non-blank character is "{" is a JSON object,
    and any other is TSV under the #fields header in force, in FIELDS
    order before one. A leading partial line, as in a log read from
    mid-file, is one malformed line. Fields are read by their Zeek names
    (FIELDS). Malformed lines (bad column count, no ts or id.resp_h
    column, unparseable timestamp, timestamp outside the years 1-9999
    that ``month_key`` can render, missing or unset address, a JSON line
    that does not decode, a JSON address that is not a string, a JSON
    version that is neither null nor a string) are counted in stats and
    skipped. An address string that is not an IP address is not
    malformed: the record is kept and classifies as Unidentified. A
    missing resumption field is not malformed either: the record defaults
    to resumed=False and the line is tallied under resumption_unknown. If
    more than half of all data lines are malformed the stream itself is
    considered unreadable and LogFormatError is raised once the stream is
    exhausted.

    A TSV line's version and resumed strings are each read once per
    distinct value, through a memo of at most MEMO_LIMIT entries per field;
    its timestamp and address are read on every line, the address stripped
    in the loop. No line is copied to drop its newline: only a #fields
    header is stripped, and every field read ignores a trailing "\n". The
    counts are added to stats when the stream ends or is closed.
    """
    if stats is None:
        stats = ParseStats()
    width, pick = _columns((*FIELDS, "server_name"))
    versions, resumptions = _Memo(_tls13), _Memo(_resumption)
    data_lines = records = malformed = unknown = 0
    try:
        for line in lines:
            head = line.lstrip()
            if not head:
                continue
            if line[0] == "#":
                # Zeek metadata; a #fields header overrides column order.
                if line.startswith("#fields"):
                    width, pick = _columns(line.rstrip("\n").split("\t")[1:])
                continue
            data_lines += 1
            if head[0] == "{":
                fields = _json_fields(line)
                if fields is None:
                    malformed += 1
                    continue
                ts, ip, tls13, resumed, known = fields
            else:
                parts = line.split("\t")
                if len(parts) != width:
                    malformed += 1
                    continue
                parts.append(None)  # read by a column the header lacks
                ts, ip, version, resumed = pick(parts)
                ip, tls13 = (ip or "").strip(), versions[version]
                resumed, known = resumptions[resumed]
            try:
                timestamp = float(ts)
            except (TypeError, ValueError, OverflowError):  # OverflowError: a huge JSON integer
                malformed += 1
                continue
            if ip in _UNSET or not _TS_MIN <= timestamp < _TS_MAX:  # the range test also fails for NaN
                malformed += 1
                continue
            unknown += not known
            records += 1
            yield timestamp, ip, tls13, resumed
    finally:
        stats.data_lines += data_lines
        stats.records += records
        stats.malformed += malformed
        stats.resumption_unknown += unknown

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
    """IP-to-class map from (network, asn, org) entries and CDN and cloud ASN
    sets; the narrowest entry wins.

    network is a CIDR string or an inclusive "start-end" address range
    (ranges are split into covering prefixes). Each entry's class is decided
    once, here: CDN if its ASN is in cdn_asns, else Cloud if in cloud_asns,
    else NonCDN; org is read but not kept. A network listed more than once
    keeps its last row. The map is built into one sorted boundary table per
    address family: the points where the narrowest entry holding an address
    can change (address 0, each network's first address, and the address
    after its last), as packed big-endian bytes, each with the class of the
    interval it starts. Packed bytes of one length order as the addresses
    do, so classify is one bisect whatever the prefix lengths.
    """

    def __init__(
        self,
        entries: Iterable[tuple[str, int, str]],
        cdn_asns: Iterable[int] = (),
        cloud_asns: Iterable[int] = (),
    ):
        cdn, cloud = frozenset(map(int, cdn_asns)), frozenset(map(int, cloud_asns))
        # Per address width, first address << 8 | prefix length -> class,
        # so that keys sort by address, wider first; a later row overwrites.
        nets: dict[int, dict[int, str]] = {32: {}, 128: {}}
        for network, asn, _org in entries:
            asn = int(asn)
            cls = CLASS_CDN if asn in cdn else CLASS_CLOUD if asn in cloud else CLASS_NONCDN
            for net in _parse_networks(network):
                nets[net.max_prefixlen][int(net.network_address) << 8 | net.prefixlen] = cls
        self._starts4, self._classes4 = _boundaries(nets[32], 32)
        self._starts6, self._classes6 = _boundaries(nets[128], 128)

    @classmethod
    def from_files(cls, map_csv, cdn_file=None, cloud_file=None) -> "AsnMap":
        return cls(
            load_asn_entries(map_csv),
            cdn_asns=load_asn_list(cdn_file) if cdn_file else (),
            cloud_asns=load_asn_list(cloud_file) if cloud_file else (),
        )

    def classify(self, ip: str) -> str:
        """The endpoint class of ip: that of the narrowest entry holding it,
        Unidentified if none does or ip is not an address that
        ipaddress.ip_address reads. Three readers are tried in turn, each
        followed by one bisect: inet_pton for IPv4, then for IPv6 (several
        times faster than ipaddress on the common forms), then ipaddress,
        which also reads a scoped fe80::1%eth0."""
        try:
            return self._classes4[bisect_right(self._starts4, inet_pton(AF_INET, ip)) - 1]
        except (OSError, ValueError):  # ValueError: a NUL or, as UnicodeEncodeError, a lone surrogate
            pass
        try:
            return self._classes6[bisect_right(self._starts6, inet_pton(AF_INET6, ip)) - 1]
        except (OSError, ValueError):
            pass
        try:
            packed = ipaddress.ip_address(ip).packed
        except ValueError:
            return CLASS_UNIDENTIFIED
        if len(packed) == 4:
            return self._classes4[bisect_right(self._starts4, packed) - 1]
        return self._classes6[bisect_right(self._starts6, packed) - 1]


def _boundaries(nets: dict[int, str], bits: int) -> tuple[list[bytes], list[str]]:
    """The starts of the intervals over all addresses `bits` wide, as packed
    bytes in address order, and per interval the class of the narrowest
    network holding it (CLASS_UNIDENTIFIED where none does). nets maps first
    address << 8 | prefix length to a class. Prefixes nest or are disjoint,
    so the networks holding the sweep point form a stack, narrowest on top."""
    top, size = 1 << bits, bits // 8
    starts: list[bytes] = [bytes(size)]
    classes: list[str] = [CLASS_UNIDENTIFIED]
    # (end, class) of the networks holding the sweep point, narrowest last.
    held: list[tuple[int, str]] = []

    def mark(point: int, cls: str) -> None:
        start = point.to_bytes(size, "big")
        if start == starts[-1]:
            classes[-1] = cls
        else:
            starts.append(start)
            classes.append(cls)

    def close(before: int) -> None:
        while held and held[-1][0] <= before:
            end = held.pop()[0]
            if end < top:
                mark(end, held[-1][1] if held else CLASS_UNIDENTIFIED)

    for key in sorted(nets):
        first = key >> 8
        close(first)
        mark(first, nets[key])
        held.append((first + (1 << bits - (key & 255)), nets[key]))
    close(top)
    return starts, classes


def _parse_networks(spec: str) -> list:
    """The networks a CIDR or "start-end" spec covers; ValueError if it does not parse."""
    spec = spec.strip()
    if "-" in spec and "/" not in spec:
        try:
            start, end = (ipaddress.ip_address(p.strip()) for p in spec.split("-", 1))
            return list(ipaddress.summarize_address_range(start, end))
        except (TypeError, ValueError) as e:  # TypeError: the ends differ in version
            raise ValueError(f"address range {spec}: {e}") from None
    return [ipaddress.ip_network(spec, strict=False)]


def _asn(raw: str) -> int:
    """The ASN spelled as 13335 or AS13335 (any case, blanks around)."""
    body = raw.strip().upper().removeprefix("AS").strip()
    if not (body.isascii() and body.isdigit()):
        raise ValueError(f"ASN {raw.strip()!r} is not a number")
    return int(body)


def _asn_entry(line: str) -> tuple[str, int, str]:
    """A network,asn,org row (extra columns ignored) whose network parses."""
    row = csv_cells(line)
    asn = _asn(row[1] if len(row) > 1 else "")
    network = row[0].strip()
    _parse_networks(network)
    return network, asn, row[2].strip() if len(row) > 2 else ""


def load_asn_entries(path) -> list[tuple[str, int, str]]:
    """Read a network,asn,org CSV by tables.read_rows's rules: its first row
    may be a header, and a later row whose ASN is not a number or whose
    network does not parse is an error naming the file and line. A row lies
    on one line: a quoted field left open at the end of its line is refused
    at that line."""
    return list(read_rows(path, _asn_entry, header=True))


def load_asn_list(path) -> frozenset[int]:
    """Read one ASN per line, each line's trailing '#' comment dropped, by
    tables.read_rows's rules: a line that is not an ASN is an error naming the
    file and line."""
    return frozenset(read_rows(path, lambda line: _asn(line.split("#", 1)[0])))


# ------------------------------------------------------------- aggregation


class ResumptionStats(Record):
    """Mergeable per-class counters with derived rates.

    Rates are None when their denominator is zero, and serialize as
    null rather than 0.
    """

    endpoint_class: str
    total: int = 0
    tls13: int = 0
    resumed_all: int = 0
    resumed_tls13: int = 0

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


def aggregate_stats(records: Iterable[LogRecord], asn_map: AsnMap) -> ClassStats:
    """Per-class totals over a record stream: the monthly fold, merged over months."""
    return class_totals(time_series(records, asn_map))


def merge_stats(a: ClassStats, b: ClassStats) -> ClassStats:
    return {c: a[c].merge(b[c]) for c in ENDPOINT_CLASSES}


# ------------------------------------------------------------- time series


def month_key(timestamp: float) -> str:
    """Calendar month of an epoch timestamp, in UTC, as YYYY-MM."""
    dt = datetime.fromtimestamp(timestamp, tz=timezone.utc)
    return f"{dt.year:04d}-{dt.month:02d}"


def time_series(records: Iterable[LogRecord], asn_map: AsnMap) -> Series:
    """Monthly per-class stats, sorted by month; empty months are absent.

    A UTC month starts at midnight, so each distinct UTC day's month is
    rendered once. datetime rounds a timestamp to the microsecond, half to
    even, so one within a microsecond of midnight takes month_key itself.
    """
    # Per (class, month), record counts indexed by 2 * tls13 + resumed.
    counts: dict[tuple[str, str], list[int]] = {}
    months: dict[float, str] = {}  # UTC day number -> its month
    classify = asn_map.classify
    for timestamp, ip, tls13, resumed in records:
        day = timestamp // 86400.0
        if 1e-6 <= timestamp - day * 86400.0 <= 86400.0 - 1e-6:
            month = months.get(day)
            if month is None:
                month = months[day] = month_key(day * 86400.0)
        else:
            month = month_key(timestamp)
        key = (classify(ip), month)
        slots = counts.get(key)
        if slots is None:
            slots = counts[key] = [0, 0, 0, 0]
        slots[2 * tls13 + resumed] += 1
    series: Series = {}
    for (cls, month), (neither, resumed_only, tls13_only, both) in sorted(counts.items()):
        series.setdefault(cls, []).append((month, ResumptionStats(
            cls,
            total=neither + resumed_only + tls13_only + both,
            tls13=tls13_only + both,
            resumed_all=resumed_only + both,
            resumed_tls13=both,
        )))
    return series


def class_totals(series: Series) -> ClassStats:
    """Per-class totals: each class's monthly stats merged over its months."""
    totals = new_stats()
    for cls, points in series.items():
        for _, stats in points:
            totals[cls] = totals[cls].merge(stats)
    return totals


def series_csv(out, series: Series) -> None:
    """Write the series to the text file out as CSV, one row per class and month."""
    write_csv(out, ("class", "month", "total", "tls13_rate", "resumption_rate"),
              ((cls, month, stats.total, stats.tls13_adoption, stats.resumption_rate_all)
               for cls in sorted(series) for month, stats in series[cls]))


def rate_correlation(pairs: Iterable[tuple[float, float]]) -> float | None:
    """Pearson correlation between two rate series.

    Needs at least 3 points; a constant series has no defined
    correlation and yields None.

    The arithmetic is statistics.correlation's on Python 3.10 and 3.11:
    fsum means, fsum of the centred products, then sxy / sqrt(sxx * syy).
    Python 3.12 and 3.13 changed it, which moved the last bits of r and so
    the bytes analyze writes; written out here, r is the same on every version.
    """
    pts = [(x, y) for x, y in pairs if x is not None and y is not None]
    if len(pts) < 3:
        raise ValueError("need at least 3 buckets with defined rates")
    xbar = fsum(x for x, _ in pts) / len(pts)
    ybar = fsum(y for _, y in pts) / len(pts)
    dx = [x - xbar for x, _ in pts]
    dy = [y - ybar for _, y in pts]
    try:
        return fsum(map(mul, dx, dy)) / sqrt(fsum(map(mul, dx, dx)) * fsum(map(mul, dy, dy)))
    except ZeroDivisionError:  # a constant series
        return None
