"""The `analyze` fold: pinned output, chunk invariance, one classification per record."""

import hashlib
import json
import math
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certflight import tls_log_analytics as tla
from certflight.cli import main
from certflight.config import _data_path
from certflight.tls_log_analytics import (
    AsnMap,
    ResumptionStats,
    aggregate_stats,
    merge_stats,
    new_stats,
    time_series,
)

from test_acceptance import _fixture_lines
from test_tls_log_analytics import JAN, make_map


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# sha256 of (JSON stdout, --format csv stdout, --series file) per input log.
GOLDEN = {
    "sample": (
        "9fec7664eeae7eae88c2df86e634f7c54ee57453542e5bfe6126ecfaa95ee712",
        "05151413420b802f39f7a5e96f91ac2fcc5f37bfdbd7874af63f36d5e0e3ab2a",
        "0631d099afede3e756d403bae16a8e3c7bbb2498ea1872210b10ab61b642f021",
    ),
    "criterion-7": (
        "8fb3e7b881f3bc8d8fc6edb5ff8612d8455a90c4030d7c4f5716bb0ed2b24b44",
        "257086fbdf9502c162dfc76065509ca83723112b02ac4bc492c583545ab3a03b",
        "6116becef5597fc4283e458c67e208dcad6584b14e581700132082ad47735b4b",
    ),
    # Two classes without records and a CDN class without TLS 1.3, so some rates are empty.
    "empty-classes": (
        "3db5cb83c15acbdf43fe09fd6c5a6643cc602d8fb1fded5d3e17d9e16a029c36",
        "355294815882f137d92d428eee2a9e38afaa09fcb46b3141bc3784ff65a83970",
        "d18e06889551e5aaefd675de83cfddb777018327c77775a0f5525ae98afbe872",
    ),
}

EMPTY_CLASSES_LOG = (
    "1735690000.0\t104.16.1.1\tTLSv1.2\tT\t-\n"
    "1735690100.0\t104.16.1.1\tTLSv1.2\tF\t-\n"
    "1738368000.0\t52.1.1.1\tTLSv1.3\tT\t-\n"
)


@pytest.mark.parametrize("log", sorted(GOLDEN))
def test_analyze_output_is_pinned(tmp_path, capsys, log):
    if log == "sample":
        path = _data_path("sample_tls_log.tsv")
    elif log == "empty-classes":
        path = tmp_path / "empty_classes.tsv"
        path.write_text(EMPTY_CLASSES_LOG)
    else:
        path = tmp_path / "criterion7.tsv"
        path.write_text("\n".join(_fixture_lines()) + "\n")
    series = tmp_path / "series.csv"
    digests = []
    for extra in ([], ["--format", "csv"]):
        assert main(["analyze", "--logs", str(path), "--series", str(series), *extra]) == 0
        digests.append(_sha(capsys.readouterr().out.encode()))
    digests.append(_sha(series.read_bytes()))
    assert tuple(digests) == GOLDEN[log]


def _buckets(series):
    return {(cls, month): stats for cls, points in series.items() for month, stats in points}


# (timestamp, server_ip, tls13, resumed) records, as parse_log_stream yields them.
record_lists = st.lists(
    st.tuples(
        st.floats(JAN, JAN + 400 * 86400),
        st.sampled_from(["104.16.1.1", "52.1.1.1", "73.5.5.5", "12.204.9.9",
                         "203.0.113.7", "not-an-ip"]),
        st.booleans(),
        st.booleans(),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(record_lists, st.data())
def test_fold_is_chunk_invariant(records, data):
    """Merging per-chunk folds equals one fold, per (class, month) and per class."""
    asn_map = make_map()
    cuts = sorted(data.draw(st.lists(st.integers(0, len(records)), max_size=8)))
    bounds = list(zip([0, *cuts], [*cuts, len(records)]))
    whole = time_series(records, asn_map)

    merged_buckets, merged_totals, merged_aggregates = {}, new_stats(), new_stats()
    for lo, hi in bounds:
        chunk = records[lo:hi]
        part = time_series(chunk, asn_map)
        for key, stats in _buckets(part).items():
            merged_buckets[key] = merged_buckets.pop(key, ResumptionStats(key[0])).merge(stats)
        merged_totals = merge_stats(merged_totals, tla.class_totals(part))
        merged_aggregates = merge_stats(merged_aggregates, aggregate_stats(chunk, asn_map))
    assert merged_buckets == _buckets(whole)

    over_months = new_stats()
    for (cls, _), stats in _buckets(whole).items():
        over_months[cls] = over_months[cls].merge(stats)
    assert sum(s.total for s in over_months.values()) == len(records)
    assert aggregate_stats(records, asn_map) == over_months
    assert tla.class_totals(whole) == over_months
    assert merged_totals == over_months
    assert merged_aggregates == over_months


def test_analyze_classifies_each_record_once(tmp_path, capsys, monkeypatch):
    calls = []
    classify = AsnMap.classify

    def counting(self, ip):
        calls.append(ip)
        return classify(self, ip)

    monkeypatch.setattr(AsnMap, "classify", counting)
    path = tmp_path / "criterion7.tsv"
    path.write_text("\n".join(_fixture_lines()) + "\n")
    for log in (_data_path("sample_tls_log.tsv"), str(path)):
        calls.clear()
        assert main(["analyze", "--logs", log, "--series", str(tmp_path / "s.csv")]) == 0
        records = json.loads(capsys.readouterr().out)["parse"]["records"]
        assert records > 0
        assert len(calls) == records


def test_analyze_classifies_each_record_once_on_a_mixed_log(tmp_path, capsys, monkeypatch):
    # classify reads a dotted IPv4 address itself and hands any other string
    # to its fallback: one call per record either way, as the bench tracer counts.
    calls = []
    classify = AsnMap.classify

    def counting(self, ip):
        calls.append(ip)
        return classify(self, ip)

    monkeypatch.setattr(AsnMap, "classify", counting)
    servers = ["104.16.1.1", "2001:db8::1", "::ffff:104.16.1.1", "fe80::1%eth0", "not-an-ip",
               "52.1.1.1", "010.1.1.1"]
    path = tmp_path / "mixed.tsv"
    path.write_text("".join(f"{JAN + i}\t{ip}\tTLSv1.3\tT\t-\n" for i, ip in enumerate(servers * 3)))
    assert main(["analyze", "--logs", str(path)]) == 0
    records = json.loads(capsys.readouterr().out)["parse"]["records"]
    assert records == len(servers) * 3
    assert sorted(calls) == sorted(servers * 3)


def _series_oracle(records, asn_map):
    """time_series written plainly: classify and month_key on every record,
    one ResumptionStats per (class, month), sorted by class, then month."""
    cells = {}
    for ts, ip, tls13, resumed in records:
        cls = asn_map.classify(ip)
        key = (cls, tla.month_key(ts))
        one = ResumptionStats(cls, 1, int(tls13), int(resumed), int(tls13 and resumed))
        cells[key] = cells.pop(key, ResumptionStats(cls)).merge(one)
    series = {}
    for cls, month in sorted(cells):
        series.setdefault(cls, []).append((month, cells[cls, month]))
    return series


# make_map's networks plus two IPv6 prefixes, so addresses of both families classify.
_ORACLE_MAP = AsnMap(
    [
        ("104.16.0.0/13", 13335, "CLOUDFLARENET"),
        ("52.0.0.0/10", 16509, "AMAZON-02"),
        ("73.0.0.0/8", 7922, "COMCAST"),
        ("12.0.0.0/8", 7018, "ATT"),
        ("12.204.0.0/16", 2914, "NTT"),
        ("2606:4700::/32", 13335, "CLOUDFLARENET"),
        ("2600:1f00::/24", 16509, "AMAZON-02"),
    ],
    cdn_asns=[13335],
    cloud_asns=[16509],
)

_DAYS = (int(tla._TS_MIN // 86400), int(tla._TS_MAX // 86400) - 1)
# Offsets in microseconds around midnight, where datetime's rounding decides the day.
_OFFSETS_US = (0, 0.4, -0.4, 0.5, -0.5, 0.6, -0.6, 1, -1, 2, -2)


def _month_start(year_month):
    year, month = year_month
    return datetime(year, month, 1, tzinfo=timezone.utc).timestamp()


_edges = st.one_of(
    st.integers(*_DAYS).map(lambda day: day * 86400.0),
    st.integers(-800, 800).map(lambda day: JAN + day * 86400.0),  # recent days, whose floats resolve 0.4 µs
    st.tuples(st.integers(1, 9999), st.integers(1, 12)).map(_month_start),
    st.tuples(st.integers(1960, 2040), st.integers(1, 12)).map(_month_start),
)
timestamps = st.one_of(
    st.builds(lambda edge, us: edge + us * 1e-6, _edges, st.sampled_from(_OFFSETS_US)),
    _edges.map(lambda edge: math.nextafter(edge, -math.inf)),
    st.floats(tla._TS_MIN, 0.0),  # negative epochs
    st.floats(JAN, JAN + 3 * 86400),  # a few days, so that records share a day
    st.floats(tla._TS_MIN, tla._TS_MAX, exclude_max=True),
    st.sampled_from([tla._TS_MIN, math.nextafter(tla._TS_MAX, 0)]),
).filter(lambda ts: tla._TS_MIN <= ts < tla._TS_MAX)  # the timestamps parse_log_stream yields
addresses = st.one_of(
    st.sampled_from(["104.16.1.1", "52.1.1.1", "73.5.5.5", "12.204.9.9", "12.0.0.5"]),  # mapped IPv4
    st.sampled_from(["2606:4700::1111", "2600:1f18::1", "::ffff:104.16.1.1", "fe80::1%eth0",
                     "2001:db8::1"]),  # IPv6, mapped and not
    st.sampled_from(["203.0.113.7", "9.9.9.9", "010.1.1.1"]),  # unmapped or not read as IPv4
    st.sampled_from(["not-an-ip", "", "104.16.1", "1.2.3.4.5"]),
    st.text(max_size=12),
)
oracle_records = st.lists(st.tuples(timestamps, addresses, st.booleans(), st.booleans()),
                          max_size=60)


@settings(max_examples=300, deadline=None)
@given(oracle_records)
@example([(JAN - 5e-7, "104.16.1.1", True, True), (JAN + 3600.0, "104.16.1.1", False, True),
          (JAN - 3600.0, "52.1.1.1", True, False), (JAN + 5e-7, "2606:4700::1", False, False)])
# The float below the epoch: t / 86400.0 rounds up to -0.0, a day more than t // 86400.0.
@example([(math.nextafter(0.0, -math.inf), "73.5.5.5", True, False), (-0.0, "73.5.5.5", True, True),
          (-43200.0, "73.5.5.5", False, False)])
@example([(tla._TS_MIN, "9.9.9.9", False, False),
          (math.nextafter(tla._TS_MAX, 0), "not-an-ip", True, True)])
def test_time_series_matches_the_per_record_oracle(records):
    """Same keys, same class and month order, same stats as classifying and
    naming the month of every record by itself."""
    got = time_series(records, _ORACLE_MAP)
    assert list(got.items()) == list(_series_oracle(records, _ORACLE_MAP).items())
