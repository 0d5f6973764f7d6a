import json
import random

import pytest

from certflight.config import Config
from certflight.errors import LogFormatError
from certflight.tls_log_analytics import (
    CLASS_CDN,
    CLASS_CLOUD,
    CLASS_NONCDN,
    CLASS_UNIDENTIFIED,
    ENDPOINT_CLASSES,
    AsnMap,
    ParseStats,
    ResumptionStats,
    TlsLogRecord,
    aggregate_stats,
    load_asn_entries,
    load_asn_list,
    merge_stats,
    month_key,
    new_stats,
    normalize_version,
    parse_log_stream,
    rate_correlation,
    series_csv,
    time_series,
)

JAN = 1735689600.0  # 2025-01-01T00:00:00Z
FEB = JAN + 31 * 86400
MAR = FEB + 28 * 86400


def make_map():
    return AsnMap(
        [
            ("104.16.0.0/13", 13335, "CLOUDFLARENET"),
            ("52.0.0.0/10", 16509, "AMAZON-02"),
            ("73.0.0.0/8", 7922, "COMCAST"),
            ("12.0.0.0/8", 7018, "ATT"),
            ("12.204.0.0/16", 2914, "NTT"),
        ],
        cdn_asns=[13335],
        cloud_asns=[16509],
    )


def rec(ip="104.16.1.1", version="TLSv1.3", resumed=False, ts=JAN):
    return TlsLogRecord(ts, ip, version, resumed)


def test_normalize_version():
    assert normalize_version("tls1.3") == "TLSv1.3"
    assert normalize_version(" TLSv13 ") == "TLSv1.3"
    assert normalize_version("TLSv1.2") == "TLSv1.2"
    assert normalize_version("SSLv3") == "SSLv3"  # unknown passes through


def test_is_tls13():
    assert rec(version="TLSv1.3").is_tls13
    assert not rec(version="TLSv1.2").is_tls13


ZEEK_HEADER = (
    "#separator \\x09\n"
    "#fields\tts\tid.resp_h\tversion\tresumed\tserver_name\n"
    "#types\ttime\taddr\tstring\tbool\tstring\n"
)


def test_parse_zeek_tsv():
    stats = ParseStats()
    lines = (
        ZEEK_HEADER
        + "1735690000.5\t104.16.1.1\tTLSv1.3\tT\texample.com\n"
        + "1735690001.5\t73.1.2.3\tTLSv1.2\tF\t-\n"
    ).splitlines()
    records = list(parse_log_stream(lines, stats=stats))
    assert stats.records == 2 and stats.malformed == 0
    assert records[0].resumed and records[0].server_name == "example.com"
    assert records[1].tls_version == "TLSv1.2"
    assert records[1].server_name is None


def test_fields_header_overrides_column_order():
    lines = (
        "#fields\tversion\tts\tresumed\tid.resp_h\tserver_name\n"
        "TLSv1.3\t1735690000.0\tT\t104.16.1.1\t-\n"
    ).splitlines()
    records = list(parse_log_stream(lines))
    assert records[0].server_ip == "104.16.1.1"
    assert records[0].timestamp == 1735690000.0
    assert records[0].resumed


def test_missing_resumed_defaults_false_and_is_counted():
    stats = ParseStats()
    lines = (ZEEK_HEADER + "1735690000.0\t104.16.1.1\tTLSv1.3\t-\t-\n").splitlines()
    records = list(parse_log_stream(lines, stats=stats))
    assert records[0].resumed is False
    assert stats.resumption_unknown == 1
    assert stats.records == 1


def test_malformed_lines_are_skipped_and_counted():
    stats = ParseStats()
    lines = (
        ZEEK_HEADER
        + "not-a-ts\t104.16.1.1\tTLSv1.3\tT\t-\n"          # bad timestamp
        + "1735690000.0\t104.16.1.1\tTLSv1.3\tT\t-\tzzz\n"  # column count
        + "1735690001.0\t-\tTLSv1.3\tT\t-\n"                # unset address
        + "1735690002.0\t104.16.1.1\tTLSv1.3\tT\t-\n"
        + "1735690003.0\t104.16.1.2\tTLSv1.3\tF\t-\n"
        + "1735690004.0\t104.16.1.3\tTLSv1.2\tF\t-\n"
        + "1735690005.0\t104.16.1.4\tTLSv1.3\tT\t-\n"
    ).splitlines()
    records = list(parse_log_stream(lines, stats=stats))
    assert len(records) == 4
    assert stats.malformed == 3
    assert stats.data_lines == 7


def test_parse_jsonl_and_auto_sniff():
    lines = [
        json.dumps({"ts": 1735690000.0, "id.resp_h": "104.16.1.1",
                    "version": "TLSv1.3", "resumed": True, "server_name": "a.com"}),
        json.dumps({"ts": 1735690001.0, "id.resp_h": "73.1.1.1",
                    "version": "TLSv1.2", "resumed": False}),
    ]
    stats = ParseStats()
    records = list(parse_log_stream(lines, stats=stats))
    assert stats.records == 2
    assert records[0].resumed is True
    assert records[1].server_name is None


def test_field_map_override():
    lines = [json.dumps({"when": 1735690000.0, "dst": "104.16.1.1",
                         "proto": "tls1.3", "reused": "yes"})]
    records = list(parse_log_stream(
        lines,
        field_map={"ts": "when", "ip": "dst", "version": "proto",
                   "resumed": "reused", "sni": "host"},
    ))
    assert records[0].is_tls13 and records[0].resumed


def test_unreadable_stream_raises_at_exhaustion():
    lines = ["%% binary junk %%", "more junk", "1,2,3"]
    with pytest.raises(LogFormatError):
        list(parse_log_stream(lines))


def test_unknown_format_name_rejected():
    with pytest.raises(ValueError):
        list(parse_log_stream([], fmt="xml"))


def test_longest_prefix_wins():
    m = make_map()
    assert m.lookup("12.0.0.5") == (7018, "ATT")
    assert m.lookup("12.204.1.1") == (2914, "NTT")
    assert m.lookup("104.17.0.9") == (13335, "CLOUDFLARENET")
    assert m.lookup("9.9.9.9") is None
    assert m.lookup("not-an-ip") is None


def test_range_entries_are_split_into_prefixes():
    m = AsnMap([("10.0.0.0-10.0.1.255", 64512, "LAB")])
    assert m.lookup("10.0.1.3") == (64512, "LAB")
    assert m.lookup("10.0.2.0") is None


def test_classify():
    m = make_map()
    assert m.classify("104.16.1.1") == CLASS_CDN
    assert m.classify("52.1.1.1") == CLASS_CLOUD
    assert m.classify("73.5.5.5") == CLASS_NONCDN
    assert m.classify("203.0.113.7") == CLASS_UNIDENTIFIED


def test_load_entries_tolerates_header_and_as_prefix(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text(
        "network,autonomous_system_number,autonomous_system_organization\n"
        "104.16.0.0/13,AS13335,CLOUDFLARENET\n"
        "# a comment\n"
        "73.0.0.0/8,7922,COMCAST\n"
    )
    entries = load_asn_entries(path)
    assert entries == [
        ("104.16.0.0/13", 13335, "CLOUDFLARENET"),
        ("73.0.0.0/8", 7922, "COMCAST"),
    ]


def test_load_asn_list(tmp_path):
    path = tmp_path / "cdn.txt"
    path.write_text("13335  # cloudflare\nAS54113\n\n# fastly above\n")
    assert load_asn_list(path) == frozenset({13335, 54113})


def test_packaged_sample_data_aggregates():
    cfg = Config()
    asn_map = AsnMap.from_files(*cfg.resolve_asn_paths())
    with open(cfg.resolve_asn_paths()[0].replace("asn_map_sample.csv", "sample_tls_log.tsv")) as f:
        records = list(parse_log_stream(f))
    stats = aggregate_stats(records, asn_map)
    assert {c: s.total for c, s in stats.items()} == {
        "CDN": 9, "Cloud": 2, "NonCDN": 7, "Unidentified": 2,
    }
    assert stats["CDN"].resumed_all == 8
    assert stats["NonCDN"].tls13 == 3


def test_merge_matches_single_pass():
    rng = random.Random(2214)
    m = make_map()
    ips = ["104.16.1.1", "52.1.1.1", "73.5.5.5", "203.0.113.7"]
    records = [
        rec(
            ip=rng.choice(ips),
            version=rng.choice(["TLSv1.3", "TLSv1.2"]),
            resumed=rng.random() < 0.5,
            ts=JAN + rng.uniform(0, 5e6),
        )
        for _ in range(500)
    ]
    single = aggregate_stats(records, m)
    merged = new_stats()
    cut = 0
    while cut < len(records):
        size = rng.randrange(1, 120)
        merged = merge_stats(merged, aggregate_stats(records[cut:cut + size], m))
        cut += size
    assert merged == single


def test_merge_rejects_class_mismatch():
    with pytest.raises(ValueError):
        ResumptionStats(CLASS_CDN).merge(ResumptionStats(CLASS_CLOUD))


def test_rates_are_none_without_denominator():
    s = ResumptionStats(CLASS_CDN)
    assert s.tls13_adoption is None
    assert s.resumption_rate_tls13 is None
    assert s.resumption_rate_all is None
    s.add(rec(version="TLSv1.2"))
    assert s.tls13_adoption == 0.0
    assert s.resumption_rate_tls13 is None  # still no 1.3 connections
    assert json.loads(json.dumps(s.to_dict()))["resumption_rate_tls13"] is None


def test_month_key_is_utc():
    assert month_key(JAN) == "2025-01"
    assert month_key(FEB - 1) == "2025-01"
    assert month_key(FEB) == "2025-02"
    assert month_key(MAR) == "2025-03"


def test_time_series_and_csv():
    m = make_map()
    records = [
        rec(ts=JAN, resumed=True),
        rec(ts=FEB),
        rec(ts=FEB + 3600, resumed=True),
        rec(ip="73.5.5.5", ts=MAR, version="TLSv1.2"),
    ]
    series = time_series(records, m)
    assert [month for month, _ in series[CLASS_CDN]] == ["2025-01", "2025-02"]
    assert series[CLASS_CDN][1][0] == "2025-02"
    assert series[CLASS_CDN][1][1].total == 2
    assert CLASS_CLOUD not in series
    text = series_csv(series)
    lines = text.splitlines()
    assert lines[0] == "class,month,total,tls13_rate,resumption_rate"
    assert "CDN,2025-01,1,1.0,1.0" in lines
    assert "NonCDN,2025-03,1,0.0,0.0" in lines


def test_all_classes_present_in_aggregate():
    stats = aggregate_stats([], make_map())
    assert set(stats) == set(ENDPOINT_CLASSES)


def test_rate_correlation():
    up = [(0.1, 0.2), (0.2, 0.4), (0.3, 0.6)]
    assert rate_correlation(up) == pytest.approx(1.0)
    down = [(0.1, 0.6), (0.2, 0.4), (0.3, 0.2)]
    assert rate_correlation(down) == pytest.approx(-1.0)
    flat = [(0.5, 0.2), (0.5, 0.4), (0.5, 0.9)]
    assert rate_correlation(flat) is None
    with pytest.raises(ValueError):
        rate_correlation([(0.1, 0.2), (0.2, None), (None, 0.3)])


@pytest.mark.parametrize("bad", [
    {"id.resp_h": ["x"], "version": "TLSv1.3"},
    {"id.resp_h": 1746833665, "version": "TLSv1.3"},
    {"id.resp_h": "104.16.1.1", "version": {"a": 1}},
    {"id.resp_h": "104.16.1.1", "version": 1.3},
])
def test_jsonl_values_of_the_wrong_type_are_malformed(bad):
    good = [
        {"ts": JAN, "id.resp_h": "104.16.1.1", "version": None, "resumed": True},
        {"ts": JAN, "id.resp_h": "not-an-ip", "version": "tls1.3", "resumed": False},
    ]
    lines = [json.dumps(row) for row in (good[0], {"ts": JAN, "resumed": True, **bad}, good[1])]
    stats = ParseStats()
    records = list(parse_log_stream(lines, stats=stats))
    assert (stats.records, stats.malformed) == (2, 1)
    assert [(r.server_ip, r.tls_version) for r in records] == [
        ("104.16.1.1", "unknown"), ("not-an-ip", "TLSv1.3")
    ]
    assert make_map().classify(records[1].server_ip) == CLASS_UNIDENTIFIED
