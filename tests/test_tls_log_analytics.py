import io
import ipaddress
import itertools
import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certflight.config import Config
from certflight.errors import LogFormatError
from certflight import tls_log_analytics as tla
from certflight.tls_log_analytics import (
    CLASS_CDN,
    CLASS_CLOUD,
    CLASS_NONCDN,
    CLASS_UNIDENTIFIED,
    ENDPOINT_CLASSES,
    FIELDS,
    AsnMap,
    ParseStats,
    ResumptionStats,
    aggregate_stats,
    load_asn_entries,
    load_asn_list,
    merge_stats,
    month_key,
    new_stats,
    parse_log_stream,
    rate_correlation,
    series_csv,
    time_series,
)

JAN = 1735689600.0  # 2025-01-01T00:00:00Z
FEB = JAN + 31 * 86400
MAR = FEB + 28 * 86400


def make_map(cloud_asns=(16509,)):
    return AsnMap(
        [
            ("104.16.0.0/13", 13335, "CLOUDFLARENET"),
            ("52.0.0.0/10", 16509, "AMAZON-02"),
            ("73.0.0.0/8", 7922, "COMCAST"),
            ("12.0.0.0/8", 7018, "ATT"),
            ("12.204.0.0/16", 2914, "NTT"),
        ],
        cdn_asns=[13335],
        cloud_asns=cloud_asns,
    )


def rec(ip="104.16.1.1", tls13=True, resumed=False, ts=JAN):
    return (ts, ip, tls13, resumed)


@pytest.mark.parametrize("version, tls13", [
    ("TLSv1.3", True), (" tls1.3 ", True), ("TLSV13", True),
    ("TLSv1.2", False), ("SSLv3", False), ("TLSv1.3.1", False),
    ("-", False), ("(empty)", False), ("", False), (None, False),
], ids=["TLSv1.3", "padded-tls1.3", "TLSV13", "TLSv1.2", "SSLv3", "TLSv1.3.1",
        "dash", "(empty)", "empty", "null"])
def test_the_tls13_flag(version, tls13):
    row = {"ts": JAN, "id.resp_h": "104.16.1.1", "version": version, "resumed": True}
    lines = [json.dumps(row)]
    if version is not None:  # None is JSON null; TSV has no null
        lines.append(f"{JAN}\t104.16.1.1\t{version}\tT\t-")
    assert list(parse_log_stream(lines)) == [(JAN, "104.16.1.1", tls13, True)] * len(lines)


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
    assert records == [(1735690000.5, "104.16.1.1", True, True),
                       (1735690001.5, "73.1.2.3", False, False)]


def test_fields_header_overrides_column_order():
    lines = (
        "#fields\tversion\tts\tresumed\tid.resp_h\tserver_name\n"
        "TLSv1.3\t1735690000.0\tT\t104.16.1.1\t-\n"
    ).splitlines()
    records = list(parse_log_stream(lines))
    assert records == [(1735690000.0, "104.16.1.1", True, True)]


def test_missing_resumed_defaults_false_and_is_counted():
    stats = ParseStats()
    lines = (ZEEK_HEADER + "1735690000.0\t104.16.1.1\tTLSv1.3\t-\t-\n").splitlines()
    records = list(parse_log_stream(lines, stats=stats))
    assert records[0][3] is False
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
        json.dumps({"ts": 1735690002.0, "id.resp_h": "104.16.1.1",
                    "version": "tls1.3", "resumed": "yes"}),
    ]
    stats = ParseStats()
    records = list(parse_log_stream(lines, stats=stats))
    assert stats.records == 3
    assert records == [(1735690000.0, "104.16.1.1", True, True),
                       (1735690001.0, "73.1.1.1", False, False),
                       (1735690002.0, "104.16.1.1", True, True)]


def test_unreadable_stream_raises_at_exhaustion():
    lines = ["%% binary junk %%", "more junk", "1,2,3"]
    with pytest.raises(LogFormatError):
        list(parse_log_stream(lines))


def test_repeated_column_takes_its_last_position_and_missing_key_column_is_malformed():
    lines = ["#fields\tts\tid.resp_h\tts", "1.0\t104.16.1.1\t1735690000.0"]
    assert [r[0] for r in parse_log_stream(lines)] == [1735690000.0]
    # Rows that would parse if the header named the missing column.
    for header, row in (("#fields\tid.resp_h\tversion", "104.16.1.1\tTLSv1.3"),
                        ("#fields\tts\tversion", "1735690000.0\tTLSv1.3")):
        stats = ParseStats()
        with pytest.raises(LogFormatError):
            list(parse_log_stream([header, row, row], stats=stats))
        assert stats.malformed == stats.data_lines == 2


@pytest.mark.parametrize("line", [
    '{"ts": 1' + "0" * 5000 + ', "id.resp_h": "104.16.1.1"}',
    '{"ts": 1735690000.0, "id.resp_h": ' + "[" * 100000 + "]" * 100000 + "}",
], ids=["too-many-digits-to-read", "too-deep"])
def test_jsonl_lines_python_cannot_read_are_malformed(line):
    good = json.dumps({"ts": JAN, "id.resp_h": "104.16.1.1"})
    stats = ParseStats()
    assert len(list(parse_log_stream([good, line, good], stats=stats))) == 2
    assert stats.malformed == 1


# Each field's value is a valid one half of the time, and random otherwise.
_VALID = {"ts": "1735690000.5", "id.resp_h": "104.16.1.1", "version": "tls1.3",
          "resumed": "T", "server_name": "example.com"}


def _valid_or(value, others):
    return st.booleans().flatmap(lambda valid: st.just(value) if valid else others)


_TSV_VALUES = st.sampled_from(
    ["1", "nan", "-inf", "1e300", "-", "", "(empty)", "F", "yes", "2001:db8::1", "SSLv3"]
) | st.text(st.characters(blacklist_characters="\t\n"), max_size=8)
_TSV_LINES = (st.tuples(*(_valid_or(v, _TSV_VALUES) for v in _VALID.values()))
              | st.lists(_TSV_VALUES, max_size=7)).map("\t".join)
# A #fields header may leave out, repeat or add columns.
_HEADERS = st.lists(st.sampled_from(FIELDS + ("server_name", "uid")), max_size=7).map(
    lambda names: "\t".join(("#fields", *names)))
# Numbers of every size, the last beyond float range.
_NUMBERS = st.floats() | st.integers() | st.integers(2 ** 1024, 2 ** 1330)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)
# A JSON null reads as an absent field.
_JSON_ROWS = st.fixed_dictionaries(
    {**{name: _valid_or(value, _JSON_VALUES) for name, value in _VALID.items()},
     "ts": _valid_or(JAN, _NUMBERS | _JSON_VALUES)},
    optional={"uid": _JSON_VALUES},
)
_JSON_LINES = _JSON_ROWS.map(json.dumps)


# A log read from a rotation point or while it grows can start mid-line, and
# one may start with a byte order mark.
_PARTIAL_LINES = st.builds(lambda line, cut: line[cut:], _TSV_LINES | _JSON_LINES,
                           st.integers(1, 40)) | _JSON_LINES.map("\ufeff".__add__)
_JUNK = st.text(max_size=20) | _PARTIAL_LINES


def _stream(data_lines):
    """Mostly data lines, with a header or a junk line one time in five."""
    return st.lists(st.one_of(data_lines, data_lines, data_lines, _HEADERS, _JUNK), max_size=12)


_LOG_LINES = _stream(_TSV_LINES) | _stream(_JSON_LINES) | _stream(_TSV_LINES | _JSON_LINES)


def _parse(lines) -> tuple[list[tuple], ParseStats]:
    stats = ParseStats()
    records = []
    try:
        records.extend(parse_log_stream(lines, stats=stats))
    except LogFormatError:
        assert stats.malformed > stats.records
    return records, stats


@settings(max_examples=300, deadline=None)
@given(_LOG_LINES)
def test_every_data_line_is_a_record_or_malformed(lines):
    records, stats = _parse(lines)
    data_lines = sum(1 for line in lines
                     if line.rstrip("\n").strip() and not line.startswith("#"))
    assert stats.records + stats.malformed == stats.data_lines == data_lines
    assert len(records) == stats.records
    for timestamp, ip, tls13, resumed in records:
        assert isinstance(timestamp, float) and month_key(timestamp)
        assert isinstance(ip, str) and ip
        assert type(tls13) is bool and type(resumed) is bool


@settings(max_examples=300, deadline=None)
@given(_LOG_LINES)
def test_each_data_line_reads_as_it_would_alone(lines):
    # Alone means behind the #fields header in force, so no line's shape
    # decides how another line is read.
    header, alone, counts = [], [], ParseStats()
    for line in lines:
        if line.startswith("#fields"):
            header = [line]
        elif line.rstrip("\n").strip() and not line.startswith("#"):
            records, stats = _parse(header + [line])
            alone += records
            for name in vars(counts):
                setattr(counts, name, getattr(counts, name) + getattr(stats, name))
    records, stats = _parse(lines)
    assert records == alone
    assert stats == counts
    assert stats.records + stats.malformed == stats.data_lines


_ROW = {"ts": JAN, "id.resp_h": "104.16.1.1", "version": "TLSv1.3", "resumed": True}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_JSON_ROWS, _JSON_VALUES), max_size=8))
@example([(_ROW, {"a": [1]}), (_ROW, 7), (_ROW, 1.5), (_ROW, ["x"]), (_ROW, None), (_ROW, "-")])
def test_a_json_server_name_is_never_read(rows):
    # server_name is not one of FIELDS: whatever its value, or its absence,
    # the line gives the same record or is malformed for another reason.
    named = [json.dumps({**row, "server_name": name}) for row, name in rows]
    unnamed = [json.dumps({k: v for k, v in row.items() if k != "server_name"}) for row, _ in rows]
    assert _parse(named) == _parse(unnamed)


# Field strings as a TSV log holds them. No value holds a tab or a newline, and
# none a "{" or "#", which would make its TSV line a JSON line or a comment.
_TEXT = st.text(st.characters(blacklist_characters="\t\n{#"), max_size=6)
_STRINGS = {
    "ts": st.sampled_from(["1735690000.5", " 1735690000 ", "nan", "inf", "-inf", "1e999",
                           "-62135596801", "253402300800", "-", ""])
    | st.floats(allow_nan=False).map(repr) | _TEXT,
    "id.resp_h": st.sampled_from(["104.16.1.1", " 52.1.1.1 ", "-", "(empty)", "", "  ",
                                  "not-an-ip"]) | _TEXT,
    "version": st.sampled_from(["TLSv1.3", " tlsV1.3 ", "TLS1.3", "TLSV13", "TLSv1.2", "-", ""])
    | _TEXT,
    "resumed": st.sampled_from(["T", " t ", "F", "yes", "No", "TRUE", "0", "1", "-", "",
                                "junk"]) | _TEXT,
}
_DEFAULT_COLUMNS = (*FIELDS, "server_name")


@st.composite
def _twin_segments(draw):
    """Segments of a TSV log, each a #fields header's names (None for the
    default columns, first only) and rows of field strings in its column order."""
    segments = []
    for i in range(draw(st.integers(1, 3))):
        names = None if i == 0 and draw(st.booleans()) else tuple(draw(st.lists(
            st.sampled_from(_DEFAULT_COLUMNS + ("uid",)), min_size=1, max_size=5, unique=True)))
        columns = names or _DEFAULT_COLUMNS
        rows = draw(st.lists(st.tuples(*(_STRINGS.get(name, _TEXT) for name in columns)),
                             max_size=6))
        segments.append((names, rows))
    return segments


def _twin_logs(segments):
    """A TSV log and its JSON-lines twin: one JSON object per TSV data line,
    holding the same strings under the same names."""
    tsv, jsonl = [], []
    for names, rows in segments:
        if names is not None:
            tsv.append("\t".join(("#fields", *names)))
        for values in rows:
            line = "\t".join(values)
            if line.strip():  # a blank TSV line is no data line
                tsv.append(line)
                jsonl.append(json.dumps(dict(zip(names or _DEFAULT_COLUMNS, values))))
    return tsv, jsonl


def _one_field(name, values):
    """Rows of the default columns, a valid record's strings but for name's value."""
    return [(None, [tuple(value if n == name else _VALID[n] for n in _DEFAULT_COLUMNS)
                    for value in values])]


@settings(max_examples=300, deadline=None)
@given(_twin_segments())
@example(_one_field("version", ["TLSv1.3", " tlsV1.3 ", "TLS1.3 ", "TlSv13", "TLSv1.2",
                                "tlsv1.3", "-"]))
@example(_one_field("id.resp_h", ["-", "(empty)", "", "  ", " 104.16.1.1 ", "-", "not-an-ip"]))
@example(_one_field("resumed", ["T", "yes", "-", "junk", "-", "junk", " F ", "(empty)"]))
@example(_one_field("ts", ["nan", "inf", "1e999", "-62135596801", "253402300800",
                           "-62135596800", "253402300799.9", "nan"]))
@example([(("ts", "id.resp_h", "resumed"), [("1735690000", "104.16.1.1", "T")] * 2),
          (("id.resp_h", "ts", "version", "uid"), [("52.1.1.1", "1735690000", "TLSv1.3", "x")] * 2)])
@example(_one_field("ts", ["nan", "1735690000.5", "nan"]))  # one address, malformed then valid
@example([(("ts", "id.resp_h", "version", "resumed"), [("1", "52.1.1.1", "TLSv1.3", "F")] * 2),
          (("ts", "id.resp_h", "resumed", "version"), [("2", "52.1.1.1", "TLSv1.3", "F")] * 2)])
def test_a_tsv_log_and_its_json_twin_read_alike(segments):
    # A TSV line's version and resumed are read through memos, a JSON line's
    # directly: each log gives the same records and the same counts. The last
    # example swaps the version and resumed columns, so the same strings
    # change meaning.
    tsv, jsonl = _twin_logs(segments)
    assert _parse(tsv) == _parse(jsonl)


@settings(max_examples=300, deadline=None)
@given(_LOG_LINES, st.lists(st.tuples(*(_STRINGS[name] for name in FIELDS)), max_size=4))
def test_a_line_reads_alike_with_and_without_its_newline(lines, rows):
    # A file gives each line with its "\n", which then ends the last column.
    # Under each of the 24 orders of the read columns, each comes last.
    logs = [lines] + [["\t".join(("#fields", *order)),
                       *("\t".join(row[FIELDS.index(name)] for name in order) for row in rows)]
                      for order in itertools.permutations(FIELDS)]
    for log in logs:
        assert _parse(log) == _parse([line + "\n" for line in log])


def test_memos_at_their_bound_change_no_result(monkeypatch):
    rng = random.Random(2121)
    ips = [f"104.16.{i}.1" for i in range(6)] + ["73.5.5.5", "52.1.1.1", "-", "not-an-ip"]
    versions = ["TLSv1.3", " tlsv1.3", "TLS1.3", "TLSv1.2", "SSLv3", "-"]
    resumptions = ["T", "F", "yes", "no", "-", "junk"]
    lines = [f"{JAN + rng.uniform(0, 1e7)}\t{rng.choice(ips)}\t{rng.choice(versions)}\t"
             f"{rng.choice(resumptions)}\t-" for _ in range(2000)]

    def fold():
        stats = ParseStats()
        return time_series(parse_log_stream(lines, stats=stats), make_map()), stats

    want = fold()
    sizes = []

    class Watched(tla._Memo):
        def __missing__(self, key):
            value = super().__missing__(key)
            sizes.append(len(self))
            return value

    monkeypatch.setattr(tla, "MEMO_LIMIT", 2)
    monkeypatch.setattr(tla, "_Memo", Watched)
    assert fold() == want
    assert max(sizes) == 2
    assert sizes.count(2) > 100  # full many times, so values were read again after a clear


def test_longest_prefix_wins():
    # NTT's 12.204.0.0/16 sits inside ATT's 12.0.0.0/8; as Cloud, it shows which one won.
    m = make_map(cloud_asns=[16509, 2914])
    assert m.classify("12.0.0.5") == CLASS_NONCDN
    assert m.classify("12.204.1.1") == CLASS_CLOUD
    assert m.classify("12.205.0.0") == CLASS_NONCDN
    assert m.classify("104.17.0.9") == CLASS_CDN
    assert m.classify("9.9.9.9") == CLASS_UNIDENTIFIED
    assert m.classify("not-an-ip") == CLASS_UNIDENTIFIED


def test_range_entries_are_split_into_prefixes():
    # The second range is no prefix: it splits into 10.0.3.7/32 ... 10.0.4.0/30.
    m = AsnMap([("10.0.0.0-10.0.1.255", 64512, "LAB"), ("10.0.3.7-10.0.4.3", 64513, "ODD")],
               cdn_asns=[64513])
    assert m.classify("9.255.255.255") == CLASS_UNIDENTIFIED
    assert m.classify("10.0.0.0") == CLASS_NONCDN
    assert m.classify("10.0.1.3") == CLASS_NONCDN
    assert m.classify("10.0.1.255") == CLASS_NONCDN
    assert m.classify("10.0.2.0") == CLASS_UNIDENTIFIED
    assert m.classify("10.0.3.6") == CLASS_UNIDENTIFIED
    assert m.classify("10.0.3.7") == CLASS_CDN
    assert m.classify("10.0.3.200") == CLASS_CDN
    assert m.classify("10.0.4.3") == CLASS_CDN
    assert m.classify("10.0.4.4") == CLASS_UNIDENTIFIED


# The packaged map, plus IPv6 entries: nested prefixes, link-local and
# the IPv4-mapped block.
_LOOKUP_ENTRIES = load_asn_entries(Config().resolve_asn_paths()[0]) + [
    ("2001:db8::/32", 64500, "DOC"), ("2001:db8:1::/48", 64501, "DOC-1"),
    ("fe80::/10", 64502, "LINK"), ("::ffff:0:0/96", 64503, "MAPPED"),
]


def _oracle_rows(entries):
    """(network, (asn, org)) per network of each entry, in row order, read by ipaddress alone."""
    rows = []
    for spec, asn, org in entries:
        if "-" in spec:
            start, end = map(ipaddress.ip_address, spec.split("-"))
            nets = ipaddress.summarize_address_range(start, end)
        else:
            nets = [ipaddress.ip_network(spec, strict=False)]
        rows += [(net, (asn, org)) for net in nets]
    return rows


def _narrowest(rows, ip):
    """The (asn, org) of the narrowest network holding ip, the last row among
    equals; None if none does or ipaddress does not read ip."""
    try:
        addr = ipaddress.ip_address(ip)
    except ValueError:
        return None
    best = None
    for net, hit in rows:
        if addr in net and (best is None or net.prefixlen >= best[0]):
            best = (net.prefixlen, hit)
    return best and best[1]


_LOOKUP_ROWS = _oracle_rows(_LOOKUP_ENTRIES)
_LOOKUP_NETS = [net for net, _ in _LOOKUP_ROWS]


def _lookup_oracle(ip):
    """The narrowest entry holding ip, read by ipaddress alone."""
    return _narrowest(_LOOKUP_ROWS, ip)


def _address_forms(addr):
    """Spellings of one address that ipaddress reads."""
    forms = [str(addr), str(addr).upper()]
    if addr.version == 4:
        forms.append(f"::ffff:{addr}")
    else:
        forms.append(addr.exploded)
    return st.sampled_from(forms)


_ADDRESSES = st.one_of(
    st.text(),
    st.text(alphabet="0123456789.", max_size=20),
    st.text(alphabet="0123456789abcdefABCDEF:.%", max_size=48),
    st.sampled_from(_LOOKUP_NETS).flatmap(lambda net: st.ip_addresses(network=net))
    .flatmap(_address_forms),
)


# The map with CDN and cloud ASNs: the packaged lists, and two of the IPv6 entries.
_, _CDN_FILE, _CLOUD_FILE = Config().resolve_asn_paths()
_CDN_ASNS = load_asn_list(_CDN_FILE) | {64500}
_CLOUD_ASNS = load_asn_list(_CLOUD_FILE) | {64503}
_CLASSIFY_MAP = AsnMap(_LOOKUP_ENTRIES, cdn_asns=_CDN_ASNS, cloud_asns=_CLOUD_ASNS)


def _class_oracle(ip):
    """The class of the narrowest entry holding ip, read by ipaddress alone."""
    hit = _lookup_oracle(ip)
    if hit is None:
        return CLASS_UNIDENTIFIED
    return CLASS_CDN if hit[0] in _CDN_ASNS else CLASS_CLOUD if hit[0] in _CLOUD_ASNS else CLASS_NONCDN


@settings(max_examples=1000, deadline=None)
@given(_ADDRESSES)
@example("104.16.1.1\x00")  # inet_pton raises ValueError on a NUL
@example("104.16.1.\ud800")  # and UnicodeEncodeError on a lone surrogate
@example("fe80::1%eth0")  # scoped: only ipaddress reads it
@example("::ffff:104.16.1.1")
@example("010.1.1.1")
@example("1.1.1")
@example("104.16.1.\u0661")  # an Arabic-Indic digit one
@example("104.16.1.1 ")
@example("256.1.1.1")
@example("0x1.1.1.1")
def test_classify_reads_addresses_as_ipaddress_does(ip):
    assert _CLASSIFY_MAP.classify(ip) == _class_oracle(ip)


def test_classify_reads_ipv4_through_ipaddress_where_inet_pton_refuses_it(monkeypatch):
    # A platform whose inet_pton reads no IPv4 text leaves IPv4 to ipaddress.
    real = tla.inet_pton

    def no_ipv4(family, ip):
        if family == tla.AF_INET:
            raise OSError("illegal IP address string passed to inet_pton")
        return real(family, ip)

    monkeypatch.setattr(tla, "inet_pton", no_ipv4)
    probes = {"0.0.0.0", "192.0.2.1", "255.255.255.255"}
    for net in _LOOKUP_NETS:
        if net.version == 4:
            first, last = int(net.network_address), int(net.broadcast_address)
            probes.update(str(ipaddress.IPv4Address(value)) for value in
                          (first - 1, first, first + 1, last - 1, last, last + 1)
                          if 0 <= value < 2**32)
    for ip in sorted(probes):
        assert _CLASSIFY_MAP.classify(ip) == _class_oracle(ip), ip
    assert {_class_oracle(ip) for ip in probes} == set(ENDPOINT_CLASSES)


@st.composite
def _nested_maps(draw):
    """Map entries of both families whose networks nest: prefixes of a few
    base addresses (the ends of the space among them), the default routes,
    host routes, start-end ranges and a network repeated with another ASN."""
    entries = []
    for cls, bits in ((ipaddress.IPv4Address, 32), (ipaddress.IPv6Address, 128)):
        top = 2**bits - 1
        bases = draw(st.lists(st.one_of(st.sampled_from([0, top]), st.integers(0, top)),
                              min_size=1, max_size=3))
        for _ in range(draw(st.integers(0, 6))):
            base, plen = draw(st.sampled_from(bases)), draw(st.integers(0, bits))
            first = base >> (bits - plen) << (bits - plen)
            entries.append((f"{cls(first)}/{plen}", draw(st.integers(1, 4)), f"ORG{len(entries)}"))
        for _ in range(draw(st.integers(0, 2))):
            start = draw(st.sampled_from(bases))
            end = min(top, start + draw(st.integers(0, 2**draw(st.integers(0, bits)))))
            spec = f"{cls(start)}-{cls(end)}"
            entries.append((spec, draw(st.integers(1, 4)), f"ORG{len(entries)}"))
    if entries and draw(st.booleans()):
        network, asn, org = draw(st.sampled_from(entries))
        entries.append((network, asn % 4 + 1, org + "-AGAIN"))
    return draw(st.permutations(entries))


def _spellings(addr):
    """Spellings of one address that ipaddress reads, scoped ones among them."""
    if addr.version == 4:
        return [str(addr), f"::ffff:{addr}", f"::FFFF:{addr}"]
    return [str(addr), str(addr).upper(), addr.exploded, f"{addr}%eth0"]


_ENDS = ["0.0.0.0/0", "255.255.255.255/32", "::/0", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128"]


@settings(max_examples=150, deadline=None)
@given(_nested_maps())
@example([("0.0.0.0/0", 1, "ALL"), ("::/0", 2, "ALL6")])
@example([(net, asn, "END") for asn, net in enumerate(_ENDS, 1)])
@example([("255.255.255.0/24", 1, "TOP"), ("255.255.255.255/32", 2, "HOST"),
          ("255.255.255.254-255.255.255.255", 3, "RANGE"), ("255.255.255.255/32", 4, "AGAIN")])
@example([("ffff::/16", 1, "TOP6"), ("ffff:ffff:ffff:ffff:ffff:ffff:ffff:fffe/127", 2, "TOP6-127")])
def test_classify_reads_the_boundary_table_as_ipaddress_does(entries):
    """At each network's first and last address and one past each, in several
    spellings, classify agrees with the narrowest network holding the
    address, the last row winning among equals."""
    asn_map = AsnMap(entries, cdn_asns=[1], cloud_asns=[2])
    rows = _oracle_rows(entries)
    classes = {None: CLASS_UNIDENTIFIED, 1: CLASS_CDN, 2: CLASS_CLOUD, 3: CLASS_NONCDN,
               4: CLASS_NONCDN}
    probes = set()
    for net, _ in rows:
        first, last = int(net.network_address), int(net.broadcast_address)
        for value in (first - 1, first, last, last + 1):
            if 0 <= value < 2**net.max_prefixlen:
                probes.add(type(net.network_address)(value))
    for addr in probes:
        for ip in _spellings(addr):
            want = _narrowest(rows, ip)
            assert asn_map.classify(ip) == classes[want and want[0]], ip


def test_classify():
    m = make_map()
    assert m.classify("104.16.1.1") == CLASS_CDN
    assert m.classify("52.1.1.1") == CLASS_CLOUD
    assert m.classify("73.5.5.5") == CLASS_NONCDN
    assert m.classify("203.0.113.7") == CLASS_UNIDENTIFIED
    assert make_map(cloud_asns=[16509, 13335]).classify("104.16.1.1") == CLASS_CDN  # CDN comes first


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


def test_load_asn_list_saved_with_a_bom(tmp_path):
    path = tmp_path / "cdn.txt"
    path.write_bytes(b"\xef\xbb\xbf13335  # Cloudflare, Inc.\n54113\n")
    assert load_asn_list(path) == frozenset({13335, 54113})


def test_a_map_quote_left_open_is_refused_at_its_own_line(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text('network,asn,org\n104.16.0.0/13,"13335,X\n73.0.0.0/8,7922,COMCAST\n')
    with pytest.raises(ValueError) as e:
        load_asn_entries(path)
    assert str(e.value).startswith(f"{path}:2: ")


@pytest.mark.parametrize("text, line, value", [
    ("network,asn,org\n104.16.0.0/13,13335x,CLOUDFLARENET\n", 2, "13335x"),
    ("# only comments may come before a header\n\n104.16.0.0/13,13335,CF\n"
     "network,asn,org\n", 4, "asn"),
    ("104.16.0.0/13,13335,CF\n73.0.0.0/8\n", 2, ""),
], ids=["typo", "second-header", "no-asn"])
def test_a_map_row_without_an_asn_after_the_first_is_an_error(tmp_path, text, line, value):
    path = tmp_path / "map.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as e:
        load_asn_entries(path)
    assert str(e.value) == f"{path}:{line}: ASN {value!r} is not a number"


def test_asn_list_errors_name_the_file_and_line(tmp_path):
    path = tmp_path / "cdn.txt"
    path.write_text("13335\n\nabc  # typo\n")
    with pytest.raises(ValueError) as e:
        load_asn_list(path)
    assert str(e.value) == f"{path}:3: ASN 'abc' is not a number"
    path.write_bytes(b"\xff\xfe1\n")
    with pytest.raises(ValueError) as e:
        load_asn_list(path)
    assert str(e.value).startswith(f"{path}: not UTF-8 text")


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
            tls13=rng.choice([True, False]),
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
    s = ResumptionStats(CLASS_CDN, total=1)  # one connection, not TLS 1.3
    assert s.tls13_adoption == 0.0
    assert s.resumption_rate_tls13 is None  # still no 1.3 connections
    assert json.loads(json.dumps(s.to_dict()))["resumption_rate_tls13"] is None


def test_month_key_is_utc():
    assert month_key(JAN) == "2025-01"
    assert month_key(FEB - 1) == "2025-01"
    assert month_key(FEB) == "2025-02"
    assert month_key(MAR) == "2025-03"


FEB_2024 = 1706745600.0  # 2024-02-01T00:00:00Z
FEB_1970 = 2678400.0  # where floats still resolve tenths of a microsecond


@settings(max_examples=500, deadline=None)
@given(st.floats(tla._TS_MIN, tla._TS_MAX, exclude_max=True))
@example(math.nextafter(FEB_2024, -math.inf))  # datetime rounds it up to 2024-02
@example(math.nextafter(FEB_2024, math.inf))
@example(FEB_1970 - 5e-7)  # its float lies just beyond the half: 1970-01
@example(FEB_1970 - 4.9e-7)  # rounds up to midnight: 1970-02
@example(FEB_1970 - 5.1e-7)  # rounds down: 1970-01
@example(-3e-7)  # the day before the epoch, rounded up to 1970-01
@example(-1e-300)
@example(-0.0)
@example(tla._TS_MIN)
@example(math.nextafter(tla._TS_MAX, 0))
def test_time_series_names_each_month_as_month_key_does(ts):
    series = time_series([rec(ip="9.9.9.9", ts=ts)], make_map())
    assert series == {CLASS_UNIDENTIFIED: [(month_key(ts), ResumptionStats(CLASS_UNIDENTIFIED, 1, 1))]}


def test_time_series_renders_each_day_once(monkeypatch):
    calls = []

    def counting(ts):
        calls.append(ts)
        return month_key(ts)

    monkeypatch.setattr(tla, "month_key", counting)
    rng = random.Random(1506)
    records = [rec(ts=JAN + rng.uniform(0, 730 * 86400)) for _ in range(5000)]
    series = time_series(records, make_map())
    days = {ts // 86400 for ts, *_ in records}
    assert len(series[CLASS_CDN]) == 24
    assert len(calls) <= len(days) < len(records)


def test_time_series_and_csv():
    m = make_map()
    records = [
        rec(ts=JAN, resumed=True),
        rec(ts=FEB),
        rec(ts=FEB + 3600, resumed=True),
        rec(ip="73.5.5.5", ts=MAR, tls13=False),
    ]
    series = time_series(records, m)
    assert [month for month, _ in series[CLASS_CDN]] == ["2025-01", "2025-02"]
    assert series[CLASS_CDN][1][0] == "2025-02"
    assert series[CLASS_CDN][1][1].total == 2
    assert CLASS_CLOUD not in series
    out = io.StringIO()
    series_csv(out, series)
    lines = out.getvalue().splitlines()
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


def test_rate_correlation_has_the_same_bits_on_every_python():
    # statistics.correlation gives ...9281p-2 on 3.12 and ...9283p-2 on 3.13.
    xs = [0.8585, 0.2896, 0.1443, 0.1178, 0.3085]
    ys = [0.8161, 0.1807, 0.5816, 0.6389, 0.3724]
    assert rate_correlation(zip(xs, ys)).hex() == "0x1.da46396cc9284p-2"


@pytest.mark.parametrize("bad", [
    {"id.resp_h": ["x"], "version": "TLSv1.3"},
    {"id.resp_h": 1746833665, "version": "TLSv1.3"},
    {"id.resp_h": "104.16.1.1", "version": {"a": 1}},
    {"id.resp_h": "104.16.1.1", "version": 1.3},
    {"ts": True, "id.resp_h": "104.16.1.1"},
    {"ts": 10 ** 400, "id.resp_h": "104.16.1.1"},  # beyond float range
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
    assert [r[1:3] for r in records] == [("104.16.1.1", False), ("not-an-ip", True)]
    assert make_map().classify(records[1][1]) == CLASS_UNIDENTIFIED
