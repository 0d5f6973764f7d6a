import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certflight.cli import main
from certflight.config import _data_path
from certflight.tables import read_rows


def read(tmp_path, data, parse=int, header=False):
    path = tmp_path / "table.csv"
    path.write_bytes(data)
    return list(read_rows(path, parse, header))


def refusal(tmp_path, data, header):
    with pytest.raises(ValueError) as e:
        read(tmp_path, data, header=header)
    return str(e.value).replace(str(tmp_path / "table.csv"), "PATH")


def test_blank_comma_only_and_comment_lines_are_skipped(tmp_path):
    data = b"1\n\n  \n,,\n , ,\r\n# note\n  # indented\n2\r\n3\r4"
    assert read(tmp_path, data) == [1, 2, 3, 4]


def test_a_leading_bom_is_dropped(tmp_path):
    assert read(tmp_path, b"\xef\xbb\xbf1\n2\n") == [1, 2]
    assert read(tmp_path, b"\xef\xbb\xbfname\n2\n", header=True) == [2]


@pytest.mark.parametrize("data, header, where", [
    (b"1\nname\n", True, "PATH:2: "),
    (b"name\n1\n", False, "PATH:1: "),
    (b"name1\n1\n", True, "PATH:1: "),
    (b"1\n\xff\n", False, "PATH: not UTF-8 text"),
], ids=["second-line", "no-header", "digit", "not-utf8"])
def test_a_refused_line_names_the_file_and_line(tmp_path, data, header, where):
    assert refusal(tmp_path, data, header=header).startswith(where)


def test_only_a_first_line_without_a_digit_is_a_header(tmp_path):
    assert read(tmp_path, b"# comment\n\nname\n1\n", header=True) == [1]


# File contents for each reader the CLI offers: the flag, the packaged file (or,
# for calibrate, the points of test_calibrate_from_csv) that mutations start from.
_SAMPLE_LOG = _data_path("sample_tls_log.tsv")
_POINTS = "rtt_ms,ttfb_ms\n0,8.06\n10,28.71\n50,109.00\n100,208.84\n200,409.10\n"
_TABLES = {
    "--asn-map": Path(_data_path("asn_map_sample.csv")).read_text(),
    "--cdn-asns": Path(_data_path("cdn_asns.txt")).read_text(),
    "--cloud-asns": Path(_data_path("cloud_asns.txt")).read_text(),
    "--csv": _POINTS,
}
_PIECES = [",", ",,", "#", '"', " ", "\ufeff", "\x00", "inf", "nan", "1e400", "-1", "AS",
           "13335", "0.0.0.0/0", "::/0", "1.2.3.4-::1", "10.0.0.0/33", "\xe9"]


@st.composite
def _mutated(draw, text, pieces=_PIECES):
    """text with lines deleted, repeated, spliced or replaced by drawn ones."""
    lines = text.splitlines()
    line = st.one_of(
        st.sampled_from(lines),
        st.lists(st.sampled_from(pieces + lines), max_size=4).map("".join),
        st.text(max_size=20),
    )
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["delete", "insert", "replace"]))
        if kind != "insert" and i < len(lines):
            del lines[i]
        if kind != "delete":
            lines.insert(i, draw(line))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + data.encode()


_CASES = st.sampled_from(sorted(_TABLES)).flatmap(
    lambda flag: st.tuples(st.just(flag), st.one_of(st.binary(max_size=200), _mutated(_TABLES[flag])))
)


@settings(max_examples=200, deadline=None)
@given(case=_CASES, want=st.none())
@example(case=("--csv", b"rtt,ttfb\n0,8\n,500\n10,28\n50,109\n"), want=1)
@example(case=("--csv", b"rtt,ttfb\n0,8\n10,inf\n50,109\n"), want=1)
@example(case=("--csv", b"\xef\xbb\xbf" + _POINTS.split("\n", 1)[1].encode()), want=0)
@example(case=("--cdn-asns", b"\xef\xbb\xbf13335  # Cloudflare, Inc.\n"), want=0)
@example(case=("--csv", _POINTS.encode() + b"1" * 200_000 + b",5\n"), want=1)
@example(case=("--asn-map", b"net,asn\n1.2.3.4/32," + b"9" * 200_000 + b"\n"), want=1)
@example(case=("--csv", _POINTS.replace("\n50,", "\n,,\n50,").encode()), want=0)
@example(case=("--asn-map", _TABLES["--asn-map"].replace("\n8.8", "\n,,\n8.8").encode()), want=0)
@example(case=("--asn-map", b"1.2.3.4-::1,13335,X\n"), want=1)
@example(case=("--csv", b"0,8\n10,\xff\n"), want=1)
def test_a_user_table_is_read_or_refused_naming_it(tmp_path_factory, case, want):
    """Any bytes in a user table either run to exit 0 or end with exit 1, no
    output and one error line naming the file; want pins an example's exit."""
    flag, data = case
    path = tmp_path_factory.mktemp("table") / "table"
    path.write_bytes(data)
    argv = (["calibrate", "--csv", str(path)] if flag == "--csv"
            else ["analyze", "--logs", _SAMPLE_LOG, flag, str(path)])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in ((0, 1) if want is None else (want,))
    if code == 0:
        assert out and err == ""
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err


def _refuse_constant(name):
    raise ValueError(f"not JSON: {name}")


# Pieces of Zeek TSV and JSON-lines logs, for splicing into the packaged sample.
_LOG_PIECES = ["\t", "#fields\tts\tid.resp_h\tversion\tresumed", "#", "-", "(empty)", "{",
               "}", '{"ts": 1e400}', '"id.resp_h": ', "T", "F", "TLSv1.3", "1735690000",
               "nan", "-inf", "1e300", "253402300800", "fe80::1%eth0", "::ffff:104.16.1.1",
               "\x00", "\ufeff"]


@st.composite
def _fields_replaced(draw, text, pieces):
    """text with a few of its tab-separated fields replaced by drawn pieces."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split("\t")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(pieces))
        lines[i] = "\t".join(fields)
    return "\n".join(lines) + "\n"


_LOGS = st.one_of(
    st.binary(max_size=4096),
    _fields_replaced(Path(_SAMPLE_LOG).read_text(), _PIECES + _LOG_PIECES).flatmap(
        lambda text: _mutated(text, _PIECES + _LOG_PIECES)),
)


@settings(max_examples=150, deadline=None)
@given(_LOGS)
@example(b"")
@example(b"\xff\xfe\x00\n")
@example(b'{"ts": 1735690000, "id.resp_h": "104.16.1.1", "resumed": true}\n{"ts": NaN}\n')
def test_an_analyzed_log_is_read_or_refused_in_one_line(tmp_path_factory, data):
    """Any log bytes run analyze to exit 0 and JSON without NaN or Infinity, or
    end with exit 1, no output and one error line."""
    path = tmp_path_factory.mktemp("log") / "ssl.log"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", "--logs", str(path)])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1)
    if code == 0:
        assert err == ""
        json.loads(out, parse_constant=_refuse_constant)
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
