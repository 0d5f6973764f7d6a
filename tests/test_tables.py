import contextlib
import io
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
def _mutated(draw, text):
    """text with lines deleted, repeated, spliced or replaced by drawn ones."""
    lines = text.splitlines()
    line = st.one_of(
        st.sampled_from(lines),
        st.lists(st.sampled_from(_PIECES + lines), max_size=4).map("".join),
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
