import json
import random
import ssl
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certflight import cert_forge
from certflight.cert_forge import (
    MAX_CERT_BYTES,
    DerCertTemplate,
    forge_chain,
    minimum_size,
    pad_to_size,
    parse_and_measure,
    pem_lines,
    write_chain,
)
from certflight.chain_model import ChainSpec, SchemeProfile, resolve_scheme
from certflight.errors import ConfigError, PaddingError

TEMPLATE = DerCertTemplate()


def test_exact_size_small_spread():
    for target in (900, 1000, 1024, 2048, 4800, 16600, 32100, 48700):
        blob = pad_to_size(TEMPLATE, target)
        assert len(blob) == target
        report = parse_and_measure(blob)
        assert report.well_formed, (target, report.error)
        assert report.total_bytes == target


def test_exact_size_across_length_field_boundaries():
    # DER length fields widen at content sizes 127->128 and 255->256 and
    # 65535->65536; the builder must hit every total even where a one
    # byte pad change moves the total by two or more.
    minimum = minimum_size(TEMPLATE)
    for target in range(minimum, minimum + 300):
        assert len(pad_to_size(TEMPLATE, target)) == target
    for target in range(65400, 65700):
        if target == 65540:
            continue  # see test_impossible_total_is_an_error
        assert len(pad_to_size(TEMPLATE, target)) == target


def test_impossible_total_is_an_error():
    # No minimally encoded TLV has total size 65540: a 4-byte header
    # tops out at 4 + 65535 and a 5-byte header starts at 5 + 65536.
    with pytest.raises(PaddingError):
        pad_to_size(TEMPLATE, 65540)


def test_impossible_total_just_above_the_minimum_is_an_error():
    # With this subject the minimum is 65,539 bytes and one byte of padding widens a
    # length field to 65,541. Every signature stretch past the first starts above
    # 65,540, so its search ends at once on a negative pad.
    template = DerCertTemplate(subject_cn="x" * 65233)
    assert minimum_size(template) == 65539
    with pytest.raises(PaddingError, match="^no padding arrangement reaches 65540 bytes exactly$"):
        pad_to_size(template, 65540)


def test_undersized_target_reports_minimum():
    minimum = minimum_size(TEMPLATE)
    with pytest.raises(PaddingError) as err:
        pad_to_size(TEMPLATE, minimum - 1)
    assert err.value.minimum_bytes == minimum


def test_forging_is_deterministic():
    a = pad_to_size(TEMPLATE, 5000)
    b = pad_to_size(TEMPLATE, 5000)
    assert a == b


def test_padding_is_measured_not_guessed():
    blob = pad_to_size(TEMPLATE, 10000)
    report = parse_and_measure(blob)
    assert report.well_formed
    assert 0 < report.padding_bytes < 10000
    bigger = parse_and_measure(pad_to_size(TEMPLATE, 12000))
    assert bigger.padding_bytes - report.padding_bytes == pytest.approx(2000, abs=16)


def test_random_targets_land_exactly():
    rng = random.Random(8221)
    for _ in range(200):
        target = rng.randrange(600, 60000)
        blob = pad_to_size(TEMPLATE, target)
        assert len(blob) == target
        assert parse_and_measure(blob).well_formed


def test_truncation_is_detected():
    blob = pad_to_size(TEMPLATE, 2000)
    report = parse_and_measure(blob[:-1])
    assert not report.well_formed
    assert report.error_offset is not None
    assert report.error


def test_trailing_garbage_is_detected():
    blob = pad_to_size(TEMPLATE, 2000)
    report = parse_and_measure(blob + b"\x00")
    assert not report.well_formed


def test_wrong_outer_tag_is_detected():
    blob = bytearray(pad_to_size(TEMPLATE, 2000))
    blob[0] = 0x31  # SET instead of SEQUENCE
    assert not parse_and_measure(bytes(blob)).well_formed


def test_corrupt_inner_length_is_detected():
    blob = bytearray(pad_to_size(TEMPLATE, 2000))
    # Shrink the tbs length byte; children no longer tile their parent.
    assert blob[4] == 0x30
    blob[6] -= 1
    assert not parse_and_measure(bytes(blob)).well_formed


def test_non_minimal_length_encoding_is_rejected():
    # 0x81 0x05: long form for a length that fits the short form.
    blob = b"\x30\x81\x05" + b"\x30\x03\x02\x01\x01"
    report = parse_and_measure(blob)
    assert not report.well_formed


def test_empty_and_tiny_blobs():
    assert not parse_and_measure(b"").well_formed
    assert not parse_and_measure(b"\x30").well_formed


def test_pem_round_trip():
    blob = pad_to_size(TEMPLATE, 3333)
    text = "".join(pem_lines(blob))
    assert text.startswith("-----BEGIN CERTIFICATE-----")
    assert max(len(line) for line in text.splitlines()) <= 64
    assert ssl.PEM_cert_to_DER_cert(text) == blob
    assert ssl.DER_cert_to_PEM_cert(blob) == text


def test_forge_chain_full():
    chain = forge_chain(ChainSpec(resolve_scheme("SLH-DSA")))
    assert [c.role for c in chain.certs] == ["leaf", "intermediate-1"]
    assert [c.target_bytes for c in chain.certs] == [16600, 32100]
    assert chain.total_bytes == 48700
    for cert in chain.certs:
        assert len(cert.der) == cert.target_bytes
        assert parse_and_measure(cert.der).well_formed


def test_forge_chain_mtc_single_cert():
    chain = forge_chain(ChainSpec(resolve_scheme("ML-DSA"), mtc=True))
    assert [c.role for c in chain.certs] == ["leaf"]
    assert chain.total_bytes == 4800


def test_forge_chain_explicit_size():
    chain = forge_chain(ChainSpec(resolve_scheme("ECDSA"), explicit_size_kb=2.5))
    assert [c.role for c in chain.certs] == ["cert"]
    assert chain.total_bytes == 2500


def test_forge_chain_kb_unit():
    chain = forge_chain(ChainSpec(resolve_scheme("ECDSA"), explicit_size_kb=2.5), kb_bytes=1024)
    assert chain.total_bytes == 2560


def test_forge_chain_mtc_requires_profile_support():
    with pytest.raises(ConfigError):
        forge_chain(ChainSpec(resolve_scheme("ECDSA"), mtc=True))


def test_write_chain_manifest(tmp_path):
    chain = forge_chain(ChainSpec(resolve_scheme("ML-DSA")))
    manifest = write_chain(chain, tmp_path, [parse_and_measure(c.der) for c in chain.certs])
    assert (tmp_path / "manifest.json").exists()
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk == manifest
    assert manifest["total_bytes"] == 11900
    for entry in manifest["certs"]:
        der = (tmp_path / entry["file_der"]).read_bytes()
        assert len(der) == entry["actual_bytes"] == entry["target_bytes"]
        pem = (tmp_path / entry["file_pem"]).read_text()
        assert ssl.PEM_cert_to_DER_cert(pem) == der


def test_forging_and_writing_a_megabyte_certificate_hold_it_about_once(tmp_path):
    """pad_to_size searches on lengths and joins the certificate once, so
    forging peaks at the certificate plus its zero padding; write_chain
    streams the PEM a line at a time, so writing adds little to the
    certificate already held."""
    import tracemalloc

    spec = ChainSpec(resolve_scheme("ECDSA"), explicit_size_kb=1000.0)
    tracemalloc.start()
    try:
        chain = forge_chain(spec)
        forge_peak = tracemalloc.get_traced_memory()[1]
        reports = [parse_and_measure(c.der) for c in chain.certs]
        tracemalloc.reset_peak()
        write_chain(chain, tmp_path, reports)
        write_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (cert,) = chain.certs
    assert len(cert.der) == cert.target_bytes == 1_000_000
    assert forge_peak <= 2.2 * cert.target_bytes
    assert write_peak <= 1.3 * cert.target_bytes
    assert "".join(pem_lines(cert.der)) == (tmp_path / "cert.pem").read_text()


@pytest.mark.parametrize("size_kb", [1e300, 16777.216])
def test_a_certificate_too_large_for_tls_is_refused_unbuilt(size_kb):
    # 16777.216 KB is 2^24 bytes, one more than cert_data<1..2^24-1> holds.
    spec = ChainSpec(resolve_scheme("ECDSA"), explicit_size_kb=size_kb)
    with mock.patch.object(cert_forge, "_build", wraps=cert_forge._build) as build:
        with pytest.raises(PaddingError, match=str(MAX_CERT_BYTES)):
            forge_chain(spec)
    assert build.call_count == 0


# 777216 + 16 * 1000000 bytes is 2^24, one more than certificate_list<0..2^24-1> holds.
OVER_THE_LIST_LIMIT = SchemeProfile("big", leaf_kb=777.216, intermediate_kb=1000.0)


@pytest.mark.parametrize("scheme, intermediates", [
    (resolve_scheme("ECDSA"), 10**8),
    (resolve_scheme("ECDSA"), 10**308),
    (OVER_THE_LIST_LIMIT, 16),
])
def test_a_chain_too_large_for_tls_is_refused_unbuilt(monkeypatch, scheme, intermediates):
    monkeypatch.setattr(cert_forge, "pad_to_size", mock.Mock(side_effect=AssertionError("built")))
    with pytest.raises(PaddingError, match=str(MAX_CERT_BYTES)):
        forge_chain(ChainSpec(scheme, intermediates=intermediates))


def test_a_chain_at_the_tls_limit_is_built(monkeypatch):
    pad = mock.Mock(return_value=b"")
    monkeypatch.setattr(cert_forge, "pad_to_size", pad)
    at_limit = SchemeProfile("big", leaf_kb=777.215, intermediate_kb=1000.0)
    forge_chain(ChainSpec(at_limit, intermediates=16))
    assert sum(call.args[1] for call in pad.call_args_list) == MAX_CERT_BYTES


def _serial_content_bytes(blob: bytes) -> int:
    # Certificate -> tbs -> [0] version, then the serial INTEGER.
    _, _, tbs = cert_forge._read_header(blob, 0)
    _, _, version = cert_forge._read_header(blob, tbs)
    _, version_len, version_content = cert_forge._read_header(blob, version)
    tag, length, _ = cert_forge._read_header(blob, version_content + version_len)
    assert tag == 0x02
    return length


# Subject and issuer names as forge_chain writes them.
@pytest.mark.parametrize("subject, issuer", [
    ("cert", "root"),
    ("leaf", "intermediate-1"),
    ("leaf", "root"),
    ("intermediate-1", "intermediate-2"),
    ("intermediate-3", "root"),
])
def test_exact_sizes_around_every_length_field_widening(subject, issuer):
    # The padding's wrappers widen near the minimum (128 and 256 bytes of
    # content) and the tbs and outer lengths near 65,536; the signature
    # stretch alone reaches every total, so the serial never grows.
    template = DerCertTemplate(subject_cn=f"{subject}.test", issuer_cn=f"{issuer}.test")
    minimum = minimum_size(template)
    for target in [*range(minimum, minimum + 600), *range(65300, 66000)]:
        if target == 65540:
            continue  # see test_impossible_total_is_an_error
        blob = pad_to_size(template, target)
        assert len(blob) == target
        assert parse_and_measure(blob).well_formed, target
        assert _serial_content_bytes(blob) == 8, target


def _tlv(tag: int, *parts: bytes) -> bytes:
    return cert_forge._tlv(tag, b"".join(parts))


_SIG_ALG = _tlv(0x30, _tlv(0x06, b"\x2a\x03"))
_SIG = _tlv(0x03, b"\x00")
_PAD_OID = cert_forge._der_oid(cert_forge.PAD_EXTENSION_OID)


def _cert(tbs=b"", tbs_tag=0x30, sig_alg=_SIG_ALG, sig=_SIG):
    return _tlv(0x30, _tlv(tbs_tag, tbs), sig_alg, sig)


def _nested(depth):
    blob = b""
    for _ in range(depth):
        blob = _tlv(0x30, blob)
    return blob


def _extensions(content):
    """A forged certificate whose extensions field, [3], holds content, of any
    length, in place of its extension list."""
    head, tail = cert_forge._build(TEMPLATE, 0)
    extensions = _tlv(0xA3, _tlv(0x30, _tlv(0x30, _PAD_OID, _tlv(0x04))))
    assert head.endswith(extensions)
    tbs = head[head.index(bytes.fromhex("a003020102")):-len(extensions)]  # from the version on
    return _tlv(0x30, _tlv(0x30, tbs, _tlv(0xA3, content)), tail)


def _extension(*fields):
    """A forged certificate whose one extension is made of these fields."""
    return _extensions(_tlv(0x30, _tlv(0x30, *fields)))


def _padded_extension(*fields):
    """A forged certificate whose padding extension holds these fields after its
    OID in place of the OCTET STRING."""
    return _extension(_PAD_OID, *fields)


_BAD_PAD_OID = "padding OID must be 2b0601040183b2030101"


_FORGED = _padded_extension(_tlv(0x04, bytes(3)))  # as forge writes it, with 3 bytes of padding
_SERIAL = _FORGED.index(b"\x02\x08\x01") + 2  # the serial INTEGER's content
_NOT_BEFORE = _FORGED.index(b"250101000000Z")
_ISSUER_CN = _FORGED.index(b"ca.test")
_SUBJECT_CN = _FORGED.index(b"leaf.test")


def _edited(at, new):
    """_FORGED with new in place of its bytes from at."""
    return _FORGED[:at] + new + _FORGED[at + len(new):]


@st.composite
def _mutated_blobs(draw):
    """A forged certificate with random byte flips, insertions and
    deletions, most near its headers, then perhaps truncated."""
    blob = bytearray(pad_to_size(TEMPLATE, draw(st.integers(minimum_size(TEMPLATE), 3000))))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, min(len(blob), 160)) | st.integers(0, len(blob)))
        kind = draw(st.sampled_from(["flip", "insert", "delete"]))
        if kind == "insert":
            blob[at:at] = draw(st.binary(min_size=1, max_size=4))
        elif kind == "flip" and at < len(blob):
            blob[at] ^= draw(st.integers(1, 255))
        else:
            del blob[at:at + draw(st.integers(1, 4))]
    return bytes(blob[:draw(st.none() | st.integers(0, len(blob)))])


# Each example names the report fields it must give. The parser checks the one
# shape forge writes, so a blob built by _cert is refused where its tbs leaves
# that shape, at the version; the blobs built on a forged certificate reach the
# field they change.
@settings(max_examples=300, deadline=None)
@given(_mutated_blobs(), st.just({}))
@example(b"\x1f\x00", {"error": "multi-byte tags not supported"})
@example(b"\x30\x80\x00\x00", {"error": "indefinite length is not DER"})
@example(b"\x30\x82\x01", {"error": "truncated length field"})
@example(b"\x30\x82\x00\x05", {"error": "length field has leading zero", "error_offset": 2})
@example(_cert(b"\x04\x05"), {"error": "child overruns its parent"})
@example(_extension(_tlv(0x06), _tlv(0x04)), {"error": _BAD_PAD_OID})
@example(_extension(_tlv(0x06, b"\x2a\x86"), _tlv(0x04)), {"error": _BAD_PAD_OID})
@example(_cert(tbs_tag=0x31), {"error": "tbs must have tag 0x30, found 0x31"})
# The empty tbs ends where the signature algorithm's node starts, after the 2-byte header.
@example(_cert(sig_alg=_tlv(0x31)), {"error": "child overruns its parent", "error_offset": 4})
@example(_cert() + b"\x00", {"error": "child overruns its parent", "error_offset": 4})
@example(_cert(sig=_tlv(0x04, b"\x00")), {"error": "child overruns its parent"})
@example(_cert(sig=_tlv(0x03, b"\x08")), {"error": "child overruns its parent"})
@example(_extensions(_tlv(0x31)), {"error": "extension list must have tag 0x30, found 0x31"})
@example(_extensions(_tlv(0x30, _tlv(0x04))),
         {"error": "padding extension must have tag 0x30, found 0x04"})
@example(_extension(_tlv(0x04)), {"error": "padding OID must have tag 0x06, found 0x04"})
@example(_extension(_tlv(0x06, b"\x2a")), {"error": _BAD_PAD_OID})
# The padding OID with its 55555 arc led by a redundant 0x80.
@example(_extension(_tlv(0x06, _PAD_OID[2:7], b"\x80", _PAD_OID[7:]), _tlv(0x04, bytes(3))),
         {"error": _BAD_PAD_OID})
@example(_extension(_tlv(0x06, b"\x80\x2a"), _tlv(0x04)), {"error": _BAD_PAD_OID})
# Extensions 5,000 SEQUENCEs deep: the walk descends no further than the shape does.
@example(_extensions(_nested(4999)), {"error": "padding OID must have tag 0x06, found 0x30"})
# An OID arc of 4,300-plus decimal digits.
@example(_extension(_tlv(0x06, b"\x81" * 2100 + b"\x01"), _tlv(0x04)),
         {"error": _BAD_PAD_OID, "padding_bytes": 0})
# The shape forge writes, and edits of it that each leave one rule of that shape.
@example(_FORGED, {"well_formed": True, "padding_bytes": 3})
@example(_FORGED + b"\x00", {"error": "trailing bytes after certificate", "error_offset": len(_FORGED)})
@example(_edited(4, b"\x31"), {"error": "tbs must have tag 0x30, found 0x31", "error_offset": 4})
@example(_edited(_SERIAL, b"\x02"),
         {"error": "serial must be 0100000000000000", "error_offset": _SERIAL})
# A valid UTCTime, 1995-01-01, that forge does not write.
@example(_edited(_NOT_BEFORE, b"9"),
         {"error": f"not before must be {b'250101000000Z'.hex()}", "error_offset": _NOT_BEFORE})
@example(_edited(_SUBJECT_CN, "l\u00e9af.tst".encode()), {"well_formed": True, "padding_bytes": 3})
@example(_edited(_SUBJECT_CN, b"\xff"),
         {"error": "common name must be UTF-8", "error_offset": _SUBJECT_CN})
@example(_edited(_ISSUER_CN, b"\xc3"),
         {"error": "common name must be UTF-8", "error_offset": _ISSUER_CN})
# The signature BIT STRING's unused-bit count, ahead of its 72 placeholder bytes.
@example(_edited(len(_FORGED) - 73, b"\x01"),
         {"error": "signature must start with 0 unused bits", "error_offset": len(_FORGED) - 73})
# The padding extension marked critical: forge writes no critical flag.
@example(_padded_extension(_tlv(0x01, b"\xff"), _tlv(0x04, bytes(3))),
         {"error": "padding must have tag 0x04, found 0x01", "padding_bytes": 0})
def test_any_blob_gets_a_report(blob, expected):
    report = parse_and_measure(blob)
    assert report.total_bytes == len(blob)
    assert report.well_formed == (report.error is None)
    for name, value in expected.items():
        assert getattr(report, name) == value, name


@pytest.mark.parametrize("content", [b"", b"\xff\xff"], ids=["empty", "two-bytes"])
def test_a_boolean_without_one_content_byte_is_malformed(content):
    # X.690 8.2.1: a BOOLEAN has exactly one content byte; forge writes no BOOLEAN at all.
    report = parse_and_measure(_padded_extension(_tlv(0x01, content), _tlv(0x04, bytes(3))))
    assert not report.well_formed
    assert report.error == "padding must have tag 0x04, found 0x01"
    assert report.padding_bytes == 0


@pytest.mark.parametrize("content", [b"\x00", b"\x01", b"\x7f"], ids=["false", "01", "7f"])
def test_a_critical_flag_other_than_der_true_is_malformed(content):
    # X.690 11.1: DER writes TRUE as 0xFF; 11.5: a FALSE critical, its
    # DEFAULT, is omitted rather than written. forge writes no critical flag.
    report = parse_and_measure(_padded_extension(_tlv(0x01, content), _tlv(0x04, bytes(3))))
    assert not report.well_formed
    assert report.error == "padding must have tag 0x04, found 0x01"
    assert report.padding_bytes == 0


def test_a_long_oid_arc_is_checked_in_linear_time():
    blob = _extension(_tlv(0x06, b"\x81" * 400_000 + b"\x01"), _tlv(0x04))
    start = time.perf_counter()
    report = parse_and_measure(blob)
    assert time.perf_counter() - start < 2.0
    assert report.error == _BAD_PAD_OID
    assert not report.well_formed and report.padding_bytes == 0
