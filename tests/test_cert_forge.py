import json
import random
from unittest import mock

import pytest

from certflight import cert_forge
from certflight.cert_forge import (
    MAX_CERT_BYTES,
    DerCertTemplate,
    forge_chain,
    minimum_size,
    pad_to_size,
    parse_and_measure,
    pem_decode,
    pem_encode,
    write_chain,
)
from certflight.chain_model import ChainSpec, resolve_scheme
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
    assert not report.padding_critical
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
    text = pem_encode(blob)
    assert text.startswith("-----BEGIN CERTIFICATE-----")
    assert max(len(line) for line in text.splitlines()) <= 64
    assert pem_decode(text) == blob


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
    manifest = write_chain(chain, tmp_path)
    assert (tmp_path / "manifest.json").exists()
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk == manifest
    assert manifest["total_bytes"] == 11900
    for entry in manifest["certs"]:
        der = (tmp_path / entry["file_der"]).read_bytes()
        assert len(der) == entry["actual_bytes"] == entry["target_bytes"]
        pem = (tmp_path / entry["file_pem"]).read_text()
        assert pem_decode(pem) == der


@pytest.mark.parametrize("size_kb", [1e300, 16777.216])
def test_a_certificate_too_large_for_tls_is_refused_unbuilt(size_kb):
    # 16777.216 KB is 2^24 bytes, one more than cert_data<1..2^24-1> holds.
    spec = ChainSpec(resolve_scheme("ECDSA"), explicit_size_kb=size_kb)
    with mock.patch.object(cert_forge, "_build", wraps=cert_forge._build) as build:
        with pytest.raises(PaddingError, match=str(MAX_CERT_BYTES)):
            forge_chain(spec)
    assert build.call_count == 0
