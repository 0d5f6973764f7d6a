"""Every certificate forge writes is read by an independent X.509 parser.

parse_and_measure, forge's own parser, checks the one certificate shape forge
writes; cryptography reads the certificate as X.509 and exposes the fields that
cert_forge._build sets. Every blob parse_and_measure accepts, mutated ones
included, is one that cryptography reads.
"""

from datetime import datetime, timezone

import pytest
from cryptography import x509
from hypothesis import given, settings
from cryptography.x509.oid import NameOID, ObjectIdentifier

from certflight.cert_forge import (
    PAD_EXTENSION_OID, DerCertTemplate, forge_chain, minimum_size, pad_to_size, parse_and_measure,
)
from certflight.chain_model import DEFAULT_SCHEMES, ChainSpec
from test_cert_forge import _mutated_blobs

_MINIMUM = minimum_size(DerCertTemplate())


def check_serial_and_validity(cert: x509.Certificate) -> None:
    assert cert.serial_number == 1 << 56
    assert cert.not_valid_before_utc == datetime(2025, 1, 1, tzinfo=timezone.utc)
    assert cert.not_valid_after_utc == datetime(2035, 1, 1, tzinfo=timezone.utc)


def check_x509(der: bytes, subject: str, issuer: str) -> None:
    """der loads as X.509 with the serial, validity, names and padding forge wrote."""
    cert = x509.load_der_x509_certificate(der)
    check_serial_and_validity(cert)
    for name, cn in ((cert.subject, subject), (cert.issuer, issuer)):
        assert [a.value for a in name.get_attributes_for_oid(NameOID.COMMON_NAME)] == [cn]
    pad = cert.extensions.get_extension_for_oid(ObjectIdentifier(PAD_EXTENSION_OID))
    assert not pad.critical
    assert len(pad.value.value) == parse_and_measure(der).padding_bytes


# Sizes from the template's minimum on, and around the widening of the outer length
# field past 65,535 bytes of content; no certificate is 65,540 bytes long.
@pytest.mark.parametrize("targets", [
    range(_MINIMUM, _MINIMUM + 301),
    [t for t in range(65_400, 65_701) if t != 65_540],
], ids=["from-minimum", "length-field-edge"])
def test_every_padded_size_reads_as_x509(targets):
    for target in targets:
        der = pad_to_size(DerCertTemplate(), target)
        assert len(der) == target
        check_x509(der, "leaf.test", "ca.test")


@pytest.mark.parametrize("scheme", sorted(DEFAULT_SCHEMES))
def test_every_forged_chain_reads_as_x509(scheme):
    profile = DEFAULT_SCHEMES[scheme]
    specs = [ChainSpec(profile, intermediates=n) for n in range(3)]
    if profile.mtc_leaf_kb is not None:
        specs.append(ChainSpec(profile, mtc=True))
    for spec in specs:
        certs = forge_chain(spec).certs
        issuers = [cert.role for cert in certs[1:]] + ["root"]
        for cert, issuer in zip(certs, issuers):
            check_x509(cert.der, f"{cert.role}.test", f"{issuer}.test")


# Most mutated blobs are refused, and only an accepted one is loaded: cryptography
# warns on some refused ones, such as a negative serial, and a warning fails the run.
@settings(max_examples=500, deadline=None)
@given(_mutated_blobs())
def test_every_blob_the_parser_accepts_reads_as_x509(blob):
    report = parse_and_measure(blob)
    if not report.well_formed:
        return
    cert = x509.load_der_x509_certificate(blob)
    check_serial_and_validity(cert)
    for name in (cert.subject, cert.issuer):
        assert len(name.get_attributes_for_oid(NameOID.COMMON_NAME)) == 1
        name.rfc4514_string()
    pad = cert.extensions.get_extension_for_oid(ObjectIdentifier(PAD_EXTENSION_OID))
    assert not pad.critical
    assert len(pad.value.value) == report.padding_bytes
