"""Forge certificate-shaped DER blobs with exact byte sizes.

Benchmarking TTFB against chain size needs certificates of arbitrary
exact sizes, including sizes no real CA issues. These are structurally
valid X.509-shaped certificates (parseable TLV tree, opaque key and
signature bytes) padded to the requested total via a non-critical
extension carrying zero bytes under a locally assigned OID.

Hitting an exact total is not as simple as computing one padding
length: DER length fields widen at 128 and 256 and 65536 bytes of
content, so the total size as a function of padding length skips a few
values. The padding payload length is found by fixed-point iteration,
and one knob closes the gaps: the signature placeholder length. The
signature sits outside the tbs, so stretching it moves the total without
widening any of the length fields around the padding.

``parse_and_measure`` verifies forged output: it checks a blob against a
table of the one certificate shape the builder writes, and shares no
encoding logic with the builder.
"""

from __future__ import annotations

import binascii
import json
import os
from typing import Iterator

from .chain_model import ChainSpec, DEFAULT_KB_BYTES, chain_size_kb, kb_to_bytes
from .errors import PaddingError, Record

PAD_EXTENSION_OID = "1.3.6.1.4.1.55555.1.1"  # locally assigned test arc

# TLS 1.3 carries each certificate as cert_data<1..2^24-1>, inside a
# certificate_list<0..2^24-1> that bounds the whole chain (RFC 8446, 4.4.2).
MAX_CERT_BYTES = 2**24 - 1

_OID_COMMON_NAME = "2.5.4.3"
_OID_SIG_ALG = "1.2.840.10045.4.3.2"  # ecdsa-with-SHA256 label; signature bytes are filler
_OID_EC_PUBKEY = "1.2.840.10045.2.1"
_OID_P256 = "1.2.840.10045.3.1.7"

_TAG_INTEGER = 0x02
_TAG_BIT_STRING = 0x03
_TAG_OCTET_STRING = 0x04
_TAG_OID = 0x06
_TAG_UTF8 = 0x0C
_TAG_UTCTIME = 0x17
_TAG_SEQUENCE = 0x30
_TAG_SET = 0x31
_TAG_CTX0 = 0xA0
_TAG_CTX3 = 0xA3

_NOT_BEFORE = b"250101000000Z"
_NOT_AFTER = b"350101000000Z"
_PUBLIC_KEY_LEN = 65
_SIGNATURE_LEN = 72


class DerCertTemplate(Record, frozen=True):
    subject_cn: str = "leaf.test"
    issuer_cn: str = "ca.test"


# ---------------------------------------------------------------- encoder


def _der_len(n: int) -> bytes:
    if n < 0x80:
        return bytes([n])
    body = n.to_bytes((n.bit_length() + 7) // 8, "big")
    return bytes([0x80 | len(body)]) + body


def _header(tag: int, length: int) -> bytes:
    return bytes([tag]) + _der_len(length)


def _tlv(tag: int, content: bytes) -> bytes:
    return _header(tag, len(content)) + content


def _der_oid(dotted: str) -> bytes:
    arcs = [int(a) for a in dotted.split(".")]
    out = bytearray([40 * arcs[0] + arcs[1]])
    for arc in arcs[2:]:
        chunk = [arc & 0x7F]
        arc >>= 7
        while arc:
            chunk.append(0x80 | (arc & 0x7F))
            arc >>= 7
        out.extend(reversed(chunk))
    return _tlv(_TAG_OID, bytes(out))


def _der_name(cn: str) -> bytes:
    attr = _tlv(_TAG_SEQUENCE, _der_oid(_OID_COMMON_NAME) + _tlv(_TAG_UTF8, cn.encode()))
    return _tlv(_TAG_SEQUENCE, _tlv(_TAG_SET, attr))


def _build(template: DerCertTemplate, pad_len: int, sig_stretch: int = 0) -> tuple[bytes, bytes]:
    """The certificate's bytes before and after its pad_len zero padding bytes.

    The padding is the last content of every node around it but the outer
    SEQUENCE, so each length field is known from pad_len alone and the
    padding itself is never built here.
    """
    sig_alg = _tlv(_TAG_SEQUENCE, _der_oid(_OID_SIG_ALG))
    validity = _tlv(
        _TAG_SEQUENCE,
        _tlv(_TAG_UTCTIME, _NOT_BEFORE) + _tlv(_TAG_UTCTIME, _NOT_AFTER),
    )
    spki = _tlv(
        _TAG_SEQUENCE,
        _tlv(_TAG_SEQUENCE, _der_oid(_OID_EC_PUBKEY) + _der_oid(_OID_P256))
        + _tlv(_TAG_BIT_STRING, b"\x00\x04" + bytes(_PUBLIC_KEY_LEN - 1)),
    )
    # Criticality defaults to false and DER omits DEFAULT values, so the
    # extension is OID + value only.
    head = _der_oid(PAD_EXTENSION_OID) + _header(_TAG_OCTET_STRING, pad_len)
    for tag in (_TAG_SEQUENCE, _TAG_SEQUENCE, _TAG_CTX3):  # extension, extension list, [3]
        head = _header(tag, len(head) + pad_len) + head
    head = (
        _tlv(_TAG_CTX0, _tlv(_TAG_INTEGER, b"\x02"))  # version
        + _tlv(_TAG_INTEGER, b"\x01" + bytes(7))  # serial: 8 content bytes, positive
        + sig_alg
        + _der_name(template.issuer_cn)
        + validity
        + _der_name(template.subject_cn)
        + spki
        + head
    )
    head = _header(_TAG_SEQUENCE, len(head) + pad_len) + head  # tbs
    tail = sig_alg + _tlv(_TAG_BIT_STRING, b"\x00" + bytes(_SIGNATURE_LEN + sig_stretch))
    return _header(_TAG_SEQUENCE, len(head) + pad_len + len(tail)) + head, tail


def minimum_size(template: DerCertTemplate) -> int:
    return sum(map(len, _build(template, 0)))


def pad_to_size(template: DerCertTemplate, target_bytes: int) -> bytes:
    """Build a certificate of exactly target_bytes bytes.

    Deterministic: identical inputs yield byte-identical output. Raises
    PaddingError (naming the achievable minimum) for undersized targets,
    and for targets above MAX_CERT_BYTES before building anything.

    Where a length field around the padding widens, the total skips a
    value as the payload grows. Stretching the signature placeholder
    reaches those totals: the signature sits outside the tbs and every
    length field in it, so the stretch adds bytes without widening them.
    Real signatures vary by a few bytes, so parsers take no notice.

    The search runs on the lengths of the bytes around the padding, and
    only the arrangement that fits is joined into a certificate.
    """
    if target_bytes > MAX_CERT_BYTES:
        raise PaddingError(f"target {target_bytes} is above the TLS limit of {MAX_CERT_BYTES}")
    minimum = minimum_size(template)
    if target_bytes < minimum:
        raise PaddingError(f"target {target_bytes} is below the minimum {minimum} bytes "
                           "for this template")
    for sig_stretch in range(8):
        pad = target_bytes - sum(map(len, _build(template, 0, sig_stretch)))
        for _ in range(8):
            if pad < 0:
                break
            head, tail = _build(template, pad, sig_stretch)
            size = len(head) + pad + len(tail)
            if size == target_bytes:
                return b"".join((head, bytes(pad), tail))
            pad += target_bytes - size
    raise PaddingError(f"no padding arrangement reaches {target_bytes} bytes exactly")


# ----------------------------------------------------------------- parser
#
# Independent of the encoder above: one walk over a table of the one
# certificate shape _build writes, each OID written out as its DER content.
# A field is (name, tag, rule), and its rule is its children, its exact
# content, or one of these: any UTF-8 text; a BIT STRING of any length with
# no unused bits; the padding, whose length is measured.
_UTF8, _SIGNATURE, _PADDING = "UTF-8", "signature", "padding"

_SIG_ALG = ("signature algorithm", _TAG_SEQUENCE, [
    ("signature algorithm OID", _TAG_OID, bytes.fromhex("2a8648ce3d040302"))])
_NAME = ("name", _TAG_SEQUENCE, [("RDN", _TAG_SET, [("attribute", _TAG_SEQUENCE, [
    ("common name OID", _TAG_OID, bytes.fromhex("550403")),
    ("common name", _TAG_UTF8, _UTF8)])])])
_CERTIFICATE = [("certificate", _TAG_SEQUENCE, [
    ("tbs", _TAG_SEQUENCE, [
        ("version", _TAG_CTX0, [("version number", _TAG_INTEGER, b"\x02")]),
        ("serial", _TAG_INTEGER, b"\x01" + bytes(7)),
        _SIG_ALG,
        _NAME,  # issuer
        ("validity", _TAG_SEQUENCE, [("not before", _TAG_UTCTIME, _NOT_BEFORE),
                                     ("not after", _TAG_UTCTIME, _NOT_AFTER)]),
        _NAME,  # subject
        ("public key info", _TAG_SEQUENCE, [
            ("key algorithm", _TAG_SEQUENCE, [
                ("key algorithm OID", _TAG_OID, bytes.fromhex("2a8648ce3d0201")),
                ("curve OID", _TAG_OID, bytes.fromhex("2a8648ce3d030107"))]),
            ("public key", _TAG_BIT_STRING, b"\x00\x04" + bytes(_PUBLIC_KEY_LEN - 1))]),
        ("extensions", _TAG_CTX3, [("extension list", _TAG_SEQUENCE, [
            ("padding extension", _TAG_SEQUENCE, [
                ("padding OID", _TAG_OID, bytes.fromhex("2b0601040183b2030101")),
                ("padding", _TAG_OCTET_STRING, _PADDING)])])])]),
    _SIG_ALG,
    ("signature", _TAG_BIT_STRING, _SIGNATURE)])]


class _Malformed(Exception):
    def __init__(self, offset: int, message: str):
        super().__init__(message)
        self.offset = offset
        self.message = message


def _read_header(buf: bytes, off: int) -> tuple[int, int, int]:
    """Return (tag, content_length, content_offset) or raise _Malformed."""
    if off >= len(buf):
        raise _Malformed(off, "truncated: expected tag")
    tag = buf[off]
    if tag & 0x1F == 0x1F:
        raise _Malformed(off, "multi-byte tags not supported")
    i = off + 1
    if i >= len(buf):
        raise _Malformed(i, "truncated: expected length")
    first = buf[i]
    if first < 0x80:
        length, content = first, i + 1
    elif first == 0x80:
        raise _Malformed(i, "indefinite length is not DER")
    else:
        n = first & 0x7F
        if i + 1 + n > len(buf):
            raise _Malformed(i, "truncated length field")
        body = buf[i + 1 : i + 1 + n]
        if body[0] == 0:
            raise _Malformed(i + 1, "length field has leading zero")
        length = int.from_bytes(body, "big")
        if length < 0x80:
            raise _Malformed(i, "long-form length used where short form fits")
        content = i + 1 + n
    if content + length > len(buf):
        raise _Malformed(off, "content runs past end of buffer")
    return tag, length, content


def _walk(buf: bytes, off: int, end: int, fields: list) -> int:
    """Check that buf[off:end] holds exactly fields, in order; the padding's length."""
    padding = 0
    for name, tag, rule in fields:
        found, length, content = _read_header(buf, off)
        if content + length > end:
            raise _Malformed(off, "child overruns its parent")
        if found != tag:
            raise _Malformed(off, f"{name} must have tag 0x{tag:02x}, found 0x{found:02x}")
        off = content + length
        if isinstance(rule, list):
            padding += _walk(buf, content, off, rule)
        elif rule is _PADDING:
            padding += length
        elif rule is _SIGNATURE:
            if not length or buf[content]:
                raise _Malformed(content, f"{name} must start with 0 unused bits")
        elif rule is _UTF8:
            try:
                buf[content:off].decode()
            except UnicodeDecodeError:
                raise _Malformed(content, f"{name} must be UTF-8") from None
        elif buf[content:off] != rule:
            raise _Malformed(content, f"{name} must be {rule.hex()}")
    if off != end:
        raise _Malformed(off, f"trailing bytes after {name}")
    return padding


class ParseReport(Record, frozen=True):
    """A refused blob's error and error_offset say where it first leaves forge's shape."""

    well_formed: bool
    total_bytes: int
    padding_bytes: int
    error_offset: int | None = None
    error: str | None = None


def parse_and_measure(blob: bytes) -> ParseReport:
    """Check that blob is a certificate of the shape _build writes, and
    measure its padding: each field of _CERTIFICATE in order, with its tag and
    a minimal-length DER header, filling its parent exactly, the certificate
    filling the blob. padding_bytes is the padding's length. Any blob gets a
    report; none raises.
    """
    try:
        padding = _walk(blob, 0, len(blob), _CERTIFICATE)
    except _Malformed as e:
        return ParseReport(False, len(blob), 0, error_offset=e.offset, error=e.message)
    return ParseReport(True, len(blob), padding)


# ------------------------------------------------------------ chain level


class ForgedCert(Record, frozen=True):
    role: str
    target_bytes: int
    der: bytes


class ForgedChain(Record, frozen=True):
    scheme: str
    mtc: bool
    certs: tuple[ForgedCert, ...]

    @property
    def total_bytes(self) -> int:
        return sum(len(c.der) for c in self.certs)


def forge_chain(spec: ChainSpec, kb_bytes: int = DEFAULT_KB_BYTES) -> ForgedChain:
    """Forge one blob per chain component, each padded to its own target.

    MTC chains collapse to a single leaf blob; explicit_size_kb forges a
    single blob of that size. A chain whose total is above what TLS carries
    is refused before any part is listed or built.
    """
    if spec.explicit_size_kb is not None:
        parts = [("cert", spec.explicit_size_kb)]
    elif spec.mtc:
        parts = [("leaf", chain_size_kb(spec))]
    else:
        total = (kb_to_bytes(spec.scheme.leaf_kb, kb_bytes)
                 + spec.intermediates * kb_to_bytes(spec.scheme.intermediate_kb, kb_bytes))
        if total > MAX_CERT_BYTES:
            raise PaddingError(
                f"a leaf and {spec.intermediates} intermediates of {spec.scheme.name} "
                f"total more than the TLS limit of {MAX_CERT_BYTES} bytes"
            )
        parts = [("leaf", spec.scheme.leaf_kb)]
        parts += [(f"intermediate-{i}", spec.scheme.intermediate_kb)
                  for i in range(1, spec.intermediates + 1)]
    certs = []
    for idx, (role, size_kb) in enumerate(parts):
        issuer = parts[idx + 1][0] if idx + 1 < len(parts) else "root"
        template = DerCertTemplate(subject_cn=f"{role}.test", issuer_cn=f"{issuer}.test")
        target = kb_to_bytes(size_kb, kb_bytes)
        certs.append(ForgedCert(role=role, target_bytes=target,
                                der=pad_to_size(template, target)))
    return ForgedChain(scheme=spec.scheme.name, mtc=spec.mtc, certs=tuple(certs))


def pem_lines(der: bytes) -> Iterator[str]:
    """The PEM text of der, one line at a time: each 48 DER bytes are one
    64-character base64 line, so no more than a line is held at once."""
    yield "-----BEGIN CERTIFICATE-----\n"
    view = memoryview(der)
    for i in range(0, len(der), 48):
        yield binascii.b2a_base64(view[i : i + 48]).decode("ascii")
    yield "-----END CERTIFICATE-----\n"


def write_chain(chain: ForgedChain, out_dir: str, reports: list[ParseReport]) -> dict:
    """Write DER and PEM files plus a manifest.json; returns the manifest.
    reports are the certs' parse_and_measure reports, in chain order."""
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for cert, report in zip(chain.certs, reports):
        der_name = f"{cert.role}.der"
        pem_name = f"{cert.role}.pem"
        with open(os.path.join(out_dir, der_name), "wb") as f:
            f.write(cert.der)
        with open(os.path.join(out_dir, pem_name), "w", encoding="utf-8") as f:
            f.writelines(pem_lines(cert.der))
        entries.append(
            {
                "role": cert.role,
                "file_der": der_name,
                "file_pem": pem_name,
                "target_bytes": cert.target_bytes,
                "actual_bytes": len(cert.der),
                "padding_bytes": report.padding_bytes,
            }
        )
    manifest = {
        "scheme": chain.scheme,
        "mtc": chain.mtc,
        "total_bytes": chain.total_bytes,
        "certs": entries,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")
    return manifest
