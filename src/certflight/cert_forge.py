"""Forge certificate-shaped DER blobs with exact byte sizes.

Benchmarking TTFB against chain size needs certificates of arbitrary
exact sizes, including sizes no real CA issues. These are structurally
valid X.509-shaped certificates (parseable TLV tree, opaque key and
signature bytes) padded to the requested total via a non-critical
extension carrying zero bytes under a locally assigned OID.

Hitting an exact total is not as simple as computing one padding
length: DER length fields widen at 128 and 256 and 65536 bytes of
content, so the total size as a function of padding length skips a few
values. Two knobs close the gaps: the padding payload length (primary,
found by fixed-point iteration) and the serial-number content length
(8..15 bytes, shifting every enclosing length by one byte per step).

``parse_and_measure`` is an independent DER walker used to verify
forged output; it shares no encoding logic with the builder.
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import dataclass, replace

from .chain_model import ChainSpec, DEFAULT_KB_BYTES, chain_size_kb, kb_to_bytes
from .errors import PaddingError

PAD_EXTENSION_OID = "1.3.6.1.4.1.55555.1.1"  # locally assigned test arc

# TLS 1.3 carries each certificate as cert_data<1..2^24-1> (RFC 8446, 4.4.2).
MAX_CERT_BYTES = 2**24 - 1

_OID_COMMON_NAME = "2.5.4.3"
_OID_SIG_ALG = "1.2.840.10045.4.3.2"  # ecdsa-with-SHA256 label; signature bytes are filler
_OID_EC_PUBKEY = "1.2.840.10045.2.1"
_OID_P256 = "1.2.840.10045.3.1.7"

_TAG_BOOLEAN = 0x01
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

_SERIAL_MIN = 8
_SERIAL_MAX = 15


@dataclass(frozen=True)
class DerCertTemplate:
    subject_cn: str = "leaf.test"
    issuer_cn: str = "ca.test"
    not_before: str = "250101000000Z"
    not_after: str = "350101000000Z"
    public_key_len: int = 65
    signature_len: int = 72

    def __post_init__(self):
        if self.public_key_len < 1:
            raise ValueError("public_key_len must be >= 1")
        if self.signature_len < 1:
            raise ValueError("signature_len must be >= 1")


# ---------------------------------------------------------------- encoder


def _der_len(n: int) -> bytes:
    if n < 0x80:
        return bytes([n])
    body = n.to_bytes((n.bit_length() + 7) // 8, "big")
    return bytes([0x80 | len(body)]) + body


def _tlv(tag: int, content: bytes) -> bytes:
    return bytes([tag]) + _der_len(len(content)) + content


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


def _build(template: DerCertTemplate, pad_len: int, serial_len: int) -> bytes:
    version = _tlv(_TAG_CTX0, _tlv(_TAG_INTEGER, b"\x02"))
    serial = _tlv(_TAG_INTEGER, b"\x01" + bytes(serial_len - 1))
    sig_alg = _tlv(_TAG_SEQUENCE, _der_oid(_OID_SIG_ALG))
    validity = _tlv(
        _TAG_SEQUENCE,
        _tlv(_TAG_UTCTIME, template.not_before.encode())
        + _tlv(_TAG_UTCTIME, template.not_after.encode()),
    )
    spki = _tlv(
        _TAG_SEQUENCE,
        _tlv(_TAG_SEQUENCE, _der_oid(_OID_EC_PUBKEY) + _der_oid(_OID_P256))
        + _tlv(_TAG_BIT_STRING, b"\x00\x04" + bytes(template.public_key_len - 1)),
    )
    # Criticality defaults to false and DER omits DEFAULT values, so the
    # extension is OID + value only.
    pad_ext = _tlv(
        _TAG_SEQUENCE,
        _der_oid(PAD_EXTENSION_OID) + _tlv(_TAG_OCTET_STRING, bytes(pad_len)),
    )
    extensions = _tlv(_TAG_CTX3, _tlv(_TAG_SEQUENCE, pad_ext))
    tbs = _tlv(
        _TAG_SEQUENCE,
        version
        + serial
        + sig_alg
        + _der_name(template.issuer_cn)
        + validity
        + _der_name(template.subject_cn)
        + spki
        + extensions,
    )
    signature = _tlv(_TAG_BIT_STRING, b"\x00" + bytes(template.signature_len))
    return _tlv(_TAG_SEQUENCE, tbs + sig_alg + signature)


def minimum_size(template: DerCertTemplate) -> int:
    return len(_build(template, 0, _SERIAL_MIN))


def _solve(template: DerCertTemplate, target: int, serial_len: int) -> bytes | None:
    pad = target - len(_build(template, 0, serial_len))
    if pad < 0:
        return None
    for _ in range(8):
        blob = _build(template, pad, serial_len)
        diff = target - len(blob)
        if diff == 0:
            return blob
        pad += diff
        if pad < 0:
            return None
    return None


def pad_to_size(template: DerCertTemplate, target_bytes: int) -> bytes:
    """Build a certificate of exactly target_bytes bytes.

    Deterministic: identical inputs yield byte-identical output. Raises
    PaddingError (with the achievable minimum) for undersized targets,
    and for targets above MAX_CERT_BYTES before building anything.

    Two side knobs complement the padding payload. The serial length
    absorbs totals skipped when a length field widens inside the tbs
    (the padding extension wrappers around 127/128 bytes). The signature
    placeholder length sits outside the tbs, so stretching it reaches
    totals skipped when the tbs or outer length field itself widens;
    real signatures vary by a few bytes, so parsers take no notice.
    """
    if target_bytes > MAX_CERT_BYTES:
        raise PaddingError(f"target {target_bytes} is above the TLS limit of {MAX_CERT_BYTES}")
    minimum = minimum_size(template)
    if target_bytes < minimum:
        raise PaddingError(
            f"target {target_bytes} is below the minimum {minimum} bytes "
            "for this template",
            minimum_bytes=minimum,
        )
    for sig_delta in range(8):
        candidate = template if sig_delta == 0 else replace(
            template, signature_len=template.signature_len + sig_delta
        )
        for serial_len in range(_SERIAL_MIN, _SERIAL_MAX + 1):
            blob = _solve(candidate, target_bytes, serial_len)
            if blob is not None:
                return blob
    raise PaddingError(f"no padding arrangement reaches {target_bytes} bytes exactly")


# ----------------------------------------------------------------- parser
#
# Independent of the encoder above: reads raw TLV headers, enforces
# definite minimal-form lengths and exact nesting, and locates the
# padding extension by decoding OIDs from the wire.


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


def _walk_children(buf: bytes, start: int, end: int) -> list[tuple[int, int, int, int]]:
    """Children of a constructed region as (tag, node_off, content_off, length)."""
    out = []
    off = start
    while off < end:
        tag, length, content = _read_header(buf, off)
        if content + length > end:
            raise _Malformed(off, "child overruns its parent")
        out.append((tag, off, content, length))
        off = content + length
    return out


def _check_tree(buf: bytes, tag: int, content: int, length: int) -> None:
    if tag & 0x20:
        for ctag, _, ccontent, clength in _walk_children(buf, content, content + length):
            _check_tree(buf, ctag, ccontent, clength)


def _decode_oid(content: bytes, off: int) -> str:
    if not content:
        raise _Malformed(off, "empty OID")
    if content[-1] & 0x80:
        raise _Malformed(off, "OID ends mid-arc")
    arcs = []
    val = 0
    for b in content:
        val = (val << 7) | (b & 0x7F)
        if not b & 0x80:
            arcs.append(val)
            val = 0
    first = min(arcs[0] // 40, 2)
    return ".".join(str(a) for a in [first, arcs[0] - 40 * first] + arcs[1:])


@dataclass(frozen=True)
class ParseReport:
    well_formed: bool
    total_bytes: int
    padding_bytes: int
    padding_critical: bool = False
    error_offset: int | None = None
    error: str | None = None


def parse_and_measure(blob: bytes) -> ParseReport:
    """Structurally validate a certificate blob and measure its padding.

    Well-formed means: one outer SEQUENCE spanning the whole buffer,
    containing a SEQUENCE (tbs), a SEQUENCE (signature algorithm), and a
    BIT STRING (signature); every constructed node nests exactly; any
    [3] extensions block decodes as a SEQUENCE of extension SEQUENCEs
    led by an OID. padding_bytes is the payload length of the extension
    carrying PAD_EXTENSION_OID, 0 when absent.
    """
    try:
        tag, length, content = _read_header(blob, 0)
        if tag != _TAG_SEQUENCE:
            raise _Malformed(0, "certificate must be a SEQUENCE")
        if content + length != len(blob):
            raise _Malformed(content + length, "trailing bytes after certificate")
        top = _walk_children(blob, content, content + length)
        if len(top) != 3:
            raise _Malformed(content, f"expected 3 top-level fields, found {len(top)}")
        (tbs_tag, tbs_off, tbs_content, tbs_len) = top[0]
        if tbs_tag != _TAG_SEQUENCE:
            raise _Malformed(tbs_off, "tbs must be a SEQUENCE")
        if top[1][0] != _TAG_SEQUENCE:
            raise _Malformed(top[1][1], "signature algorithm must be a SEQUENCE")
        sig_tag, sig_off, sig_content, sig_len = top[2]
        if sig_tag != _TAG_BIT_STRING:
            raise _Malformed(sig_off, "signature must be a BIT STRING")
        if sig_len < 1 or blob[sig_content] > 7:
            raise _Malformed(sig_content, "signature BIT STRING has bad unused-bit count")
        for t, _, c, ln in top[:2]:
            _check_tree(blob, t, c, ln)

        padding = 0
        critical = False
        for t, node_off, c, ln in _walk_children(blob, tbs_content, tbs_content + tbs_len):
            if t != _TAG_CTX3:
                continue
            ext_wrapper = _walk_children(blob, c, c + ln)
            if len(ext_wrapper) != 1 or ext_wrapper[0][0] != _TAG_SEQUENCE:
                raise _Malformed(node_off, "extensions block must hold one SEQUENCE")
            _, _, seq_content, seq_len = ext_wrapper[0]
            for etag, eoff, econtent, elen in _walk_children(blob, seq_content, seq_content + seq_len):
                if etag != _TAG_SEQUENCE:
                    raise _Malformed(eoff, "extension must be a SEQUENCE")
                fields = _walk_children(blob, econtent, econtent + elen)
                if not fields or fields[0][0] != _TAG_OID:
                    raise _Malformed(eoff, "extension must start with an OID")
                oid_tag, oid_off, oid_content, oid_len = fields[0]
                oid = _decode_oid(blob[oid_content : oid_content + oid_len], oid_off)
                rest = fields[1:]
                crit = False
                if rest and rest[0][0] == _TAG_BOOLEAN:
                    crit = blob[rest[0][2]] != 0
                    rest = rest[1:]
                if len(rest) != 1 or rest[0][0] != _TAG_OCTET_STRING:
                    raise _Malformed(eoff, "extension value must be an OCTET STRING")
                if oid == PAD_EXTENSION_OID:
                    padding = rest[0][3]
                    critical = crit
    except _Malformed as e:
        return ParseReport(
            well_formed=False,
            total_bytes=len(blob),
            padding_bytes=0,
            error_offset=e.offset,
            error=e.message,
        )
    return ParseReport(
        well_formed=True,
        total_bytes=len(blob),
        padding_bytes=padding,
        padding_critical=critical,
    )


# ------------------------------------------------------------ chain level


@dataclass(frozen=True)
class ForgedCert:
    role: str
    target_bytes: int
    der: bytes


@dataclass(frozen=True)
class ForgedChain:
    scheme: str
    mtc: bool
    certs: tuple[ForgedCert, ...]

    @property
    def total_bytes(self) -> int:
        return sum(len(c.der) for c in self.certs)


def forge_chain(spec: ChainSpec, kb_bytes: int = DEFAULT_KB_BYTES) -> ForgedChain:
    """Forge one blob per chain component, each padded to its own target.

    MTC chains collapse to a single leaf blob; explicit_size_kb forges a
    single blob of that size.
    """
    if spec.explicit_size_kb is not None:
        parts = [("cert", spec.explicit_size_kb)]
    elif spec.mtc:
        parts = [("leaf", chain_size_kb(spec))]
    else:
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


def pem_encode(der: bytes, label: str = "CERTIFICATE") -> str:
    b64 = base64.b64encode(der).decode()
    lines = [b64[i : i + 64] for i in range(0, len(b64), 64)]
    return f"-----BEGIN {label}-----\n" + "\n".join(lines) + f"\n-----END {label}-----\n"


def pem_decode(text: str) -> bytes:
    lines = [ln.strip() for ln in text.splitlines()]
    body = [ln for ln in lines if ln and not ln.startswith("-----")]
    return base64.b64decode("".join(body))


def write_chain(chain: ForgedChain, out_dir: str) -> dict:
    """Write DER and PEM files plus a manifest.json; returns the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for cert in chain.certs:
        der_name = f"{cert.role}.der"
        pem_name = f"{cert.role}.pem"
        with open(os.path.join(out_dir, der_name), "wb") as f:
            f.write(cert.der)
        with open(os.path.join(out_dir, pem_name), "w", encoding="utf-8") as f:
            f.write(pem_encode(cert.der))
        report = parse_and_measure(cert.der)
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
