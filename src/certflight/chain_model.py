"""Certificate chain size model.

Chain sizes are expressed in KB, where 1 KB = 1000 bytes by default
(``DEFAULT_KB_BYTES``; pass 1024 anywhere a ``kb_bytes`` argument is
accepted to switch conventions). Sizes for the built-in signature
schemes come from measured certificate chains; Merkle-committed leaves
replace the whole chain with a single certificate plus an inclusion
proof.
"""

from __future__ import annotations

import math

from .errors import ConfigError, Record, lookup

DEFAULT_KB_BYTES = 1000


def check_size_kb(size_kb: float) -> float:
    """Return size_kb; raise ValueError unless it is finite and >= 0."""
    if not 0 <= size_kb < math.inf:
        raise ValueError(f"size_kb must be >= 0, got {size_kb!r}" if size_kb < 0
                         else f"size_kb must be a finite number, got {size_kb!r}")
    return size_kb


def kb_to_bytes(size_kb: float, kb_bytes: int = DEFAULT_KB_BYTES) -> int:
    """Convert a KB size to whole bytes under the given convention."""
    size_bytes = check_size_kb(size_kb) * kb_bytes
    if size_bytes == math.inf:
        raise ValueError(f"a size of {size_kb} KB overflows a float byte count")
    return round(size_bytes)


class SchemeProfile(Record, frozen=True, checked=True):
    """Per-certificate sizes for one signature scheme.

    mtc_leaf_kb is the size of the single Merkle-committed leaf
    certificate that replaces the chain; it is None for schemes where
    no such deployment is defined.
    """

    name: str
    leaf_kb: float
    intermediate_kb: float
    mtc_leaf_kb: float | None = None
    _bounds = {"leaf_kb": "> 0", "intermediate_kb": "> 0", "mtc_leaf_kb": "> 0"}


class ChainSpec(Record, frozen=True, checked=True):
    """A concrete chain to be sized: scheme, depth, and variant flags.

    explicit_size_kb overrides all computed sizing when set (useful for
    what-if sweeps that do not correspond to any scheme).
    """

    scheme: SchemeProfile
    intermediates: int = 1
    mtc: bool = False
    explicit_size_kb: float | None = None
    _bounds = {"intermediates": ">= 0", "explicit_size_kb": "> 0"}


def chain_size_kb(spec: ChainSpec) -> float:
    """Total size in KB of the certificate chain described by spec."""
    if spec.explicit_size_kb is not None:
        return spec.explicit_size_kb
    if spec.mtc:
        if spec.scheme.mtc_leaf_kb is None:
            raise ConfigError(
                f"{spec.scheme.name} has no mtc_leaf_kb configured; "
                "set one on the scheme profile to size MTC chains"
            )
        return spec.scheme.mtc_leaf_kb
    return check_size_kb(spec.scheme.leaf_kb + spec.intermediates * spec.scheme.intermediate_kb)


class MerkleParams(Record, frozen=True, checked=True):
    leaf_count: int
    hash_bytes: int = 32
    _bounds = {"leaf_count": ">= 1", "hash_bytes": ">= 1"}


def merkle_proof_bytes(params: MerkleParams) -> int:
    """Size of an inclusion proof: hash_bytes * ceil(log2(leaf_count)).

    A single-leaf tree needs no proof. Uses bit_length so non-powers of
    two round up without floating-point log.
    """
    depth = (params.leaf_count - 1).bit_length()
    return params.hash_bytes * depth


# Size optimizer kinds. The MTC kinds model replacing a 1- or
# 2-intermediate chain with one committed certificate plus ~1 KB of
# proof; the CDN kinds model fractional compression of the whole chain.
MTC_ONE_INTERMEDIATE = "mtc-one-intermediate"
MTC_TWO_INTERMEDIATES = "mtc-two-intermediates"
CDN_MODERATE = "cdn-moderate"
CDN_AGGRESSIVE = "cdn-aggressive"
IDENTITY = "identity"

_CDN_KINDS = (CDN_MODERATE, CDN_AGGRESSIVE)
_ALL_KINDS = (MTC_ONE_INTERMEDIATE, MTC_TWO_INTERMEDIATES) + _CDN_KINDS + (IDENTITY,)
_AFFINE = {MTC_ONE_INTERMEDIATE: (1, 2, 1), MTC_TWO_INTERMEDIATES: (1, 3, 1), IDENTITY: (1, 1, 0)}


class SizeOptimizer(Record, frozen=True, checked=True):
    kind: str
    factor: float | None = None

    def __post_init__(self):
        if self.kind not in _ALL_KINDS:
            raise ConfigError(f"unknown optimizer kind {self.kind!r}")
        if self.kind in _CDN_KINDS:
            if self.factor is None or not 0 < self.factor < 1:
                raise ConfigError(f"{self.kind} needs a factor in (0, 1)")
        elif self.factor is not None:
            raise ConfigError(f"{self.kind} takes no factor")

    @property
    def label(self) -> str:
        if self.kind in _CDN_KINDS:
            return f"{self.kind}-{round((1 - self.factor) * 100)}pct"
        return self.kind

    @property
    def affine(self) -> tuple[float, float, float]:
        """(mul, div, offset_kb) of the map size * mul / div + offset_kb; three terms
        round both ways like size / 3 + 1 and 3 * (wire - 1), which 1/3 would not."""
        return _AFFINE.get(self.kind, (self.factor, 1, 0))


def effective_size_kb(size_kb: float, optimizer: SizeOptimizer) -> float:
    """Chain size on the wire after applying one optimizer."""
    mul, div, offset_kb = optimizer.affine
    return check_size_kb(size_kb) * mul / div + offset_kb


def original_size_kb(wire_kb: float, optimizer: SizeOptimizer) -> float:
    """Inverse of effective_size_kb: the chain size the optimizer shrinks to wire_kb."""
    mul, div, offset_kb = optimizer.affine
    return (wire_kb - offset_kb) * div / mul


DEFAULT_OPTIMIZERS = (
    SizeOptimizer(MTC_ONE_INTERMEDIATE),
    SizeOptimizer(MTC_TWO_INTERMEDIATES),
    SizeOptimizer(CDN_MODERATE, factor=0.75),
    SizeOptimizer(CDN_AGGRESSIVE, factor=0.60),
)

DEFAULT_SCHEMES = {
    "ECDSA": SchemeProfile("ECDSA", leaf_kb=1.0, intermediate_kb=2.0),
    "ML-DSA": SchemeProfile("ML-DSA", leaf_kb=3.9, intermediate_kb=8.0, mtc_leaf_kb=4.8),
    "SLH-DSA": SchemeProfile("SLH-DSA", leaf_kb=16.6, intermediate_kb=32.1, mtc_leaf_kb=17.6),
    # hybrid = ML-DSA plus ~1 KB of classical material per certificate
    "Hybrid-ML-DSA": SchemeProfile("Hybrid-ML-DSA", leaf_kb=4.9, intermediate_kb=9.0, mtc_leaf_kb=5.8),
}

_SCHEME_ALIASES = {
    "ecdsa": "ECDSA",
    "ml-dsa": "ML-DSA",
    "mldsa": "ML-DSA",
    "slh-dsa": "SLH-DSA",
    "slhdsa": "SLH-DSA",
    "hybrid-ml-dsa": "Hybrid-ML-DSA",
    "hybrid": "Hybrid-ML-DSA",
}


def resolve_scheme(name: str, schemes: dict[str, SchemeProfile] | None = None) -> SchemeProfile:
    """Look up a scheme profile by exact or aliased name."""
    table = DEFAULT_SCHEMES if schemes is None else schemes
    canonical = _SCHEME_ALIASES.get(name.lower())
    if name not in table and canonical in table:
        return table[canonical]
    return lookup(table, name, "scheme")
