import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certflight.chain_model import (
    DEFAULT_OPTIMIZERS,
    ChainSpec,
    MerkleParams,
    SchemeProfile,
    SizeOptimizer,
    chain_size_kb,
    effective_size_kb,
    kb_to_bytes,
    merkle_proof_bytes,
    resolve_scheme,
)
from certflight import chain_model
from certflight.errors import ConfigError

from reference_data import CHAIN_KB, MERKLE_CASES


@pytest.mark.parametrize(
    "scheme,mtc,expected",
    [
        ("ECDSA", False, 3.0),
        ("ML-DSA", False, 11.9),
        ("SLH-DSA", False, 48.7),
        ("Hybrid-ML-DSA", False, 13.9),
        ("ML-DSA", True, 4.8),
        ("SLH-DSA", True, 17.6),
        ("Hybrid-ML-DSA", True, 5.8),
    ],
)
def test_chain_sizes_one_intermediate(scheme, mtc, expected):
    spec = ChainSpec(resolve_scheme(scheme), intermediates=1, mtc=mtc)
    assert chain_size_kb(spec) == pytest.approx(expected)


def test_chain_sizes_match_reference_table():
    for name, expected in CHAIN_KB.items():
        mtc = name.startswith("MTC+")
        scheme = resolve_scheme(name.removeprefix("MTC+"))
        assert chain_size_kb(ChainSpec(scheme, mtc=mtc)) == pytest.approx(expected)


def test_more_intermediates():
    spec = ChainSpec(resolve_scheme("ML-DSA"), intermediates=2)
    assert chain_size_kb(spec) == pytest.approx(3.9 + 2 * 8.0)
    assert chain_size_kb(ChainSpec(resolve_scheme("ECDSA"), intermediates=0)) == 1.0


def test_explicit_size_wins():
    spec = ChainSpec(resolve_scheme("SLH-DSA"), explicit_size_kb=5.5)
    assert chain_size_kb(spec) == 5.5


def test_mtc_needs_a_proof_size():
    with pytest.raises(ConfigError):
        chain_size_kb(ChainSpec(resolve_scheme("ECDSA"), mtc=True))


def test_chain_spec_validation():
    with pytest.raises(ConfigError):
        ChainSpec(resolve_scheme("ECDSA"), intermediates=-1)
    with pytest.raises(ConfigError):
        ChainSpec(resolve_scheme("ECDSA"), explicit_size_kb=0.0)


def test_scheme_profile_validation():
    with pytest.raises(ConfigError):
        SchemeProfile("bad", leaf_kb=0.0, intermediate_kb=2.0)
    with pytest.raises(ConfigError):
        SchemeProfile("bad", leaf_kb=1.0, intermediate_kb=-2.0)


def test_kb_to_bytes():
    assert kb_to_bytes(48.7) == 48700
    assert kb_to_bytes(0.5) == 500
    assert kb_to_bytes(48.7, kb_bytes=1024) == 49869  # 49868.8 rounded


@pytest.mark.parametrize("leaf_count,expected", MERKLE_CASES)
def test_merkle_proof_sizes(leaf_count, expected):
    assert merkle_proof_bytes(MerkleParams(leaf_count)) == expected


def test_merkle_proof_grows_one_hash_per_doubling():
    for k in range(1, 31):
        small = merkle_proof_bytes(MerkleParams(2**(k - 1)))
        big = merkle_proof_bytes(MerkleParams(2**k))
        assert big - small == 32


def test_merkle_non_power_of_two_rounds_up():
    # 2^24 + 1 leaves needs a 25-level proof.
    assert merkle_proof_bytes(MerkleParams(2**24 + 1)) == 25 * 32
    assert merkle_proof_bytes(MerkleParams(3)) == 2 * 32


def test_merkle_hash_width():
    assert merkle_proof_bytes(MerkleParams(2**24, hash_bytes=48)) == 24 * 48
    with pytest.raises(ValueError):
        MerkleParams(0)
    with pytest.raises(ValueError):
        MerkleParams(8, hash_bytes=0)


def test_effective_sizes():
    mtc1, mtc2, cdn25, cdn40 = DEFAULT_OPTIMIZERS
    assert effective_size_kb(10.0, mtc1) == 6.0
    assert effective_size_kb(9.0, mtc2) == 4.0
    assert effective_size_kb(40.0, cdn25) == 30.0
    assert effective_size_kb(10.0, cdn40) == 6.0
    ident = SizeOptimizer(chain_model.IDENTITY)
    assert effective_size_kb(7.25, ident) == 7.25
    with pytest.raises(ValueError):
        effective_size_kb(-1.0, mtc1)


def test_optimizer_labels():
    labels = [o.label for o in DEFAULT_OPTIMIZERS]
    assert labels == [
        "mtc-one-intermediate",
        "mtc-two-intermediates",
        "cdn-moderate-25pct",
        "cdn-aggressive-40pct",
    ]


def test_optimizer_validation():
    with pytest.raises(ConfigError):
        SizeOptimizer("shrink-ray")
    with pytest.raises(ConfigError):
        SizeOptimizer(chain_model.CDN_MODERATE)  # needs a factor
    with pytest.raises(ConfigError):
        SizeOptimizer(chain_model.CDN_MODERATE, factor=1.5)
    with pytest.raises(ConfigError):
        SizeOptimizer(chain_model.MTC_ONE_INTERMEDIATE, factor=0.5)


def test_resolve_scheme_aliases():
    assert resolve_scheme("ml-dsa").name == "ML-DSA"
    assert resolve_scheme("slhdsa").name == "SLH-DSA"
    assert resolve_scheme("hybrid").name == "Hybrid-ML-DSA"
    with pytest.raises(ConfigError):
        resolve_scheme("rsa-15360")


def test_original_size_inverts_effective_size():
    mtc1, mtc2, cdn25, cdn40 = DEFAULT_OPTIMIZERS
    ident = SizeOptimizer(chain_model.IDENTITY)
    assert chain_model.original_size_kb(6.0, mtc1) == 10.0
    assert chain_model.original_size_kb(4.0, mtc2) == 9.0
    assert chain_model.original_size_kb(30.0, cdn25) == 40.0
    assert chain_model.original_size_kb(7.25, ident) == 7.25
    for optimizer in (*DEFAULT_OPTIMIZERS, ident):
        for wire_kb in (1.5, 10.0, 38.0, 94.0, 1234.5):
            size = chain_model.original_size_kb(wire_kb, optimizer)
            assert effective_size_kb(size, optimizer) == pytest.approx(wire_kb)


def per_kind_effective_kb(size_kb, optimizer):
    """The per-kind formulas the affine table replaced."""
    if optimizer.kind == chain_model.MTC_ONE_INTERMEDIATE:
        return size_kb / 2 + 1
    if optimizer.kind == chain_model.MTC_TWO_INTERMEDIATES:
        return size_kb / 3 + 1
    if optimizer.kind == chain_model.IDENTITY:
        return size_kb
    return size_kb * optimizer.factor


def per_kind_original_kb(wire_kb, optimizer):
    if optimizer.kind == chain_model.MTC_ONE_INTERMEDIATE:
        return 2 * (wire_kb - 1)
    if optimizer.kind == chain_model.MTC_TWO_INTERMEDIATES:
        return 3 * (wire_kb - 1)
    if optimizer.kind == chain_model.IDENTITY:
        return wire_kb
    return wire_kb / optimizer.factor


def bits(x):
    return struct.pack("<d", x)


all_optimizers = st.sampled_from([*DEFAULT_OPTIMIZERS, SizeOptimizer(chain_model.IDENTITY)]) | st.builds(
    SizeOptimizer,
    st.sampled_from([chain_model.CDN_MODERATE, chain_model.CDN_AGGRESSIVE]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)


def test_optimizer_kinds_are_one_affine_table():
    mtc1, mtc2, cdn25, cdn40 = DEFAULT_OPTIMIZERS
    assert [o.affine for o in (mtc1, mtc2, cdn25, cdn40, SizeOptimizer(chain_model.IDENTITY))] == [
        (1, 2, 1), (1, 3, 1), (0.75, 1, 0), (0.6, 1, 0), (1, 1, 0),
    ]


@settings(max_examples=500, deadline=None)
@given(all_optimizers, st.floats(min_value=0.0, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
def test_affine_table_rounds_like_the_per_kind_formulas(optimizer, size_kb, wire_kb):
    assert bits(effective_size_kb(size_kb, optimizer)) == bits(per_kind_effective_kb(size_kb, optimizer))
    assert bits(chain_model.original_size_kb(wire_kb, optimizer)) == bits(
        per_kind_original_kb(wire_kb, optimizer))
