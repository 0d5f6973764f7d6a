"""The abstract's quantitative claims, computed from the default config.

Each number is what the model gives through the public API, pinned exactly.
Where the model and the abstract disagree, the model's value is pinned and
the gap is stated (README, "Claims"): it is not hidden by a loosened range.
"""

import pytest

from certflight import DEFAULT_OPTIMIZERS, ChainSpec, Config, chain_size_kb, compute_regions

MTC_CLAIM = "MTC allows for 2x-3x increase in supportable certificate chain size"
CDN_CLAIM = ("CDN-based optimizations yield more limited reductions, supporting up to "
             "approximately 1.6x certificate chain size increase")
HANDSHAKE_CLAIM = "handshake sizes increasing from 5x to over 20x compared to classical algorithms"

# upper_kb_exact / lower_kb per (optimizer, threshold KB).
REGION_MULTIPLIERS = {
    ("mtc-one-intermediate", 10.0): 1.8,
    ("mtc-one-intermediate", 40.0): 1.95,
    ("mtc-two-intermediates", 10.0): 2.7,
    ("mtc-two-intermediates", 40.0): 2.925,
    ("cdn-moderate-25pct", 10.0): 1.3333333333333335,
    ("cdn-moderate-25pct", 40.0): 1.3333333333333335,
    ("cdn-aggressive-40pct", 10.0): 1.6666666666666667,
    ("cdn-aggressive-40pct", 40.0): 1.6666666666666667,
}

# chain_size_kb of each scheme's chain over ECDSA's, per intermediate count.
CHAIN_RATIOS = {
    1: {"ECDSA": 1.0, "ML-DSA": 3.966666666666667, "SLH-DSA": 16.233333333333334,
        "Hybrid-ML-DSA": 4.633333333333334},
    2: {"ECDSA": 1.0, "ML-DSA": 3.9799999999999995, "SLH-DSA": 16.160000000000004,
        "Hybrid-ML-DSA": 4.58},
}


def _multipliers():
    cfg = Config()
    regions = compute_regions(list(cfg.flight.empirical_thresholds_kb), list(DEFAULT_OPTIMIZERS))
    return {(r.optimizer, r.lower_kb): r.upper_kb_exact / r.lower_kb for r in regions}


def test_every_default_region_has_a_pinned_multiplier():
    assert set(_multipliers()) == set(REGION_MULTIPLIERS)


@pytest.mark.parametrize("key", sorted(REGION_MULTIPLIERS))
def test_region_multiplier(key):
    optimizer, threshold = key
    claim = MTC_CLAIM if optimizer.startswith("mtc") else CDN_CLAIM
    got = _multipliers()[key]
    assert got == REGION_MULTIPLIERS[key], f'"{claim}": {optimizer} above {threshold:g} KB gives {got!r}x'


def test_mtc_spans_the_claimed_range_only_with_two_intermediates():
    got = _multipliers()
    one = [m for (opt, _), m in got.items() if opt == "mtc-one-intermediate"]
    two = [m for (opt, _), m in got.items() if opt == "mtc-two-intermediates"]
    assert max(one) < 2.0 <= min(two) and max(two) <= 3.0, (
        f'"{MTC_CLAIM}": the model gives {min(one)!r}-{max(one)!r}x with one intermediate '
        f'and {min(two)!r}-{max(two)!r}x with two')


@pytest.mark.parametrize("intermediates", sorted(CHAIN_RATIOS))
def test_chain_size_ratio_over_ecdsa(intermediates):
    schemes = Config().schemes
    ecdsa = chain_size_kb(ChainSpec(schemes["ECDSA"], intermediates))
    got = {name: chain_size_kb(ChainSpec(scheme, intermediates)) / ecdsa
           for name, scheme in schemes.items()}
    assert got == CHAIN_RATIOS[intermediates], (
        f'"{HANDSHAKE_CLAIM}": with {intermediates} intermediate(s) the chain sizes give {got!r}')
    # The gap README states: the lattice chains stay under the abstract's 5x and
    # SLH-DSA under its 20x, so the model reaches neither end of its range.
    lattice = max(got["ML-DSA"], got["Hybrid-ML-DSA"])
    assert lattice < 5.0 and got["SLH-DSA"] < 20.0, (
        f'"{HANDSHAKE_CLAIM}": ML-DSA and Hybrid-ML-DSA reach {lattice!r}x, SLH-DSA {got["SLH-DSA"]!r}x')
