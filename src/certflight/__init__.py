"""Certificate chain size vs TLS handshake latency toolkit.

Models how certificate chain size pushes TLS handshakes past congestion
window limits into extra round trips, estimates the resulting TTFB,
forges size-exact test chains, and aggregates TLS connection logs by
endpoint class.

Each public name is imported from its module on first use (PEP 562), so
a command loads only the modules it needs.
"""

import importlib

# The public names, by the module that defines them.
_EXPORTS = {
    "chain_model": (
        "DEFAULT_KB_BYTES", "DEFAULT_OPTIMIZERS", "DEFAULT_SCHEMES", "ChainSpec",
        "MerkleParams", "SchemeProfile", "SizeOptimizer", "chain_size_kb",
        "effective_size_kb", "merkle_proof_bytes", "resolve_scheme",
    ),
    "cert_forge": (
        "DerCertTemplate", "ForgedChain", "ForgedCert", "ParseReport", "forge_chain",
        "pad_to_size", "parse_and_measure", "write_chain",
    ),
    "config": ("Config", "SweepPlan", "load_config", "resolve_config", "save_config"),
    "errors": ("CalibrationError", "ConfigError", "LogFormatError", "PaddingError"),
    "sweep_runner": ("OptimizationRegion", "compute_regions", "emit_csv", "run_sweep"),
    "tls_log_analytics": (
        "AsnMap", "ParseStats", "ResumptionStats", "aggregate_stats",
        "merge_stats", "parse_log_stream", "rate_correlation", "time_series",
    ),
    "transport_flight": (
        "ANALYTIC", "EMPIRICAL", "FlightModel", "cumulative_capacity_bytes", "extra_rtts",
        "find_thresholds",
    ),
    "ttfb_engine": (
        "DEFAULT_STACKS", "NetworkPath", "NoiseModel", "SavingsEstimate", "StackProfile",
        "TtfbEstimate", "calibrate_minimax", "calibrate_stack_profile", "estimate_savings",
        "estimate_ttfb", "resolve_stack", "sample_ttfb",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value
