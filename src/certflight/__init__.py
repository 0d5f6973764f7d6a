"""Certificate chain size vs TLS handshake latency toolkit.

Models how certificate chain size pushes TLS handshakes past congestion
window limits into extra round trips, estimates the resulting TTFB,
forges size-exact test chains, and aggregates TLS connection logs by
endpoint class.
"""

from .chain_model import (
    DEFAULT_KB_BYTES,
    DEFAULT_OPTIMIZERS,
    DEFAULT_SCHEMES,
    ChainSpec,
    MerkleParams,
    SchemeProfile,
    SizeOptimizer,
    chain_size_kb,
    effective_size_kb,
    merkle_proof_bytes,
    resolve_scheme,
)
from .cert_forge import (
    DerCertTemplate,
    ForgedChain,
    ForgedCert,
    ParseReport,
    forge_chain,
    pad_to_size,
    parse_and_measure,
    write_chain,
)
from .config import Config, load_config, resolve_config, save_config
from .errors import CalibrationError, ConfigError, LogFormatError, PaddingError
from .sweep_runner import (
    OptimizationRegion,
    SavingsEstimate,
    SweepPlan,
    compute_regions,
    emit_csv,
    estimate_savings,
    run_sweep,
)
from .tls_log_analytics import (
    AsnMap,
    ParseStats,
    ResumptionStats,
    TlsLogRecord,
    aggregate_stats,
    merge_stats,
    parse_log_stream,
    rate_correlation,
    time_series,
)
from .transport_flight import (
    ANALYTIC,
    EMPIRICAL,
    FlightModel,
    cumulative_capacity_bytes,
    extra_rtts,
    find_thresholds,
)
from .ttfb_engine import (
    DEFAULT_STACKS,
    NetworkPath,
    NoiseModel,
    StackProfile,
    TtfbEstimate,
    calibrate_minimax,
    calibrate_stack_profile,
    estimate_ttfb,
    resolve_stack,
    sample_ttfb,
)

__version__ = "0.1.0"
