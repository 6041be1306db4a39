"""Sequential structural damage detection and localization from vibration data."""

from .detector import (
    DetectorState,
    GaussianParams,
    GeometricPrior,
    detect,
    expected_delay,
    log_density,
    update,
)
from .errors import (
    ConfigError,
    DegenerateDelay,
    DimensionMismatch,
    EigenFailure,
    EmptyStream,
    EstimatesUnready,
    InsufficientTraining,
    NonFiniteSignal,
    NotPositiveDefinite,
    ShmSeqError,
    SingularDesign,
    ZeroVariance,
)
from .estimator import (
    AdaptiveDetector,
    estimate_params,
    exact_log_posterior,
    fit_predamage,
    jensen_lower_bound,
)
from .features import (
    ArModel,
    DsfConfig,
    SignalChunk,
    extract_dsf_stream,
    fit_ar,
    normalize_chunk,
    select_order,
)
from .localization import LocalizationReport, SensorOutcome, build_report, kl_gaussian
from .pipeline import PipelineConfig
from .shearsim import (
    DamageScenario,
    Excitation,
    ShearFrameModel,
    modal_frequencies,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveDetector",
    "ArModel",
    "ConfigError",
    "DamageScenario",
    "DegenerateDelay",
    "DetectorState",
    "DimensionMismatch",
    "DsfConfig",
    "EigenFailure",
    "EmptyStream",
    "EstimatesUnready",
    "Excitation",
    "GaussianParams",
    "GeometricPrior",
    "InsufficientTraining",
    "LocalizationReport",
    "NonFiniteSignal",
    "NotPositiveDefinite",
    "PipelineConfig",
    "SensorOutcome",
    "ShearFrameModel",
    "ShmSeqError",
    "SignalChunk",
    "SingularDesign",
    "ZeroVariance",
    "build_report",
    "detect",
    "estimate_params",
    "exact_log_posterior",
    "expected_delay",
    "extract_dsf_stream",
    "fit_ar",
    "fit_predamage",
    "jensen_lower_bound",
    "kl_gaussian",
    "log_density",
    "modal_frequencies",
    "normalize_chunk",
    "select_order",
    "simulate",
    "update",
]
