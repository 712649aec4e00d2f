"""Forecasting chaotic systems with polynomial delay-embedding features.

A tiny reservoir-computing variant: the reservoir is replaced by an
explicit feature vector made of time-delayed state copies and their
low-order monomials, trained with ridge regression. The package covers
training, closed-loop forecasting, hidden-component inference, the two
reference chaotic systems, attractor-level verification metrics and a
conventional recurrent reservoir baseline for cost comparisons.
"""

from .baseline import (
    CostParams,
    Reservoir,
    ReservoirError,
    ReservoirParams,
    build_reservoir,
    estimate_cost,
    quadratic_readout_features,
    reservoir_run,
    training_cost_ngrc,
    training_cost_rc,
)
from .features import (
    FeatureSpec,
    WarmupError,
    feature_block,
    feature_length,
    feature_names,
    monomial_exponent_table,
    total_features,
)
from .model import (
    Mode,
    NgrcModel,
    forecast,
    from_document,
    infer,
    load_model,
    save_model,
    to_document,
    train_forecaster,
    train_inferrer,
)
from .regression import (
    ReadoutMatrix,
    SingularSystemError,
    TrainingBlock,
    ridge_fit,
)
from .systems import (
    IntegrationConfig,
    IntegrationError,
    SystemDef,
    double_scroll,
    integrate,
    integrate_noisy,
    lorenz63,
    lorenz_uss,
    on_attractor_state,
    solve_double_scroll_uss,
)
from .timeseries import TimeSeries
from .verify import (
    ReturnMap,
    ReturnMapError,
    ScalingVector,
    UssEntry,
    estimate_model_uss,
    extract_return_map,
    instantaneous_nrmse,
    nrmse,
    return_map_deviation,
    training_nrmse,
    uss_report,
    valid_time,
)

__version__ = "0.1.0"

__all__ = [
    "CostParams",
    "FeatureSpec",
    "IntegrationConfig",
    "IntegrationError",
    "Mode",
    "NgrcModel",
    "ReadoutMatrix",
    "Reservoir",
    "ReservoirError",
    "ReservoirParams",
    "ReturnMap",
    "ReturnMapError",
    "ScalingVector",
    "SingularSystemError",
    "SystemDef",
    "TimeSeries",
    "TrainingBlock",
    "UssEntry",
    "WarmupError",
    "build_reservoir",
    "double_scroll",
    "estimate_cost",
    "estimate_model_uss",
    "extract_return_map",
    "feature_block",
    "feature_length",
    "feature_names",
    "forecast",
    "from_document",
    "infer",
    "instantaneous_nrmse",
    "integrate",
    "integrate_noisy",
    "load_model",
    "lorenz63",
    "lorenz_uss",
    "monomial_exponent_table",
    "nrmse",
    "on_attractor_state",
    "quadratic_readout_features",
    "reservoir_run",
    "return_map_deviation",
    "ridge_fit",
    "save_model",
    "solve_double_scroll_uss",
    "to_document",
    "total_features",
    "train_forecaster",
    "train_inferrer",
    "training_cost_ngrc",
    "training_cost_rc",
    "training_nrmse",
    "uss_report",
    "valid_time",
]
