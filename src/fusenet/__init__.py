"""Simulator and resource planner for fusillade-based repeater chains."""

from .errors import (
    ConfigurationError,
    DesynchronizationError,
    ProtocolError,
    UnsatisfiableError,
)
from .pair_algebra import (
    Endpoint,
    IDENTITY_FRAME,
    LinkModel,
    PairRecord,
    PauliFrame,
    chain_fidelity,
    failure_prob_multi,
    min_fusiliers,
    purify3_analytic,
    success_probability,
    swap_compose_analytic,
)
from .network import (
    EndToEndRecord,
    LinkSpec,
    NetworkConfig,
    RunResult,
    Strategy,
    butterfly_split,
    run_network,
    validate_config,
)
from .metrics import PlanRow, SummaryStats, plan_table, rate_model, summarize

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "DesynchronizationError",
    "ProtocolError",
    "UnsatisfiableError",
    "Endpoint",
    "IDENTITY_FRAME",
    "LinkModel",
    "PairRecord",
    "PauliFrame",
    "chain_fidelity",
    "failure_prob_multi",
    "min_fusiliers",
    "purify3_analytic",
    "success_probability",
    "swap_compose_analytic",
    "EndToEndRecord",
    "LinkSpec",
    "NetworkConfig",
    "RunResult",
    "Strategy",
    "butterfly_split",
    "run_network",
    "validate_config",
    "PlanRow",
    "SummaryStats",
    "plan_table",
    "rate_model",
    "summarize",
    "__version__",
]
