"""storelab: a simulation lab for online energy-storage purchasing.

Buy energy at stochastic per-slot prices to serve a known short-horizon
demand through a capacity-limited store.  The package estimates price
statistics from historical samples, derives price bounds and purchase
thresholds, runs threshold and dynamic-programming control policies, and
measures competitive ratio, regret, and bound-violation probability with
a fully reproducible Monte Carlo harness.
"""

from .model import (
    Instance,
    InfeasibleSlotError,
    StorageSpec,
    Trajectory,
    TrajectoryBatch,
    feasible_purchase_range,
    simulate,
    simulate_batch,
)
from .prices import (
    AR1,
    Clamped,
    Empirical,
    IngestError,
    LogNormal,
    Normal,
    generate,
    ingest,
    resample,
    write_series,
)
from .estimation import (
    DegenerateSpreadError,
    EstimateReport,
    EstimationError,
    NonpositiveLowerBoundError,
    SampleStats,
    estimate,
    mu_interval,
    sample_stats,
    sigma_interval,
    three_sigma_bounds,
    threshold_price,
)
from .policies import (
    AdaptivePolicy,
    DpFamily,
    DpPolicy,
    Policy,
    ThresholdFamily,
    ThresholdPolicy,
    ValueTable,
    build_value_table,
)
from .metrics import (
    MetricRow,
    RegretReport,
    ViolationReport,
    brute_force_optimal,
    competitive_ratio,
    offline_costs,
    offline_optimal,
    regret,
)
from .config import ConfigError, ExperimentConfig, parse_config, render_config
from .experiments import bound_violation_probability

__version__ = "0.1.0"

__all__ = [
    "AR1",
    "AdaptivePolicy",
    "Clamped",
    "ConfigError",
    "DegenerateSpreadError",
    "DpFamily",
    "DpPolicy",
    "Empirical",
    "EstimateReport",
    "EstimationError",
    "ExperimentConfig",
    "InfeasibleSlotError",
    "IngestError",
    "Instance",
    "LogNormal",
    "MetricRow",
    "NonpositiveLowerBoundError",
    "Normal",
    "Policy",
    "RegretReport",
    "SampleStats",
    "StorageSpec",
    "ThresholdFamily",
    "ThresholdPolicy",
    "Trajectory",
    "TrajectoryBatch",
    "ValueTable",
    "ViolationReport",
    "bound_violation_probability",
    "brute_force_optimal",
    "build_value_table",
    "competitive_ratio",
    "estimate",
    "feasible_purchase_range",
    "generate",
    "ingest",
    "mu_interval",
    "offline_costs",
    "offline_optimal",
    "parse_config",
    "regret",
    "render_config",
    "resample",
    "sample_stats",
    "sigma_interval",
    "simulate",
    "simulate_batch",
    "three_sigma_bounds",
    "threshold_price",
    "write_series",
]
