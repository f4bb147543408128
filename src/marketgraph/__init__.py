"""marketgraph: learning undirected weighted graphs from financial return data.

Estimates graph Laplacian precision matrices under the attractive improper
GMRF model, including k-component and causal time-varying estimation,
spectral market indicators, and a connectivity-gated backtest.
"""

from .analytics import (
    BacktestResult,
    IndicatorSeries,
    compute_indicators,
    cumulative_pnl,
    strategy_s1,
    strategy_s2,
)
from .laplacian import (
    DisconnectedGraphWarning,
    SpectralSummary,
    laplacian_from_weights,
    num_components,
    spectral_summary,
    time_consistency,
    weights_from_laplacian,
)
from .preprocessing import (
    MarketRemoval,
    PricePanel,
    ReturnsPanel,
    correlation_from_covariance,
    distance_matrix,
    log_returns,
    normalize_columns,
    remove_market_factor,
    rolling_windows,
    sample_covariance,
)
from .solvers import (
    SolveReport,
    SolverConfig,
    fan_subspace,
    learn_connected_mle,
    learn_k_component,
    learn_smooth_graph,
    learn_time_varying,
    solve_l_subproblem,
)
from .synthetic import (
    FactorMarketSim,
    PlantedGraph,
    RecoveryScore,
    random_k_component_graph,
    sample_gmrf,
    score_recovery,
    simulate_factor_market,
)

__version__ = "0.1.0"

__all__ = [
    "BacktestResult",
    "DisconnectedGraphWarning",
    "FactorMarketSim",
    "IndicatorSeries",
    "MarketRemoval",
    "PlantedGraph",
    "PricePanel",
    "RecoveryScore",
    "ReturnsPanel",
    "SolveReport",
    "SolverConfig",
    "SpectralSummary",
    "compute_indicators",
    "correlation_from_covariance",
    "cumulative_pnl",
    "distance_matrix",
    "fan_subspace",
    "laplacian_from_weights",
    "learn_connected_mle",
    "learn_k_component",
    "learn_smooth_graph",
    "learn_time_varying",
    "log_returns",
    "normalize_columns",
    "num_components",
    "random_k_component_graph",
    "remove_market_factor",
    "rolling_windows",
    "sample_covariance",
    "sample_gmrf",
    "score_recovery",
    "simulate_factor_market",
    "solve_l_subproblem",
    "spectral_summary",
    "strategy_s1",
    "strategy_s2",
    "time_consistency",
    "weights_from_laplacian",
    "__version__",
]
