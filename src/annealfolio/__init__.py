"""annealfolio: annealing-based asset selection, convex Sharpe-ratio
allocation, integer-share purchasing, and quarterly rebalancing backtests."""

from .allocator import (
    PortfolioMetrics,
    WeightVector,
    compute_metrics,
    derive_cardinality,
    max_sharpe_weights,
)
from .errors import InputError, SolverError
from .marketdata import (
    AssetStats,
    PriceMatrix,
    ReturnsMatrix,
    SectorMap,
    compute_returns,
    estimate_stats,
    load_prices,
    load_sectors,
)
from .model import (
    ConstrainedModel,
    IntegerEncoding,
    IsingModel,
    KSubsetModel,
    LinearConstraint,
    QuboModel,
    build_mpt_model,
    build_mvo_qubo,
    encode_integer,
    ising_energy,
    ising_to_qubo,
    penalize_equality,
    penalize_inequality,
    qubo_energy,
    qubo_to_ising,
)
from .pipeline import (
    Holdings,
    PipelineConfig,
    buy,
    optimize_integer_shares,
    portfolio_value,
    run_pipeline,
    select_assets,
    to_shares,
)
from .rebalance import (
    BacktestReport,
    HealthReport,
    RebalanceEvent,
    RebalancePolicy,
    health_check,
    rebalance_step,
    run_backtest,
)
from .sampler import (
    AnnealSchedule,
    SampleRecord,
    SampleSet,
    best_feasible,
    exhaustive_solve,
    simulated_anneal,
)

__version__ = "0.1.0"
