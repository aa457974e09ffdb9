"""Risk-parity allocation and daily backtesting for scored DeFi protocols.

The package splits into small layers: `domain` holds the validated value
types, `risk` builds and normalizes the score matrix, `allocate` produces
EW/TVL/ERC weights, `backtest` simulates daily-rebalanced portfolios, `rows`
reads CSV rows, `ingest` loads and saves the data, `fetch` fetches it, and
`report` turns ledgers into monthly tables and plot-ready files.
"""

from .allocate import (
    ErcSolution,
    ErcSolverOptions,
    closed_form_diagonal,
    equal_weights,
    erc_objective,
    erc_objective_gradient,
    project_to_simplex,
    solve_erc,
    tvl_weights,
)
from .backtest import (
    BacktestConfig,
    BacktestLedger,
    BacktestRow,
    ComparisonTable,
    YieldPanel,
    active_universe,
    compare_backtests,
    daily_rate,
    run_backtest,
)
from .domain import (
    DatedSeries,
    ProtocolRecord,
    Universe,
    WeightVector,
    validate_universe,
)
from .fetch import FetchSpec, fetch_remote
from .ingest import (
    DataBundle,
    load_bundle,
    load_fx,
    load_scores,
    load_yields,
    save_bundle,
)
from .report import (
    MonthlyReport,
    MonthlyReportRow,
    emit_outputs,
    monthly_avg_risk,
    monthly_performance,
    monthly_report,
    perf_risk_ratio,
)
from .risk import (
    RiskDecomposition,
    RiskMatrix,
    build_risk_matrix,
    normalize,
    portfolio_risk_report,
    risk_contributions,
)

__version__ = "0.1.0"
