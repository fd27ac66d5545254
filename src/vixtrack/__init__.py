"""Mean-reverting volatility-index model: futures pricing, calibration,
and index-tracking futures portfolios (static and dynamic)."""

__version__ = "0.1.0"

from .analytics import (
    InterceptCurve,
    RegressionResult,
    ScatterReport,
    SlopeTable,
    holding_period_returns,
    intercept_curve,
    ols_regression,
    scatter_report,
    slope_table,
)
from .calibrate import (
    MLEReport,
    MOMReport,
    average_log_likelihood,
    cir_log_density,
    initial_guess_from_moments,
    log_bessel_i,
    mle_fit,
    mom_fit,
    mom_loss,
)
from .data import PricePanel, load_panel, normalize_to_100, split_in_out
from .dynamic import (
    TrackingCoefficients,
    TrackingConfig,
    dynamic_weights,
    expected_sq_error,
    optimal_weight,
    tracking_coefficients,
)
from .errors import (
    CalibrationError,
    DataError,
    DegenerateProblemError,
    VolatilitySingularityError,
)
from .model import (
    HistoricalParams,
    LocalVol,
    MarketConfig,
    RiskNeutralParams,
    b_coefficient,
    critical_spot,
    futures_price,
    market_price_of_risk,
)
from .simulate import (
    IndexPath,
    PortfolioPath,
    evolve_wealth,
    futures_panel_from_path,
    hold_pair,
    simulate_index_path,
    simulate_index_paths,
    vxx_front_weights,
    vxx_roll_weights,
)
from .static import (
    DesignMatrix,
    RolledSeries,
    StaticWeights,
    build_design_matrix,
    build_rolled_series,
    evaluate_rmse,
    price_tracking_portfolio,
    return_tracking_portfolio,
    solve_constrained_ls,
)

__all__ = [name for name in dir() if not name.startswith("_")]
