"""Mean-reverting volatility-index model: futures pricing, calibration,
and index-tracking futures portfolios (static and dynamic).

scipy is imported only inside the functions that call it, so the
package imports with numpy alone."""

__version__ = "0.1.0"

from .analytics import holding_period_returns, ols_regression, slope_one_p
from .calibrate import (
    average_log_likelihood,
    cir_log_density,
    initial_guess_from_moments,
    log_bessel_i,
    mle_fit,
    mom_fit,
    mom_loss,
)
from .data import PricePanel, load_panel, rank_columns, split_day
from .dynamic import (
    TrackingCoefficients,
    expected_sq_error,
    optimal_weight,
    tracking_coefficients,
)
from .errors import (
    CalibrationError,
    DataError,
    DegenerateProblemError,
)
from .model import (
    HistoricalParams,
    LocalVol,
    RiskNeutralParams,
    b_coefficient,
    critical_spot,
    futures_price,
)
from .simulate import (
    SimulatedCurves,
    hold_pair,
    simulate_index_paths,
    track,
    vxx_front_weights,
)
from .static import (
    RolledSeries,
    StaticWeights,
    build_rolled_series,
    evaluate_rmse,
    solve_constrained_ls,
    static_portfolio,
)

__all__ = [name for name in dir() if not name.startswith("_")]
