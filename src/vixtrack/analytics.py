"""Return-dependency regressions and tracking-quality statistics.

Futures returns are regressed on spot returns over disjoint holding
periods of various lengths.  Slopes below one quantify how much less
futures move than the spot (their reciprocal is the leverage required
to replicate spot returns); increasingly negative intercepts at longer
horizons quantify the roll-down drag of an upward-sloping term
structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .static import RolledSeries

__all__ = [
    "RegressionResult",
    "SlopeTable",
    "InterceptCurve",
    "ScatterReport",
    "holding_period_returns",
    "ols_regression",
    "slope_table",
    "intercept_curve",
    "scatter_report",
]


@dataclass(frozen=True)
class RegressionResult:
    """Simple linear regression y = intercept + slope * x."""

    slope: float
    intercept: float
    slope_se: float
    intercept_se: float
    r2: float
    rmse: float
    n: int


@dataclass(frozen=True)
class SlopeTable:
    """Slopes and R^2 of futures-vs-spot return regressions, one row per
    holding period and one column per maturity rank."""

    holding_periods: tuple
    ranks: tuple
    slopes: np.ndarray
    r2s: np.ndarray

    def to_text(self) -> str:
        header = "\t".join(["stat", "days"] + [f"{r}-m" for r in self.ranks])
        lines = [header]
        for label, grid in (("slope", self.slopes), ("r2", self.r2s)):
            for i, h in enumerate(self.holding_periods):
                cells = [label, str(h)] + [f"{v:.3f}" for v in grid[i]]
                lines.append("\t".join(cells))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class InterceptCurve:
    """Regression intercepts by holding period for one maturity rank."""

    rank: int
    horizons: tuple
    intercepts: np.ndarray
    std_errors: np.ndarray


@dataclass(frozen=True)
class ScatterReport:
    """Portfolio-vs-index return regression plus a two-sided t-test of
    the slope being exactly one."""

    regression: RegressionResult
    slope_one_t: float
    slope_one_p: float


def holding_period_returns(series, h: int) -> np.ndarray:
    """Simple returns over consecutive disjoint windows of ``h`` days,
    anchored at the first observation."""
    if h <= 0:
        raise ValueError(f"holding period must be positive, got {h}")
    series = np.asarray(series, dtype=float)
    if series.size <= h:
        raise ValueError(f"series of length {series.size} too short for h={h}")
    anchors = series[:: h]
    return anchors[1:] / anchors[:-1] - 1.0


def ols_regression(x, y) -> RegressionResult:
    """Ordinary least squares of y on x with an intercept.

    RMSE is sqrt(RSS/n); standard errors are the classical
    homoskedastic ones with n-2 degrees of freedom.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("x and y must have equal length")
    n = x.size
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    x_mean = x.mean()
    y_mean = y.mean()
    sxx = float(np.sum((x - x_mean) ** 2))
    if sxx == 0:
        raise ValueError("regressor has zero variance")
    sxy = float(np.sum((x - x_mean) * (y - y_mean)))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    resid = y - intercept - slope * x
    rss = float(np.sum(resid**2))
    tss = float(np.sum((y - y_mean) ** 2))
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    s2 = rss / (n - 2)
    slope_se = np.sqrt(s2 / sxx)
    intercept_se = np.sqrt(s2 * (1.0 / n + x_mean**2 / sxx))
    return RegressionResult(
        slope=slope,
        intercept=float(intercept),
        slope_se=float(slope_se),
        intercept_se=float(intercept_se),
        r2=r2,
        rmse=float(np.sqrt(rss / n)),
        n=n,
    )


def slope_table(spot, rolled, holding_periods) -> SlopeTable:
    """Grid of futures-return-on-spot-return regression slopes and R^2
    values by holding period and maturity rank.

    ``rolled`` holds one rolled series per maturity rank, each over the
    days of ``spot``.
    """
    holding_periods = tuple(holding_periods)
    rolled = tuple(rolled)
    slopes = np.empty((len(holding_periods), len(rolled)))
    r2s = np.empty_like(slopes)
    for i, h in enumerate(holding_periods):
        x = holding_period_returns(spot, h)
        for k, series in enumerate(rolled):
            res = ols_regression(x, holding_period_returns(series.values, h))
            slopes[i, k] = res.slope
            r2s[i, k] = res.r2
    ranks = tuple(series.maturity_rank for series in rolled)
    return SlopeTable(holding_periods, ranks, slopes, r2s)


def intercept_curve(spot, rolled: RolledSeries, horizons) -> InterceptCurve:
    """Regression intercept (with standard error) per holding period for
    a rolling position in one maturity rank, over the days of ``spot``."""
    horizons = tuple(horizons)
    intercepts = np.empty(len(horizons))
    ses = np.empty(len(horizons))
    for i, h in enumerate(horizons):
        x = holding_period_returns(spot, h)
        res = ols_regression(x, holding_period_returns(rolled.values, h))
        intercepts[i] = res.intercept
        ses[i] = res.intercept_se
    return InterceptCurve(rolled.maturity_rank, horizons, intercepts, ses)


def scatter_report(portfolio_returns, index_returns) -> ScatterReport:
    """Regress portfolio returns on index returns and test slope = 1."""
    res = ols_regression(index_returns, portfolio_returns)
    if res.slope_se == 0.0:
        # exact fit: the slope either is one or provably is not
        t = 0.0 if res.slope == 1.0 else float("inf")
    else:
        t = (res.slope - 1.0) / res.slope_se
    # two-sided Student-t tail: stdtr is the t CDF, so this is 2 * sf(|t|)
    p = 2.0 * float(special.stdtr(res.n - 2, -abs(t)))
    return ScatterReport(regression=res, slope_one_t=t, slope_one_p=p)
