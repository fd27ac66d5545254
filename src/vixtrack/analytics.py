"""Return-dependency regressions and tracking-quality statistics.

Futures returns are regressed on spot returns over disjoint holding
periods of various lengths.  Slopes below one quantify how much less
futures move than the spot (their reciprocal is the leverage required
to replicate spot returns); increasingly negative intercepts at longer
horizons quantify the roll-down drag of an upward-sloping term
structure.

Several series are regressed in one call: they are the rows of a
``(series, days)`` array, on one regressor or on one per row, and every
statistic reduces along the last axis.  numpy sums a contiguous last
axis pairwise, as it sums a 1-D array, so each row's fit is
bit-identical to fitting that row alone; a ``(days, series)`` layout
would sum ``axis=0`` sequentially and differ in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RegressionResult",
    "holding_period_returns",
    "ols_regression",
    "slope_one_p",
]


@dataclass(frozen=True)
class RegressionResult:
    """Simple linear regressions y = intercept + slope * x, one per row of
    x and y broadcast: each field but ``n`` is a scalar for 1-D x and y
    and an array otherwise."""

    slope: np.ndarray
    intercept: np.ndarray
    slope_se: np.ndarray
    intercept_se: np.ndarray
    r2: np.ndarray
    rmse: np.ndarray
    n: int


def holding_period_returns(series, h: int) -> np.ndarray:
    """Simple returns over consecutive disjoint windows of ``h`` days
    along the last axis, anchored at the first observation."""
    if h <= 0:
        raise ValueError(f"holding period must be positive, got {h}")
    series = np.asarray(series, dtype=float)
    if series.shape[-1] <= h:
        raise ValueError(f"series of length {series.shape[-1]} too short for h={h}")
    anchors = series[..., ::h]
    return anchors[..., 1:] / anchors[..., :-1] - 1.0


def ols_regression(x, y) -> RegressionResult:
    """Ordinary least squares with an intercept of each row of ``y``,
    shape ``(..., n)``, on the matching row of ``x``, shape ``(..., n)``
    and broadcast against ``y`` (a 1-D ``x`` serves every row).

    RMSE is sqrt(RSS/n); standard errors are the classical
    homoskedastic ones with n-2 degrees of freedom.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim == 0 or y.shape[-1:] != x.shape[-1:]:
        raise ValueError("x and y must have equal length")
    n = x.shape[-1]
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    x_mean = x.mean(axis=-1)
    y_mean = y.mean(axis=-1)
    sxx = np.sum((x - x_mean[..., None]) ** 2, axis=-1)
    if np.any(sxx == 0):
        raise ValueError("regressor has zero variance")
    sxy = np.sum((x - x_mean[..., None]) * (y - y_mean[..., None]), axis=-1)
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    rss = np.sum((y - intercept[..., None] - slope[..., None] * x) ** 2, axis=-1)
    tss = np.sum((y - y_mean[..., None]) ** 2, axis=-1)
    r2 = 1.0 - rss / np.where(tss > 0, tss, np.inf)  # a constant y is fitted exactly
    s2 = rss / (n - 2)
    return RegressionResult(
        slope=slope,
        intercept=intercept,
        slope_se=np.sqrt(s2 / sxx),
        intercept_se=np.sqrt(s2 * (1.0 / n + x_mean**2 / sxx)),
        r2=r2,
        rmse=np.sqrt(rss / n),
        n=n,
    )


def slope_one_p(res: RegressionResult):
    """Two-sided Student-t p-value of each fitted slope being exactly one."""
    from scipy import special

    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.abs(res.slope - 1.0) / res.slope_se
    # an exact fit (slope_se = 0) has t = 0 at slope one and t = inf otherwise
    t = np.where((res.slope_se == 0.0) & (res.slope == 1.0), 0.0, t)
    return 2.0 * special.stdtr(res.n - 2, -t)  # stdtr is the t CDF: 2 * sf(t)
