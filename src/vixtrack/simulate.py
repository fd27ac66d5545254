"""Path simulation, simulated futures curves, and strategy wealth evolution.

The index follows the explicit Euler recursion

    S[j+1] = S[j] + mu*(theta - S[j])*dt + g(S[j])*sqrt(dt)*Z[j+1]

with i.i.d. standard normal shocks, dt = ``model.DT`` and the local
volatility ``g`` the engine is given (every subcommand passes
``LocalVol.square_root(hist.sigma)``).  Monthly contracts mature every
``model.CYCLE_DAYS`` trading days, so the ttms and the money market
are the same for every path: :class:`SimulatedCurves` fixes them once
for a (paths, days) batch and prices, from the closed form in
:mod:`vixtrack.model`, only the two contracts held over each day, with
no (paths, days, contracts) array.  Loaded quotes supply the same held
pair (:meth:`~vixtrack.data.PricePanel.held_pair`) to the same
trackers.  A two-contract strategy (the dynamic tracker, the VXX-style
roll) is an array of the weight on the first of the pair, per path and
day or per day for every path, and its wealth comes from one
self-financing mark-to-market recursion along the days of all paths.

RNG convention: path k of a multi-path run draws its normals from the
k-th child of ``SeedSequence(seed)`` into its own row of one batch,
which the recursion then advances a day at a time for all paths at
once; so a path is the same alone on its child or in any batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import rank_columns
from .errors import require
from .model import (
    CYCLE_DAYS,
    DT,
    TRADING_DAYS_PER_YEAR,
    HistoricalParams,
    LocalVol,
    RiskNeutralParams,
)

__all__ = [
    "IndexPath",
    "simulate_index_path",
    "simulate_index_paths",
    "SimulatedCurves",
    "evolve_wealth",
    "hold_pair",
    "vxx_front_weights",
]

# Floor applied when a Euler step proposes a nonpositive index level.
SPOT_FLOOR = 1e-8


@dataclass(frozen=True)
class IndexPath:
    """A simulated index path on a daily grid, from ``values[0]`` on,
    and the number of its Euler steps clamped to the positive floor."""

    values: np.ndarray
    n_clamped: int = 0


def _euler_paths(hist: HistoricalParams, g: LocalVol, s0, seeds, n_days: int) -> list:
    """Euler-step one path per seed, all paths together, from one level
    ``s0`` or one per path.  Row k of the batch first holds the normals
    of ``default_rng(seeds[k])``; each day's levels overwrite that day's
    shocks.  Returns one :class:`IndexPath` per row, a view of it."""
    if n_days < 1:
        raise ValueError(f"n_days must be >= 1, got {n_days}")
    values = np.empty((len(seeds), n_days + 1))
    values[:, 0] = s0
    if not np.all(values[:, 0] > 0):
        raise ValueError(f"s0 must be positive, got {s0}")
    for row, seed in zip(values, seeds):
        np.random.default_rng(seed).standard_normal(out=row[1:])
    sqrt_dt = np.sqrt(DT)
    n_clamped = np.zeros(len(seeds), dtype=int)
    s = values[:, 0]
    for j in range(1, n_days + 1):
        s = s + hist.mu * (hist.theta - s) * DT + g(s) * sqrt_dt * values[:, j]
        clamped = s < SPOT_FLOOR
        s[clamped] = SPOT_FLOOR
        n_clamped += clamped
        values[:, j] = s
    return [IndexPath(row, int(n)) for row, n in zip(values, n_clamped)]


def simulate_index_path(
    hist: HistoricalParams,
    g: LocalVol,
    s0: float,
    n_days: int,
    seed,
) -> IndexPath:
    """Simulate one index path over ``n_days`` steps (n_days+1 values).

    A step that lands at or below zero is clamped to a small positive
    floor; the number of clamps is recorded on the returned path.
    Identical (parameters, seed, n_days) give bit-identical paths.
    """
    return _euler_paths(hist, g, s0, [seed], n_days)[0]


def simulate_index_paths(
    hist: HistoricalParams,
    g: LocalVol,
    s0,
    n_days: int,
    n_paths: int,
    seed,
) -> list:
    """Simulate ``n_paths`` independent paths from one level or one per path.

    Path ``k`` is driven by the ``k``-th child of ``SeedSequence(seed)``,
    so it equals ``simulate_index_path`` run alone on that child.
    """
    return _euler_paths(hist, g, s0, np.random.SeedSequence(seed).spawn(n_paths), n_days)


class SimulatedCurves:
    """Monthly futures curves of simulated index paths, priced only
    where a strategy holds a contract.

    ``spot`` holds one path, or one row per path, on days 0, 1, ...;
    contract k (1-based) matures on day ``CYCLE_DAYS * k``.  ``ttms``
    (days x contracts, (T_k - j) / 252 as the loader counts it, NaN
    past maturity) and ``mm_value`` (growing by e^(r*dt) a day at the
    continuously compounded annual rate ``r``) serve every path.
    """

    def __init__(self, spot, n_contracts: int, rn: RiskNeutralParams, r: float):
        self.spot = np.asarray(spot, dtype=float)
        self.rn = rn
        n = self.spot.shape[-1]
        last = CYCLE_DAYS * n_contracts
        if n - 1 > last:
            raise ValueError(f"path spans {n - 1} days but the last maturity is day {last}")
        days = np.arange(n)
        maturity_days = CYCLE_DAYS * np.arange(1, n_contracts + 1)
        self.ttms = (maturity_days[None, :] - days[:, None]) / TRADING_DAYS_PER_YEAR
        self.ttms[self.ttms < 0] = np.nan
        self.mm_value = np.exp(r * DT * days)

    def held_pair(self, i1: int, i2: int) -> tuple:
        """As :meth:`~vixtrack.data.PricePanel.held_pair`, with prices
        f = theta_tilde + (S - theta_tilde) * exp(-mu_tilde * ttm) on
        every path: (..., days - 1, 2); the ttms are (days - 1, 2)."""
        cols = rank_columns(self.ttms, i1, i2)
        ttm, ttm_next = (
            np.take_along_axis(t, cols, axis=1) for t in (self.ttms[:-1], self.ttms[1:])
        )
        tt = self.rn.theta_tilde
        today, tomorrow = (
            tt + (s[..., None] - tt) * np.exp(-self.rn.mu_tilde * t)
            for s, t in ((self.spot[..., :-1], ttm), (self.spot[..., 1:], ttm_next))
        )
        return ttm, today, tomorrow


def evolve_wealth(
    weights: np.ndarray,
    today: np.ndarray,
    tomorrow: np.ndarray,
    mm_value: np.ndarray,
) -> np.ndarray:
    """Wealth of a daily-rebalanced futures portfolio.

    x[j+1] = x[j] * (M[j+1] / M[j] + sum_k w[j, k] * (f'[j, k] / f[j, k] - 1))

    from x[0] = 100.  Row ``j`` of the (..., days - 1, k) arrays holds
    the weights and the day-``j`` and day-``j+1`` prices of the held
    contracts, for one path or one per leading index, and ``mm_value``
    holds the days' values M of the money-market account, shared by
    every path.  The full wealth sits on margin earning the account's
    return; each contract contributes its price change times the units
    held.  Returns (..., days) wealth.
    """
    weights, today, tomorrow, mm_value = (
        np.asarray(a, dtype=float) for a in (weights, today, tomorrow, mm_value)
    )
    if weights.ndim < 2 or not (weights.shape == today.shape == tomorrow.shape):
        raise ValueError("weights and prices must be (..., days, contracts) arrays of one shape")
    if mm_value.shape != (weights.shape[-2] + 1,):
        raise ValueError("need one money-market value per day")
    if np.any(today == 0):
        raise ZeroDivisionError("zero futures price in today's quotes")
    growth = mm_value[1:] / mm_value[:-1] + np.sum(weights * (tomorrow / today - 1.0), axis=-1)
    start = np.full(growth.shape[:-1] + (1,), 100.0)
    return np.cumprod(np.concatenate([start, growth], axis=-1), axis=-1)


def hold_pair(w1, today: np.ndarray, tomorrow: np.ndarray, mm_value: np.ndarray) -> np.ndarray:
    """Wealth, from 100 on the first day, of holding ``w1[j]`` of it in
    the first contract of a held pair and the rest in the second over
    each day j -> j+1, earning the money-market return; it may go
    negative under leverage.  ``today`` and ``tomorrow`` come from a
    ``held_pair``, whose ranks count contracts with ttm > 0 on day j,
    so the holder earns a maturing contract's settlement at f = S.  One
    series ``w1`` may serve every path.
    """
    w1 = np.broadcast_to(w1, today.shape[:-1])
    return evolve_wealth(np.stack([w1, 1.0 - w1], axis=-1), today, tomorrow, mm_value)


def vxx_front_weights(ttm: np.ndarray) -> np.ndarray:
    """Front-contract weight of the VXX-style linear roll on each day
    but the last (the second contract gets the rest), from the ttms of
    the front two contracts on those days, (days - 1, 2).

    A cycle runs from one front expiry to the next.  Its length is the
    gap between the front two maturities, and the day in the cycle is
    that length minus the days left to the front's expiry, all in whole
    trading days.  The front weight falls linearly from 1 at the start
    of the cycle to 0 at its end.

    Raises
    ------
    ValueError
        If, naming the first such day, the day falls outside its cycle.
    """
    days = np.rint(ttm / DT).astype(int)
    cycle_length = days[:, 1] - days[:, 0]
    day_in_cycle = cycle_length - days[:, 0]
    require(
        (0 <= day_in_cycle) & (day_in_cycle <= cycle_length), ValueError,
        "day_in_cycle must lie in [0, {:g}], got {:g}", cycle_length, day_in_cycle,
    )
    return 1.0 - day_in_cycle / cycle_length
