"""Path simulation, simulated futures curves, and strategy wealth evolution.

The index follows the explicit Euler recursion

    S[j+1] = S[j] + mu*(theta - S[j])*dt + g(S[j])*sqrt(dt)*Z[j+1]

with i.i.d. standard normal shocks, dt = ``model.DT`` and the local
volatility ``g`` the engine is given (``simulate`` passes
``LocalVol.square_root(hist.sigma)``).  Monthly contracts mature every
``model.CYCLE_DAYS`` trading days, so rank r on day j is the contract
maturing on day CYCLE_DAYS * (j // CYCLE_DAYS + r) on every path:
:meth:`SimulatedCurves.held` computes a rank's held maturity for a
(paths, days) batch in closed form and prices only it, through
:func:`~vixtrack.model.futures_price`, with no ttm matrix and no
(paths, days, contracts) array.  Loaded quotes supply the same held
leg, rolling early where its quotes stop before settlement
(:meth:`~vixtrack.data.PricePanel.held`).  :func:`held_pair` joins two
legs of either market, so :func:`track` is the one run of the dynamic
tracker and the VXX-style roll on both.  A two-contract strategy is the
weight on the first of the pair, per path and day or per day for every
path; its wealth is one self-financing mark-to-market recursion along
the days of all paths.

RNG convention: path k of a multi-path run draws its normals from the
k-th child of ``SeedSequence(seed)`` into its own row of one batch,
which the recursion then advances a day at a time for all paths at
once; so a path is the same alone on its child or in any batch.  The
recursion works in place on that one (paths, days + 1) block: day j's
column holds its shocks until the step overwrites them with its
levels, the step's terms go through two (paths,) scratch arrays, and
one minimum a day tells whether any path needs the floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamic import optimal_weight, tracking_coefficients
from .errors import DataError, require
from .model import (
    CYCLE_DAYS,
    DT,
    TRADING_DAYS_PER_YEAR,
    HistoricalParams,
    LocalVol,
    RiskNeutralParams,
    futures_price,
)

__all__ = [
    "IndexPath",
    "simulate_index_paths",
    "SimulatedCurves",
    "held_pair",
    "hold_pair",
    "vxx_front_weights",
    "track",
]

# Floor applied when a Euler step proposes a nonpositive index level.
SPOT_FLOOR = 1e-8


@dataclass(frozen=True)
class IndexPath:
    """A simulated index path on a daily grid, from ``values[0]`` on,
    and the number of its Euler steps clamped to the positive floor."""

    values: np.ndarray
    n_clamped: int = 0


def simulate_index_paths(
    hist: HistoricalParams,
    g: LocalVol,
    s0,
    n_days: int,
    n_paths: int,
    seed,
) -> list:
    """Simulate ``n_paths`` independent paths over ``n_days`` steps
    (n_days + 1 values each) from one level ``s0`` or one per path.

    Path ``k`` is driven by the ``k``-th child of ``SeedSequence(seed)``:
    row k of the batch first holds that child's normals.  Every path
    advances together, one day column at a time and in place: ``g`` is
    called once a day on the whole batch, and the day's levels
    overwrite its shocks.  A step that lands below a small positive
    floor is clamped to it; the day's minimum tells whether any did.
    Returns one :class:`IndexPath` per path, a view of its row, with
    its clamp count; identical arguments give bit-identical paths.

    Raises
    ------
    ValueError
        If ``n_days`` is below 1, or a start is not positive and finite.
    """
    if n_days < 1:
        raise ValueError(f"n_days must be >= 1, got {n_days}")
    seeds = np.random.SeedSequence(seed).spawn(n_paths)
    values = np.empty((n_paths, n_days + 1))
    values[:, 0] = s0
    if not np.all((values[:, 0] > 0) & (values[:, 0] < np.inf)):
        raise ValueError(f"s0 must be positive and finite, got {s0}")
    for row, child in zip(values, seeds):
        np.random.default_rng(child).standard_normal(out=row[1:])
    sqrt_dt = np.sqrt(DT)
    n_clamped = np.zeros(n_paths, dtype=int)
    drift, shock = np.empty(n_paths), np.empty(n_paths)
    days = values.T
    s = days[0]
    for day in days[1:]:
        # day holds its shocks Z on entry and its levels on exit
        np.subtract(hist.theta, s, out=drift)
        drift *= hist.mu
        drift *= DT
        drift += s
        np.multiply(g(s), sqrt_dt, out=shock)
        shock *= day
        np.add(drift, shock, out=day)
        # a NaN min takes the exact branch, so it cannot skip a clamp
        if not np.minimum.reduce(day, initial=np.inf) >= SPOT_FLOOR:
            clamped = day < SPOT_FLOOR
            day[clamped] = SPOT_FLOOR
            n_clamped += clamped
        s = day
    return [IndexPath(row, int(n)) for row, n in zip(values, n_clamped)]


class SimulatedCurves:
    """Monthly futures curves of simulated index paths, priced only
    where a strategy holds a contract.

    ``spot`` holds one path, or one row per path, on days 0, 1, ...;
    contract k (1-based) matures on day ``CYCLE_DAYS * k``, with as
    many contracts as the ranks held need.  ``mm_value`` (growing by
    e^(r*dt) a day at the continuously compounded annual rate ``r``)
    serves every path.
    """

    def __init__(self, spot, rn: RiskNeutralParams, r: float):
        self.spot = np.asarray(spot, dtype=float)
        self.rn = rn
        self.mm_value = np.exp(r * DT * np.arange(self.spot.shape[-1]))

    def held(self, rank: int) -> tuple:
        """As :meth:`~vixtrack.data.PricePanel.held`, on every path:
        rank r over day j -> j+1 holds the contract maturing on day
        T = CYCLE_DAYS * (j // CYCLE_DAYS + r), with ttm (T - j) / 252
        today and (T - j - 1) / 252 tomorrow, as the loader counts it.
        Returns T and the ttm, (days - 1,), the prices today and
        tomorrow, (..., days - 1), and no early roll.

        Raises
        ------
        DataError
            If the rank is below 1.
        """
        if rank < 1:
            raise DataError(f"rank {rank} not available: ranks are 1-based")
        day = np.arange(self.spot.shape[-1] - 1)
        maturity = CYCLE_DAYS * (day // CYCLE_DAYS + rank)
        left = maturity - day
        ttm = left / TRADING_DAYS_PER_YEAR
        today = futures_price(self.spot[..., :-1], ttm, self.rn)
        tomorrow = futures_price(self.spot[..., 1:], (left - 1) / TRADING_DAYS_PER_YEAR, self.rn)
        return maturity, ttm, today, tomorrow, 0


def held_pair(market, i1: int, i2: int) -> tuple:
    """The contracts that maturity ranks ``i1`` and ``i2`` hold over
    each day j -> j+1 on ``market`` (its ``held`` legs): their ttms on
    day j, (days - 1, 2), and their prices on days j and j+1,
    (..., days - 1, 2).

    Raises
    ------
    DataError
        As ``held`` for either rank, or naming the first day an early
        roll leaves two different ranks on one contract.
    """
    (key1, *leg1, _), (key2, *leg2, _) = market.held(i1), market.held(i2)
    shared = np.flatnonzero((key1 == key2) & (i1 != i2))
    if shared.size:
        day = shared[0]
        raise DataError(f"ranks {i1} and {i2} both hold {key1[day]} on day {day}")
    return tuple(np.stack(pair, axis=-1) for pair in zip(leg1, leg2))


def hold_pair(w1, today: np.ndarray, tomorrow: np.ndarray, mm_value: np.ndarray) -> np.ndarray:
    """Wealth of holding ``w1[j]`` of it in the first contract of a held
    pair and the rest in the second over each day j -> j+1, by

    x[j+1] = x[j] * (M[j+1] / M[j] + sum_k w[j, k] * (f'[j, k] / f[j, k] - 1))

    from x[0] = 100: the full wealth sits on margin earning the
    money-market return, and each contract adds its price change times
    the units held, so wealth may go negative under leverage.
    ``today`` and ``tomorrow`` are :func:`held_pair`'s (..., days - 1, 2)
    prices f and f', for one path or one per leading index; one series
    ``w1`` and the account values M serve every path.  The ranks count
    contracts with ttm > 0 on day j, so the holder earns a maturing
    contract's settlement at f = S.  Returns (..., days) wealth.
    """
    today, tomorrow, mm_value = (np.asarray(a, dtype=float) for a in (today, tomorrow, mm_value))
    if today.ndim < 2 or today.shape[-1] != 2 or today.shape != tomorrow.shape:
        raise ValueError("prices must be (..., days, 2) arrays of one shape")
    if mm_value.shape != (today.shape[-2] + 1,):
        raise ValueError("need one money-market value per day")
    if np.any(today == 0):
        raise ZeroDivisionError("zero futures price in today's quotes")
    w1 = np.broadcast_to(w1, today.shape[:-1])
    weights = np.stack([w1, 1.0 - w1], axis=-1)
    growth = mm_value[1:] / mm_value[:-1] + np.sum(weights * (tomorrow / today - 1.0), axis=-1)
    start = np.full(growth.shape[:-1] + (1,), 100.0)
    return np.cumprod(np.concatenate([start, growth], axis=-1), axis=-1)


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


def track(market, ranks, beta: float, hist: HistoricalParams, rn: RiskNeutralParams) -> tuple:
    """The dynamic tracker of ``beta`` times the index on the pair
    ``ranks`` and the VXX-style roll on ranks (1, 2), on a ``market``
    with ``spot``, ``mm_value`` and ``held`` (a loaded
    :class:`~vixtrack.data.PricePanel` or :class:`SimulatedCurves`),
    each pair read by :func:`held_pair`.

    Day j's cash return M[j+1] / M[j] - 1 is known on day j.  Returns
    ``(w_dyn, w_vxx, wealth)``: the dynamic weight on ``ranks[0]``,
    (..., days - 1), the roll's front weight, (days - 1,), and their
    wealth, (..., 2, days), dynamic row first.  A weight past float
    range leaves the dynamic wealth non-finite from the next day on;
    the caller judges it.
    """
    mm = market.mm_value
    ttm, today, tomorrow = held_pair(market, *ranks)
    c = tracking_coefficients(
        market.spot[..., :-1], ttm[:, 0], ttm[:, 1], beta, hist, rn, mm[1:] / mm[:-1] - 1.0
    )
    w_dyn, _ = optimal_weight(c)
    with np.errstate(over="ignore", invalid="ignore"):
        wealth_dyn = hold_pair(w_dyn, today, tomorrow, mm)
    ttm, today, tomorrow = held_pair(market, 1, 2)
    w_vxx = vxx_front_weights(ttm)
    return w_dyn, w_vxx, np.stack([wealth_dyn, hold_pair(w_vxx, today, tomorrow, mm)], axis=-2)
